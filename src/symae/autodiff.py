"""Reverse-mode differentiation over dense numpy arrays.

The tape is the implicit graph of :class:`Var` nodes: every operation
evaluates its numpy result eagerly and records a vector-Jacobian closure,
so control flow in client code may inspect intermediate values.  Calling
:func:`backward` on a scalar root walks the graph once in reverse
topological order and accumulates adjoints into ``Var.grad``.

The module-level helpers (:func:`sum_sq`, :func:`square`,
:func:`concat_rows`, ...) dispatch on ndarray vs. ``Var``, which lets a
single implementation of a numerical routine serve both as the plain
evaluator and as the differentiable program, so taped forward values match
the untaped arithmetic bit for bit.  Linear-algebra operations with a
closed-form adjoint are primitives instead: :func:`symae.linalg.pi_orth`
on a ``Var`` is one node built with :meth:`Var._node`, whose forward value
is the untaped result and whose vjp is the analytic thin-QR adjoint.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Var",
    "backward",
    "gradient",
    "value_of",
    "square",
    "reciprocal",
    "sum_sq",
    "concat_rows",
    "apply_activation",
]


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


class Var:
    """One tape node: a float64 array, its parents, and a vjp closure."""

    __slots__ = ("value", "parents", "vjp", "grad", "needs_grad")

    # Make numpy defer binary ops to Var (so ndarray @ Var hits __rmatmul__).
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None, needs_grad=True):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, needs_grad={self.needs_grad})"

    # -- graph construction helpers -----------------------------------------

    @staticmethod
    def _lift(x) -> "Var":
        if isinstance(x, Var):
            return x
        return Var(x, needs_grad=False)

    @staticmethod
    def _node(value, parents, vjp) -> "Var":
        needs = any(p.needs_grad for p in parents)
        return Var(value, parents if needs else (), vjp if needs else None, needs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self, Var._lift(other)
        return Var._node(
            a.value + b.value,
            (a, b),
            lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, Var._lift(other)
        return Var._node(
            a.value - b.value,
            (a, b),
            lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
        )

    def __rsub__(self, other):
        return Var._lift(other).__sub__(self)

    def __neg__(self):
        return Var._node(-self.value, (self,), lambda g: (-g,))

    def __mul__(self, other):
        a, b = self, Var._lift(other)
        return Var._node(
            a.value * b.value,
            (a, b),
            lambda g: (
                _unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape),
            ),
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        a, b = self, Var._lift(other)
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
            raise ValueError(
                f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}"
            )
        return Var._node(
            a.value @ b.value,
            (a, b),
            lambda g: (g @ b.value.T, a.value.T @ g),
        )

    def __rmatmul__(self, other):
        return Var._lift(other).__matmul__(self)

    @property
    def T(self):
        return Var._node(self.value.T, (self,), lambda g: (g.T,))

    # -- elementwise and reductions -------------------------------------------

    def square(self):
        return Var._node(self.value * self.value, (self,), lambda g: (g * (2.0 * self.value),))

    def reciprocal(self):
        inv = 1.0 / self.value
        return Var._node(inv, (self,), lambda g: (-g * inv * inv,))

    def sum_sq(self):
        return Var._node(np.sum(self.value * self.value), (self,), lambda g: (g * (2.0 * self.value),))


def _topo_order(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.needs_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    return order


def backward(root: Var) -> None:
    """Populate ``grad`` on every node reachable from the scalar ``root``."""
    if root.value.ndim != 0:
        raise ValueError(f"backward needs a scalar root, got shape {root.value.shape}")
    order = _topo_order(root)
    root.grad = np.asarray(1.0)
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if not parent.needs_grad or g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


def gradient(program, leaves: list[np.ndarray], *args) -> tuple[float, list[np.ndarray]]:
    """Run ``program`` on taped copies of ``leaves``; return loss and leaf grads."""
    vars_ = [Var(np.array(leaf, dtype=np.float64)) for leaf in leaves]
    out = program(vars_, *args)
    backward(out)
    grads = [
        v.grad if v.grad is not None else np.zeros_like(v.value) for v in vars_
    ]
    return float(out.value), grads


# -- dual-dispatch helpers (ndarray or Var) -----------------------------------


def value_of(x) -> np.ndarray:
    """Forward value of ``x`` whether taped or plain."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def square(x):
    return x.square() if isinstance(x, Var) else x * x


def reciprocal(x):
    return x.reciprocal() if isinstance(x, Var) else 1.0 / x


def sum_sq(x):
    return x.sum_sq() if isinstance(x, Var) else float(np.sum(x * x))


def concat_rows(parts):
    """Stack arrays or ``Var`` blocks vertically."""
    parts = list(parts)
    if not any(isinstance(p, Var) for p in parts):
        return np.concatenate(parts, axis=0)
    lifted = [Var._lift(p) for p in parts]
    offsets = np.cumsum([0] + [p.value.shape[0] for p in lifted])

    def vjp(g):
        return tuple(g[offsets[i] : offsets[i + 1]] for i in range(len(lifted)))

    return Var._node(np.concatenate([p.value for p in lifted], axis=0), tuple(lifted), vjp)


def apply_activation(act, x, inverse: bool = False):
    """Elementwise activation (or its inverse) on an ndarray or a ``Var``."""
    if not isinstance(x, Var):
        return act.apply_inverse(x) if inverse else act.apply(x)
    if inverse:
        out = act.apply_inverse(x.value)
        slope = act.derivative(out)
        return Var._node(out, (x,), lambda g: (g / slope,))
    return Var._node(
        act.apply(x.value), (x,), lambda g: (g * act.derivative(x.value),)
    )
