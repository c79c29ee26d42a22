"""Reverse-mode differentiation over dense numpy arrays.

The tape is the implicit graph of :class:`Var` nodes: every operation
evaluates its numpy result eagerly and records, for each ``Var`` operand,
one edge ``(operand, vjp)`` that maps the node's adjoint to that operand's
contribution, so control flow in client code may inspect intermediate
values.  Plain arrays and floats are constants: they get no node and no
edge, so their adjoints are never formed.  Calling :func:`backward` on a
scalar root walks the graph once in reverse topological order and
accumulates adjoints into ``Var.grad``.

Every operation is one function over operands that may be plain or taped
(:func:`sum_sq`, :func:`square`, :func:`reciprocal`, ...): on plain
operands it is the plain evaluator, so taped forward values match the
untaped arithmetic bit for bit.  Linear-algebra operations with a
closed-form adjoint are primitives instead: :func:`symae.linalg.pi_orth`
on a ``Var`` is one node built with ``Var._node(value, (A, vjp))``, whose
forward value is the untaped result and whose vjp is the analytic thin-QR
adjoint.
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


def value_of(x) -> np.ndarray:
    """Forward value of ``x`` whether taped or plain."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


# -- binary operations: either operand may be a constant ---------------------


def _add(a, b):
    va, vb = value_of(a), value_of(b)
    return Var._node(
        va + vb,
        (a, lambda g: _unbroadcast(g, va.shape)),
        (b, lambda g: _unbroadcast(g, vb.shape)),
    )


def _sub(a, b):
    va, vb = value_of(a), value_of(b)
    return Var._node(
        va - vb,
        (a, lambda g: _unbroadcast(g, va.shape)),
        (b, lambda g: _unbroadcast(-g, vb.shape)),
    )


def _mul(a, b):
    va, vb = value_of(a), value_of(b)
    return Var._node(
        va * vb,
        (a, lambda g: _unbroadcast(g * vb, va.shape)),
        (b, lambda g: _unbroadcast(g * va, vb.shape)),
    )


def _matmul(a, b):
    va, vb = value_of(a), value_of(b)
    if va.ndim != 2 or vb.ndim != 2 or va.shape[1] != vb.shape[0]:
        raise ValueError(f"matmul shape mismatch: {va.shape} @ {vb.shape}")
    return Var._node(va @ vb, (a, lambda g: g @ vb.T), (b, lambda g: va.T @ g))


class Var:
    """One tape node: a float64 array, its adjoint, and one edge per ``Var`` operand."""

    __slots__ = ("value", "grad", "edges")

    # Make numpy defer binary ops to Var (so ndarray @ Var hits __rmatmul__).
    __array_ufunc__ = None

    def __init__(self, value, edges=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.edges = edges

    def __repr__(self):
        return f"Var(shape={self.value.shape}, edges={len(self.edges)})"

    @staticmethod
    def _node(value, *edges) -> "Var":
        """A node over ``(operand, vjp)`` edges; constant operands get none."""
        return Var(value, tuple(edge for edge in edges if isinstance(edge[0], Var)))

    __add__ = __radd__ = _add
    __sub__ = _sub
    __mul__ = __rmul__ = _mul
    __matmul__ = _matmul

    def __rsub__(self, other):
        return _sub(other, self)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def __neg__(self):
        return Var._node(-self.value, (self, lambda g: -g))

    @property
    def T(self):
        return Var._node(self.value.T, (self, lambda g: g.T))


def _topo_order(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for operand, _ in node.edges:
            stack.append((operand, False))
    return order


def backward(root: Var) -> None:
    """Populate ``grad`` on every node reachable from the scalar ``root``."""
    if root.value.ndim != 0:
        raise ValueError(f"backward needs a scalar root, got shape {root.value.shape}")
    order = _topo_order(root)
    root.grad = np.asarray(1.0)
    for node in reversed(order):
        for operand, vjp in node.edges:
            g = vjp(node.grad)
            operand.grad = g if operand.grad is None else operand.grad + g


def gradient(program, leaves: list[np.ndarray], *args) -> tuple[float, list[np.ndarray]]:
    """Run ``program`` on ``leaves`` taped as they are; return loss and leaf grads.

    Each leaf is wrapped as a ``Var`` without a copy: no operation writes to
    a tape value, so the caller's arrays are left untouched.
    """
    vars_ = [Var(leaf) for leaf in leaves]
    out = program(vars_, *args)
    backward(out)
    grads = [
        v.grad if v.grad is not None else np.zeros_like(v.value) for v in vars_
    ]
    return float(out.value), grads


# -- operations on a plain array or a ``Var`` ---------------------------------


def square(x):
    if not isinstance(x, Var):
        return x * x
    return Var._node(x.value * x.value, (x, lambda g: g * (2.0 * x.value)))


def reciprocal(x):
    if not isinstance(x, Var):
        return 1.0 / x
    inv = 1.0 / x.value
    return Var._node(inv, (x, lambda g: -g * inv * inv))


def sum_sq(x):
    if not isinstance(x, Var):
        return float(np.sum(x * x))
    return Var._node(np.sum(x.value * x.value), (x, lambda g: g * (2.0 * x.value)))


def apply_activation(act, x, inverse: bool = False):
    """Elementwise activation (or its inverse) on an ndarray or a ``Var``."""
    if not isinstance(x, Var):
        return act.apply_inverse(x) if inverse else act.apply(x)
    if inverse:
        out = act.apply_inverse(x.value)
        slope = act.derivative(out)
        return Var._node(out, (x, lambda g: g / slope))
    return Var._node(act.apply(x.value), (x, lambda g: g * act.derivative(x.value)))
