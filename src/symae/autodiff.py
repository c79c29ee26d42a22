"""Reverse-mode differentiation over dense numpy arrays.

The tape is the implicit graph of :class:`Var` nodes: every operation
evaluates its numpy result eagerly and records one edge to each ``Var``
operand plus one vjp, which maps the node's adjoint to the adjoints of
those operands, so control flow in client code may inspect intermediate
values.  Plain arrays and floats are constants: they get no node and no
edge, so their adjoints are never formed.  Calling :func:`backward` on a
scalar root walks the graph once in reverse topological order and
accumulates adjoints into ``Var.grad``.

Nodes are coarse: a map with a closed-form adjoint is one node whose vjp
is that adjoint written out.  :func:`symae.linalg.pi_orth` is one node with
the thin-QR adjoint.  So is each level map of an autoencoder, the encoder
``rho(E h + e)`` and the decoder ``D rho^-1(g) + d`` over the class's own
parameters (see :mod:`symae.architecture`), with the chain rule through the
map's products and ufuncs written out.  Every operation is one function
over operands that may be plain or taped: on plain operands it is the
plain evaluator, so taped forward values match the untaped arithmetic bit
for bit.  The generic operations here are the few the loss around the
level maps needs: :func:`sum_sq`, ``Var - x``, ``Var * x`` and
:func:`square` (an SBAE level's scales).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Var",
    "backward",
    "gradient",
    "value_of",
    "square",
    "sum_sq",
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


def _sub(a, b):
    va, vb = value_of(a), value_of(b)
    return Var._node(
        va - vb,
        (a, b),
        lambda g: (
            _unbroadcast(g, va.shape) if isinstance(a, Var) else None,
            _unbroadcast(-g, vb.shape) if isinstance(b, Var) else None,
        ),
    )


def _mul(a, b):
    va, vb = value_of(a), value_of(b)
    return Var._node(
        va * vb,
        (a, b),
        lambda g: (
            _unbroadcast(g * vb, va.shape) if isinstance(a, Var) else None,
            _unbroadcast(g * va, vb.shape) if isinstance(b, Var) else None,
        ),
    )


class Var:
    """One tape node: a float64 array, its adjoint, an edge per ``Var`` operand and a vjp.

    ``parents`` holds the ``Var`` operands, and ``vjp(g)`` returns their
    adjoints in the same order; a leaf has neither.
    """

    __slots__ = ("value", "grad", "parents", "vjp")

    # Make numpy refuse binary ops with a Var rather than loop over it as an object.
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.vjp = vjp

    def __repr__(self):
        return f"Var(shape={self.value.shape}, edges={len(self.parents)})"

    @staticmethod
    def _node(value, operands, vjp) -> "Var":
        """A node over the ``Var`` entries of ``operands``.

        ``vjp(g)`` maps the node's adjoint to one adjoint per operand, in
        order.  A constant operand (anything not a ``Var``) gets no edge, and
        its entry is dropped; it may be ``None``, so that it is never formed.
        """
        parents = tuple(x for x in operands if isinstance(x, Var))
        if len(parents) < len(operands):
            taped = [isinstance(x, Var) for x in operands]
            every = vjp

            def vjp(g):
                return [adj for adj, keep in zip(every(g), taped) if keep]

        return Var(value, parents, vjp)

    __sub__ = _sub
    __mul__ = _mul


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
        for operand in node.parents:
            stack.append((operand, False))
    return order


def backward(root: Var) -> None:
    """Populate ``grad`` on every node reachable from the scalar ``root``."""
    if root.value.ndim != 0:
        raise ValueError(f"backward needs a scalar root, got shape {root.value.shape}")
    order = _topo_order(root)
    root.grad = np.asarray(1.0)
    for node in reversed(order):
        if node.parents:
            for operand, g in zip(node.parents, node.vjp(node.grad)):
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
    return Var._node(x.value * x.value, (x,), lambda g: (g * (2.0 * x.value),))


def sum_sq(x):
    if not isinstance(x, Var):
        return float(np.sum(x * x))
    return Var._node(np.sum(x.value * x.value), (x,), lambda g: (g * (2.0 * x.value),))
