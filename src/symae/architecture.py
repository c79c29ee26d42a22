"""Symmetric autoencoder classes: data model, assembly, and execution.

A symmetric autoencoder is a sequence of :class:`Layer` named tuples
``(E_j, D_j, e_j, d_j)`` plus one shared bilipschitz activation ``rho``.
Encoding applies ``h -> rho(E_j h + e_j)`` from the outside in; decoding
applies ``h -> D_j rho_inv(h) + d_j`` from the inside out.  Three nested
classes are supported, plus a conventional autoencoder baseline:

* ``SAE``   - unconstrained weights;
* ``SBAE``  - biorthogonal: ``E_j D_j = I`` and ``E_j d_j = -e_j``, which
  makes the network a nonlinear projector;
* ``SOAE``  - orthogonal: additionally ``E_j = D_j^T``;
* ``PlainAE`` - same shapes, but a standard feed-forward autoencoder that
  applies ``rho_inv`` after every affine map except the output layer.

Constrained classes are trained through unconstrained parametrizations
(:class:`ParamVector`) that satisfy the constraints by construction.
``_param_shapes`` is the one layout table: each class's parameter names,
their leaf order and their shapes, checked by ``_check_layout`` for both
parameters and dense layers (which have the SAE layout).  A network's
level is a dense ``Layer``, which :func:`assemble` forms.  The training
loss (:func:`loss_on_batch`) never forms one: each level's encoder and
decoder map acts on the batch straight from the parameters and, on
autodiff ``Var`` leaves, is one tape node with its adjoint written out.
An SBAE level stays in the factored form ``E^T = X K_E``,
``D = X K_D + (I - X X^T) W`` and is applied as ``K_E^T (X^T (h - b))``
and ``X (K_D g - X^T (W g)) + W g + b``, which never forms the
``n_{j-1} x n_j`` matrices.  This SBAE factorization, one orthonormal
``n_{j-1} x n_j`` frame per level plus a free block projected off its
span, is the code's own; the paper's abstract states only the constraint
``E_j D_j = I``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .activations import Activation, parse_activation
from .autodiff import Var, _unbroadcast, square, sum_sq, value_of
from .data_io import DataFormatError
from .linalg import pi_orth, require_matrix

__all__ = [
    "CLASS_TAGS",
    "Skeleton",
    "Layer",
    "SymmetricAutoencoder",
    "ParamVector",
    "assemble",
    "check_class_invariants",
    "encode_columns",
    "decode_columns",
    "reconstruct_columns",
    "loss_on_batch",
    "empirical_mse",
    "save_model",
    "load_model",
]

CLASS_TAGS = ("SAE", "SBAE", "SOAE", "PlainAE")

BIORTH_TOL = 1e-9
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class Skeleton:
    """Dimension sequence ``(n0, n1, ..., nl)`` with ``n0 > n1 >= ... >= nl > 0``."""

    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            if any(isinstance(d, bool) for d in self.dims):
                raise TypeError
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
            raise ValueError(f"skeleton dimensions must be integers: {self.dims!r}") from None
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValueError("skeleton needs an input and at least one hidden dimension")
        if any(d <= 0 for d in dims):
            raise ValueError(f"skeleton dimensions must be positive: {dims}")
        if dims[0] <= dims[1]:
            raise ValueError(f"first hidden dimension must shrink the input: {dims}")
        for a, b in zip(dims[1:], dims[2:]):
            if a < b:
                raise ValueError(f"hidden dimensions must be nonincreasing: {dims}")

    @property
    def depth(self) -> int:
        return len(self.dims) - 1

    @property
    def latent_dim(self) -> int:
        return self.dims[-1]

    def layer_shape(self, j: int) -> tuple[int, int]:
        """(input width, output width) of encoder level ``j`` in ``1..depth``."""
        return self.dims[j - 1], self.dims[j]


class Layer(NamedTuple):
    """One dense level ``(E, D, e, d)``: encoder ``rho(E h + e)``, decoder ``D rho_inv(h) + d``."""

    E: np.ndarray
    D: np.ndarray
    e: np.ndarray
    d: np.ndarray

    def encode_affine(self, H):
        """``E H + e``."""
        return self.E @ H + self.e

    def decode_affine(self, G):
        """``D G + d``."""
        return self.D @ G + self.d


@dataclass(frozen=True, eq=False)
class SymmetricAutoencoder:
    skeleton: Skeleton
    act: Activation
    layers: tuple[Layer, ...]
    class_tag: str
    _residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.class_tag!r}")
        # A dense level is the SAE layout, whatever the class.
        dense = _check_layout("SAE", self.skeleton, [l._asdict() for l in self.layers])
        for j, weights in enumerate(dense, start=1):
            for name, arr in weights.items():
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"layer {j} weight {name} has non-finite entries")
        object.__setattr__(
            self, "_residual", check_class_invariants(self.class_tag, self.layers)
        )

    # -- execution --------------------------------------------------------

    def encode(self, u):
        cols, was_vec = _as_columns(u, self.skeleton.dims[0])
        out = encode_columns(self.layers, self.act, cols, self.class_tag)
        return out[:, 0] if was_vec else out

    def decode(self, c):
        cols, was_vec = _as_columns(c, self.skeleton.latent_dim)
        out = decode_columns(self.layers, self.act, cols, self.class_tag)
        return out[:, 0] if was_vec else out

    def reconstruct(self, u):
        cols, was_vec = _as_columns(u, self.skeleton.dims[0])
        out = reconstruct_columns(self.layers, self.act, cols, self.class_tag)
        return out[:, 0] if was_vec else out

    def hidden_trajectory(self, u) -> list[np.ndarray]:
        """Partial encodings ``[u, E_1(u), ..., E_l(u)]`` (columnwise)."""
        cols, _ = _as_columns(u, self.skeleton.dims[0])
        levels = [cols]
        for layer in self.layers:
            levels.append(encode_columns((layer,), self.act, levels[-1], self.class_tag))
        return levels

    def constraint_residual(self) -> float:
        """``max_j ||E_j D_j - I||_max`` for constrained classes, else 0.

        Computed once, by the invariant check at construction.
        """
        return self._residual


def _as_columns(u, expected_rows: int) -> tuple[np.ndarray, bool]:
    u = np.asarray(u, dtype=np.float64)
    was_vec = u.ndim == 1
    cols = u.reshape(-1, 1) if was_vec else u
    if cols.ndim != 2 or cols.shape[0] != expected_rows:
        raise ValueError(f"expected {expected_rows} rows, got shape {u.shape}")
    return cols, was_vec


def check_class_invariants(class_tag: str, layers) -> float:
    """Enforce the invariants of ``class_tag`` on ``layers``; return the residual.

    SBAE and SOAE need ``E_j D_j = I`` and ``E_j d_j = -e_j`` at every level,
    and SOAE also ``E_j = D_j^T``, each to ``BIORTH_TOL`` in the max norm.
    A gap that is NaN (non-finite weights, or products that overflow)
    violates its invariant.  Raises ``ValueError`` naming the first violated
    invariant.  Returns ``max_j ||E_j D_j - I||_max``, or 0 for the
    unconstrained classes.
    """
    if class_tag not in ("SBAE", "SOAE"):
        return 0.0
    worst = 0.0
    for j, layer in enumerate(layers, start=1):
        E, D = layer.E, layer.D
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = {
                "E D = I": np.max(np.abs(E @ D - np.eye(E.shape[0]))),
                "E d = -e": np.max(np.abs(E @ layer.d + layer.e)),
            }
            if class_tag == "SOAE":
                gaps["E = D^T"] = np.max(np.abs(E - D.T))
        for rule, gap in gaps.items():
            if not gap <= BIORTH_TOL:
                raise ValueError(f"{class_tag} layer {j} violates {rule} (max gap {gap:.3e})")
        worst = max(worst, float(gaps["E D = I"]))
    return worst


# -- unconstrained parametrizations --------------------------------------


@dataclass(eq=False)
class ParamVector:
    """Unconstrained optimization-space coordinates for one hypothesis class.

    ``layers[j]`` maps the canonical parameter names of ``class_tag`` to
    arrays: raw ``(E, D, e, d)`` for SAE/PlainAE; ``(A, b)`` for SOAE where
    the decoder matrix is ``pi_orth(A)``; ``(X, Z, W, s, b)`` for SBAE,
    where ``pi_orth(X)`` is the level's ``n_{j-1} x n_j`` orthonormal frame,
    ``pi_orth(Z)`` an ``n_j x n_j`` rotation, ``s`` the square roots of the
    scales and ``W`` the free decoder block (see :func:`_level`).
    """

    class_tag: str
    skeleton: Skeleton
    act: Activation
    layers: list[dict[str, np.ndarray]]

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.class_tag!r}")
        self.layers = _check_layout(self.class_tag, self.skeleton, self.layers)

    def leaves(self) -> list[np.ndarray]:
        """Flat leaf list in canonical order (layer-major)."""
        return [arr for params in self.layers for arr in params.values()]

    def with_leaves(self, arrays: list) -> list[dict]:
        """Regroup a flat leaf list (arrays or Vars) into per-layer dicts."""
        it = iter(arrays)
        return [{k: next(it) for k in params} for params in self.layers]


def _param_shapes(class_tag: str, skeleton: Skeleton, j: int) -> dict[str, tuple]:
    """Level ``j`` of ``class_tag``: parameter names in canonical leaf order, and shapes."""
    q, r = skeleton.layer_shape(j)
    if class_tag in ("SAE", "PlainAE"):
        return {"E": (r, q), "D": (q, r), "e": (r, 1), "d": (q, 1)}
    if class_tag == "SOAE":
        return {"A": (q, r), "b": (q, 1)}
    return {"X": (q, r), "Z": (r, r), "W": (q, r), "s": (r, 1), "b": (q, 1)}


def _check_layout(class_tag: str, skeleton: Skeleton, layers) -> list[dict]:
    """Check ``name -> array`` levels against :func:`_param_shapes`; return them in key order."""
    if len(layers) != skeleton.depth:
        raise ValueError(f"skeleton depth {skeleton.depth} != layer count {len(layers)}")
    out = []
    for j, params in enumerate(layers, start=1):
        want = _param_shapes(class_tag, skeleton, j)
        if params.keys() != want.keys():
            raise ValueError(f"layer {j} parameters {sorted(params)} != expected {sorted(want)}")
        for name, shape in want.items():
            if params[name].shape != shape:
                raise ValueError(
                    f"layer {j} parameter {name} has shape {params[name].shape}, "
                    f"expected {shape}"
                )
        out.append({name: params[name] for name in want})
    return out


def _level(class_tag: str, params: dict) -> Layer:
    """The dense level realized by one level's unconstrained parameters (arrays).

    SAE/PlainAE: the raw :class:`Layer`.  SOAE: ``D = pi_orth(A)``,
    ``E = D^T``, ``d = b``, ``e = -E b``.  SBAE: with ``X = pi_orth(X~)``
    (q x r), ``Z = pi_orth(Z~)`` (r x r) and ``S = diag(s^2)``,

        E = Z S X^T = K_E^T X^T,  K_E = S Z^T,
        D = X S^-1 Z^T + (I - X X^T) W = X K_D + (I - X X^T) W,  K_D = S^-1 Z^T,

    which gives ``E D = I`` identically, since ``X^T (I - X X^T) = 0``;
    biases ``d = b``, ``e = -E b``.  ``(I - X X^T) W`` ranges over every
    q x r block whose columns are orthogonal to ``span X``; when q = r it
    is zero, so a square level is built without ``W`` (``D = X K_D``) and
    the gradient of its ``W`` is exactly 0.  The training loss applies the
    same factors to a batch without forming ``E`` or ``D``
    (:func:`_biorthogonal_encode`, :func:`_biorthogonal_decode`).
    """
    if class_tag in ("SAE", "PlainAE"):
        return Layer(params["E"], params["D"], params["e"], params["d"])
    if class_tag == "SOAE":
        D = pi_orth(params["A"])
        E = D.T
        b = params["b"]
        return Layer(E, D, -(E @ b), b)
    X, Z, s2, W, b = _biorthogonal_factors(params)
    Zt = Z.T
    K_D = (1.0 / s2) * Zt
    E = (X @ (s2 * Zt)).T
    D = X @ K_D if W is None else X @ (K_D - X.T @ W) + W
    return Layer(E, D, -(E @ b), b)


def _biorthogonal_factors(params: dict):
    """``(pi_orth(X~), pi_orth(Z~), s^2, W, b)`` of one SBAE level, arrays or ``Var``s.

    ``W`` is None on a square level.  Raises ``ValueError`` when a scale is zero.
    """
    s = params["s"]
    if not np.all(value_of(s)):
        raise ValueError("SBAE scale vector must have no zero entries")
    q, r = value_of(params["X"]).shape
    W = params["W"] if q > r else None
    return pi_orth(params["X"]), pi_orth(params["Z"]), square(s), W, params["b"]


def assemble(theta: ParamVector) -> SymmetricAutoencoder:
    """Build and validate the autoencoder realized by ``theta``."""
    layers = tuple(
        Layer(*(np.asarray(w, dtype=np.float64) for w in _level(theta.class_tag, p)))
        for p in theta.layers
    )
    return SymmetricAutoencoder(theta.skeleton, theta.act, layers, theta.class_tag)


# -- generic columnwise execution -----------------------------------------


def encode_columns(layers, act, H, class_tag: str):
    rho = act.apply_inverse if class_tag == "PlainAE" else act.apply
    for layer in layers:
        H = rho(layer.encode_affine(H))
    return H


def decode_columns(layers, act, H, class_tag: str):
    # PlainAE skips rho_inv at the latent end only.
    for j, layer in enumerate(reversed(layers)):
        if j or class_tag != "PlainAE":
            H = act.apply_inverse(H)
        H = layer.decode_affine(H)
    return H


def reconstruct_columns(layers, act, U, class_tag: str):
    return decode_columns(layers, act, encode_columns(layers, act, U, class_tag), class_tag)


# -- the training loss: one tape node per level map -------------------------
#
# Each map below acts on a column batch ``H`` and takes plain or taped
# operands.  On plain operands it returns the map's value.  When an operand
# is a ``Var`` it returns one tape node with an edge to each ``Var``
# operand, whose vjp is the map's adjoint written out: the chain rule
# through the map's products and ufuncs, one at a time, from the output
# back.  A constant operand (the batch, at the outer level) gets no
# adjoint.  The forward value is the same code on either kind of operand,
# so a taped loss equals the plain one bit for bit.


def _taped(*operands) -> bool:
    return any(isinstance(x, Var) for x in operands)


def _affine_encode(act, H, E, e, inverse: bool):
    """``rho(E H + e)``, or ``rho^-1(E H + e)`` with ``inverse`` (PlainAE)."""
    Hv, Ev, ev = value_of(H), value_of(E), value_of(e)
    A = Ev @ Hv + ev
    Y = act.apply_inverse(A) if inverse else act.apply(A)
    if not _taped(H, E, e):
        return Y
    slope = act.derivative(Y) if inverse else None

    def vjp(g):
        gA = g / slope if inverse else g * act.derivative(A)
        return (
            Ev.T @ gA if isinstance(H, Var) else None,
            gA @ Hv.T,
            _unbroadcast(gA, ev.shape),
        )

    return Var._node(Y, (H, E, e), vjp)


def _orthogonal_encode(act, H, D, b):
    """``rho(E H + e)`` with ``E = D^T`` and ``e = -E b`` (SOAE)."""
    Hv, Dv, bv = value_of(H), value_of(D), value_of(b)
    E = Dv.T
    e = -(E @ bv)
    A = E @ Hv + e
    Y = act.apply(A)
    if not _taped(H, D, b):
        return Y

    def vjp(g):
        gA = g * act.derivative(A)
        g_Eb = -_unbroadcast(gA, e.shape)
        g_E = gA @ Hv.T + g_Eb @ bv.T
        return (E.T @ gA if isinstance(H, Var) else None, g_E.T, E.T @ g_Eb)

    return Var._node(Y, (H, D, b), vjp)


def _affine_decode(act, H, D, d, invert: bool):
    """``D rho^-1(H) + d``, or ``D H + d`` without ``invert`` (PlainAE's latent end)."""
    Hv, Dv, dv = value_of(H), value_of(D), value_of(d)
    G = act.apply_inverse(Hv) if invert else Hv
    out = Dv @ G + dv
    if not _taped(H, D, d):
        return out
    slope = act.derivative(G) if invert else None

    def vjp(g):
        g_G = Dv.T @ g
        return (g_G / slope if invert else g_G, g @ G.T, _unbroadcast(g, dv.shape))

    return Var._node(out, (H, D, d), vjp)


def _biorthogonal_encode(act, H, X, Z, s2, b):
    """``rho(K_E^T (X^T (H - b)))`` with ``K_E = s2 Z^T`` (SBAE)."""
    Hv, Xv, Zv, s2v, bv = (value_of(x) for x in (H, X, Z, s2, b))
    Zt = Zv.T
    K_E = s2v * Zt
    C = Hv - bv
    XtC = Xv.T @ C
    A = K_E.T @ XtC
    Y = act.apply(A)
    if not _taped(H, X, Z, s2, b):
        return Y

    def vjp(g):
        gA = g * act.derivative(A)
        g_KE = (gA @ XtC.T).T
        g_XtC = K_E @ gA
        g_C = Xv @ g_XtC
        return (
            g_C if isinstance(H, Var) else None,
            (g_XtC @ C.T).T,
            # Formed in C order and transposed, as the decoder's is, so that
            # the sum of the two reaches pi_orth's adjoint in Fortran order,
            # the layout of Z^T; BLAS need not round its products the same
            # way on the other layout.
            np.multiply(g_KE, s2v, order="C").T,
            _unbroadcast(g_KE * Zt, s2v.shape),
            _unbroadcast(-g_C, bv.shape),
        )

    return Var._node(Y, (H, X, Z, s2, b), vjp)


def _biorthogonal_decode(act, H, X, Z, s2, W, b):
    """``X (K_D G - X^T (W G)) + W G + b`` with ``G = rho^-1(H)`` and
    ``K_D = s2^-1 Z^T`` (SBAE); ``X (K_D G) + b`` when ``W`` is None."""
    Hv, Xv, Zv, s2v, bv = (value_of(x) for x in (H, X, Z, s2, b))
    G = act.apply_inverse(Hv)
    inv = 1.0 / s2v
    Zt = Zv.T
    K_D = inv * Zt
    KG = K_D @ G
    if W is None:
        out = Xv @ KG + bv
    else:
        Wv = value_of(W)
        WG = Wv @ G
        diff = KG - Xv.T @ WG
        out = Xv @ diff + WG + bv
    if not _taped(H, X, Z, s2, W, b):
        return out
    slope = act.derivative(G)

    def vjp(g):
        g_KG = Xv.T @ g
        if W is None:
            g_X = g @ KG.T
            g_G = K_D.T @ g_KG
            g_W = None
        else:
            g_XtWG = -g_KG
            g_X = g @ diff.T + (g_XtWG @ WG.T).T
            g_WG = g + Xv @ g_XtWG
            g_W = g_WG @ G.T
            g_G = K_D.T @ g_KG + Wv.T @ g_WG
        g_KD = g_KG @ G.T
        g_inv = _unbroadcast(g_KD * Zt, s2v.shape)
        return (
            g_G / slope,
            g_X,
            (g_KD * inv).T,
            -g_inv * inv * inv,
            g_W,
            _unbroadcast(g, bv.shape),
        )

    return Var._node(out, (H, X, Z, s2, W, b), vjp)


def _level_maps(class_tag: str, act, params: dict):
    """``(encode, decode)`` of one level: ``encode(H)``, and ``decode(H, invert)``
    with ``invert`` false only at PlainAE's latent end."""
    if class_tag in ("SAE", "PlainAE"):
        inverse = class_tag == "PlainAE"
        return (
            lambda H: _affine_encode(act, H, params["E"], params["e"], inverse),
            lambda H, invert: _affine_decode(act, H, params["D"], params["d"], invert),
        )
    if class_tag == "SOAE":
        D, b = pi_orth(params["A"]), params["b"]
        return (
            lambda H: _orthogonal_encode(act, H, D, b),
            lambda H, invert: _affine_decode(act, H, D, b, invert),
        )
    X, Z, s2, W, b = _biorthogonal_factors(params)
    return (
        lambda H: _biorthogonal_encode(act, H, X, Z, s2, b),
        lambda H, invert: _biorthogonal_decode(act, H, X, Z, s2, W, b),
    )


def loss_on_batch(class_tag: str, act, layer_params: list[dict], batch):
    """Mean squared reconstruction error of a column batch.

    ``layer_params`` may hold arrays (plain evaluation) or ``Var`` leaves
    (the returned loss is then a taped scalar ready for ``backward``).
    Each level's encoder and decoder map is one tape node; SBAE levels act
    on the batch in factored form, so no ``E`` or ``D`` is formed.
    """
    maps = [_level_maps(class_tag, act, p) for p in layer_params]
    H = batch
    for encode, _ in maps:
        H = encode(H)
    for j, (_, decode) in enumerate(reversed(maps)):
        H = decode(H, j > 0 or class_tag != "PlainAE")
    n_cols = value_of(batch).shape[1]
    return sum_sq(H - batch) * (1.0 / n_cols)


def empirical_mse(psi: SymmetricAutoencoder, U: np.ndarray) -> float:
    """Mean squared reconstruction error over the snapshot columns."""
    U = require_matrix(U, "snapshot matrix")
    resid = U - psi.reconstruct(U)
    return float(np.sum(resid * resid)) / U.shape[1]


# -- checkpoint serialization ----------------------------------------------


def save_model(
    psi: SymmetricAutoencoder,
    path,
    theta: ParamVector | None = None,
    normalization: tuple[float, float] = (0.0, 1.0),
):
    """Write a JSON checkpoint; floats round-trip bit-identically via repr.

    ``normalization`` is the min-max range ``(lo, hi)`` the network was
    fitted on (see :func:`symae.training.minmax_normalize`); the default
    identity range is that of a network fitted on raw data.
    """
    lo, hi = _checked_normalization(*normalization)
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "class_tag": psi.class_tag,
        "skeleton": list(psi.skeleton.dims),
        "activation_spec": psi.act.spec(),
        "normalization": {"lo": lo, "hi": hi},
        "layers": [{k: v.tolist() for k, v in l._asdict().items()} for l in psi.layers],
    }
    if theta is not None:
        doc["theta"] = {
            "class_tag": theta.class_tag,
            "layers": [
                {k: v.tolist() for k, v in params.items()} for params in theta.layers
            ],
        }
    Path(path).write_text(json.dumps(doc))


def load_model(
    path,
) -> tuple[SymmetricAutoencoder, ParamVector | None, tuple[float, float]]:
    """Read a checkpoint written by :func:`save_model`.

    Returns ``(psi, theta, (lo, hi))``, where ``theta`` is ``None`` when the
    file stores none and ``(lo, hi)`` is the min-max range the network was
    fitted on.  Only format version 3 loads.

    Raises :class:`DataFormatError` when the file is not JSON, carries
    another format version, lacks a key or holds a value that does not
    build a valid model (a wrong shape or type, a broken invariant, a
    ``theta`` that does not assemble to the stored layers, or a range that
    is not finite with ``lo < hi``).
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise DataFormatError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version!r} in {path}")
    try:
        psi, theta = _model_from_doc(doc)
        block = doc["normalization"]
        return psi, theta, _checked_normalization(block["lo"], block["hi"])
    except KeyError as exc:
        raise DataFormatError(f"checkpoint {path} lacks the key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataFormatError(f"checkpoint {path} has a bad value: {exc}") from exc


def _checked_normalization(lo, hi) -> tuple[float, float]:
    """``(lo, hi)`` as floats; ``ValueError`` unless ``lo < hi`` and
    ``(hi - lo)^2`` is finite, which makes both ends finite."""
    lo, hi = float(lo), float(hi)
    if not (lo < hi and math.isfinite((hi - lo) * (hi - lo))):
        raise ValueError(
            "normalization needs finite lo < hi with a finite (hi - lo)^2, "
            f"got lo={lo!r}, hi={hi!r}"
        )
    return lo, hi


def _model_from_doc(doc: dict) -> tuple[SymmetricAutoencoder, ParamVector | None]:
    skeleton = Skeleton(tuple(doc["skeleton"]))
    act = parse_activation(doc["activation_spec"])
    layers = tuple(
        Layer(*(np.asarray(layer[k], dtype=np.float64) for k in Layer._fields))
        for layer in doc["layers"]
    )
    psi = SymmetricAutoencoder(skeleton, act, layers, doc["class_tag"])
    theta = None
    if "theta" in doc:
        block = doc["theta"]
        theta_layers = [
            {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
            for params in block["layers"]
        ]
        theta = ParamVector(block["class_tag"], skeleton, act, theta_layers)
        _check_theta_realizes(theta, psi)
    return psi, theta


def _check_theta_realizes(theta: ParamVector, psi: SymmetricAutoencoder):
    """Raise ``ValueError`` unless ``assemble(theta)`` gives the layers of ``psi``.

    Entries may differ by ``BIORTH_TOL`` relative to ``max(1, |entry|)``,
    so a checkpoint still loads under another BLAS build.
    """
    if theta.class_tag != psi.class_tag:
        raise ValueError(f"theta class {theta.class_tag} != network class {psi.class_tag}")
    for j, (got, want) in enumerate(zip(assemble(theta).layers, psi.layers), start=1):
        for name, g, w in zip(Layer._fields, got, want):
            gap = float(np.max(np.abs(g - w) / np.maximum(1.0, np.abs(w))))
            if gap > BIORTH_TOL:
                raise ValueError(
                    f"theta does not assemble to layer {j} weight {name} "
                    f"(max relative gap {gap:.3e})"
                )
