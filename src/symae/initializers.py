"""Initialization strategies for symmetric autoencoders.

Three schemes are provided:

* :func:`eys_init` - the data-driven iterated-SVD scheme: each level
  centers the current hidden representation, keeps the leading left
  singular vectors as the layer basis, and pushes the data through the new
  layer before fitting the next one.  Deterministic given the data.  The
  construction is :class:`EysCache`'s, which builds each level once.
* :func:`he_init` - gaussian weights whose variance extends the classic
  He rule to arbitrary bilipschitz activations via their slope envelope.
* :func:`orthogonal_random_init` - random orthonormal bases with zero
  biases, the usual baseline for constrained architectures.

:func:`lift` converts an orthogonal-form network into the unconstrained
parameter vector of any hypothesis class so training can start from it.
:func:`init_study` scores the iterated-SVD start against the best of many
random orthogonal starts over a family of skeletons.  Both sides share work
by width prefix: one :class:`EysCache` builds the iterated-SVD levels, and
the random trials run in blocks, within which each random level of a common
prefix is drawn once per trial and then orthonormalized, checked for
``E D = I`` and applied to the test split once for the whole block, as one
stack.  Each trial keeps its own draw order, each slice of a stacked call is
bitwise its 2-D call, and every candidate is scored by the operations of
:func:`~symae.architecture.empirical_mse`, so every row is bitwise the one
:func:`orthogonal_random_init` gives skeleton by skeleton.

Only a random candidate that can beat the best score so far is scored that
way.  For an orthonormal outer frame ``D`` with zero bias, the test split
``T`` and ``C = D^T T`` split every reconstruction error exactly:
``||T - D G||^2 = (||T||^2 - ||C||^2) + ||C - G||^2``, a projection
residual shared by every skeleton on that first level plus the inner map's
error in level-1 coordinates.  The projection residual comes from two sums
once per trial, so a candidate's surrogate costs an ``n1 x n_test`` pass; a
candidate whose surrogate exceeds the best score by more than its roundoff
allowance (:data:`_SPLIT_SLACK`) provably scores above it and is skipped,
and a trial whose projection residual alone settles every candidate that
way is not decoded at all.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .activations import Activation
from .architecture import (
    BIORTH_TOL,
    CLASS_TAGS,
    ParamVector,
    Skeleton,
    SymmetricAutoencoder,
    Layer,
    check_class_invariants,
    decode_columns,
    empirical_mse,
    encode_columns,
)
from .linalg import (
    NumericalError,
    covariance_spectrum,
    leading_basis,
    pi_orth,
    require_matrix,
)
from .training import apply_minmax, minmax_normalize, split

__all__ = [
    "eys_init",
    "he_init",
    "orthogonal_random_init",
    "lift",
    "he_variance",
    "derive_seed",
    "EysCache",
    "init_study",
]

# init_study runs its random trials this many at a time, as stacks.  Larger
# blocks buy little speed and cost memory: on pga400 with widths 1-20 behind
# a first width of 20 and 100 trials, the traced peak allocation was 6.3 MB
# one trial at a time, 7.9 MB in blocks of 10 and 47 MB with every trial
# stacked at once.
_TRIAL_BLOCK = 10

# Roundoff allowance of init_study's split, relative to ||T||^2 + ||G||^2.
# With Delta = D^T D - I, C = D^T T, outer input G and the projection
# residual taken as P = ||T||^2 - ||C||^2 (Pythagoras for an orthonormal D),
# exact arithmetic gives
#   ||T - D G||^2 - (P + ||C - G||^2) = <G, Delta G>,
# at most ||Delta||_2 ||G||^2: the <C, Delta C> term of ||T - D C||^2 cancels.
# Three sources separate the computed score from the computed surrogate
# (u = 2^-53):
#   * D's orthonormality error: ||Delta||_2 <= n1 (gap + n0 u), where gap is
#     the checked max-norm gap of D^T D = I and n0 u bounds that product's
#     own roundoff.  Householder and CholeskyQR2 frames leave gaps of a few
#     u, and a frame the check lets through may leave up to BIORTH_TOL, so
#     this term is added per trial, from the measured gap, on top of the
#     constant below;
#   * the inner dimensions: D G and D^T T round each entry within
#     n1 u |D| |G| and n0 u |D^T| |T| in any summation order.  The first
#     moves the score by at most about 3 n1^1.5 u, relative.  An error dC
#     in C moves P by -2 <C, dC> and ||C - G||^2 by 2 <C - G, dC>, so the
#     surrogate moves by -2 <G, dC>, at most about n0 n1^0.5 u;
#   * the sums: numpy's pairwise summation of the squares errs by about
#     (log2(N / 128) + 16) u relative per sum of N terms, on four sums
#     (||T||^2, ||C||^2, ||C - G||^2 and the score's) that are each at most
#     about twice ||T||^2 + ||G||^2.  This includes the cancellation in
#     ||T||^2 - ||C||^2, whose error is relative to ||T||^2, not to P.
# At the study's outer level (n0 = 514, n1 = 20, 100 test columns) the last
# two add up to at most about 3e-13, so the constant below leaves 3 10^3 of
# headroom, and it covers their worst case while n0 n1^0.5 stays below
# about 8e6.  It bounds roundoff, it does not trade speed for accuracy: a
# candidate within the allowance is always scored exactly.
#
# The same allowance bounds a whole trial before its outer decode.  Every
# G has ||G||^2 <= 2 ||C||^2 + 2 ||C - G||^2, so a trial with
#   P / n - best > slack (2 ||T||^2 + 3 ||C||^2) / n
# has surrogate - best > allowance for each of its candidates whatever G
# is, since 2 slack < 1: the ||C - G||^2 the surrogate adds outgrows the
# 2 slack ||C - G||^2 the allowance can.  The spare slack (||T||^2 +
# ||C||^2) covers the rounding of the few scalar operations of both tests,
# also when C is about 0, so the computed per-candidate test fails too for
# any summation order of G's sums.
_SPLIT_SLACK = 1e-9
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def derive_seed(seed: int, index: int) -> int:
    """Child seed for trial ``index``: splitmix64 of ``seed + index``."""
    z = (int(seed) + int(index)) & 0xFFFFFFFFFFFFFFFF
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class EysCache:
    """The iterated-SVD construction on one dataset, memoized by width prefix.

    Each level is built once and shared by every skeleton whose widths start
    with its prefix (width sweeps, depth ladders); the representation it
    hands the next level is its own encoder applied to the one it encodes.
    """

    def __init__(self, U: np.ndarray, act: Activation):
        U = require_matrix(U, "snapshot matrix")
        if U.shape[1] < 2:
            raise ValueError("iterated-SVD initialization needs at least two snapshots")
        self.act = act
        self._data = {(): U}
        self._spectra = {}
        self._layers = {}

    def network(self, skeleton: Skeleton) -> SymmetricAutoencoder:
        """The orthogonal-class network of the construction on ``skeleton``."""
        n0 = self._data[()].shape[0]
        if n0 != skeleton.dims[0]:
            raise ValueError(f"snapshot dimension {n0} != skeleton input {skeleton.dims[0]}")
        widths = skeleton.dims[1:]
        self.level(widths)  # builds the levels before it on the way
        layers = tuple(self._layers[widths[:j]] for j in range(1, skeleton.depth + 1))
        return SymmetricAutoencoder(skeleton, self.act, layers, "SOAE")

    def level(self, prefix: tuple[int, ...]) -> Layer:
        """The level of width ``prefix[-1]`` after the levels ``prefix[:-1]``:
        bias the mean, basis the leading eigenvectors of the representation
        it encodes, completed past its rank with a warning."""
        if prefix not in self._layers:
            mean, eigvecs, eigvals = self.spectrum(prefix[:-1])
            width = prefix[-1]
            if len(eigvals) < width:
                warnings.warn(
                    f"level {len(prefix)}: requested width {width} exceeds numerical rank "
                    f"{len(eigvals)}; padding with an orthonormal completion"
                )
            V = leading_basis(eigvecs, width)
            self._layers[prefix] = Layer(E=V.T, D=V, e=-(V.T @ mean), d=mean)
        return self._layers[prefix]

    def spectrum(self, prefix: tuple[int, ...]):
        """(mean, eigvecs, eigvals) of the representation after ``prefix``."""
        if prefix not in self._spectra:
            self._spectra[prefix] = covariance_spectrum(self._representation(prefix))
        return self._spectra[prefix]

    def _representation(self, prefix: tuple[int, ...]) -> np.ndarray:
        if prefix not in self._data:
            layer = self.level(prefix)
            Z = self._representation(prefix[:-1])
            self._data[prefix] = self.act.apply(layer.E @ (Z - layer.d))
        return self._data[prefix]


def eys_init(U: np.ndarray, skeleton: Skeleton, act: Activation) -> SymmetricAutoencoder:
    """Iterated-SVD initialization; returns an orthogonal-class network.

    ``EysCache(U, act).network(skeleton)``.  Level by level: the bias is the
    sample mean of the current hidden representation, the basis is the
    leading left singular vectors of the centered representation, and the
    data is pushed through the finished layer.

    Entirely deterministic: no randomness enters, and directions past the
    numerical rank of the centered data are the orthonormal completion of
    :func:`~symae.linalg.leading_basis`; a level wider than that rank is
    reported via ``warnings.warn``.
    """
    return EysCache(U, act).network(skeleton)


def he_variance(act: Activation, fan_in: int) -> float:
    """Weight variance ``4 / (n (2 + Lip(f^-1)^-2 + Lip(f)^2))``.

    The harmonic mean of the two variance endpoints that keep the layer
    output variance within the activation's slope envelope; reduces to
    ``1/n`` for the identity and to the classic He rule for two-slope
    rectifiers.
    """
    lip, lip_inv = act.lipschitz_pair()
    return 4.0 / (fan_in * (2.0 + lip_inv**-2 + lip**2))


def he_init(
    skeleton: Skeleton, act: Activation, rng: np.random.Generator
) -> SymmetricAutoencoder:
    """Gaussian unconstrained initialization with envelope-scaled variance.

    Every weight entry is ``N(0, he_variance(act, fan_in))`` with the
    fan-in of its own matrix; all biases are zero.
    """
    layers = []
    for j in range(1, skeleton.depth + 1):
        q, r = skeleton.layer_shape(j)
        layers.append(
            Layer(
                E=rng.standard_normal((r, q)) * np.sqrt(he_variance(act, q)),
                D=rng.standard_normal((q, r)) * np.sqrt(he_variance(act, r)),
                e=np.zeros((r, 1)),
                d=np.zeros((q, 1)),
            )
        )
    return SymmetricAutoencoder(skeleton, act, tuple(layers), "SAE")


def orthogonal_random_init(
    skeleton: Skeleton,
    act: Activation,
    rng: np.random.Generator,
    class_tag: str = "SOAE",
) -> SymmetricAutoencoder:
    """Random orthonormal bases, zero biases.

    For the biorthogonal class the start is still ``E_j = D_j^T``, i.e. on
    the orthogonal submanifold; training is then free to leave it.
    """
    if class_tag not in ("SBAE", "SOAE"):
        raise ValueError("orthogonal random init applies to SBAE or SOAE")
    layers = tuple(
        _orthogonal_level(rng.standard_normal(skeleton.layer_shape(j)))
        for j in range(1, skeleton.depth + 1)
    )
    return SymmetricAutoencoder(skeleton, act, layers, class_tag)


def _orthogonal_level(draw: np.ndarray) -> Layer:
    """A random orthogonal level from a gaussian ``draw``: ``D = pi_orth(draw)``,
    ``E = D^T`` and zero biases.

    A ``(..., q, r)`` stack of draws gives a stacked level (``E`` and ``D``
    stacked, the ``(r, 1)`` and ``(q, 1)`` zero biases shared), which the
    :class:`~symae.architecture.Layer` arithmetic broadcasts.
    """
    V = pi_orth(draw)
    q, r = draw.shape[-2:]
    return Layer(E=np.swapaxes(V, -1, -2), D=V, e=np.zeros((r, 1)), d=np.zeros((q, 1)))


def lift(psi: SymmetricAutoencoder, class_tag: str) -> ParamVector:
    """Express a network as unconstrained parameters of ``class_tag``.

    SAE/PlainAE take the weights verbatim.  SOAE and SBAE require an
    orthogonal-form network, one that passes the SOAE invariant check
    whatever its class tag.  SOAE keeps ``(D_j, d_j)`` as coordinates; SBAE
    takes the frame ``X = D_j``, the rotation ``Z = I``, unit scales, a zero
    free block ``W`` and ``b = d_j``.  In every case assembling the lifted
    parameters reproduces the original reconstruction map.
    """
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    layers: list[dict[str, np.ndarray]] = []
    if class_tag in ("SAE", "PlainAE"):
        for layer in psi.layers:
            layers.append({k: v.copy() for k, v in layer._asdict().items()})
        return ParamVector(class_tag, psi.skeleton, psi.act, layers)

    try:
        check_class_invariants("SOAE", psi.layers)
    except ValueError as exc:
        raise ValueError(
            f"network is not in orthogonal form, cannot lift into {class_tag}: {exc}"
        ) from None
    for layer in psi.layers:
        q, r = layer.D.shape
        if class_tag == "SOAE":
            layers.append({"A": layer.D.copy(), "b": layer.d.copy()})
        else:
            layers.append(
                {
                    "X": layer.D.copy(),
                    "Z": np.eye(r),
                    "W": np.zeros((q, r)),
                    "s": np.ones((r, 1)),
                    "b": layer.d.copy(),
                }
            )
    return ParamVector(class_tag, psi.skeleton, psi.act, layers)


def init_study(U, act, skeletons, trials, seed):
    """Initial test MSE per skeleton: iterated-SVD vs best-of-``trials`` random.

    Shares the standardized split/normalization pipeline and validates the
    test split once.  Random trial ``t`` draws from
    ``default_rng(derive_seed(seed, t))`` for every skeleton, so skeletons
    with a common width prefix share that prefix's levels.  Trials run in
    blocks of ``_TRIAL_BLOCK``; within a block each prefix is drawn once per
    trial, and a skeleton draws only the levels past its longest shared
    prefix, each trial from its own generator state saved after that
    prefix.  The block's draws of a level are then orthonormalized by one
    stacked :func:`~symae.linalg.pi_orth` call, checked for ``E D = I`` by
    one stacked product, and applied to the test split, encoded and decoded,
    as one stack; only the outer decode is per trial.

    A random candidate is scored exactly only if it can win.  Random levels
    have zero biases, so for each first level ``dims[:2]`` and trial ``k``,
    ``C_k = D_k^T T`` (the test split's level-1 pre-activation, which the
    level-1 encoding reuses) and the projection residual
    ``P_k = ||T||^2 - ||C_k||^2`` are computed once.  A candidate with outer
    input ``G`` then gets the surrogate ``s = (P_k + ||C_k - G||^2) / n_test``,
    which equals its score up to roundoff (the level-1 split,
    :data:`_SPLIT_SLACK`), and is scored exactly only when
    ``s - best <= allowance``, where the allowance is
    ``(_SPLIT_SLACK + n1 (gap_k + n0 u)) (||T||^2 + ||G||^2) / n_test`` for
    trial ``k``'s checked orthonormality gap and ``u = 2^-53``; a NaN
    surrogate is scored.  A skipped candidate scores above the best so far,
    so skipping it leaves the minimum unchanged.  Before a skeleton's outer
    decode, a trial whose ``P_k`` alone puts every candidate past that
    allowance, whatever ``G`` is, is dropped (see :data:`_SPLIT_SLACK`), and
    only the other trials are decoded, as a sub-stack.  A scored candidate
    goes through the operations of
    :func:`~symae.architecture.empirical_mse`, in the same order, and each
    slice of a stacked call is bitwise its 2-D call, so each baseline is
    bitwise the minimum over trials of
    ``empirical_mse(orthogonal_random_init(skeleton, act, rng_t), test)``.
    The iterated-SVD rows are ``empirical_mse(eys_init(...), test)`` itself,
    from one :class:`EysCache`, which shares the levels the same way.
    Returns a list of ``(skeleton, eys_mse, baseline_best_mse)`` rows.

    Raises :class:`~symae.linalg.NumericalError` naming the trial and the
    level of a draw that breaks ``E D = I``, or naming the skeleton whose
    iterated-SVD score or best random score is not finite.
    """
    if trials < 1:
        raise ValueError(f"init study needs at least one random trial, got {trials}")
    train_U, _val, test_U = split(U, seed)
    train_norm, lo, hi = minmax_normalize(train_U)
    test_norm = apply_minmax(test_U, lo, hi)
    n_test = test_norm.shape[1]
    test_sq = float(np.sum(test_norm * test_norm))
    cache = EysCache(train_norm, act)
    eys = [empirical_mse(cache.network(skeleton), test_norm) for skeleton in skeletons]
    best = [np.inf] * len(skeletons)
    for first in range(0, trials, _TRIAL_BLOCK):
        rngs = [
            np.random.default_rng(derive_seed(seed, t))
            for t in range(first, min(first + _TRIAL_BLOCK, trials))
        ]
        # dims[:j+1] -> (each trial's generator state after its draws,
        #                its stacked levels, the stacked test encoding)
        memo = {test_norm.shape[:1]: ([rng.bit_generator.state for rng in rngs], (), test_norm)}
        # dims[:2] -> (each trial's C = D^T T, P = ||T||^2 - ||C||^2,
        #              ||C||^2 and the slack factor of its split)
        splits = {}
        for i, skeleton in enumerate(skeletons):
            dims = skeleton.dims
            shared = max(j for j in range(skeleton.depth + 1) if dims[: j + 1] in memo)
            states, layers, H = memo[dims[: shared + 1]]
            for rng, state in zip(rngs, states):
                rng.bit_generator.state = state
            for j in range(shared + 1, skeleton.depth + 1):
                shape = skeleton.layer_shape(j)
                level = _orthogonal_level(np.stack([rng.standard_normal(shape) for rng in rngs]))
                gap = _check_drawn(level, first, j)
                if j == 1:
                    C = level.E @ test_norm
                    C_sq = np.sum(np.square(C), axis=(1, 2))
                    n0, n1 = shape
                    slack = _SPLIT_SLACK + n1 * (gap + n0 * _UNIT_ROUNDOFF)
                    splits[dims[:2]] = (C, test_sq - C_sq, C_sq, slack)
                    H = act.apply(C + level.e)
                else:
                    H = encode_columns((level,), act, H, "SOAE")
                layers += (level,)
                memo[dims[: j + 1]] = ([rng.bit_generator.state for rng in rngs], layers, H)
            C, P, C_sq, slack = splits[dims[:2]]
            # Trials whose every candidate would fail the test below, whatever
            # its outer input, are not decoded (see _SPLIT_SLACK).
            keep = np.flatnonzero(
                _may_win(P / n_test, slack * (2 * test_sq + 3 * C_sq) / n_test, best[i])
            )
            if not keep.size:
                continue
            if keep.size < len(rngs):
                # Only the decoders are read from here on.
                layers = tuple(lv._replace(D=lv.D[keep]) for lv in layers)
                H, C, P, slack = H[keep], C[keep], P[keep], slack[keep]
            G = act.apply_inverse(decode_columns(layers[1:], act, H, "SOAE"))
            D, d = layers[0].D, layers[0].d
            surrogate = (P + np.sum(np.square(C - G), axis=(1, 2))) / n_test
            allowance = slack * (test_sq + np.sum(np.square(G), axis=(1, 2))) / n_test
            for k in range(keep.size):
                if _may_win(surrogate[k], allowance[k], best[i]):
                    best[i] = min(best[i], _squared_error(test_norm, D[k], d, G[k]) / n_test)
    rows = [(skeleton, eys_mse, float(b)) for skeleton, eys_mse, b in zip(skeletons, eys, best)]
    for skeleton, eys_mse, base_mse in rows:
        if not (math.isfinite(eys_mse) and math.isfinite(base_mse)):
            raise NumericalError(
                f"init study of skeleton {skeleton.dims}: the test MSE is not finite "
                f"(iterated SVD {eys_mse!r}, best random {base_mse!r})"
            )
    return rows


def _may_win(surrogate, allowance, best):
    """Whether a candidate whose score is within ``allowance`` of ``surrogate``
    may score at most ``best``, elementwise; a NaN surrogate may."""
    return np.logical_not(surrogate - best > allowance)


def _squared_error(T, D, d, G) -> float:
    """``sum((T - (D G + d))^2)`` by the operations of
    :func:`~symae.architecture.empirical_mse`."""
    resid = T - (D @ G + d)
    return float(np.sum(resid * resid))


def _check_drawn(level: Layer, first: int, j: int) -> np.ndarray:
    """Check a stack of drawn levels ``j`` of trials ``first, first + 1, ...``.

    :func:`_orthogonal_level` makes ``E`` a view of ``D^T`` with zero
    biases, so ``E = D^T`` and ``E d = -e`` hold exactly for finite draws;
    a non-finite draw breaks ``E D = I`` too.  Raises :class:`NumericalError`
    naming the first trial that breaks ``E D = I`` and its level.  Returns
    each trial's max-norm gap of ``E D = I``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.max(np.abs(level.E @ level.D - np.eye(level.E.shape[-2])), axis=(-2, -1))
    bad = ~(gaps <= BIORTH_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericalError(
            f"random trial {first + k}, level {j}: the drawn level violates E D = I "
            f"(max gap {gaps[k]:.3e})"
        )
    return gaps
