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
prefix is drawn once per trial and then orthonormalized and checked for
``E D = I`` once for the whole block, as one stack.  The sibling levels
that end their skeletons after a common prefix (the second levels of a
width sweep) are cut from one stream of normals per trial, as wide as the
widest of them, which is bitwise each one's own draw.  A level that two
skeletons share is applied to the test split for the whole block; the
levels past it only for the trials that can still win.  Each trial keeps
its own draw order, each slice of a stacked call is bitwise its 2-D call,
and every candidate that can win is scored by the operations of
:func:`~symae.architecture.empirical_mse`, so every row is bitwise the one
:func:`orthogonal_random_init` gives skeleton by skeleton.

Only a random candidate that can beat the best score so far is scored that
way.  For an orthonormal outer frame ``D`` with zero bias, the test split
``T`` and ``C = D^T T`` split every reconstruction error exactly:
``||T - D G||^2 = (||T||^2 - ||C||^2) + ||C - G||^2``, a projection
residual shared by every skeleton on that first level plus the inner map's
error in level-1 coordinates.  The projection residual comes from two sums
once per trial.  A candidate's surrogate takes for ``G`` the decode ``G~``
of its innermost pre-activation without the innermost activation round
trip, so it costs one ``n1 x n_test`` pass past the inner decode; a
candidate whose surrogate exceeds the best score by more than its roundoff
allowance (:data:`_SPLIT_SLACK`) scores above it and is skipped, and a
trial whose projection residual alone settles every candidate that way is
not encoded past the shared levels at all.  Nor is a trial decoded whose
lower bound settles them: the projection residual plus the level-2 one
discounted by ``Lip(act)^-2``, the first two terms of
:func:`~symae.bounds.layerwise_bounds`' lower sum.  The candidates that may
win are decoded again with the round trip, as one sub-stack, and scored in
ascending surrogate order.  Where the round trip's roundoff bound would
outgrow the split's own, ``G~`` is not used: the surrogate takes ``G``
itself, as the score does.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter

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
    empirical_mse,
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
# blocks buy no speed and cost memory: on pga400 (generate_pga seed 100) with
# widths 1-20 behind a first width of 20, HypAct at sharpness 0.5 and 100
# trials, one call on a 2-vCPU VM with one BLAS thread took a median of 332,
# 301, 333 and 465 ms (minimum 228, 210, 266 and 362 ms; 12 interleaved
# rounds) in blocks of 10, 20, 50 and 100, and its traced peak allocation
# was 7.5, 11.4, 22.9 and 30.6 MB.
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
#
# The surrogate's outer input is not the score's G but G~, decoded from the
# innermost pre-activation Y without the innermost rho / rho^-1 pair: for
# depth 2, G = rho^-1(D_2 rho^-1(rho(Y)) + d_2) and G~ = rho^-1(D_2 Y + d_2).
# Their gap e = ||G - G~|| is roundoff of the two decodes.  It is bounded by
#   e <= omega (sqrt(n1 n_test) + ||C||),
#   omega = 2 L kappa^(L-1) (tau + n1^1.5 u),  kappa = 2 Lip(rho) Lip(rho^-1),
# for depth L.  The bound rests on the tolerances the activation tests
# check, not on a proof of the HypAct kernel's accuracy; its steps are:
#   * the round trip rho^-1(rho(y)) returns y within tau max(1, |y|), and
#     each evaluation of rho^-1 returns its exact value x within
#     tau max(1, |x|), with tau = 16 eps (1 + Lip(rho)^0.5): the HypAct
#     tolerances of TestHypActProperties's round-trip test and of its test
#     against a high-precision reference.  LeakyReLU rounds once, to u |x|,
#     and Identity is exact.  Over at most n1 n_test entries, max(1, |x|)
#     has a norm of at most sqrt(n1 n_test) + ||x||;
#   * each of the L - 1 decode levels rho^-1(D z + d) carries the gap of its
#     two inputs with a gain of at most Lip(rho^-1) ||D||_2, and adds its own
#     roundoff of the two: n1^1.5 u relative for D z in any summation order
#     (as for D G above), and tau for rho^-1;
#   * encoding grows norms from ||C|| by at most Lip(rho) ||E||_2 a level and
#     decoding by Lip(rho^-1) ||D||_2, and ||E||_2 ||D||_2 = ||D^T D||_2
#     <= 1 + n1 gap <= 2, so every input and output on the way is within
#     kappa^(L-1) (sqrt(n1 n_test) + ||C||), and the L sources together give
#     the bound.
# The split's gap moves by |<G~ - G, 2 C - G - G~>| <= 2 e (||C|| + ||G~||)
# + e^2, and slack ||G||^2 <= slack (||G~|| + e)^2, so the allowance, taken
# with ||G~||, grows by e (3 (||C|| + ||G~||) + 2 e).  For the trial bound,
# ||G~|| <= ||C|| + ||C - G~|| and 3 e ||C - G~|| <= (1 - 2 slack)
# ||C - G~||^2 + 3 e^2, so it grows by e (6 ||C|| + 5 e).  init_study takes
# e and both terms at the block's largest ||C||.  On the study's outer
# level (HypAct at sharpness 0.5, n1 = 20, depth 2) omega is about 2e-13, so
# e is about 1e-11 against an allowance near 1e-9 ||T||^2.  omega grows as
# kappa^(L-1), so for a sharp activation or a deep skeleton the round trip's
# term would outgrow the split's own; where it would for some trial of a
# block, init_study decodes that skeleton's G with the round trip, as the
# score does, and adds nothing.
#
# The screen, from depth 2.  With H1 = rho(C) and Y2 = E_2 H1 = D_2^T H1 as
# computed, R = ||H1||^2 - ||Y2||^2 and lambda = Lip(rho)^-2, the trial's
# lb = (P + lambda R) / n_test is the first two terms of layerwise_bounds'
# lower sum, so no candidate of the trial scores below it.  A trial with
#   lb - best > (bound + 6 slack lambda R + lambda sigma ||H1||^2
#                + (4 e0^2 + 3 e^2) / slack + e (6 ||C|| + 2 e)) / n_test,
#   sigma = _SPLIT_SLACK + 6 n2 (gap_2 + n1 u)
# for level 2's checked gap, has every candidate fail the per-candidate
# test, and is not decoded.  Here bound is the trial bound's
# slack (2 ||T||^2 + 3 ||C||^2), e0 the bound on the decode's roundoff above
# (taken whether or not G~ is used) and e the allowance's own term (0 with
# the round trip).  The steps, for an outer input G' (G~ or G):
#   * G' is rho^-1(D_2 W) for some W up to the last decode level's roundoff,
#     one source of e0's bound, and C is rho^-1(H1) up to 2 tau
#     (sqrt(n1 n_test) + ||C||) <= e0 (the round-trip and inverse
#     tolerances; omega >= 8 tau).  rho is Lip(rho)-Lipschitz and the zero
#     bias puts rho(rho^-1(D_2 W)) in span D_2, so
#     ||C - G'|| >= Lip(rho)^-1 dist(H1, span D_2) - 2 e0;
#   * with ||Delta_2||_2 <= n2 (gap_2 + n1 u), as for level 1, the
#     projection onto span D_2 exceeds ||D_2^T h||^2 by at most
#     3 ||Delta_2||_2 ||h||^2, and Y2's product moves its squared norm by at
#     most 3 n1 n2^0.5 u ||H1||^2, so dist(H1, span D_2)^2 >= R - sigma
#     ||H1||^2 (the roundoff of the sums is inside _SPLIT_SLACK);
#   * squaring, with 4 e0 sqrt(lambda R) <= slack lambda R + 4 e0^2 / slack,
#     ||C - G'||^2 >= (1 - slack) lambda R - lambda sigma ||H1||^2
#     - 4 e0^2 / slack;
#   * ||G'|| <= ||C|| + ||C - G'|| and 3 e ||C - G'|| <= slack ||C - G'||^2
#     + 9 e^2 / (4 slack) put the allowance, times n_test, at most
#     slack (||T||^2 + 2 ||C||^2) + 3 slack ||C - G'||^2 + e (6 ||C|| + 2 e)
#     + 9 e^2 / (4 slack).  Keeping slack ||C - G'||^2 for the rounding of
#     that sum, (1 - 4 slack) ||C - G'||^2 must outgrow what is left, and
#     the step above gives it.
# That leaves slack (||T||^2 + ||C||^2 + lambda R) spare for the rounding of
# the few scalar operations, as in the trial bound.  Neither bound needs
# ||G'||, so the screen runs before any level past the second is encoded.
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
    prefix (states are saved only after the levels some skeleton extends).
    The levels after a prefix that end their skeletons are not drawn one by
    one: each trial draws one stream of ``q r_max`` normals from its state
    after the prefix, for the widest ``r_max`` of them, and a ``q x r``
    level takes its first ``q r``, which is bitwise its own draw, since
    ``standard_normal`` fills its output in order.  The block's draws of a
    level are then orthonormalized by one
    stacked :func:`~symae.linalg.pi_orth` call and checked for ``E D = I``
    by one stacked product, for every trial.  A level that two skeletons
    share is applied to the test split once for the whole block, as one
    stack; the levels past those are encoded and decoded only for the trials
    kept by the test below, as a sub-stack.

    A random candidate is scored exactly only if it can win.  Random levels
    have zero biases, so for each first level ``dims[:2]`` and trial ``k``,
    ``C_k = D_k^T T`` (the test split's level-1 pre-activation) and the
    projection residual ``P_k = ||T||^2 - ||C_k||^2`` are computed once.  A
    candidate gets the surrogate ``s = (P_k + ||C_k - G~||^2) / n_test``,
    where its outer input ``G~`` is decoded from its innermost
    pre-activation ``Y`` without the innermost ``act`` / ``act^-1`` pair
    (for depth 2, ``G~ = act^-1(D_2 Y + d_2)``).  ``s`` equals its score up
    to roundoff (the level-1 split and that pair's, :data:`_SPLIT_SLACK`),
    and the candidate is scored exactly only when ``s - best <= allowance``,
    where the allowance is
    ``(_SPLIT_SLACK + n1 (gap_k + n0 u)) (||T||^2 + ||G~||^2) / n_test``, for
    trial ``k``'s checked orthonormality gap and ``u = 2^-53``, plus the
    bound on the pair's roundoff; a NaN surrogate is scored.  Where that
    bound would outgrow the rest of the allowance for some trial, and in a
    skeleton's first block, which has no best score to screen against, the
    surrogate takes the score's ``G`` instead, decoded with the pair, and the
    allowance has no roundoff term for it.  A skipped candidate scores above
    the best so far, so skipping it leaves the minimum unchanged.  Before a
    skeleton's levels past the shared ones are encoded, a trial whose
    ``P_k`` alone puts every candidate past that allowance, whatever its
    outer input is, is dropped (see :data:`_SPLIT_SLACK`).  From depth 2,
    once the level-2 pre-activation ``Y_2 = E_2 H_1`` of the kept trials is
    in hand, with ``H_1 = act(C_k)``, the first two terms of
    :func:`~symae.bounds.layerwise_bounds`' lower sum,
    ``lb = (P_k + Lip(act)^-2 (||H_1||^2 - ||Y_2||^2)) / n_test``, screen
    them: a trial whose ``lb`` exceeds the best by more than an allowance
    under which all its candidates would fail the test above is neither
    encoded further nor decoded (see :data:`_SPLIT_SLACK`).  The candidates
    that may win are decoded with the pair from ``act(Y)``, as one
    sub-stack, by the operations of
    :func:`~symae.architecture.decode_columns`, tested again in ascending
    surrogate order as the best falls, and scored by the operations of
    :func:`~symae.architecture.empirical_mse`, in the same order; the
    minimum does not depend on the order, and each slice
    of a stacked call is bitwise its 2-D call, so each baseline is bitwise
    the minimum over trials of
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
    # How many skeletons have each width prefix dims[:j+1], j >= 1, as a level.
    users = Counter(sk.dims[: j + 1] for sk in skeletons for j in range(1, sk.depth + 1))
    # The levels some skeleton extends.  The others end their skeletons: each
    # trial draws them all from one stream per prefix, as wide as the widest.
    extended = {sk.dims[: j + 1] for sk in skeletons for j in range(1, sk.depth)}
    widest = Counter()
    for sk in skeletons:
        if sk.dims not in extended:
            widest[sk.dims[:-1]] = max(widest[sk.dims[:-1]], sk.dims[-1])
    drifts = [_decode_drift(act, skeleton) for skeleton in skeletons]
    lam = act.lipschitz_pair()[0] ** -2
    for first in range(0, trials, _TRIAL_BLOCK):
        rngs = [
            np.random.default_rng(derive_seed(seed, t))
            for t in range(first, min(first + _TRIAL_BLOCK, trials))
        ]
        # dims[:j+1] -> (each trial's generator state after its draws, for a
        #                level some skeleton extends; its stacked levels and
        #                their checked gaps of E D = I)
        at = test_norm.shape[:1]  # the prefix whose draws the generators stand after
        memo = {at: ([rng.bit_generator.state for rng in rngs], (), ())}
        # dims[:j] -> each trial's stream of normals for the levels after it
        #             that end their skeletons
        streams = {}
        # dims[:2] -> (each trial's C = D^T T, P = ||T||^2 - ||C||^2, the
        #              slack factor of its split and its trial bound
        #              before the round trip's term; the block's largest
        #              ||C|| and smallest such bound)
        splits = {}
        # dims[:j+1] of a level two skeletons share, or of a first level ->
        # the whole block's pre-activation Y of that level, its encoding
        # act(Y) and, for a first level, the squared norms of act(Y)
        pre, encoded, encoded_sq = {}, {}, {}
        for i, skeleton in enumerate(skeletons):
            dims, depth = skeleton.dims, skeleton.depth
            shared = max(j for j in range(depth + 1) if dims[: j + 1] in memo)
            _, layers, gaps = memo[dims[: shared + 1]]
            for j in range(shared + 1, depth + 1):
                prefix, (q, r) = dims[:j], skeleton.layer_shape(j)
                stream = dims[: j + 1] not in extended
                if at != prefix and not (stream and prefix in streams):
                    for rng, state in zip(rngs, memo[prefix][0]):
                        rng.bit_generator.state = state
                    at = prefix
                if stream:
                    # standard_normal fills in order, so the first q r normals
                    # of the stream are bitwise a (q, r) draw.
                    if prefix not in streams:
                        streams[prefix] = np.stack(
                            [rng.standard_normal(q * widest[prefix]) for rng in rngs]
                        )
                        at = None
                    draws = streams[prefix][:, : q * r].reshape(-1, q, r)
                else:
                    draws = np.stack([rng.standard_normal((q, r)) for rng in rngs])
                    at = dims[: j + 1]
                level = _orthogonal_level(draws)
                gap = _check_drawn(level, first, j)
                if j == 1:
                    # The level-1 pre-activation E T + e, with e zero.
                    C = level.encode_affine(test_norm)
                    C_sq = _squared_norms(C)
                    slack = _SPLIT_SLACK + r * (gap + q * _UNIT_ROUNDOFF)
                    bound = slack * (2 * test_sq + 3 * C_sq)
                    splits[dims[:2]] = (
                        (C, test_sq - C_sq, slack, bound),
                        (math.sqrt(np.max(C_sq)), float(np.min(bound))),
                    )
                layers, gaps = layers + (level,), gaps + (gap,)
                states = None if stream else [rng.bit_generator.state for rng in rngs]
                memo[dims[: j + 1]] = (states, layers, gaps)
            (C, P, slack, bound), (C_max, bound_min) = splits[dims[:2]]
            # e0 bounds the decode's roundoff, and with it ||G - G~||, for
            # every trial of the block (see _SPLIT_SLACK).  Where G~ does not
            # pay, the outer input keeps the round trip, as the score's does,
            # and the allowances have no term e for it.
            e0 = drifts[i] * (math.sqrt(dims[1] * n_test) + C_max)
            round_trip = not _skips_round_trip(best[i], e0, C_max, bound_min)
            e = 0.0 if round_trip else e0
            # Trials whose every candidate would fail the test below, whatever
            # its outer input, are neither encoded past the shared levels nor
            # decoded (see _SPLIT_SLACK).
            keep = np.flatnonzero(
                _may_win(P / n_test, (bound + e * (6 * C_max + 5 * e)) / n_test, best[i])
            )
            # The innermost pre-activation Y of the kept trials: the levels
            # another skeleton shares are encoded for the whole block, once
            # (index is None), and the levels past them for the kept trials
            # only.  Level 2's pre-activation screens the kept trials first.
            index, Y = None, C
            for j in range(2, depth + 1):
                if not keep.size:
                    break
                if index is None:
                    H = _memoized(encoded, dims[:j], act.apply, Y)
                    if users[dims[: j + 1]] > 1:
                        Y = _memoized(pre, dims[: j + 1], layers[j - 1].encode_affine, H)
                    else:
                        index = _rows(keep, len(rngs))
                        Y = _trials(layers[j - 1], index).encode_affine(H[index])
                else:
                    Y = _trials(layers[j - 1], index).encode_affine(act.apply(Y))
                if j == 2:
                    # The layerwise lower bound's first two terms (see
                    # _SPLIT_SLACK): H = act(C) is the whole block's.
                    H_sq = _memoized(encoded_sq, dims[:2], _squared_norms, H)[keep]
                    R = H_sq - _squared_norms(Y[keep] if index is None else Y)
                    n1, n2 = dims[1:3]
                    sigma = _SPLIT_SLACK + 6 * n2 * (gaps[1][keep] + n1 * _UNIT_ROUNDOFF)
                    screen = np.flatnonzero(
                        _may_win(
                            (P[keep] + lam * R) / n_test,
                            (
                                bound[keep]
                                + 6 * slack[keep] * lam * R
                                + lam * sigma * H_sq
                                + (4 * e0 * e0 + 3 * e * e) / slack[keep]
                                + e * (6 * C_max + 2 * e)
                            )
                            / n_test,
                            best[i],
                        )
                    )
                    if index is not None and screen.size < keep.size:
                        Y = Y[screen]
                        index = _rows(keep[screen], len(rngs))
                    keep = keep[screen]
            if not keep.size:
                continue
            if index is None:
                index = _rows(keep, len(rngs))
                Y = Y[index]
            inner = tuple(_trials(level, index) for level in layers[1:])
            C, P, slack = C[index], P[index], slack[index]
            G = _decode_inner(inner, act, act.apply_inverse(act.apply(Y)) if round_trip else Y)
            G_sq = _squared_norms(G)
            surrogate = (P + _squared_norms(C - G)) / n_test
            allowance = slack * (test_sq + G_sq)
            if not round_trip:
                allowance += e * (3 * (C_max + np.sqrt(G_sq)) + 2 * e)
            allowance /= n_test
            # best only falls, so a candidate that fails the test now fails it
            # at its turn too.  The others get the score's outer input, decoded
            # from act(Y) by decode_columns's operations, as one sub-stack, and
            # are scored in ascending surrogate order, so the best falls early
            # and the later tests skip more.
            win = np.flatnonzero(_may_win(surrogate, allowance, best[i]))
            win = win[np.argsort(surrogate[win], kind="stable")]
            if not win.size:
                continue
            if round_trip:
                G = G[win]
            else:
                exact = act.apply_inverse(act.apply(Y[win]))
                G = _decode_inner(tuple(_trials(level, win) for level in inner), act, exact)
            D, d = layers[0].D, layers[0].d
            for k, outer in zip(win, G):
                if _may_win(surrogate[k], allowance[k], best[i]):
                    best[i] = min(best[i], _squared_error(test_norm, D[keep[k]], d, outer) / n_test)
    rows = [(skeleton, eys_mse, float(b)) for skeleton, eys_mse, b in zip(skeletons, eys, best)]
    for skeleton, eys_mse, base_mse in rows:
        if not (math.isfinite(eys_mse) and math.isfinite(base_mse)):
            raise NumericalError(
                f"init study of skeleton {skeleton.dims}: the test MSE is not finite "
                f"(iterated SVD {eys_mse!r}, best random {base_mse!r})"
            )
    return rows


def _memoized(memo: dict, key, f, x):
    """``memo[key]``, set to ``f(x)`` first if it is missing."""
    if key not in memo:
        memo[key] = f(x)
    return memo[key]


def _rows(keep: np.ndarray, block: int):
    """The index of trials ``keep`` of a block of ``block`` trials: a slice
    when every trial is kept, so the block's own arrays are used, not copies."""
    return keep if keep.size < block else slice(None)


def _squared_norms(X: np.ndarray) -> np.ndarray:
    """Each trial's ``||X_k||^2`` of a stack ``X``."""
    return np.sum(np.square(X), axis=(1, 2))


def _trials(level: Layer, index: np.ndarray) -> Layer:
    """The sub-stack of trials ``index`` of a stacked random level; ``E``
    stays a view of ``D^T``."""
    D = level.D[index]
    return level._replace(E=np.swapaxes(D, -1, -2), D=D)


def _decode_inner(levels, act: Activation, Z: np.ndarray) -> np.ndarray:
    """The outer input ``act^-1(D_2 ... act^-1(D_L Z + d_L) ... + d_2)``:
    with ``Z = act^-1(H)`` for the encoding ``H``, the operations of
    :func:`~symae.architecture.decode_columns` and its caller's ``act^-1``."""
    for level in reversed(levels):
        Z = act.apply_inverse(level.decode_affine(Z))
    return Z


def _skips_round_trip(best: float, e: float, C_max: float, bound_min: float) -> bool:
    """Whether a block's surrogates take ``G~``: only while there is a best
    score to screen against (not in a skeleton's first block) and the round
    trip's term of the trial bound, ``e (6 ||C|| + 5 e)`` at the block's
    largest ``||C||``, stays within the split's own for every trial (not for
    a sharp activation or a deep skeleton)."""
    return math.isfinite(best) and e * (6 * C_max + 5 * e) <= bound_min


def _decode_drift(act: Activation, skeleton: Skeleton) -> float:
    """``omega`` of :data:`_SPLIT_SLACK`'s bound on ``||G - G~||``."""
    lip, lip_inv = act.lipschitz_pair()
    tau = 16.0 * np.finfo(np.float64).eps * (1.0 + math.sqrt(lip))
    depth, n1 = skeleton.depth, skeleton.dims[1]
    growth = (2.0 * lip * lip_inv) ** (depth - 1)
    return 2.0 * depth * growth * (tau + n1**1.5 * _UNIT_ROUNDOFF)


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
