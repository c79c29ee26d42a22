"""Initialization strategies for symmetric autoencoders.

Three schemes are provided:

* :func:`eys_init` - the data-driven iterated-SVD scheme: each level
  centers the current hidden representation, keeps the leading left
  singular vectors as the layer basis, and pushes the data through the new
  layer before fitting the next one.  Deterministic given the data.
* :func:`he_init` - gaussian weights whose variance extends the classic
  He rule to arbitrary bilipschitz activations via their slope envelope.
* :func:`orthogonal_random_init` - random orthonormal bases with zero
  biases, the usual baseline for constrained architectures.

:func:`lift` converts an orthogonal-form network into the unconstrained
parameter vector of any hypothesis class so training can start from it.
:func:`init_study` scores the iterated-SVD start against the best of many
random orthogonal starts over a family of skeletons.
"""

from __future__ import annotations

import warnings

import numpy as np

from .activations import Activation
from .architecture import (
    LAYER_PARAM_KEYS,
    ParamVector,
    Skeleton,
    SymmetricAutoencoder,
    Layer,
    check_class_invariants,
    empirical_mse,
    spare_dim,
)
from .linalg import (
    covariance_spectrum,
    leading_basis,
    orthonormal_completion,
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


def derive_seed(seed: int, index: int) -> int:
    """Child seed for trial ``index``: splitmix64 of ``seed + index``."""
    z = (int(seed) + int(index)) & 0xFFFFFFFFFFFFFFFF
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class EysCache:
    """Memo for iterated-SVD levels shared across skeletons on one dataset.

    Levels are keyed by the tuple of widths retained so far, so skeleton
    families with a common prefix (width sweeps, depth ladders) reuse the
    expensive leading factorizations.
    """

    def __init__(self, U: np.ndarray, act: Activation):
        self.act = act
        self._data = {(): require_matrix(U, "snapshot matrix")}
        self._spectra = {}

    def level(self, prefix: tuple[int, ...]):
        """(mean, eigvecs, eigvals) of the representation after ``prefix``."""
        if prefix not in self._spectra:
            self._spectra[prefix] = covariance_spectrum(self._representation(prefix))
        return self._spectra[prefix]

    def _representation(self, prefix: tuple[int, ...]) -> np.ndarray:
        if prefix not in self._data:
            head = prefix[:-1]
            mean, eigvecs, _ = self.level(head)
            V = leading_basis(eigvecs, prefix[-1])
            Z = self._data[head]
            self._data[prefix] = self.act.apply(V.T @ (Z - mean))
        return self._data[prefix]


def eys_init(
    U: np.ndarray,
    skeleton: Skeleton,
    act: Activation,
    cache: EysCache | None = None,
) -> SymmetricAutoencoder:
    """Iterated-SVD initialization; returns an orthogonal-class network.

    Level by level: the bias is the sample mean of the current hidden
    representation, the basis is the leading left singular vectors of the
    centered representation, and the data is pushed through the finished
    layer.  The result carries spare orthonormal directions (the next
    singular vectors) used when lifting into the biorthogonal class.

    Entirely deterministic: no randomness enters, and directions past the
    numerical rank of the centered data (spares included) are the
    orthonormal completion of :func:`~symae.linalg.leading_basis`; a level
    wider than that rank is reported via ``warnings.warn``.
    """
    U = require_matrix(U, "snapshot matrix")
    if U.shape[1] < 2:
        raise ValueError("iterated-SVD initialization needs at least two snapshots")
    if U.shape[0] != skeleton.dims[0]:
        raise ValueError(
            f"snapshot dimension {U.shape[0]} != skeleton input {skeleton.dims[0]}"
        )
    if cache is None:
        cache = EysCache(U, act)
    layers = []
    spares = []
    prefix: tuple[int, ...] = ()
    for j in range(1, skeleton.depth + 1):
        n_prev, n_j = skeleton.layer_shape(j)
        mean, eigvecs, eigvals = cache.level(prefix)
        if len(eigvals) < n_j:
            warnings.warn(
                f"level {j}: requested width {n_j} exceeds numerical rank {len(eigvals)}; "
                "padding with an orthonormal completion",
                stacklevel=2,
            )
        basis = leading_basis(eigvecs, n_j + spare_dim(n_prev, n_j))
        V = basis[:, :n_j]
        layers.append(Layer(E=V.T, D=V, e=-(V.T @ mean), d=mean))
        spares.append(basis[:, n_j:].copy())
        prefix = prefix + (n_j,)
    return SymmetricAutoencoder(
        skeleton, act, tuple(layers), "SOAE", complements=tuple(spares)
    )


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
    layers = []
    for j in range(1, skeleton.depth + 1):
        q, r = skeleton.layer_shape(j)
        V = pi_orth(rng.standard_normal((q, r)))
        layers.append(Layer(E=V.T, D=V, e=np.zeros((r, 1)), d=np.zeros((q, 1))))
    return SymmetricAutoencoder(skeleton, act, tuple(layers), class_tag)


def lift(psi: SymmetricAutoencoder, class_tag: str) -> ParamVector:
    """Express a network as unconstrained parameters of ``class_tag``.

    SAE/PlainAE take the weights verbatim.  SOAE requires an
    orthogonal-form network, one that passes the SOAE invariant check
    whatever its class tag, and keeps ``(D_j, d_j)`` as coordinates.  SBAE
    additionally needs orthonormal directions outside ``span(D_j)``; these
    come from the network's stored complements (iterated-SVD spares) or,
    failing that, a deterministic completion.  In every case assembling the
    lifted parameters reproduces the original reconstruction map.
    """
    if class_tag not in LAYER_PARAM_KEYS:
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
    if class_tag == "SOAE":
        for layer in psi.layers:
            layers.append({"A": layer.D.copy(), "b": layer.d.copy()})
        return ParamVector("SOAE", psi.skeleton, psi.act, layers)

    for j, layer in enumerate(psi.layers, start=1):
        q, r = psi.skeleton.layer_shape(j)
        d = spare_dim(q, r)
        spare = psi.complements[j - 1] if psi.complements is not None else None
        if spare is None or spare.shape[1] < d:
            spare = orthonormal_completion(layer.D, r + d)[:, r:]
        layers.append(
            {
                "X": np.concatenate([layer.D, spare[:, :d]], axis=1),
                "Y": np.eye(r),
                "Z": np.eye(r),
                "Q": np.zeros((d, r)),
                "s": np.ones((r, 1)),
                "b": layer.d.copy(),
            }
        )
    return ParamVector("SBAE", psi.skeleton, psi.act, layers)


def init_study(U, act, skeletons, trials, seed):
    """Initial test MSE per skeleton: iterated-SVD vs best-of-``trials`` random.

    Shares the standardized split/normalization pipeline; the iterated-SVD
    levels are cached across skeletons with a common prefix.  Returns a list
    of ``(skeleton, eys_mse, baseline_best_mse)`` rows.
    """
    train_U, _val, test_U = split(U, seed)
    train_norm, lo, hi = minmax_normalize(train_U)
    test_norm = apply_minmax(test_U, lo, hi)
    cache = EysCache(train_norm, act)
    rows = []
    for skeleton in skeletons:
        psi = eys_init(train_norm, skeleton, act, cache=cache)
        eys_mse = empirical_mse(psi, test_norm)
        best = np.inf
        for trial in range(trials):
            rng = np.random.default_rng(derive_seed(seed, trial))
            candidate = orthogonal_random_init(skeleton, act, rng)
            best = min(best, empirical_mse(candidate, test_norm))
        rows.append((skeleton, eys_mse, float(best)))
    return rows
