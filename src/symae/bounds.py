"""Linear-reduction oracle and reconstruction-error bound evaluators.

Everything here is evaluated under the empirical law of the snapshot
columns: expectations become means over columns, covariances are
normalized by ``1/S``, and the eigen-machinery is
:func:`symae.linalg.covariance_spectrum`.

The two-sided layerwise bounds apply to orthogonal-class networks: each
level contributes its mean projection residual, discounted by
``Lip(rho)^-2k`` on the lower side and amplified by ``Lip(rho^-1)^2k`` on
the upper side.  The greedy bound runs the iterated-SVD construction and
sums the weighted covariance tails it leaves behind at each level.

:func:`empirical_mse` is defined in :mod:`symae.architecture`, next to the
networks it scores, and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .architecture import Skeleton, SymmetricAutoencoder, empirical_mse
from .initializers import EysCache
from .linalg import covariance_spectrum, leading_basis, require_matrix

__all__ = [
    "PodResult",
    "LayerwiseBounds",
    "pod",
    "linear_lower_bound",
    "layerwise_bounds",
    "greedy_upper_bound",
    "empirical_mse",
]


@dataclass(frozen=True)
class PodResult:
    basis: np.ndarray
    shift: np.ndarray
    error: float


@dataclass(frozen=True)
class LayerwiseBounds:
    lower: float
    upper: float
    lower_terms: tuple[float, ...]
    upper_terms: tuple[float, ...]


def pod(U: np.ndarray, n: int) -> PodResult:
    """Optimal rank-``n`` affine reduction of the snapshot columns.

    Returns the top ``n`` empirical covariance eigenvectors (completed past
    the numerical rank), the sample mean, and the reduction error: the mean
    squared projection residual, equal to the tail eigenvalue sum.
    """
    U = require_matrix(U, "snapshot matrix")
    if not 0 < n < U.shape[0]:
        raise ValueError(f"reduced dimension must lie in (0, {U.shape[0]}), got {n}")
    mean, eigvecs, eigvals = covariance_spectrum(U)
    return PodResult(
        basis=leading_basis(eigvecs, n),
        shift=mean,
        error=float(np.sum(eigvals[n:])),
    )


def linear_lower_bound(U: np.ndarray, n1: int) -> float:
    """Tail eigenvalue sum of the empirical covariance past ``n1``.

    No symmetric autoencoder whose first hidden width is ``n1`` can beat
    this mean squared error on the same data, because its reconstructions
    live in an ``n1``-dimensional affine subspace.  This is the POD error
    of :func:`pod`.
    """
    return pod(U, n1).error


def layerwise_bounds(psi: SymmetricAutoencoder, U: np.ndarray) -> LayerwiseBounds:
    """Two-sided sandwich on the empirical reconstruction error.

    Only valid for the orthogonal class.  Level ``k`` contributes the mean
    squared residual of projecting the ``k``-th hidden representation onto
    the next layer's basis; the weighted sums satisfy
    ``lower <= empirical_mse <= upper``.
    """
    if psi.class_tag != "SOAE":
        raise ValueError("layerwise bounds require an orthogonal-class network")
    U = require_matrix(U, "snapshot matrix")
    S = U.shape[1]
    lip, lip_inv = psi.act.lipschitz_pair()
    levels = psi.hidden_trajectory(U)
    lower_terms = []
    upper_terms = []
    for k in range(psi.skeleton.depth):
        layer = psi.layers[k]
        H = levels[k]
        centered = H - layer.d
        resid = centered - layer.D @ (layer.E @ centered)
        term = float(np.sum(resid * resid)) / S
        lower_terms.append(lip ** (-2 * k) * term)
        upper_terms.append(lip_inv ** (2 * k) * term)
    return LayerwiseBounds(
        lower=float(np.sum(lower_terms)),
        upper=float(np.sum(upper_terms)),
        lower_terms=tuple(lower_terms),
        upper_terms=tuple(upper_terms),
    )


def greedy_upper_bound(U: np.ndarray, skeleton: Skeleton, act: Activation) -> float:
    """Upper bound on the best orthogonal-class empirical error.

    Runs the iterated-SVD construction on ``U`` (:class:`EysCache`, checks
    included) and accumulates the covariance tail it truncates at each
    level, weighted by ``Lip(rho^-1)^2k``.  Upper-bounds the infimum of the
    empirical MSE over the orthogonal class, and in particular the error of
    the iterated-SVD initializer itself.
    """
    _, lip_inv = act.lipschitz_pair()
    cache = EysCache(U, act)
    cache.network(skeleton)  # checks the skeleton and builds its levels
    widths = skeleton.dims[1:]
    total = 0.0
    for k in range(skeleton.depth):
        _, _, eigvals = cache.spectrum(widths[:k])
        total += lip_inv ** (2 * k) * float(np.sum(eigvals[widths[k]:]))
    return total
