"""Dense linear algebra: thin QR, thin SVD, covariance spectra.

Matrices are plain float64 numpy arrays in row-major order; "vectors" that
pair with snapshot columns (means, biases) are stored as ``(n, 1)`` columns.

The thin QR is LAPACK's Householder factorization (``np.linalg.qr``) with
a sign fix that makes it unique.  Its orthonormal factor, :func:`pi_orth`,
is a primitive of the reverse-mode tape: one node whose adjoint is the
closed-form thin-QR vector-Jacobian product.  The SVD is a one-sided Jacobi
iteration (cyclic sweeps over column pairs), chosen for its high relative
accuracy on strongly graded spectra; tall inputs are first reduced by QR,
wide inputs are handled by transposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Var

__all__ = [
    "NumericalError",
    "ThinSVD",
    "require_matrix",
    "householder_qr",
    "pi_orth",
    "thin_svd",
    "covariance_spectrum",
    "orthonormal_completion",
]

JACOBI_MAX_SWEEPS = 60
JACOBI_TOL = 1e-12

# Deterministic source of completion directions for rank-deficient inputs.
_COMPLETION_SEED = 0x5D32C1


class NumericalError(RuntimeError):
    """An iterative kernel failed to reach its accuracy target."""


@dataclass(frozen=True)
class ThinSVD:
    """Thin singular value decomposition ``A = U @ diag(s) @ V.T``.

    ``U`` is m-by-k and ``V`` is n-by-k with orthonormal columns,
    ``s`` is nonincreasing and nonnegative, ``k = min(m, n)``.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray


def require_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a 2-D float64 array with finite entries."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def householder_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of an m-by-n array with m >= n, R diagonal forced nonnegative.

    LAPACK's Householder factorization plus a sign fix that makes it unique
    for full-rank input.  Returns ``(Q, R)`` where ``Q`` is m-by-n with
    orthonormal columns and ``R`` is n-by-n upper triangular.
    """
    A = np.asarray(A, dtype=np.float64)
    m, n = A.shape
    if m < n:
        raise ValueError(f"householder_qr needs m >= n, got {m}x{n}")
    Q, R = np.linalg.qr(A)
    flips = np.where(np.diagonal(R) >= 0.0, 1.0, -1.0)
    return Q * flips, R * flips[:, None]


def pi_orth(A):
    """Orthonormalize the columns of a tall matrix.

    Returns the Q factor of the sign-fixed thin QR: an ``m x n`` matrix with
    orthonormal columns whose span contains the span of ``A`` (with equality
    when ``A`` has full column rank).  Deterministic and a fixed point on
    inputs that already have orthonormal columns.

    On an autodiff ``Var`` the result is one tape node with the same forward
    value and the closed-form thin-QR adjoint (with ``R_bar = 0``):
    ``A_bar = (Q_bar + Q copyltu(M)) R^-T`` where ``M = -Q_bar^T Q`` and
    ``copyltu(M) = tril(M) + tril(M, -1)^T``.  The adjoint needs ``R``
    invertible; an exactly singular ``R`` raises :class:`NumericalError`.
    """
    if not isinstance(A, Var):
        return householder_qr(A)[0]
    Q, R = householder_qr(A.value)
    m, n = Q.shape

    def vjp(g):
        M = -(g.T @ Q)
        B = g + Q @ (np.tril(M) + np.tril(M, -1).T)
        try:
            return (np.linalg.solve(R, B.T).T,)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"pi_orth adjoint: R factor of the {m}x{n} input is singular "
                "(the input is rank-deficient)"
            ) from exc

    return Var._node(Q, (A,), vjp)


def orthonormal_completion(B: np.ndarray, total: int) -> np.ndarray:
    """Extend orthonormal columns ``B`` (m x r) to ``total`` orthonormal columns.

    The extra directions come from a fixed-seed gaussian draw pushed through
    QR, so the result is deterministic for a given input.  Draws are made
    column by column and Householder Q columns depend only on the columns
    to their left, so completing the same ``B`` to a larger total preserves
    the leading completion columns.
    """
    m, r = B.shape
    if total < r or total > m:
        raise ValueError(f"cannot complete {m}x{r} to {total} columns")
    if total == r:
        return B
    rng = np.random.default_rng(_COMPLETION_SEED)
    G = rng.standard_normal((total - r, m)).T
    Q, _ = householder_qr(np.concatenate([B, G], axis=1))
    return np.concatenate([B, Q[:, r:total]], axis=1)


def _jacobi_orthogonalize(B: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the columns of ``B`` until they are pairwise orthogonal.

    Cyclic one-sided Jacobi: for each column pair the Gram entry is zeroed
    by a plane rotation, accumulated into ``V``.  Convergence criterion is
    the pairwise cosine ``|b_p . b_q| <= tol * |b_p| * |b_q|``, which keeps
    full relative accuracy even when column norms span many orders of
    magnitude.  Returns ``(W, Vt)`` with ``W = (B @ V).T`` and ``Vt = V.T``.
    """
    _m, n = B.shape
    W = np.ascontiguousarray(B.T)
    Vt = np.eye(n)
    if n < 2:
        return W, Vt
    for _ in range(JACOBI_MAX_SWEEPS):
        norms2 = np.einsum("ij,ij->i", W, W)
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                dp = norms2[p]
                dq = norms2[q]
                if dp == 0.0 or dq == 0.0:
                    continue
                c = float(W[p] @ W[q])
                if abs(c) <= JACOBI_TOL * math.sqrt(dp) * math.sqrt(dq):
                    continue
                zeta = (dq - dp) / (2.0 * c)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                wp = cs * W[p] - sn * W[q]
                W[q] = sn * W[p] + cs * W[q]
                W[p] = wp
                vp = cs * Vt[p] - sn * Vt[q]
                Vt[q] = sn * Vt[p] + cs * Vt[q]
                Vt[p] = vp
                norms2[p] = max(dp - t * c, 0.0)
                norms2[q] = max(dq + t * c, 0.0)
                rotated = True
        if not rotated:
            return W, Vt
    worst = _worst_cosine(W)
    raise NumericalError(
        f"one-sided Jacobi SVD did not converge for a {label} matrix after "
        f"{JACOBI_MAX_SWEEPS} sweeps (worst pairwise cosine {worst:.3e})"
    )


def _worst_cosine(W: np.ndarray) -> float:
    norms = np.sqrt(np.einsum("ij,ij->i", W, W))
    scale = np.where(norms > 0.0, norms, 1.0)
    G = (W / scale[:, None]) @ (W / scale[:, None]).T
    np.fill_diagonal(G, 0.0)
    return float(np.max(np.abs(G)))


def thin_svd(A: np.ndarray) -> ThinSVD:
    """Thin SVD with deterministic ordering and column signs.

    Singular values are sorted nonincreasing (stable order on ties); each
    left singular vector is flipped so its largest-magnitude entry is
    positive.  Columns whose singular value underflows to exactly zero are
    replaced by a deterministic orthonormal completion, keeping ``U``
    orthonormal even for rank-deficient input.

    Raises :class:`NumericalError` if the Jacobi sweeps fail to converge.
    """
    A = require_matrix(A, "svd input")
    m, n = A.shape
    if m < n:
        flipped = thin_svd(A.T)
        return ThinSVD(U=flipped.V, s=flipped.s, V=flipped.U)

    if m > n:
        Q0, core = householder_qr(A)
    else:
        Q0 = None
        core = A.copy()

    W, Vt = _jacobi_orthogonalize(core, f"{m}x{n}")
    s = np.sqrt(np.einsum("ij,ij->i", W, W))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    W = W[order]
    Vt = Vt[order]

    U = np.empty((n, n))
    nonzero = s > 0.0
    rank = int(np.count_nonzero(nonzero))
    U[: len(s)] = np.divide(W, np.where(nonzero, s, 1.0)[:, None])
    U = U.T
    if rank < n:
        U = orthonormal_completion(U[:, :rank], n)
    if Q0 is not None:
        U = Q0 @ U

    # Sign convention: dominant entry of each left singular vector positive.
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.where(U[idx, np.arange(n)] < 0.0, -1.0, 1.0)
    return ThinSVD(U=U * signs, s=s, V=Vt.T * signs)


def covariance_spectrum(
    U: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-decomposition of the empirical covariance of snapshot columns.

    For ``U`` of shape ``(n0, S)`` the empirical covariance (normalized by
    ``1/S``) has eigenvalues ``s_i^2 / S`` and eigenvectors equal to the
    left singular vectors of the column-centered snapshot matrix.

    Returns ``(mean, eigvecs, eigvals)`` where ``mean`` is the ``(n0, 1)``
    sample mean, eigenvalues are nonincreasing of length ``min(n0, S)``.
    """
    U = require_matrix(U, "snapshot matrix")
    n0, S = U.shape
    if S < 1:
        raise ValueError("need at least one snapshot column")
    mean = U.mean(axis=1, keepdims=True)
    svd = thin_svd(U - mean)
    return mean, svd.U, (svd.s * svd.s) / S
