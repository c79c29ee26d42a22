"""Dense linear algebra: thin QR, thin SVD, covariance spectra.

Matrices are plain float64 numpy arrays in row-major order; "vectors" that
pair with snapshot columns (means, biases) are stored as ``(n, 1)`` columns.

The thin QR is LAPACK's Householder factorization (``np.linalg.qr``) with
a sign fix that makes it unique.  Its orthonormal factor, :func:`pi_orth`,
is a primitive of the reverse-mode tape: one node whose adjoint is the
closed-form thin-QR vector-Jacobian product, applied as a product with the
explicit inverse of the n-by-n triangular factor (numpy has no triangular
solve, and ``inv`` plus a matrix product beats an LU solve on the m-by-n
right-hand side).  The SVD is a one-sided Jacobi
iteration, chosen for its high relative accuracy on strongly graded
spectra; tall inputs are first reduced by QR, wide inputs are handled by
transposition.  Its sweeps follow the round-robin order of Brent and Luk:
each round rotates ``n/2`` disjoint column pairs with one batched 2x2
matrix product, and ``n - 1`` rounds (``n`` odd: ``n``) meet every pair.

The one numerical-rank rule is in :func:`covariance_spectrum`; :func:`leading_basis`
completes past it, so no basis depends on how the SVD treats roundoff.
"""

from __future__ import annotations

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
    "leading_basis",
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
    ``copyltu(M) = tril(M) + tril(M, -1)^T``; ``R^-T`` is applied as the
    product ``B @ inv(R).T``.  The adjoint needs ``R`` invertible; an exactly
    singular ``R`` raises :class:`NumericalError`.
    """
    if not isinstance(A, Var):
        return householder_qr(A)[0]
    Q, R = householder_qr(A.value)
    m, n = Q.shape

    def vjp(g):
        try:
            R_inv = np.linalg.inv(R)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"pi_orth adjoint: R factor of the {m}x{n} input is singular "
                "(the input is rank-deficient)"
            ) from exc
        M = -(g.T @ Q)
        B = g + Q @ (np.tril(M) + np.tril(M, -1).T)
        return (B @ R_inv.T,)

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


def _next_round(src: np.ndarray, dst: np.ndarray) -> None:
    """Seat the players of a round-robin round for the next round.

    ``src`` and ``dst`` are ``(k, 2, ...)`` arrays; ``src[i, 0]`` and
    ``src[i, 1]`` meet in the current round.  Seat ``(0, 0)`` stays put and
    the other ``2k - 1`` seats form one ring (the tops left to right, then
    the bottoms right to left) that turns by one seat: the circle method of
    a chess tournament.  After ``2k - 1`` rounds every two players have met
    exactly once and each is back in its starting seat.
    """
    if len(src) == 1:
        dst[...] = src
        return
    dst[0, 0] = src[0, 0]
    dst[1, 0] = src[0, 1]
    dst[2:, 0] = src[1:-1, 0]
    dst[-1, 1] = src[-1, 0]
    dst[:-1, 1] = src[1:, 1]


def _jacobi_orthogonalize(B: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the columns of ``B`` until they are pairwise orthogonal.

    One-sided Jacobi in the round-robin order of Brent and Luk: the rows of
    ``[B.T | I]`` (an odd count padded with one zero row, which never
    rotates) are seated in pairs, and each round zeroes the Gram entry of
    all ``k`` disjoint pairs at once with one batched ``(k, 2, 2)`` plane
    rotation; :func:`_next_round` then reseats the rows, so a sweep of
    ``2k - 1`` rounds meets every column pair once.  A pair is left alone
    (an exact identity rotation) when its cosine satisfies
    ``|b_p . b_q| <= tol * |b_p| * |b_q|``, which keeps full relative
    accuracy even when column norms span many orders of magnitude, or when
    either column is zero; the iteration stops after a sweep with no
    rotation.  Returns ``(W, Vt)`` with ``W = (B @ V).T`` and ``Vt = V.T``.
    """
    m, n = B.shape
    if n < 2:
        return np.ascontiguousarray(B.T), np.eye(n)
    k = (n + 1) // 2
    seats = np.zeros((2 * k, m + n))
    seats[:n, :m] = B.T
    seats[:n, m:] = np.eye(n)
    pairs = seats.reshape(k, 2, m + n)
    rotated_pairs = np.empty_like(pairs)
    norms2 = np.empty((k, 2))
    rotation = np.empty((k, 2, 2))
    turned = np.empty((k, 2))
    for _ in range(JACOBI_MAX_SWEEPS):
        w = pairs[:, :, :m]
        np.einsum("ijl,ijl->ij", w, w, out=norms2)
        rotated = False
        for _ in range(2 * k - 1):
            dp = norms2[:, 0]
            dq = norms2[:, 1]
            c = np.einsum("il,il->i", w[:, 0], w[:, 1])
            norms = np.sqrt(norms2)
            active = np.abs(c) > JACOBI_TOL * norms[:, 0] * norms[:, 1]
            rotated = rotated or bool(active.any())
            # Skipped pairs get zeta = inf, hence t = 0: an exact identity.
            zeta = np.divide(dq - dp, 2.0 * c, out=np.full(k, np.inf), where=active)
            t = np.copysign(1.0 / (np.abs(zeta) + np.hypot(1.0, zeta)), zeta)
            cs = 1.0 / np.sqrt(1.0 + t * t)
            sn = cs * t
            tc = t * c
            np.maximum(dp - tc, 0.0, out=turned[:, 0])
            np.maximum(dq + tc, 0.0, out=turned[:, 1])
            _next_round(turned, norms2)
            rotation[:, 0, 0] = cs
            rotation[:, 1, 1] = cs
            rotation[:, 1, 0] = sn
            np.negative(sn, out=rotation[:, 0, 1])
            np.matmul(rotation, pairs, out=rotated_pairs)
            _next_round(rotated_pairs, pairs)
        if not rotated:
            return seats[:n, :m], seats[:n, m:]
    worst = _worst_cosine(seats[:n, :m])
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
    left singular vectors of the column-centered snapshot matrix.  Only
    ``s_i > n0 * eps * s_0`` counts; the rest is roundoff, not data.

    Returns ``(mean, eigvecs, eigvals)``: the ``(n0, 1)`` sample mean, the
    ``n0 x rank`` eigenvectors and the ``rank`` nonincreasing eigenvalues.
    """
    U = require_matrix(U, "snapshot matrix")
    n0, S = U.shape
    if S < 1:
        raise ValueError("need at least one snapshot column")
    mean = U.mean(axis=1, keepdims=True)
    svd = thin_svd(U - mean)
    rank = int(np.count_nonzero(svd.s > n0 * np.finfo(float).eps * svd.s[0]))
    return mean, svd.U[:, :rank], svd.s[:rank] ** 2 / S


def leading_basis(eigvecs: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` columns of ``eigvecs``, completed past its length."""
    return orthonormal_completion(eigvecs[:, :width], width)
