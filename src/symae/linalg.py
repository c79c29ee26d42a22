"""Dense linear algebra: thin QR, thin SVD, covariance spectra.

Matrices are plain float64 numpy arrays in row-major order; "vectors" that
pair with snapshot columns (means, biases) are stored as ``(n, 1)`` columns.

The thin QR, :func:`householder_qr`, is LAPACK's Householder factorization
(``np.linalg.qr``) with a sign fix that makes it unique: ``R`` has a
nonnegative diagonal.  Its orthonormal factor, :func:`pi_orth`, is a
primitive of the reverse-mode tape: one node whose adjoint is the
closed-form thin-QR vector-Jacobian product, a product with ``R^-1``.
On a tall input past a measured shape crossover, :func:`pi_orth` forms the
same Q by CholeskyQR2 instead (two Cholesky factorizations of Gram
matrices and products with their inverses, all matrix-matrix work), which
hands ``R^-1`` to the adjoint.  The result is kept only while the first
pass is close to orthonormal; an ill-conditioned, rank-deficient or
non-finite input is refused and takes the Householder route.  Triangular
factors are inverted by recursive 2x2 blocks, three times faster than
``np.linalg.inv`` (an LU factorization of a general matrix) at n = 128.
Untaped, :func:`pi_orth` and the kernels under it also take a
``(..., m, n)`` stack of matrices; numpy's matmul and LAPACK loops run
each slice as a 2-D call would, so each slice of the result is bitwise a
2-D call's, and the per-call overhead is paid once per stack.  A stack
takes the route its slices would; CholeskyQR2 refuses slice by slice.

The one SVD of the package, :func:`thin_svd`, is one LAPACK call
(``np.linalg.svd``) plus the sign rule that makes its vectors
deterministic: the vector along the longer side gets a positive
largest-magnitude entry.  The covariance spectra behind the iterated-SVD
initializer, POD and the bounds, :func:`covariance_spectrum`, add the
centering and the one numerical-rank rule: a singular value of the
centered data counts only above ``n0 * eps * s0``.  That is the accuracy
LAPACK's backward-stable SVD guarantees, and nothing in the pipeline reads
a direction below it.

:func:`leading_basis` completes past the rank, so no basis depends on how
the SVD treats roundoff.
"""

from __future__ import annotations

import functools
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

# Deterministic source of completion directions for rank-deficient inputs.
_COMPLETION_SEED = 0x5D32C1

# pi_orth tries CholeskyQR2 on an m x n input when (m - 2n) * n**2 reaches
# this.  CholeskyQR2 lost on every measured input with m <= 1.5n, whatever
# its size, and on small ones of any aspect; it won on every one with
# (m - 2n) * n**2 >= 2.5e5.  Untaped time in microseconds, Householder /
# CholeskyQR2, median of 7 (2-core VM, 1 BLAS thread, numpy 2.4 with
# OpenBLAS 0.3.31), by (m - 2n) * n**2:
#   below:    64x64  159 /  332    128x128 1122 / 1586    160x128 1411 / 1682
#             64x30   75 /  122    100x20    56 /   85    514x10    85 /   84
#            514x20  188 /  143    300x30   261 /  245    256x128 2639 / 2009
#   at/above: 225x100 1004 / 906   514x25   252 /  218    400x30   249 /  199
#             2600x10  432 / 175   514x32   456 /  230    514x64  1298 /  725
#             384x128 4028 / 2015  514x128 6627 / 3170
# So the network's level-1 frame 514x64 (skeleton 514,64,...) and the
# 514x64 draws take CholeskyQR2, and the init-study's 514x20 does not.
_CHOLQR2_MIN_WORK = 2.5e5
# CholeskyQR2's first pass is kept only while ||Q1^T Q1 - I||_F is at most
# this.  The Frobenius norm bounds the spectral one, so kappa(Q1) <= sqrt(3)
# and the second pass restores orthogonality to roundoff.  The largest entry
# alone does not: a 7x6 input of rank 5 had entries of at most 0.39 and
# came out with max|Q^T Q - I| = 1.
_CHOLQR2_MAX_GAP = 0.5
# _triangular_inverse halves a block until it has at most this many rows.
_TRIANGULAR_LEAF = 32


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
    orthonormal columns and ``R`` is n-by-n upper triangular.  A stack of
    shape ``(..., m, n)`` is factored slice by slice in one LAPACK loop, and
    each slice is bitwise what a 2-D call on it gives.
    """
    A = np.asarray(A, dtype=np.float64)
    m, n = A.shape[-2:]
    if m < n:
        raise ValueError(f"householder_qr needs m >= n, got {m}x{n}")
    Q, R = np.linalg.qr(A)
    flips = np.where(np.diagonal(R, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)
    return Q * flips[..., None, :], R * flips[..., :, None]


def _transpose(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a ``(..., m, n)`` stack, as a view."""
    return np.swapaxes(a, -1, -2)


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix (or ``(..., n, n)`` stack) by
    recursive 2x2 blocks.

    ``[[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]]``, halving
    until a block has at most ``_TRIANGULAR_LEAF`` rows, which
    ``np.linalg.inv`` inverts.  An LU factorization of a triangular block
    needs no row exchange, so an exactly zero diagonal entry meets a zero
    pivot and raises ``np.linalg.LinAlgError`` (for a stack: in any slice).
    """
    n = R.shape[-1]
    if n <= _TRIANGULAR_LEAF:
        return np.linalg.inv(R)
    k = n // 2
    out = np.zeros(R.shape)
    out[..., :k, :k] = A_inv = _triangular_inverse(R[..., :k, :k])
    out[..., k:, k:] = C_inv = _triangular_inverse(R[..., k:, k:])
    out[..., :k, k:] = -(A_inv @ R[..., :k, k:]) @ C_inv
    return out


def _cholesky_qr2(A: np.ndarray, want_inverse: bool):
    """CholeskyQR2 of a tall ``A``: ``(Q, R^-1)``, or ``None`` to fall back.

    ``R1 = chol(A^T A)^T``, ``Q1 = A R1^-1``, ``R2 = chol(Q1^T Q1)^T`` and
    ``Q = Q1 R2^-1`` (Fukaya et al., ScalA 2014); ``R^-1 = R1^-1 R2^-1`` is
    formed only when ``want_inverse`` (else the second entry is ``None``).
    Cholesky factors have a positive diagonal, so ``Q`` is the Q of the
    sign-fixed thin QR.  Its orthogonality is O(eps) while
    ``kappa(A) <~ eps^-1/2`` (Yamamoto et al., ETNA 44, 2015); the result
    is refused when either factorization fails or when the Frobenius norm
    of ``Q1^T Q1 - I`` exceeds ``_CHOLQR2_MAX_GAP`` (NaN included).

    A ``(..., m, n)`` stack runs every product and factorization once for
    all slices and is refused as a whole when any slice is; the gap of each
    slice is the norm a 2-D call takes, so an accepted stack holds bitwise
    the 2-D results.
    """
    try:
        R1_inv = _triangular_inverse(_transpose(np.linalg.cholesky(_transpose(A) @ A)))
        Q1 = A @ R1_inv
        G = _transpose(Q1) @ Q1
        n = G.shape[-1]
        with np.errstate(over="ignore"):
            gaps = [np.linalg.norm(g) for g in (G - np.eye(n)).reshape(-1, n, n)]
        if not all(gap <= _CHOLQR2_MAX_GAP for gap in gaps):
            return None
        R2_inv = _triangular_inverse(_transpose(np.linalg.cholesky(G)))
    except np.linalg.LinAlgError:
        return None
    return Q1 @ R2_inv, (R1_inv @ R2_inv if want_inverse else None)


@functools.lru_cache(maxsize=None)
def _lower_triangle(n: int) -> np.ndarray:
    """Read-only boolean mask of the lower triangle of an n x n matrix, diagonal included."""
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _copyltu(M: np.ndarray) -> np.ndarray:
    """``tril(M) + tril(M, -1)^T``: the lower triangle of a square ``M``, mirrored.

    Taken with one cached mask; adding 0.0 turns a ``-0.0`` into the
    ``+0.0`` that sum gives, so the result is bitwise the sum's.
    """
    return np.where(_lower_triangle(M.shape[0]), M, M.T) + 0.0


def pi_orth(A):
    """Orthonormalize the columns of a tall matrix.

    Returns the Q factor of the sign-fixed thin QR (``R`` with a positive
    diagonal): an ``m x n`` matrix with orthonormal columns whose span
    contains the span of ``A`` (with equality when ``A`` has full column
    rank).  Deterministic and a fixed point on inputs that already have
    orthonormal columns.

    A tall input with ``(m - 2n) * n**2 >= _CHOLQR2_MIN_WORK`` tries
    :func:`_cholesky_qr2` first; when that refuses (an ill-conditioned,
    rank-deficient or non-finite input, or one whose ``A^T A`` underflows
    or overflows), and below the crossover,
    :func:`householder_qr` runs.  Both give the same unique Q up to
    roundoff, and taped and untaped calls take the same route, so their
    values are bitwise equal.

    An untaped ``(..., m, n)`` stack is orthonormalized slice by slice in
    one call, and each slice is bitwise what a 2-D call on it gives, on the
    same route: below the crossover one stacked Householder call; above it
    one stacked CholeskyQR2 attempt, and when any slice is refused, each
    slice on its own route.

    On an autodiff ``Var`` the result is one tape node with a single edge to
    ``A``, the same forward value and the closed-form thin-QR adjoint (with
    ``R_bar = 0``):
    ``A_bar = (Q_bar + Q copyltu(M)) R^-T`` where ``M = -Q_bar^T Q`` and
    ``copyltu(M) = tril(M) + tril(M, -1)^T``, applied as ``B @ R_inv.T``.
    CholeskyQR2 hands ``R^-1`` over from the forward pass; after Householder
    the adjoint inverts ``R`` with :func:`_triangular_inverse`.  An exactly
    singular ``R`` raises :class:`NumericalError`.  A square ``Q`` does not
    depend on the last column of ``A`` (its last column is fixed by the
    others), so ``B[:, -1]``, zero in exact arithmetic, is set to exactly
    zero, and so is the gradient with respect to that column.
    """
    taped = isinstance(A, Var)
    a = np.asarray(A.value if taped else A, dtype=np.float64)
    m, n = a.shape[-2:]
    if taped and a.ndim != 2:
        raise ValueError(f"a taped pi_orth input must be 2-D, got shape {a.shape}")
    fast = None
    if (m - 2 * n) * n * n >= _CHOLQR2_MIN_WORK:
        fast = _cholesky_qr2(a, want_inverse=taped)
        if fast is None and a.ndim > 2:
            # A slice was refused: each slice takes the route of a 2-D call.
            return np.stack([pi_orth(s) for s in a.reshape(-1, m, n)]).reshape(a.shape)
    if fast is None:
        Q, R = householder_qr(a)
    else:
        Q, R_inv = fast
    if not taped:
        return Q

    def vjp(g):
        M = -(g.T @ Q)
        B = g + Q @ _copyltu(M)
        if m == n:
            B[:, -1] = 0.0
        if fast is not None:
            return B @ R_inv.T
        try:
            return B @ _triangular_inverse(R).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"pi_orth adjoint: R factor of the {m}x{n} input is singular "
                "(the input is rank-deficient)"
            ) from exc

    return Var._node(Q, (A,), lambda g: (vjp(g),))


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


def thin_svd(A: np.ndarray) -> ThinSVD:
    """Thin SVD from one LAPACK call, with deterministic column signs.

    ``np.linalg.svd(A, full_matrices=False)`` on ``A`` itself: singular
    values nonincreasing, ``U`` and ``V`` orthonormal also where a singular
    value is zero.  A wide input is not transposed, since LAPACK's result
    on ``A.T`` is not bitwise its result on ``A``.  Each singular vector
    pair is signed so that the vector along the longer side has a positive
    largest-magnitude entry: the left vector (a column of ``U``) when
    ``m >= n``, the right vector (a column of ``V``) when ``m < n``.

    Raises :class:`NumericalError` naming the ``mxn`` shape if LAPACK's SVD
    fails to converge.
    """
    A = require_matrix(A, "svd input")
    m, n = A.shape
    try:
        left, s, right_t = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK SVD did not converge for a {m}x{n} matrix") from exc
    V = right_t.T
    longer = left if m >= n else V
    idx = np.argmax(np.abs(longer), axis=0)
    signs = np.where(longer[idx, np.arange(len(s))] < 0.0, -1.0, 1.0)
    return ThinSVD(U=left * signs, s=s, V=V * signs)


def covariance_spectrum(
    U: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-decomposition of the empirical covariance of snapshot columns.

    For ``U`` of shape ``(n0, S)`` the empirical covariance (normalized by
    ``1/S``) has eigenvalues ``s_i^2 / S`` and eigenvectors equal to the
    left singular vectors of the column-centered snapshot matrix, taken
    from :func:`thin_svd`, signs included.  Only ``s_i > n0 * eps * s_0``
    counts; the rest is roundoff, not data.  When every column is the same,
    the centered data is the mean's rounding error alone, so ``s_0`` itself
    is roundoff: the rank is 0 when
    ``s_0 <= max(n0, S) * eps * ||mean|| * sqrt(S)``, a bound on that error
    (a sum of ``S`` terms rounds within ``S * eps`` of its magnitude).

    Returns ``(mean, eigvecs, eigvals)``: the ``(n0, 1)`` sample mean, the
    ``n0 x rank`` eigenvectors and the ``rank`` nonincreasing eigenvalues.
    """
    U = require_matrix(U, "snapshot matrix")
    n0, S = U.shape
    if n0 < 1 or S < 1:
        raise ValueError(f"need at least one snapshot row and column, got {n0}x{S}")
    mean = U.mean(axis=1, keepdims=True)
    svd = thin_svd(U - mean)
    eps = np.finfo(float).eps
    if svd.s[0] <= max(n0, S) * eps * np.linalg.norm(mean) * np.sqrt(S):
        rank = 0
    else:
        rank = int(np.count_nonzero(svd.s > n0 * eps * svd.s[0]))
    return mean, svd.U[:, :rank], svd.s[:rank] ** 2 / S


def leading_basis(eigvecs: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` columns of ``eigvecs``, completed past its length."""
    return orthonormal_completion(eigvecs[:, :width], width)
