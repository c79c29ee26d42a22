import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _util import low_rank_snapshots
from symae.linalg import (
    NumericalError,
    _next_round,
    covariance_spectrum,
    householder_qr,
    orthonormal_completion,
    pi_orth,
    require_matrix,
    thin_svd,
)
from symae.training import split


def svd_residual(A, svd):
    return np.max(np.abs(A - svd.U @ np.diag(svd.s) @ svd.V.T))


class TestThinSVD:
    def test_diagonal_matrix(self):
        svd = thin_svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(svd.s, [3.0, 2.0])
        np.testing.assert_allclose(svd.U, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(svd.V, np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        svd = thin_svd(np.zeros((4, 3)))
        np.testing.assert_allclose(svd.s, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(3), atol=1e-12)

    def test_random_reconstruction(self):
        A = np.random.default_rng(11).standard_normal((7, 4))
        svd = thin_svd(A)
        assert svd_residual(A, svd) <= 1e-10 * max(1.0, np.linalg.norm(A))

    @pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9), (30, 100), (1, 1), (5, 1)])
    def test_invariants_across_shapes(self, shape):
        A = np.random.default_rng(sum(shape)).standard_normal(shape)
        svd = thin_svd(A)
        k = min(shape)
        assert svd.s.shape == (k,)
        assert np.all(np.diff(svd.s) <= 0) and np.all(svd.s >= 0)
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(k))) <= 1e-10
        assert np.max(np.abs(svd.V.T @ svd.V - np.eye(k))) <= 1e-10
        assert svd_residual(A, svd) <= 1e-10 * max(1.0, np.linalg.norm(A))

    def test_rank_deficient_duplicate_columns(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 1))
        A = np.concatenate([a, a, rng.standard_normal((8, 1))], axis=1)
        svd = thin_svd(A)
        assert svd_residual(A, svd) <= 1e-12
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(3))) <= 1e-10

    def test_deterministic(self):
        A = np.random.default_rng(5).standard_normal((12, 7))
        s1 = thin_svd(A)
        s2 = thin_svd(A)
        assert np.array_equal(s1.U, s2.U)
        assert np.array_equal(s1.s, s2.s)
        assert np.array_equal(s1.V, s2.V)

    def test_graded_spectrum_keeps_relative_accuracy(self):
        # Mild grading with a full right rotation: forming the input is
        # accurate to ~1e-16 absolute, so values down to 1e-6 are testable.
        rng = np.random.default_rng(8)
        Q = pi_orth(rng.standard_normal((20, 7)))
        s = 10.0 ** -np.arange(0, 7, 1.0)
        A = Q @ np.diag(s) @ pi_orth(rng.standard_normal((7, 7))).T
        svd = thin_svd(A)
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(7))) <= 1e-10
        np.testing.assert_allclose(svd.s, s, rtol=1e-9)

    def test_extreme_grading_via_exact_column_scaling(self):
        # Column scaling and signed permutation are exact in float64, so the
        # target singular values survive construction across 18 decades.
        rng = np.random.default_rng(12)
        Q = pi_orth(rng.standard_normal((20, 10)))
        s = 10.0 ** -np.arange(0, 20, 2.0)
        A = (Q * s)[:, rng.permutation(10)] * np.where(rng.random(10) < 0.5, -1, 1)
        svd = thin_svd(A)
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(10))) <= 1e-10
        np.testing.assert_allclose(svd.s, np.linalg.norm(A, axis=0)[np.argsort(-np.linalg.norm(A, axis=0))], rtol=1e-12)
        np.testing.assert_allclose(svd.s, s, rtol=1e-9)

    def test_truncation_error_is_tail_square_sum(self):
        # Best rank-n approximation error in Frobenius norm.
        A = np.random.default_rng(13).standard_normal((10, 8))
        svd = thin_svd(A)
        for n in (1, 3, 5, 7):
            A_n = svd.U[:, :n] @ np.diag(svd.s[:n]) @ svd.V[:, :n].T
            gap = np.sum((A - A_n) ** 2)
            tail = np.sum(svd.s[n:] ** 2)
            np.testing.assert_allclose(gap, tail, rtol=1e-9)

    def test_rejects_non_finite(self):
        A = np.ones((3, 3))
        A[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            thin_svd(A)


def assert_matches_lapack(A, svd):
    """Differential check of a thin SVD against numpy's LAPACK.

    Both kernels are backward stable, each within about ``max(m, n) * eps *
    s0`` of the exact singular values (on random 2x2 and 3x3 inputs either
    one reaches that bound against 40-digit references), so their gap is
    bounded by twice that.  The gap is absolute, scaled by ``s0``: tiny
    singular values carry LAPACK's absolute error, not a relative one.
    """
    m, n = A.shape
    k = min(m, n)
    s_ref = np.linalg.svd(A, compute_uv=False)
    s0 = s_ref[0]
    assert np.max(np.abs(svd.s - s_ref)) <= 2 * max(m, n) * np.finfo(float).eps * s0
    assert np.max(np.abs(svd.U.T @ svd.U - np.eye(k))) <= 1e-10
    assert np.max(np.abs(svd.V.T @ svd.V - np.eye(k))) <= 1e-10
    assert np.max(np.abs(A - (svd.U * svd.s) @ svd.V.T)) <= 1e-10 * max(1.0, s0)


class TestThinSVDAgainstLapack:
    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        duplicates=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=10),
    )
    @example(m=40, n=40, seed=1, duplicates=[])
    @example(m=40, n=9, seed=2, duplicates=[])
    @example(m=9, n=40, seed=3, duplicates=[])
    @example(m=31, n=31, seed=4, duplicates=[(0, 1), (5, 1), (30, 2)])
    @example(m=12, n=33, seed=5, duplicates=[(3, 4), (10, 20)])
    def test_random_shapes_and_duplicated_columns(self, m, n, seed, duplicates):
        # Tall, wide, square and odd n; a duplicated column drops the rank.
        A = np.random.default_rng(seed).standard_normal((m, n))
        for dst, src in duplicates:
            A[:, dst % n] = A[:, src % n]
        assert_matches_lapack(A, thin_svd(A))

    def test_centered_pga400_train_split(self, pga400):
        train = split(pga400, 0)[0]
        A = train - train.mean(axis=1, keepdims=True)
        assert_matches_lapack(A, thin_svd(A))


@pytest.mark.parametrize("n", range(2, 34))
def test_round_robin_sweep_meets_every_pair_once(n):
    # Seat the column indices as _jacobi_orthogonalize does (odd n padded
    # with the index n) and play one sweep of 2k - 1 rounds.
    k = (n + 1) // 2
    seats = np.arange(2 * k).reshape(k, 2)
    met = []
    for _ in range(2 * k - 1):
        met += [(min(p, q), max(p, q)) for p, q in seats if max(p, q) < n]
        turned = np.empty_like(seats)
        _next_round(seats, turned)
        seats = turned
    assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]
    assert np.array_equal(seats.ravel(), np.arange(2 * k))


class TestHouseholderQR:
    def test_reconstruction_and_triangularity(self):
        A = np.random.default_rng(3).standard_normal((9, 5))
        Q, R = householder_qr(A)
        assert R.shape == (5, 5)
        np.testing.assert_allclose(Q @ np.triu(R), A, atol=1e-12)
        assert np.all(np.diag(R) >= 0)
        assert np.max(np.abs(np.tril(R, -1))) <= 1e-12

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError, match="m >= n"):
            householder_qr(np.ones((2, 5)))


class TestPiOrth:
    def test_orthonormal_input_is_fixed_point(self):
        rng = np.random.default_rng(4)
        Q = pi_orth(rng.standard_normal((8, 3)))
        np.testing.assert_allclose(pi_orth(Q), Q, atol=1e-12)

    def test_positive_column_scaling(self):
        A = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(pi_orth(A), expected, atol=1e-14)

    def test_full_rank_projector_identity(self):
        A = np.random.default_rng(6).standard_normal((10, 4))
        Q = pi_orth(A)
        assert np.max(np.abs(Q.T @ Q - np.eye(4))) <= 1e-10
        assert np.linalg.norm(A - Q @ (Q.T @ A)) <= 1e-9 * np.linalg.norm(A)

    def test_idempotent(self):
        A = np.random.default_rng(7).standard_normal((12, 5))
        Q = pi_orth(A)
        assert np.max(np.abs(pi_orth(Q) - Q)) <= 1e-10

    def test_rank_deficient_span_containment(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 1))
        A = np.concatenate([a, a], axis=1)
        Q = pi_orth(A)
        assert np.max(np.abs(Q.T @ Q - np.eye(2))) <= 1e-10
        # span(A) is still inside span(Q) even though rank(A) < 2.
        assert np.linalg.norm(A - Q @ (Q.T @ A)) <= 1e-9 * np.linalg.norm(A)


@st.composite
def tall_matrices(draw):
    """m x n with m >= n; bounded entries, so zero and repeated columns occur."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 10))
    elements = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    return draw(arrays(np.float64, (m, n), elements=elements))


class TestPiOrthProperties:
    @settings(max_examples=200, deadline=None)
    @given(tall_matrices())
    def test_orthonormal_sign_fixed_and_span_containing(self, A):
        Q = pi_orth(A)
        n = A.shape[1]
        scale = 1.0 + np.linalg.norm(A)
        assert Q.shape == A.shape
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-12
        assert np.min(np.diagonal(Q.T @ A)) >= -1e-12 * scale
        assert np.linalg.norm(A - Q @ (Q.T @ A)) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(tall_matrices())
    def test_fixed_point_on_orthonormal_input(self, A):
        Q = pi_orth(A)
        assert np.max(np.abs(pi_orth(Q) - Q)) <= 1e-12


class TestCovarianceSpectrum:
    def test_identical_columns_zero_variance(self):
        col = np.random.default_rng(1).standard_normal((6, 1))
        U = np.tile(col, (1, 9))
        mean, _vecs, eigvals = covariance_spectrum(U)
        np.testing.assert_allclose(mean, col, atol=1e-14)
        np.testing.assert_allclose(eigvals, 0.0, atol=1e-28)

    def test_rank_one_centered_data(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((7, 1))
        v /= np.linalg.norm(v)
        coeff = rng.standard_normal((1, 12))
        U = v @ coeff
        _mean, vecs, eigvals = covariance_spectrum(U)
        assert np.all(eigvals[1:] <= eigvals[0] * 1e-28)
        alignment = abs(float(vecs[:, 0] @ v[:, 0]))
        np.testing.assert_allclose(alignment, 1.0, atol=1e-12)

    def test_trace_identity(self):
        U = np.random.default_rng(3).standard_normal((20, 50))
        mean, _vecs, eigvals = covariance_spectrum(U)
        centered = U - mean
        np.testing.assert_allclose(
            np.sum(eigvals), np.sum(centered * centered) / 50, rtol=1e-10
        )

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(4)
        U = rng.standard_normal((9, 15))
        perm = rng.permutation(15)
        m1, v1, e1 = covariance_spectrum(U)
        m2, v2, e2 = covariance_spectrum(U[:, perm])
        np.testing.assert_allclose(m1, m2, atol=1e-14)
        np.testing.assert_allclose(e1, e2, rtol=1e-9, atol=1e-16)
        np.testing.assert_allclose(v1, v2, atol=1e-8)

    def test_keeps_only_the_numerical_rank(self):
        U = low_rank_snapshots(rank=5)
        s = thin_svd(U - U.mean(axis=1, keepdims=True)).s
        assert np.all(s[5:] > 0.0)  # roundoff, not exact zeros
        _mean, vecs, eigvals = covariance_spectrum(U)
        assert vecs.shape == (40, 5) and eigvals.shape == (5,)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(5))) <= 1e-14


class TestCompletion:
    def test_orthonormal_and_prefix_stable(self):
        rng = np.random.default_rng(5)
        B = pi_orth(rng.standard_normal((10, 3)))
        full = orthonormal_completion(B, 7)
        assert np.max(np.abs(full.T @ full - np.eye(7))) <= 1e-10
        np.testing.assert_allclose(full[:, :3], B)
        shorter = orthonormal_completion(B, 5)
        np.testing.assert_allclose(full[:, :5], shorter)

    def test_bad_target_rejected(self):
        B = np.eye(4, 2)
        with pytest.raises(ValueError):
            orthonormal_completion(B, 1)
        with pytest.raises(ValueError):
            orthonormal_completion(B, 5)


def test_sweep_cap_failure_names_dimensions(monkeypatch):
    import symae.linalg as linalg

    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(NumericalError, match=r"8x5.*0 sweeps"):
        thin_svd(np.random.default_rng(0).standard_normal((8, 5)))


def test_require_matrix_validates():
    with pytest.raises(ValueError, match="2-D"):
        require_matrix(np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        require_matrix(np.array([[1.0, np.inf]]))


def test_numerical_error_is_runtime_error():
    assert issubclass(NumericalError, RuntimeError)
