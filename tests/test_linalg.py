import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _util import low_rank_snapshots
from symae.autodiff import Var
from symae.data_io import generate_pga
from symae.linalg import (
    _CHOLQR2_MIN_WORK,
    NumericalError,
    _cholesky_qr2,
    _triangular_inverse,
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

    def test_mild_grading_to_1e_6_within_rtol_1e_9(self):
        # A full right rotation: forming the input is accurate to ~1e-16
        # absolute, so values down to 1e-6 are testable to rtol 1e-9.
        rng = np.random.default_rng(8)
        Q = pi_orth(rng.standard_normal((20, 7)))
        s = 10.0 ** -np.arange(0, 7, 1.0)
        A = Q @ np.diag(s) @ pi_orth(rng.standard_normal((7, 7))).T
        svd = thin_svd(A)
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(7))) <= 1e-10
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

    @pytest.mark.parametrize("shape", [(9, 4), (6, 6), (6, 15)])
    def test_vector_along_the_longer_side_has_positive_dominant_entry(self, shape):
        # On wide input the right vectors carry the sign; the left ones may
        # have a negative dominant entry.
        for seed in range(20):
            svd = thin_svd(np.random.default_rng(seed).standard_normal(shape))
            longer = svd.U if shape[0] >= shape[1] else svd.V
            dominant = longer[np.argmax(np.abs(longer), axis=0), np.arange(min(shape))]
            assert np.all(dominant > 0.0)


@pytest.mark.parametrize("n", range(2, 34))
def test_thin_svd_is_lapack_on_the_input_up_to_column_signs(n):
    # A tall matrix with n columns and its wide transpose, both of rank
    # n // 2, so that zero singular values occur: values bitwise LAPACK's
    # on the input itself, each vector pair LAPACK's times one shared sign,
    # both factors orthonormal, and the longer side's dominant entry positive.
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n + 3, n // 2)) @ rng.standard_normal((n // 2, n))
    for A in (B, B.T):
        svd = thin_svd(A)
        left, s, right_t = np.linalg.svd(A, full_matrices=False)
        assert svd.s.tobytes() == s.tobytes()
        signs = np.where(np.sum(svd.U * left, axis=0) < 0.0, -1.0, 1.0)
        assert np.array_equal(svd.U, left * signs)
        assert np.array_equal(svd.V, right_t.T * signs)
        k = min(A.shape)
        assert np.max(np.abs(svd.U.T @ svd.U - np.eye(k))) <= 1e-10
        assert np.max(np.abs(svd.V.T @ svd.V - np.eye(k))) <= 1e-10
        longer = svd.U if A.shape[0] >= A.shape[1] else svd.V
        assert np.all(longer[np.argmax(np.abs(longer), axis=0), np.arange(k)] > 0.0)


def assert_matches_lapack(A, svd):
    """Check a thin SVD against LAPACK's values-only SVD, and its factors.

    The reference is ``np.linalg.svd(A, compute_uv=False)``, which takes
    the values of the bidiagonal form by dqds with no vectors, another
    iteration than the one the full SVD runs.  Each is backward
    stable, within about ``max(m, n) * eps * s0`` of the exact singular
    values (on random 2x2 and 3x3 inputs LAPACK reaches that bound against
    40-digit references), so their gap is bounded by twice that.  The gap
    is absolute, scaled by ``s0``: tiny singular values carry an absolute
    error, not a relative one.  Orthonormality and the reconstruction are
    checked on the factors themselves.
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


def upper_triangular(n, seed):
    """A well-conditioned n x n upper-triangular matrix: the R of a 2n x n
    gaussian draw, rows rescaled by random signs and powers of ten in
    (0.1, 10)."""
    rng = np.random.default_rng(seed)
    T = householder_qr(rng.standard_normal((2 * n, n)))[1]
    return T * (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-1.0, 1.0, n))[:, None]


class TestTriangularInverse:
    # n up to 100 reaches the 32-row leaf, two levels of halving and odd
    # splits (65 = 32 + 33, 33 = 16 + 17).
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 100), st.integers(0, 2**32 - 1))
    @example(65, 0)
    @example(33, 1)
    def test_matches_lapack_inverse(self, n, seed):
        T = upper_triangular(n, seed)
        X = _triangular_inverse(T)
        reference = np.linalg.inv(T)
        bound = n * np.linalg.cond(T) * np.finfo(float).eps
        assert np.all(np.tril(X, -1) == 0.0)
        assert np.linalg.norm(T @ X - np.eye(n)) <= bound
        assert np.linalg.norm(X - reference) <= bound * np.linalg.norm(reference)

    @pytest.mark.parametrize("zero_at", [3, 60], ids=["first-half", "second-half"])
    def test_zero_diagonal_entry_raises(self, zero_at):
        T = upper_triangular(70, 2)
        T[zero_at, zero_at] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _triangular_inverse(T)


def graded_matrix(m, n, kappa, seed):
    """m x n with singular values spaced logarithmically from 1 to 1/kappa."""
    rng = np.random.default_rng(seed)
    U = householder_qr(rng.standard_normal((m, n)))[0]
    V = householder_qr(rng.standard_normal((n, n)))[0]
    return (U * np.geomspace(1.0, 1.0 / kappa, n)) @ V.T


class TestCholeskyQR2:
    @staticmethod
    def assert_sign_fixed_thin_qr(A, Q, R_inv, tol, residual_tol):
        # The kernel forms no R; R = Q^T A is the R of A = QR when Q's
        # columns are orthonormal and span A's.
        n = A.shape[1]
        R = Q.T @ A
        scale = np.linalg.norm(A)
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= tol
        assert np.linalg.norm(A - Q @ R) <= residual_tol * scale
        assert np.max(np.abs(np.tril(R, -1))) <= residual_tol * scale
        assert np.all(np.diagonal(R) > 0.0)
        assert np.all(np.tril(R_inv, -1) == 0.0)
        # Past kappa ~ 1e150 the bound itself overflows to inf, as it should.
        with np.errstate(over="ignore"):
            bound = residual_tol * np.linalg.cond(R)
        assert np.linalg.norm(np.triu(R) @ R_inv - np.eye(n)) <= bound

    @settings(max_examples=200, deadline=None)
    @given(tall_matrices())
    @example(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    # kappa ~ 5e161: the inverse bound overflows float64.
    @example(np.array([[1.0, 2.09572225e-162], [2.09572225e-162, 2.09572225e-162]]))
    # Rank 5: every entry of Q1^T Q1 - I is at most 0.39, its norm is 1.
    @example(
        np.array(
            [
                [0.0, 0.0, 0.0, 0.25, 0.25, 0.25],
                [0.25, 0.25, 0.25, 0.25, 0.25, 0.25],
                [0.75, 0.25, 0.25, 0.25, 0.0, 0.25],
                [0.25, 0.25, 0.25, 0.25, 0.25, 0.25],
                [0.25, 0.25, 0.25, 0.25, 0.25, 0.25],
                [0.0, 0.25, 0.25, 0.0, 0.25, 0.25],
                [0.25, 0.0, 1e-8, 0.25, 0.25, 0.25],
            ]
        )
    )
    def test_accepts_a_thin_qr_or_signals_the_fallback(self, A):
        out = _cholesky_qr2(A, want_inverse=True)
        if out is None:
            # Past kappa ~ 1e6 the Gram matrix may lose its Cholesky factor
            # (below it the first pass is orthonormal to about 1e-4), and
            # so it may when A^T A underflows or overflows.
            norm = np.linalg.norm(A)
            assert np.linalg.cond(A) > 1e6 or not 1e-150 < norm < 1e150
        else:
            # Q1 = A R1^-1 is a product with an explicit inverse, so the
            # residual grows with kappa(A); orthogonality does not.
            kappa = np.linalg.cond(A)
            self.assert_sign_fixed_thin_qr(A, *out, tol=1e-12, residual_tol=1e-14 * kappa)

    @pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4, 1e6, 1e8])
    def test_kappa_sweep_is_accepted_at_network_shape(self, kappa):
        A = graded_matrix(514, 128, kappa, seed=20)
        out = _cholesky_qr2(A, want_inverse=True)
        assert out is not None
        self.assert_sign_fixed_thin_qr(A, *out, tol=1e-14, residual_tol=1e-14)
        assert np.array_equal(pi_orth(A), out[0])

    def test_kappa_1e10_falls_back_to_householder(self):
        A = graded_matrix(514, 128, 1e10, seed=20)
        assert _cholesky_qr2(A, want_inverse=True) is None
        assert np.array_equal(pi_orth(A), householder_qr(A)[0])

    # pytest turns a RuntimeWarning into an error, so these also check that
    # the refused attempt warns of nothing.
    @pytest.mark.parametrize("bad", ["zero-column", "nan", "inf", "-inf"])
    def test_bad_input_gives_what_householder_gives(self, bad):
        A = np.random.default_rng(21).standard_normal((514, 128))
        if bad == "zero-column":
            A[:, 7] = 0.0
        else:
            A[3, 5] = float(bad)
        assert _cholesky_qr2(A, want_inverse=True) is None
        np.testing.assert_array_equal(pi_orth(A), householder_qr(A)[0])


def assert_slices_are_2d_calls(stack, call):
    """``call(stack)[t]`` holds the bits of ``call(stack[t])`` for every ``t``."""
    out = call(stack)
    assert out.shape[:-2] == stack.shape[:-2]
    for t in range(len(stack)):
        single = call(stack[t])
        assert out[t].shape == single.shape and out[t].tobytes() == single.tobytes()


class TestStackedPiOrth:
    """A ``(k, m, n)`` stack takes one call, and each slice gets the bits
    of a 2-D call on it, by the same route: Householder below the
    CholeskyQR2 crossover (514x20 is the init-study's first level) and
    CholeskyQR2 above it (600x40)."""

    @pytest.mark.parametrize(
        "shape, cholesky",
        [((6, 514, 20), False), ((3, 24, 8), False), ((4, 600, 40), True), ((2, 514, 128), True)],
        ids=["householder-514x20", "householder-24x8", "cholqr2-600x40", "cholqr2-514x128"],
    )
    def test_each_slice_is_its_2d_call(self, shape, cholesky):
        m, n = shape[-2:]
        assert ((m - 2 * n) * n * n >= _CHOLQR2_MIN_WORK) == cholesky
        stack = np.random.default_rng(30).standard_normal(shape)
        if cholesky:
            assert all(_cholesky_qr2(a, False) is not None for a in stack)
        assert_slices_are_2d_calls(stack, pi_orth)
        assert_slices_are_2d_calls(stack, lambda a: householder_qr(a)[0])
        assert_slices_are_2d_calls(stack, lambda a: householder_qr(a)[1])

    @pytest.mark.parametrize("bad", ["zero-column", "duplicate-column", "nan"])
    def test_a_refused_slice_falls_back_alone(self, bad):
        stack = np.random.default_rng(31).standard_normal((4, 600, 40))
        if bad == "zero-column":
            stack[2, :, 7] = 0.0
        elif bad == "duplicate-column":
            stack[2, :, 7] = stack[2, :, 3]
        else:
            stack[2, 5, 7] = np.nan
        refused = [_cholesky_qr2(a, False) is None for a in stack]
        assert refused == [False, False, True, False]
        assert _cholesky_qr2(stack, False) is None
        assert_slices_are_2d_calls(stack, pi_orth)

    @pytest.mark.parametrize("shape", [(1, 514, 20), (1, 600, 40)], ids=["householder", "cholqr2"])
    def test_one_slice_stack(self, shape):
        stack = np.random.default_rng(32).standard_normal(shape)
        assert_slices_are_2d_calls(stack, pi_orth)

    def test_cholesky_qr2_and_triangular_inverse_stacks(self):
        rng = np.random.default_rng(33)
        tall = rng.standard_normal((3, 600, 40))
        assert_slices_are_2d_calls(tall, lambda a: _cholesky_qr2(a, True)[0])
        assert_slices_are_2d_calls(tall, lambda a: _cholesky_qr2(a, True)[1])
        triangles = np.stack([upper_triangular(70, seed) for seed in range(3)])
        assert_slices_are_2d_calls(triangles, _triangular_inverse)

    def test_taped_input_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            pi_orth(Var(np.ones((2, 5, 3))))


def eigh_reference(A):
    """The spectrum of the covariance ``A A^T / S`` of centered data by
    ``np.linalg.eigh`` (LAPACK's syevd, no SVD), and the error terms that
    bound a comparison with it.

    Returns ``(s, vecs, d_svd, e_ref)``: the singular values of ``A`` as
    ``sqrt(S * lambda)`` (roundoff below zero clipped) and the eigenvectors,
    nonincreasing; ``d_svd = max(n0, S) * eps * s0``, within which LAPACK's
    backward-stable SVD puts each singular value and which bounds its
    backward error; and ``e_ref = (S * k + n0 + 3) * eps * s0**2`` with
    ``k = min(n0, S)``, which bounds ``S`` times the reference's backward
    error: forming ``A A^T`` perturbs it by at most ``gamma_S * ||A||_F^2``,
    about ``S * k * eps * s0^2``, syevd adds about ``n0 * eps`` of its norm, and
    three roundings (the divide here, the square and the divide in
    :func:`covariance_spectrum`) add one ``eps`` each.
    """
    n0, S = A.shape
    lam, vecs = np.linalg.eigh(A @ A.T / S)
    s = np.sqrt(np.clip(S * lam[::-1], 0.0, None))
    eps = np.finfo(float).eps
    return s, vecs[:, ::-1], max(n0, S) * eps * s[0], (S * min(n0, S) + n0 + 3) * eps * s[0] ** 2


class TestCovarianceSpectrum:
    def test_identical_columns_zero_variance(self):
        col = np.random.default_rng(1).standard_normal((6, 1))
        U = np.tile(col, (1, 9))
        mean, _vecs, eigvals = covariance_spectrum(U)
        np.testing.assert_allclose(mean, col, atol=1e-14)
        np.testing.assert_allclose(eigvals, 0.0, atol=1e-28)

    @pytest.mark.parametrize(
        "shape", [(20, 5), (5, 20), (514, 200), (1, 7)], ids=["tall", "wide", "pga-size", "one-row"]
    )
    def test_identical_columns_have_rank_zero(self, shape):
        # The centered columns are the mean's rounding error alone (rank 1
        # with an eigenvalue of 1e-32 on 20x5 under the relative rule alone);
        # a 1x7 row rounds its mean by more than eps relative.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            col = rng.standard_normal((shape[0], 1)) * 10.0 ** rng.integers(-50, 50)
            _mean, vecs, eigvals = covariance_spectrum(np.tile(col, (1, shape[1])))
            assert vecs.shape == (shape[0], 0) and eigvals.shape == (0,)

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

    @pytest.mark.parametrize("shape", [(30, 12), (17, 17), (9, 25)])
    def test_eigenvectors_are_signed_eigh_vectors(self, shape):
        # Each eigenvector is eigh's, signed by the rule: its own dominant
        # entry positive when the data is tall, that of its snapshot
        # weights A^T v / s when wide.  Gaussian spectra are well separated;
        # by Davis-Kahan each of the two vectors lies within
        # sqrt(2) * (d_svd + e_ref / s) / separation of the exact one.
        U = np.random.default_rng(sum(shape)).standard_normal(shape)
        _mean, vecs, eigvals = covariance_spectrum(U)
        A = U - U.mean(axis=1, keepdims=True)
        s, ref, d_svd, e_ref = eigh_reference(A)
        r = len(eigvals)
        assert r == min(shape[0], shape[1] - 1)
        for i in range(r):
            v = ref[:, i]
            longer = v if shape[0] >= shape[1] else A.T @ v
            v = v * np.sign(longer[np.argmax(np.abs(longer))])
            above = s[i - 1] - s[i] if i > 0 else np.inf
            below = s[i] - s[i + 1] if i + 1 < len(s) else s[i]
            separation = min(above, below)
            tol = 2 * np.sqrt(2) * (d_svd + e_ref / s[i]) / separation
            assert np.max(np.abs(vecs[:, i] - v)) <= tol

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_input_rejected(self, shape):
        with pytest.raises(ValueError, match="at least one snapshot row and column"):
            covariance_spectrum(np.zeros(shape))

    def test_keeps_only_the_numerical_rank(self):
        U = low_rank_snapshots(rank=5)
        s = np.linalg.svd(U - U.mean(axis=1, keepdims=True), compute_uv=False)
        assert np.all(s[5:] > 0.0)  # roundoff, not exact zeros
        _mean, vecs, eigvals = covariance_spectrum(U)
        assert vecs.shape == (40, 5) and eigvals.shape == (5,)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(5))) <= 1e-14


class TestCovarianceSpectrumAgainstLapack:
    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        rank=st.one_of(st.none(), st.integers(1, 40)),
        duplicates=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=10),
    )
    @example(m=40, n=9, seed=1, rank=None, duplicates=[])
    @example(m=9, n=40, seed=2, rank=None, duplicates=[])
    @example(m=40, n=40, seed=3, rank=None, duplicates=[])
    @example(m=35, n=30, seed=4, rank=7, duplicates=[])
    @example(m=12, n=33, seed=5, rank=None, duplicates=[(3, 4), (10, 20), (11, 20)])
    @example(m=30, n=12, seed=6, rank=3, duplicates=[(0, 1)])
    @example(m=2, n=3, seed=0, rank=None, duplicates=[(1, 2), (0, 1)])
    def test_tall_wide_and_rank_deficient(self, m, n, seed, rank, duplicates):
        # Full-rank gaussians, low-rank products and duplicated columns,
        # against eigh of the covariance (see eigh_reference for the terms).
        rng = np.random.default_rng(seed)
        if rank is None:
            U = rng.standard_normal((m, n))
        else:
            U = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        for dst, src in duplicates:
            U[:, dst % n] = U[:, src % n]
        mean, vecs, eigvals = covariance_spectrum(U)
        A = U - U.mean(axis=1, keepdims=True)
        s_ref, ref, d_svd, e_ref = eigh_reference(A)
        r = len(eigvals)
        assert vecs.shape == (m, r)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(r)), initial=0.0) <= 1e-13
        # The centered columns span min(m, rank, distinct columns - 1)
        # dimensions, and every one of them stands far above n0 * eps * s0.
        # Identical columns leave only the mean's roundoff: rank 0.
        distinct = len(np.unique(U, axis=1).T)
        expected = min(m, n if rank is None else rank, distinct - 1)
        assert r == expected
        # Eigenvalues: each singular value moves by at most d_svd, so
        # s^2 by d_svd * (2 * s0 + d_svd); the cut-off ones are roundoff,
        # and with rank 0 all of them lie within the mean's roundoff floor.
        tol = (e_ref + d_svd * (2 * s_ref[0] + d_svd)) / n
        assert np.all(np.abs(eigvals - s_ref[:r] ** 2 / n) <= tol)
        if r:
            assert np.all(s_ref[r:] ** 2 / n <= tol)
        else:
            floor = max(m, n) * np.finfo(float).eps * np.linalg.norm(mean) * np.sqrt(n)
            assert s_ref[0] <= floor + d_svd
        # Leading blocks that end at a clear gap span eigh's subspace: by
        # Wedin and Davis-Kahan each projector lies within d_svd / separation
        # and e_ref / (separation * (s_j + s_j+1)) of the exact one.
        s_next = np.append(s_ref, 0.0)
        for j in range(1, r + 1):
            separation = s_ref[j - 1] - s_next[j]
            if separation < 1e-3 * s_ref[0]:
                continue
            P = vecs[:, :j] @ vecs[:, :j].T
            P_ref = ref[:, :j] @ ref[:, :j].T
            bound = (d_svd + e_ref / (s_ref[j - 1] + s_next[j])) / separation
            assert np.max(np.abs(P - P_ref)) <= bound
        # The sign rule: on wide data the snapshot weights A^T v / s, within
        # 2 * d_svd / s of LAPACK's right vector, have their dominant entry
        # positive up to that roundoff; on tall data v itself, exactly.
        if r and m < n:
            weights = A.T @ vecs / np.sqrt(n * eigvals)
            slack = 4 * d_svd / np.sqrt(n * eigvals)
            assert np.all(weights.max(axis=0) >= (-weights).max(axis=0) - slack)
        elif r:
            assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(r)] > 0.0)

    @pytest.mark.parametrize("seed, rank", [(0, 39), (137, 38)], ids=["rank39", "rank38"])
    def test_pga400_rank_is_pinned_and_repeatable(self, pga400, seed, rank):
        # The numerical rank on a split of rank 39 and one of rank 38, and a
        # repeated call is bitwise the first.
        U = pga400 if seed == 0 else generate_pga(400, seed).U
        train = split(U, seed)[0]
        first = covariance_spectrum(train)
        assert len(first[2]) == rank
        again = covariance_spectrum(train)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))


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


@pytest.mark.parametrize("call", [covariance_spectrum, thin_svd], ids=lambda f: f.__name__)
@pytest.mark.parametrize("shape", [(8, 5), (5, 8)])
def test_covariance_svd_failure_names_the_input_shape(monkeypatch, shape, call):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    label = f"{shape[0]}x{shape[1]}"
    with pytest.raises(NumericalError, match=label):
        call(np.random.default_rng(0).standard_normal(shape))


def test_require_matrix_validates():
    with pytest.raises(ValueError, match="2-D"):
        require_matrix(np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        require_matrix(np.array([[1.0, np.inf]]))


def test_numerical_error_is_runtime_error():
    assert issubclass(NumericalError, RuntimeError)
