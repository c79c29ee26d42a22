import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import low_rank_snapshots, random_theta, small_skeletons
from symae.activations import HypAct, Identity, LeakyReLU
from symae.architecture import Skeleton, assemble, loss_on_batch
from symae.autodiff import gradient
from symae.bounds import (
    empirical_mse,
    greedy_upper_bound,
    layerwise_bounds,
    linear_lower_bound,
    pod,
)
from symae.initializers import eys_init, orthogonal_random_init
from symae.linalg import orthonormal_completion, pi_orth


def projection_error(U, V, q):
    resid = (U - q) - V @ (V.T @ (U - q))
    return float(np.sum(resid * resid)) / U.shape[1]


class TestPod:
    def test_rank_one_data_is_reduced_exactly(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((8, 1))
        U = v @ rng.standard_normal((1, 20)) + rng.standard_normal((8, 1))
        assert pod(U, 1).error <= 1e-20

    def test_error_equals_tail_and_direct_projection(self):
        U = np.random.default_rng(1).standard_normal((30, 100))
        for n in (1, 5, 10):
            result = pod(U, n)
            direct = projection_error(U, result.basis, result.shift)
            np.testing.assert_allclose(result.error, direct, rtol=1e-9)

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(2)
        U = rng.standard_normal((12, 40))
        best = pod(U, 3)
        q = U.mean(axis=1, keepdims=True)
        for _ in range(300):
            V = pi_orth(rng.standard_normal((12, 3)))
            assert best.error <= projection_error(U, V, q) + 1e-9

    def test_optimal_over_random_shifts_too(self):
        # Brute force over joint (basis, shift) candidates on a small case.
        rng = np.random.default_rng(3)
        U = rng.standard_normal((6, 40))
        best = pod(U, 2)
        for _ in range(10_000):
            V = pi_orth(rng.standard_normal((6, 2)))
            q = rng.standard_normal((6, 1))
            assert best.error <= projection_error(U, V, q) + 1e-9

    def test_dimension_bounds_enforced(self):
        U = np.random.default_rng(4).standard_normal((5, 9))
        with pytest.raises(ValueError):
            pod(U, 5)
        with pytest.raises(ValueError):
            pod(U, 0)

    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_basis_past_rank_is_the_orthonormal_completion(self, n):
        result = pod(low_rank_snapshots(rank=5), n)
        expected = orthonormal_completion(result.basis[:, :5], n)
        assert np.max(np.abs(result.basis[:, 5:] - expected[:, 5:])) <= 1e-14
        assert result.error == 0.0


class TestLinearLowerBound:
    def test_zero_past_rank(self):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((10, 1)) @ rng.standard_normal((1, 30))
        assert linear_lower_bound(U, 2) <= 1e-22

    def test_matches_pod_error(self):
        U = np.random.default_rng(6).standard_normal((14, 25))
        np.testing.assert_allclose(
            linear_lower_bound(U, 4), pod(U, 4).error, rtol=1e-12
        )

    def test_floors_random_networks(self, pga100):
        floor = linear_lower_bound(pga100, 6)
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = random_theta(
                "SAE", Skeleton((514, 6, 3)), LeakyReLU(5 / 6, 5 / 4), rng
            )
            assert empirical_mse(assemble(theta), pga100) >= floor - 1e-9


class TestLayerwiseBounds:
    def test_identity_activation_collapses_to_error(self, pga100):
        psi = orthogonal_random_init(
            Skeleton((514, 20, 10)), Identity(), np.random.default_rng(8)
        )
        report = layerwise_bounds(psi, pga100)
        mse = empirical_mse(psi, pga100)
        np.testing.assert_allclose(report.lower, mse, rtol=1e-9)
        np.testing.assert_allclose(report.upper, mse, rtol=1e-9)

    def test_single_level_is_projection_error(self):
        U = np.random.default_rng(9).standard_normal((15, 30))
        psi = orthogonal_random_init(
            Skeleton((15, 4)), HypAct.from_sharpness(0.5), np.random.default_rng(10)
        )
        report = layerwise_bounds(psi, U)
        direct = projection_error(U, psi.layers[0].D, psi.layers[0].d)
        np.testing.assert_allclose(report.lower, direct, rtol=1e-12)
        np.testing.assert_allclose(report.upper, direct, rtol=1e-12)
        np.testing.assert_allclose(report.lower, empirical_mse(psi, U), rtol=1e-9)

    @pytest.mark.parametrize("sharpness", [0.5, 3.0])
    def test_sandwich_on_random_networks(self, pga100, sharpness):
        act = HypAct.from_sharpness(sharpness)
        rng = np.random.default_rng(11)
        U = pga100[:, :60]
        for _ in range(20):
            theta = random_theta("SOAE", Skeleton((514, 20, 10, 5)), act, rng)
            psi = assemble(theta)
            report = layerwise_bounds(psi, U)
            mse = empirical_mse(psi, U)
            assert report.lower <= mse + 1e-9
            assert mse <= report.upper + 1e-9

    def test_rejects_other_classes(self):
        theta = random_theta(
            "SBAE", Skeleton((8, 4)), Identity(), np.random.default_rng(12)
        )
        with pytest.raises(ValueError, match="orthogonal"):
            layerwise_bounds(assemble(theta), np.zeros((8, 3)))

    def test_level_recursion_inequalities(self):
        # At every level k, the residual-to-go splits into the projection
        # residual at that level plus the deeper residual scaled by the
        # activation's slope envelope, on both sides.
        act = LeakyReLU(5 / 6, 5 / 4)
        lip, lip_inv = act.lipschitz_pair()
        rng = np.random.default_rng(13)
        theta = random_theta("SOAE", Skeleton((12, 6, 4, 2)), act, rng)
        psi = assemble(theta)
        v = rng.standard_normal((12, 1))
        levels = psi.hidden_trajectory(v)
        latent = levels[-1]

        def decode_from(k, c):
            h = c
            for j in range(len(psi.layers) - 1, k - 1, -1):
                layer = psi.layers[j]
                h = layer.D @ act.apply_inverse(h) + layer.d
            return h

        for k in range(1, psi.skeleton.depth + 1):
            layer = psi.layers[k - 1]
            gap = float(np.sum((levels[k - 1] - decode_from(k - 1, latent)) ** 2))
            centered = levels[k - 1] - layer.d
            proj = float(np.sum((centered - layer.D @ (layer.E @ centered)) ** 2))
            deeper = (
                float(np.sum((levels[k] - decode_from(k, latent)) ** 2))
                if k < psi.skeleton.depth
                else 0.0
            )
            assert gap >= proj + deeper / lip**2 - 1e-9
            assert gap <= proj + deeper * lip_inv**2 + 1e-9


class TestGreedyUpperBound:
    def test_identity_accumulates_successive_tails(self):
        U = np.random.default_rng(14).standard_normal((20, 35))
        sk = Skeleton((20, 7))
        np.testing.assert_allclose(
            greedy_upper_bound(U, sk, Identity()), linear_lower_bound(U, 7), rtol=1e-12
        )

    def test_bounds_iterated_svd_network(self, pga100):
        act = HypAct.from_sharpness(0.5)
        sk = Skeleton((514, 20, 10, 5))
        psi = eys_init(pga100, sk, act)
        assert empirical_mse(psi, pga100) <= greedy_upper_bound(pga100, sk, act) + 1e-9

    def test_monotone_in_inverse_stability(self, pga100):
        sk = Skeleton((514, 20, 10, 5))
        mild = greedy_upper_bound(pga100, sk, HypAct.from_sharpness(0.5))
        sharp = greedy_upper_bound(pga100, sk, HypAct.from_sharpness(3.0))
        assert sharp >= mild


class TestEmpiricalMse:
    def test_zero_on_network_range(self):
        psi = assemble(
            random_theta("SBAE", Skeleton((9, 4)), Identity(), np.random.default_rng(15))
        )
        U = psi.decode(np.random.default_rng(16).standard_normal((4, 12)))
        assert empirical_mse(psi, U) <= 1e-16

    @pytest.mark.parametrize("class_tag", ["SAE", "PlainAE", "SOAE", "SBAE"])
    def test_matches_taped_loss(self, class_tag):
        # The training loss applies SBAE levels in factored form; the
        # network applies the assembled E and D.  Both must give one MSE.
        theta = random_theta(
            class_tag, Skeleton((7, 4, 3, 2)), LeakyReLU(0.5, 2.0), np.random.default_rng(17)
        )
        psi = assemble(theta)
        U = np.random.default_rng(18).standard_normal((7, 9))
        taped = loss_on_batch(class_tag, theta.act, theta.layers, U)
        np.testing.assert_allclose(empirical_mse(psi, U), taped, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["SAE", "PlainAE", "SOAE", "SBAE"]),
        small_skeletons(),
        st.sampled_from([Identity(), LeakyReLU(5 / 6, 5 / 4), HypAct.from_sharpness(3.0)]),
        st.integers(0, 2**32 - 1),
    )
    def test_taped_forward_is_bit_exact(self, class_tag, skeleton, act, seed):
        rng = np.random.default_rng(seed)
        theta = random_theta(class_tag, skeleton, act, rng)
        batch = rng.standard_normal((skeleton.dims[0], 5))

        def program(leaves, b):
            return loss_on_batch(class_tag, act, theta.with_leaves(leaves), b)

        taped, _ = gradient(program, theta.leaves(), batch)
        assert taped == program(theta.leaves(), batch)

    def test_hand_computed_toy_value(self):
        # Zero network reconstructs everything to 0: the error is the mean
        # squared column norm, here (1 + 4 + 9) * 2 / 3.
        theta = random_theta("SAE", Skeleton((2, 1)), Identity(), np.random.default_rng(0))
        for key in ("E", "D", "e", "d"):
            theta.layers[0][key][:] = 0.0
        psi = assemble(theta)
        U = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        np.testing.assert_allclose(empirical_mse(psi, U), 28.0 / 3.0)


def test_snapshot_energy_isometry(pga100):
    # The mean squared column norm equals the squared Frobenius norm of the
    # 1/sqrt(S)-scaled matrix representation.
    S = pga100.shape[1]
    mean_energy = float(np.mean(np.sum(pga100 * pga100, axis=0)))
    hs_norm_sq = float(np.sum((pga100 / np.sqrt(S)) ** 2))
    np.testing.assert_allclose(mean_energy, hs_norm_sq, rtol=1e-10)
