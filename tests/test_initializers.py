import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import low_rank_snapshots, small_skeletons
from symae.activations import HypAct, Identity, LeakyReLU
from symae.architecture import Layer, Skeleton, SymmetricAutoencoder, assemble
from symae.bounds import empirical_mse, greedy_upper_bound, pod
from symae.initializers import (
    EysCache,
    derive_seed,
    eys_init,
    he_init,
    he_variance,
    lift,
    orthogonal_random_init,
)
from symae.linalg import orthonormal_completion, pi_orth


class TestEysInit:
    def test_single_identity_level_matches_optimal_linear_reduction(self):
        U = np.random.default_rng(0).standard_normal((30, 80))
        psi = eys_init(U, Skeleton((30, 6)), Identity())
        np.testing.assert_allclose(empirical_mse(psi, U), pod(U, 6).error, atol=1e-8)

    def test_constant_dataset(self):
        col = np.random.default_rng(1).standard_normal((12, 1))
        U = np.tile(col, (1, 10))
        with pytest.warns(UserWarning, match="rank"):
            psi = eys_init(U, Skeleton((12, 3)), Identity())
        np.testing.assert_allclose(psi.layers[0].d, col, atol=1e-14)
        assert empirical_mse(psi, U) <= 1e-20

    def test_deterministic_without_rng(self):
        U = np.random.default_rng(2).standard_normal((20, 30))
        act = LeakyReLU(5 / 6, 5 / 4)
        p1 = eys_init(U, Skeleton((20, 8, 3)), act)
        p2 = eys_init(U, Skeleton((20, 8, 3)), act)
        for a, b in zip(p1.layers, p2.layers):
            assert np.array_equal(a.D, b.D)
            assert np.array_equal(a.d, b.d)

    def test_level_bases_orthonormal(self):
        U = np.random.default_rng(3).standard_normal((25, 40))
        psi = eys_init(U, Skeleton((25, 10, 4)), HypAct.from_sharpness(0.5))
        for layer in psi.layers:
            r = layer.D.shape[1]
            assert np.max(np.abs(layer.D.T @ layer.D - np.eye(r))) <= 1e-10

    def test_error_within_greedy_budget(self):
        U = np.random.default_rng(4).standard_normal((30, 60))
        for act in (Identity(), LeakyReLU(5 / 6, 5 / 4), HypAct.from_sharpness(3.0)):
            sk = Skeleton((30, 12, 5))
            psi = eys_init(U, sk, act)
            mse = empirical_mse(psi, U)
            budget = greedy_upper_bound(U, sk, act)
            assert mse <= budget + 1e-9
            if isinstance(act, Identity):
                np.testing.assert_allclose(mse, budget, atol=1e-8)

    def test_rank_deficiency_padding_warns_and_stays_orthonormal(self):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((15, 3))  # centered rank at most 2
        with pytest.warns(UserWarning, match="rank"):
            psi = eys_init(U, Skeleton((15, 6)), Identity())
        V = psi.layers[0].D
        assert np.max(np.abs(V.T @ V - np.eye(6))) <= 1e-10

    @pytest.mark.parametrize("width", [6, 12, 30])
    def test_columns_past_rank_are_the_orthonormal_completion(self, width):
        U = low_rank_snapshots(rank=5)
        with pytest.warns(UserWarning, match="numerical rank 5;"):
            psi = eys_init(U, Skeleton((40, width)), Identity())
        D = psi.layers[0].D
        expected = orthonormal_completion(D[:, :5], width)
        assert np.max(np.abs(D[:, 5:] - expected[:, 5:])) <= 1e-14

    def test_shared_cache_matches_fresh_run(self, pga100):
        act = HypAct.from_sharpness(0.5)
        cache = EysCache(pga100, act)
        for n2 in (4, 7):
            fresh = eys_init(pga100, Skeleton((514, 10, n2)), act)
            cached = eys_init(pga100, Skeleton((514, 10, n2)), act, cache=cache)
            for a, b in zip(fresh.layers, cached.layers):
                assert np.array_equal(a.D, b.D)

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError, match="two snapshots"):
            eys_init(np.ones((5, 1)), Skeleton((5, 2)), Identity())


class TestHeInit:
    def test_identity_variance_is_reciprocal_fan_in(self):
        np.testing.assert_allclose(he_variance(Identity(), 25), 1.0 / 25)

    def test_two_slope_variance_formula(self):
        # 4 / (n (2 + min(a,b)^2 + max(a,b)^2)) with (a, b) = (5/6, 5/4), n = 64.
        want = 4.0 / (64 * (2 + (5 / 6) ** 2 + (5 / 4) ** 2))
        np.testing.assert_allclose(he_variance(LeakyReLU(5 / 6, 5 / 4), 64), want)
        np.testing.assert_allclose(want, 0.01468189233278956, rtol=1e-12)

    def test_sampled_variance_within_two_percent(self):
        act = LeakyReLU(5 / 6, 5 / 4)
        sk = Skeleton((400, 250))
        psi = he_init(sk, act, np.random.default_rng(6))
        sampled = float(np.var(psi.layers[0].E))
        target = he_variance(act, 400)
        assert abs(sampled - target) <= 0.02 * target

    def test_biases_zero_and_fan_in_per_matrix(self):
        act = HypAct.from_sharpness(0.5)
        psi = he_init(Skeleton((40, 10)), act, np.random.default_rng(7))
        assert not psi.layers[0].e.any()
        assert not psi.layers[0].d.any()
        # E has fan-in 40, D has fan-in 10: scales differ accordingly.
        r = np.var(psi.layers[0].D) / np.var(psi.layers[0].E)
        assert 2.0 < r < 8.0  # target ratio is 4, loose band for sampling noise


class TestOrthogonalRandomInit:
    def test_passes_orthogonal_class_checks(self):
        psi = orthogonal_random_init(
            Skeleton((12, 5, 2)), Identity(), np.random.default_rng(8)
        )
        assert psi.class_tag == "SOAE"
        assert psi.constraint_residual() <= 1e-12

    def test_distinct_seeds_differ(self):
        sk = Skeleton((10, 4))
        a = orthogonal_random_init(sk, Identity(), np.random.default_rng(1))
        b = orthogonal_random_init(sk, Identity(), np.random.default_rng(2))
        assert np.linalg.norm(a.layers[0].D - b.layers[0].D) > 0

    def test_initial_error_flat_in_latent_width(self, pga100):
        # Random bases project onto generic subspaces, so the starting error
        # barely reacts to the latent width (unlike the data-driven scheme).
        act = HypAct.from_sharpness(0.5)
        mses = []
        for n2 in (2, 10, 18):
            psi = orthogonal_random_init(
                Skeleton((514, 20, n2)), act, np.random.default_rng(9)
            )
            mses.append(empirical_mse(psi, pga100))
        ratio = max(mses) / min(mses)
        assert 1.0 <= ratio <= 2.0

    def test_rejects_unconstrained_classes(self):
        with pytest.raises(ValueError):
            orthogonal_random_init(
                Skeleton((6, 2)), Identity(), np.random.default_rng(0), class_tag="SAE"
            )


class TestLift:
    @pytest.fixture()
    def eys_network(self, pga100):
        return eys_init(pga100, Skeleton((514, 12, 5)), LeakyReLU(5 / 6, 5 / 4))

    def test_orthogonal_lift_reassembles_identically(self, eys_network):
        again = assemble(lift(eys_network, "SOAE"))
        for a, b in zip(eys_network.layers, again.layers):
            np.testing.assert_allclose(a.E, b.E, atol=1e-12)
            np.testing.assert_allclose(a.D, b.D, atol=1e-12)

    def test_biorthogonal_lift_reproduces_bases(self, eys_network):
        theta = lift(eys_network, "SBAE")
        psi = assemble(theta)
        for orig, built in zip(eys_network.layers, psi.layers):
            assert np.max(np.abs(built.E @ built.D - np.eye(built.E.shape[0]))) <= 1e-10
            np.testing.assert_allclose(built.E, orig.E, atol=1e-10)

    @pytest.mark.parametrize("class_tag", ["SAE", "SBAE", "SOAE", "PlainAE"])
    def test_lift_preserves_reconstruction(self, eys_network, class_tag):
        psi = assemble(lift(eys_network, class_tag))
        u = np.random.default_rng(10).standard_normal((514, 100))
        if class_tag == "PlainAE":
            return  # different forward semantics by design
        np.testing.assert_allclose(
            psi.reconstruct(u), eys_network.reconstruct(u), atol=1e-10
        )

    def test_biorthogonal_lift_without_stored_spares(self):
        psi = orthogonal_random_init(
            Skeleton((10, 4, 2)), Identity(), np.random.default_rng(11), "SBAE"
        )
        assert psi.complements is None
        theta = lift(psi, "SBAE")
        built = assemble(theta)
        u = np.random.default_rng(12).standard_normal((10, 6))
        np.testing.assert_allclose(built.reconstruct(u), psi.reconstruct(u), atol=1e-10)

    def test_unconstrained_network_cannot_lift_to_orthogonal(self):
        rng = np.random.default_rng(13)
        psi = he_init(Skeleton((8, 3)), Identity(), rng)
        with pytest.raises(ValueError, match="orthogonal form"):
            lift(psi, "SOAE")

    @pytest.mark.parametrize("class_tag", ["SOAE", "SBAE"])
    def test_transposed_pair_without_orthonormal_columns_cannot_lift(self, class_tag):
        # E = D^T and e = -E d hold, but E D != I: lifting would change the map.
        rng = np.random.default_rng(14)
        D = rng.standard_normal((6, 2))
        d = rng.standard_normal((6, 1))
        layer = Layer(E=D.T, D=D, e=-(D.T @ d), d=d)
        psi = SymmetricAutoencoder(Skeleton((6, 2)), Identity(), (layer,), "SAE")
        with pytest.raises(ValueError, match="orthogonal form"):
            lift(psi, class_tag)


def orthogonal_form_network(skeleton, act, seed):
    """Random orthonormal bases with random shared biases, tagged SAE."""
    rng = np.random.default_rng(seed)
    layers = []
    for j in range(1, skeleton.depth + 1):
        q, r = skeleton.layer_shape(j)
        V = pi_orth(rng.standard_normal((q, r)))
        d = rng.standard_normal((q, 1))
        layers.append(Layer(E=V.T, D=V, e=-(V.T @ d), d=d))
    return SymmetricAutoencoder(skeleton, act, tuple(layers), "SAE")


class TestLiftProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["SAE", "SOAE", "SBAE"]),
        small_skeletons(),
        st.sampled_from([Identity(), LeakyReLU(5 / 6, 5 / 4), HypAct.from_sharpness(0.5)]),
        st.integers(0, 2**32 - 1),
    )
    def test_lift_then_assemble_keeps_the_reconstruction(self, class_tag, skeleton, act, seed):
        psi = orthogonal_form_network(skeleton, act, seed)
        built = assemble(lift(psi, class_tag))
        u = np.random.default_rng(seed).standard_normal((skeleton.dims[0], 5))
        np.testing.assert_allclose(built.reconstruct(u), psi.reconstruct(u), atol=1e-10)


def test_derive_seed_is_deterministic_and_spreads():
    seeds = {derive_seed(42, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
