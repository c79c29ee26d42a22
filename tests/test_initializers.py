import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _util import low_rank_snapshots, small_skeletons
from symae.activations import HypAct, Identity, LeakyReLU
from symae.architecture import Layer, Skeleton, SymmetricAutoencoder, assemble, map_outputs
from symae.bounds import empirical_mse, greedy_upper_bound, pod
from symae import initializers
from symae.initializers import (
    EysCache,
    derive_seed,
    eys_init,
    he_init,
    he_variance,
    init_study,
    lift,
    orthogonal_random_init,
)
from symae.linalg import NumericalError, leading_basis, orthonormal_completion, pi_orth
from symae.training import apply_minmax, minmax_normalize, split


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

    @pytest.mark.parametrize("shape", [(20, 5), (5, 20)], ids=["tall", "wide"])
    def test_identical_columns_take_no_roundoff_direction(self, shape):
        # Every level has rank 0, so each basis is the orthonormal
        # completion alone, not a direction of the mean's roundoff.
        col = np.random.default_rng(6).standard_normal((shape[0], 1))
        U = np.tile(col, (1, shape[1]))
        with pytest.warns(UserWarning, match="numerical rank 0;") as record:
            psi = eys_init(U, Skeleton((shape[0], 3, 2)), HypAct.from_sharpness(0.5))
        assert len(record) == 2
        for layer in psi.layers:
            q, r = layer.D.shape
            assert np.array_equal(layer.D, orthonormal_completion(np.zeros((q, 0)), r))
        assert np.max(np.abs(psi.reconstruct(U) - U)) <= 1e-14

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
        for n2 in (4, 7, 4):
            sk = Skeleton((514, 10, n2))
            fresh = eys_init(pga100, sk, act)
            cached = cache.network(sk)
            assert cached.act is act and cached.class_tag == "SOAE"
            for a, b in zip(fresh.layers, cached.layers, strict=True):
                for x, y in zip(a, b, strict=True):
                    assert x.shape == y.shape and np.array_equal(x, y)

    def test_skeletons_sharing_a_prefix_share_its_levels(self, pga100):
        cache = EysCache(pga100, LeakyReLU(5 / 6, 5 / 4))
        ladder = [cache.network(Skeleton(dims)) for dims in ((514, 12, 3), (514, 12, 5, 3))]
        sweep = cache.network(Skeleton((514, 12, 5)))
        assert all(psi.layers[0] is ladder[0].layers[0] for psi in (ladder[1], sweep))
        assert sweep.layers[1] is ladder[1].layers[1]
        assert ladder[1].layers[2] is not ladder[0].layers[1]

    def test_one_leading_basis_call_per_level(self, pga400, monkeypatch):
        calls = []

        def counted(eigvecs, width):
            calls.append(width)
            return leading_basis(eigvecs, width)

        monkeypatch.setattr(initializers, "leading_basis", counted)
        with pytest.warns(UserWarning, match="width 64 exceeds numerical rank"):
            eys_init(pga400, Skeleton((514, 64, 15, 3)), LeakyReLU(5 / 6, 5 / 4))
        assert calls == [64, 15, 3]

    def test_data_and_activation_come_from_one_source(self, pga100):
        act = HypAct.from_sharpness(0.5)
        with pytest.raises(TypeError, match="cache"):
            eys_init(np.ones((514, 10)), Skeleton((514, 5)), act, cache=EysCache(pga100, act))
        assert EysCache(pga100, act).network(Skeleton((514, 5))).act is act

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
        # A lift reads only the layers: the frame is D itself, the rotation
        # the identity, the scales one and the free block zero.
        psi = orthogonal_random_init(
            Skeleton((10, 4, 2)), Identity(), np.random.default_rng(11), "SBAE"
        )
        theta = lift(psi, "SBAE")
        for params, layer in zip(theta.layers, psi.layers):
            q, r = layer.D.shape
            assert np.array_equal(params["X"], layer.D)
            assert np.array_equal(params["Z"], np.eye(r))
            assert np.array_equal(params["W"], np.zeros((q, r)))
            assert np.array_equal(params["s"], np.ones((r, 1)))
            assert np.array_equal(params["b"], layer.d)
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


# init-study skeleton families on uniform random data (see study_data).
STUDY_FAMILIES = [
    ("width-sweep", [(24, 8, w) for w in range(1, 8)]),
    ("depth-ladder", [(24, 12, 3), (24, 12, 5, 3), (24, 12, 9, 5, 3), (24, 12, 3)]),
    (
        "mixed-n1-with-repeat",
        [(24, 8, 3), (24, 10, 3), (24, 8, 3), (24, 8, 3, 2), (24, 8), (24, 10, 3)],
    ),
]
# A first level past pi_orth's CholeskyQR2 crossover.
CHOLQR2_FAMILY = ("cholqr2-first-level", [(600, 40, w) for w in (1, 3, 8)])
STUDY_ACTS = [
    ("identity", Identity()),
    ("leakyrelu", LeakyReLU(5 / 6, 5 / 4)),
    ("hypact", HypAct.from_sharpness(0.5)),
]


def study_data(dims):
    return np.random.default_rng(11).uniform(0.0, 1.0, (dims[0][0], max(60, 3 * dims[0][1])))


def normalized_test_split(U, seed):
    """The min-max normalized test split that init_study scores on."""
    train_U, _val, test_U = split(U, seed)
    _, lo, hi = minmax_normalize(train_U)
    return apply_minmax(test_U, lo, hi)


class TestInitStudy:
    @staticmethod
    def direct_rows(U, act, skeletons, trials, seed):
        """The study's definition, skeleton by skeleton with fresh draws."""
        train_U, _val, test_U = split(U, seed)
        train_norm, lo, hi = minmax_normalize(train_U)
        test_norm = apply_minmax(test_U, lo, hi)
        rows = []
        for sk in skeletons:
            baseline = min(
                empirical_mse(
                    orthogonal_random_init(sk, act, np.random.default_rng(derive_seed(seed, t))),
                    test_norm,
                )
                for t in range(trials)
            )
            rows.append((sk, empirical_mse(eys_init(train_norm, sk, act), test_norm), baseline))
        return rows

    @pytest.mark.parametrize(
        "dims, act, trials",
        [
            # HypAct cases carry the bare family name, so their ids stay stable.
            pytest.param(
                dims, act, 4, id=family if act_id == "hypact" else f"{act_id}-{family}"
            )
            for act_id, act in STUDY_ACTS
            for family, dims in STUDY_FAMILIES
        ]
        + [
            # Three blocks of trials, so pruning carries the best across blocks.
            pytest.param(dims, HypAct.from_sharpness(0.5), 25, id=f"{family}-25-trials")
            for family, dims in STUDY_FAMILIES[:2]
        ]
        + [
            pytest.param(CHOLQR2_FAMILY[1], HypAct.from_sharpness(0.5), 4, id=CHOLQR2_FAMILY[0]),
            # A full block of trials and a short last one.
            pytest.param(
                [(24, 12, 3), (24, 12, 5, 3), (24, 8, 3)], HypAct.from_sharpness(0.5),
                initializers._TRIAL_BLOCK + 3, id="short-last-block",
            ),
        ],
    )
    def test_rows_equal_the_direct_definition(self, dims, act, trials):
        U = study_data(dims)
        skeletons = [Skeleton(d) for d in dims]
        rows = init_study(U, act, skeletons, trials=trials, seed=5)
        assert rows == self.direct_rows(U, act, skeletons, trials=trials, seed=5)

    @pytest.mark.parametrize(
        "dims, act, trials",
        [
            pytest.param(
                [(514, 20, w) for w in range(1, 21)], HypAct.from_sharpness(0.5), 30,
                id="widths",
            ),
            # The CLI's depth ladder with a sharp activation, whose decode
            # roundoff bound grows as (2 Lip Lip^-1)^(depth - 1).
            pytest.param(
                [(514, 65) + (33, 17, 9, 5, 3)[-k:] for k in range(1, 6)],
                HypAct.from_sharpness(100), 2 * initializers._TRIAL_BLOCK,
                id="depth-ladder-hypact-sharpness-100",
            ),
        ],
    )
    # pga400 has numerical rank 38-39, below the ladder's first width.
    @pytest.mark.filterwarnings("ignore:level 1. requested width 65 exceeds:UserWarning")
    def test_pga400_rows_equal_the_direct_definition(self, pga400, dims, act, trials):
        skeletons = [Skeleton(d) for d in dims]
        rows = init_study(pga400, act, skeletons, trials=trials, seed=0)
        assert rows == self.direct_rows(pga400, act, skeletons, trials=trials, seed=0)

    def test_first_levels_that_end_their_skeletons_share_one_stream(self):
        # Depth-1 skeletons of widths 3 and 5 take their draws from one stream
        # of 24 x 5 normals per trial, drawn after the generators are set back
        # from the 24 x 8 level that (24, 8, 2) extends.
        dims = [(24, 8), (24, 3), (24, 8, 2), (24, 5), (24, 3)]
        U = study_data(dims)
        skeletons = [Skeleton(d) for d in dims]
        rows = init_study(U, LeakyReLU(5 / 6, 5 / 4), skeletons, trials=12, seed=5)
        assert rows == self.direct_rows(U, LeakyReLU(5 / 6, 5 / 4), skeletons, trials=12, seed=5)

    @staticmethod
    def forced_open(monkeypatch, U, act, skeletons, trials, seed):
        """Run the study with every trial kept and decoded, and every random
        candidate scored exactly.

        Returns one ``(skeleton, trial, trial test, candidate)`` row per
        skeleton and trial, block by block, skeleton by skeleton, and in
        trial order within a block.  The trial test is ``(lower bound,
        allowance, best, verdict)`` with the study's own ``_may_win``
        verdict; a candidate is ``(surrogate, allowance, best, exact
        score)``.  Each skeleton's block tests its trials as one array and
        its candidates as one array, and then tests and scores each candidate
        at its turn, in ascending surrogate order; the candidates are paired
        with their trials by that order.
        """
        arrays, scalars = [], []

        def may_win(surrogate, allowance, best):
            verdict = may_win_of(surrogate, allowance, best)
            (scalars if np.ndim(surrogate) == 0 else arrays).append(
                (surrogate, allowance, best, verdict)
            )
            return np.full(np.shape(surrogate), True)

        def squared_error(T, D, d, G):
            value = squared_error_of(T, D, d, G)
            scalars[-1] = scalars[-1][:3] + (value / T.shape[1],)
            return value

        may_win_of = initializers._may_win
        squared_error_of = initializers._squared_error
        monkeypatch.setattr(initializers, "_may_win", may_win)
        monkeypatch.setattr(initializers, "_squared_error", squared_error)
        init_study(U, act, skeletons, trials=trials, seed=seed)

        rows = []
        arrays, scalars = iter(arrays), iter(scalars)
        for first in range(0, trials, initializers._TRIAL_BLOCK):
            size = min(initializers._TRIAL_BLOCK, trials - first)
            for skeleton in skeletons:
                lower, allowance, best, verdict = next(arrays)
                surrogates = next(arrays)[0]
                candidates = [None] * size
                for k in np.argsort(surrogates, kind="stable"):
                    candidates[k] = next(scalars)
                    assert candidates[k][0] == surrogates[k] or np.isnan(surrogates[k])
                rows.extend(
                    (skeleton, first + k, (lower[k], allowance[k], best, verdict[k]), candidates[k])
                    for k in range(size)
                )
        assert next(arrays, None) is None and next(scalars, None) is None
        return rows

    STUDY_CASES = pytest.mark.parametrize(
        "family, dims",
        [
            pytest.param(family, dims, id=family)
            for family, dims in [("pga400", [(514, 20)] + [(514, 20, w) for w in range(1, 21)])]
            + STUDY_FAMILIES
            + [CHOLQR2_FAMILY]
        ],
    )
    STUDY_ACT_CASES = pytest.mark.parametrize(
        "act", [act for _, act in STUDY_ACTS], ids=[i for i, _ in STUDY_ACTS]
    )
    # The study's activations and two far from linear.
    WIDE_ACT_CASES = pytest.mark.parametrize(
        "act",
        [act for _, act in STUDY_ACTS] + [HypAct.from_sharpness(100), LeakyReLU(1e-3, 1e3)],
        ids=[i for i, _ in STUDY_ACTS] + ["hypact-sharpness-100", "leakyrelu-1e-3-1e3"],
    )

    @pytest.mark.parametrize("n0, trials", [(12, 100), (20, 80), (33, 60), (64, 70)])
    @STUDY_ACT_CASES
    def test_isotropic_test_split_keeps_the_direct_minimum(self, n0, trials, act):
        # With T = I every orthonormal first level D has ||D^T T||^2 = n1, so
        # the trials' projection residuals tie up to roundoff, and at depth 1,
        # or at depth 2 with Identity, so do their scores.  Only the trial
        # test's and the surrogate test's allowances keep the minimum from
        # being skipped: with the trial test's zeroed, (33, 32) and
        # (33, 32, 31) with Identity lose it by one ulp.
        T = np.eye(n0)
        dims = [(n0, n0 - 1), (n0, n0 - 1, n0 - 2), (n0, n0 // 2), (n0, n0 // 2, n0 // 4)]
        skeletons = [Skeleton(d) for d in dims]
        direct = [
            min(
                empirical_mse(
                    orthogonal_random_init(sk, act, np.random.default_rng(derive_seed(0, t))), T
                )
                for t in range(trials)
            )
            for sk in skeletons
        ]
        assert initializers._best_random(T, act, skeletons, trials, seed=0) == direct

    @pytest.mark.parametrize(
        "family, dims",
        [
            pytest.param(family, dims, id=family)
            for family, dims in [
                ("pga400", [(514, 20, w) for w in range(1, 21)]),
                # The CLI's --depth-pattern ladder.
                ("pga400-depth-ladder", [(514, 65) + (33, 17, 9, 5, 3)[-k:] for k in range(1, 6)]),
            ]
            + STUDY_FAMILIES
            + [CHOLQR2_FAMILY]
        ],
    )
    @WIDE_ACT_CASES
    # pga400 has numerical rank 38-39, below the ladder's first width.
    @pytest.mark.filterwarnings("ignore:level 1. requested width 65 exceeds:UserWarning")
    def test_surrogate_is_the_score_well_within_its_allowance(
        self, monkeypatch, request, family, dims, act
    ):
        # The level-1 split is exact up to roundoff, and so is the surrogate's
        # outer input; the allowance must cover that roundoff a thousand
        # times over.
        U = request.getfixturevalue("pga400") if family.startswith("pga400") else study_data(dims)
        skeletons = [Skeleton(d) for d in dims]
        trials = 12
        rows = self.forced_open(monkeypatch, U, act, skeletons, trials, seed=5)
        assert len(rows) == trials * len(skeletons)
        for _, _, _, (surrogate, allowance, _, exact) in rows:
            assert abs(exact - surrogate) <= 1e-3 * allowance, (exact, surrogate, allowance)

    @pytest.mark.parametrize("dims", [(514, 20, 1), (514, 20, 7), (514, 65, 17, 9, 5, 3)])
    @WIDE_ACT_CASES
    def test_outer_input_without_the_round_trip_is_within_its_bound(self, pga400, dims, act):
        # The trial test's soundness argument from depth 2 takes
        # _decode_drift's bound as one on the roundoff of the latent round
        # trip and the decode levels (e0, see initializers._SPLIT_SLACK).  G
        # decoded from act(Y) and G~ decoded from Y without the round trip
        # round the same exact map, so their gap must stay within that bound.
        skeleton = Skeleton(dims)
        rng = np.random.default_rng(3)
        levels = [
            initializers._orthogonal_level(rng.standard_normal(skeleton.layer_shape(j)))
            for j in range(1, skeleton.depth + 1)
        ]
        T = normalized_test_split(pga400, 0)
        H = T
        for level in levels[:-1]:
            H = act.apply(level.encode_affine(H))
        Y = levels[-1].encode_affine(H)
        # G as the study decodes it: the inner levels' network decodes act(Y).
        inner = SymmetricAutoencoder(Skeleton(dims[1:]), act, tuple(levels[1:]), "SOAE")
        G = act.apply_inverse(inner.decode(act.apply(Y)))
        G_tilde = Y
        for level in reversed(levels[1:]):
            G_tilde = act.apply_inverse(level.D @ G_tilde + level.d)
        n = T.shape[1]
        C = levels[0].encode_affine(T)
        bound = initializers._decode_drift(act, skeleton) * (
            np.sqrt(dims[1] * n) + np.linalg.norm(C)
        )
        assert np.linalg.norm(G - G_tilde) <= bound

    @STUDY_CASES
    @STUDY_ACT_CASES
    def test_a_dropped_trial_has_no_candidate_that_can_win(
        self, monkeypatch, request, family, dims, act
    ):
        # The trial test drops a trial, before its deeper encodes and its
        # decode, only when the per-candidate test would skip every candidate
        # of it, at the best the trial test saw, whatever its outer input: at
        # depth 1 by the projection residual P alone, and from depth 2 by the
        # first two terms of the layerwise lower bound.
        U = request.getfixturevalue("pga400") if family == "pga400" else study_data(dims)
        skeletons = [Skeleton(d) for d in dims]
        trials = 3 * initializers._TRIAL_BLOCK
        may_win = initializers._may_win
        rows = self.forced_open(monkeypatch, U, act, skeletons, trials, seed=5)
        assert len(rows) == trials * len(skeletons)
        dropped = []
        for skeleton, t, (_, _, best, verdict), (surrogate, allowance, _, _) in rows:
            if not verdict:
                dropped.append((skeleton, t, best))
                assert not may_win(surrogate, allowance, best)
        if family != "pga400":
            return
        # The first block meets no best score yet; later ones drop trials on
        # pga400 at both depths.  At depth 2 the level-2 term drops trials
        # that P alone keeps: those whose P is at most the best.
        assert {skeleton.depth for skeleton, _, _ in dropped} == {1, 2}
        T = normalized_test_split(U, 5)
        kept_by_P = 0
        for skeleton, t, best in dropped:
            rng = np.random.default_rng(derive_seed(5, t))
            D = orthogonal_random_init(skeleton, act, rng).layers[0].D
            P = np.sum(T * T) - np.sum(np.square(D.T @ T))
            kept_by_P += skeleton.depth == 2 and P / T.shape[1] <= best
        assert kept_by_P > 0

    def test_only_the_candidates_that_can_win_are_scored_exactly(self, monkeypatch, pga400):
        # Exact 514-row scores on pga400 (seed 0, 30 trials, widths 1-20
        # behind a first width of 20): one per random candidate that can
        # still win when its turn comes, in ascending surrogate order (86
        # in trial order; the iterated-SVD rows are empirical_mse's own);
        # every other candidate is settled by its surrogate, and the
        # projection residual comes from two sums.
        calls = []
        squared_error = initializers._squared_error

        def counting(*args):
            calls.append(None)
            return squared_error(*args)

        monkeypatch.setattr(initializers, "_squared_error", counting)
        act = HypAct.from_sharpness(0.5)
        skeletons = [Skeleton((514, 20, w)) for w in range(1, 21)]
        counts = []
        for _ in range(2):
            calls.clear()
            init_study(pga400, act, skeletons, trials=30, seed=0)
            counts.append(len(calls))
        assert counts == [46, 46]
        assert counts[0] < 30 * len(skeletons) / 5

    @pytest.mark.parametrize(
        "broken_level, broken_trial",
        [(1, 3), (2, initializers._TRIAL_BLOCK + 1)],
        ids=["shared-first-level", "later-level"],
    )
    @pytest.mark.parametrize(
        "breakage",
        [lambda V: 2.0 * V, lambda V: np.where(np.eye(*V.shape, dtype=bool), np.nan, V)],
        ids=["scaled", "nan"],
    )
    def test_every_drawn_level_is_validated(
        self, monkeypatch, broken_level, broken_trial, breakage
    ):
        # Each block of trials draws the shared 24x8 level, then the 8x3 and
        # 8x5 levels, as one stacked pi_orth call each; break one slice of
        # the 8x5 call (level 2) or of the shared call (level 1).
        shape = {1: (24, 8), 2: (8, 5)}[broken_level]
        block, index = divmod(broken_trial, initializers._TRIAL_BLOCK)
        calls = []

        def faulty_pi_orth(A):
            V = pi_orth(A)
            calls.append(A.shape[-2:])
            if calls.count(shape) == block + 1 and calls[-1] == shape:
                V = V.copy()
                V[index] = breakage(V[index])
                broken.append(len(calls))
            return V

        broken = []
        monkeypatch.setattr(initializers, "pi_orth", faulty_pi_orth)
        U = np.random.default_rng(13).uniform(0.0, 1.0, (24, 60))
        skeletons = [Skeleton((24, 8, 3)), Skeleton((24, 8, 5))]
        with pytest.raises(
            NumericalError,
            match=rf"random trial {broken_trial}, level {broken_level}: .*violates E D = I",
        ):
            init_study(U, Identity(), skeletons, trials=2 * initializers._TRIAL_BLOCK, seed=5)
        # The broken stack is the last one drawn: it is checked before any other draw.
        assert broken == [len(calls)]

    def test_peak_memory_stays_within_a_block_of_trials(self, pga400):
        # Traced peaks on this study: the iterated-SVD side alone about
        # 6.3 MB, with blocks of 10 trials 7.9 MB, and with all 30 trials
        # stacked at once 16.5 MB.
        skeletons = [Skeleton((514, 20, w)) for w in range(1, 21)]
        tracemalloc.start()
        try:
            init_study(pga400, HypAct.from_sharpness(0.5), skeletons, trials=30, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"

    def test_reaches_no_tape_training_lift_or_per_skeleton_init(self, monkeypatch):
        # The study scores its starts with plain arrays: it builds no tape,
        # trains and lifts nothing, takes its iterated-SVD levels from
        # EysCache and draws its random levels without orthogonal_random_init.
        calls = []
        names = [
            "autodiff.gradient",
            "autodiff.backward",
            "training.train",
            "training.adam_step",
            "architecture.loss_on_batch",
            "initializers.lift",
            "initializers.eys_init",
            "initializers.orthogonal_random_init",
        ]
        modules = [
            importlib.import_module(f"symae.{m}")
            for m in (
                "activations", "architecture", "autodiff", "bounds", "cli", "data_io",
                "initializers", "linalg", "training",
            )
        ]
        for dotted in names:
            module, attr = dotted.split(".")
            original = getattr(importlib.import_module(f"symae.{module}"), attr)

            def counting(*args, _original=original, _name=dotted, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            # Every module that imported the function calls it by its own name.
            for holder in modules:
                if getattr(holder, attr, None) is original:
                    monkeypatch.setattr(holder, attr, counting)
        dims = STUDY_FAMILIES[1][1] + STUDY_FAMILIES[2][1]
        U = study_data(dims)
        init_study(U, HypAct.from_sharpness(0.5), [Skeleton(d) for d in dims], trials=12, seed=5)
        assert calls == []
        # The counters do count.
        initializers.eys_init(U, Skeleton(dims[0]), Identity())
        assert calls == ["initializers.eys_init"]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_at_least_one_trial(self, trials):
        U = np.random.default_rng(12).uniform(0.0, 1.0, (10, 20))
        with pytest.raises(ValueError, match="at least one random trial"):
            init_study(U, Identity(), [Skeleton((10, 3))], trials=trials, seed=0)


def test_derive_seed_is_deterministic_and_spreads():
    seeds = {derive_seed(42, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)


@pytest.mark.parametrize("q, r_max", [(20, 20), (65, 3), (8, 5)])
@pytest.mark.parametrize("after", [(), (514, 20)], ids=["fresh", "after-a-first-level"])
def test_a_stream_of_normals_starts_with_every_narrower_draw(q, r_max, after):
    # init_study draws the levels that end their skeletons, q x r for each
    # width r up to r_max, as the first q r normals of one stream of q r_max
    # per trial.  That is bitwise each (q, r) draw only while
    # standard_normal fills its output in order and buffers nothing.
    for t in range(20):
        stream_rng, draw_rng = (np.random.default_rng(derive_seed(100, t)) for _ in range(2))
        if after:
            stream_rng.standard_normal(after)
            draw_rng.standard_normal(after)
        stream = stream_rng.standard_normal(q * r_max)
        state = draw_rng.bit_generator.state
        for r in range(1, r_max + 1):
            draw_rng.bit_generator.state = state
            expected = draw_rng.standard_normal((q, r))
            assert stream[: q * r].reshape(q, r).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dims", [(24, 12, 5, 3), (24, 5)], ids=["depth-3", "depth-1"])
@pytest.mark.parametrize("layout", ["SAE", "PlainAE"])
@pytest.mark.parametrize("act", [act for _, act in STUDY_ACTS], ids=[i for i, _ in STUDY_ACTS])
def test_a_stack_of_levels_decodes_each_slice_as_its_own_network(act, layout, dims):
    # init_study decodes the kept trials' inner levels as one stack of
    # random orthogonal levels; each slice must be bitwise the decode of its
    # own network.  The executor takes a stack in either dense layout, so
    # with PlainAE's latent-end rule too, and at depth 1, where the latent
    # end is the output level; the full run must match each slice's
    # reconstruction as well.
    skeleton, k, n = Skeleton(dims), 7, 30
    rng = np.random.default_rng(21)
    levels = [
        initializers._orthogonal_level(rng.standard_normal((k, *skeleton.layer_shape(j))))
        for j in range(1, skeleton.depth + 1)
    ]
    params = [level._asdict() for level in levels]
    H = rng.standard_normal((k, skeleton.latent_dim, n))
    U = rng.uniform(0.0, 1.0, (k, skeleton.dims[0], n))
    *_, decoded = map_outputs(layout, act, params, H, encode=False)
    *_, reconstructed = map_outputs(layout, act, params, U)
    for i in range(k):
        own = tuple(Layer(level.E[i], level.D[i], level.e, level.d) for level in levels)
        psi = SymmetricAutoencoder(skeleton, act, own, "SOAE" if layout == "SAE" else layout)
        assert decoded[i].tobytes() == psi.decode(H[i]).tobytes()
        assert reconstructed[i].tobytes() == psi.reconstruct(U[i]).tobytes()
