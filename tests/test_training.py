import warnings

import numpy as np
import pytest

from _util import random_theta
from symae import linalg
from symae.activations import HypAct, Identity, LeakyReLU
from symae.architecture import Skeleton, assemble
from symae.bounds import empirical_mse, linear_lower_bound, pod
from symae.data_io import DataFormatError
from symae.initializers import eys_init, he_init, lift
from symae.linalg import NumericalError
from symae.training import (
    AdamState,
    EvalMetrics,
    TrainConfig,
    adam_step,
    apply_minmax,
    evaluate,
    minmax_normalize,
    split,
    train,
)


def spy_on_cholesky_qr2(monkeypatch):
    """Record the shape of every input ``pi_orth``'s CholeskyQR2 route accepts."""
    accepted = []
    kernel = linalg._cholesky_qr2

    def spy(A, want_inverse):
        out = kernel(A, want_inverse)
        if out is not None:
            accepted.append(A.shape)
        return out

    monkeypatch.setattr(linalg, "_cholesky_qr2", spy)
    return accepted


class TestMinMax:
    def test_integer_range_scales_to_unit(self):
        U = np.arange(0.0, 11.0).reshape(1, -1)
        norm, lo, hi = minmax_normalize(U)
        assert (lo, hi) == (0.0, 10.0)
        np.testing.assert_allclose(norm, U / 10.0)

    def test_roundtrip(self):
        U = np.random.default_rng(0).uniform(-3, 7, (6, 9))
        norm, lo, hi = minmax_normalize(U)
        assert norm.min() == 0.0 and norm.max() == 1.0
        np.testing.assert_allclose(norm * (hi - lo) + lo, U, atol=1e-12)

    def test_constant_data_warns_and_passes_through(self):
        U = np.full((3, 4), 2.5)
        with pytest.warns(UserWarning, match="constant"):
            norm, lo, hi = minmax_normalize(U)
        assert (lo, hi) == (0.0, 1.0)
        np.testing.assert_allclose(norm, U)

    @pytest.mark.parametrize(
        "U, match",
        [
            ([[-1.7e308, 0.0], [1.0, 1.7e308]], r"lo = -1\.7e\+308, hi = 1\.7e\+308"),
            ([[-1e308, 0.0], [-5e307, -1.0]], r"lo = -1e\+308, hi = 0\.0"),
        ],
        ids=["width-overflows", "square-overflows"],
    )
    def test_range_overflowing_float64_is_data_error(self, U, match):
        # Both ends are finite, but hi - lo is not, or its square (which
        # scales errors back) is not: no array is subtracted, so no overflow
        # warning is raised on the way to the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=match):
                minmax_normalize(np.array(U))

    def test_fitted_map_leaving_float64_is_data_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=r"lo = 0\.0, hi = 0\.5"):
                apply_minmax(np.array([[1.0, 1.7e308]]), 0.0, 0.5)

    def test_fitted_range_applied_to_test_can_exceed_unit_interval(self):
        train_part = np.array([[0.0, 1.0]])
        test_part = np.array([[2.0]])
        _, lo, hi = minmax_normalize(train_part)
        assert apply_minmax(test_part, lo, hi)[0, 0] == 2.0


class TestSplit:
    def test_sizes_400(self):
        U = np.random.default_rng(1).standard_normal((5, 400))
        tr, va, te = split(U, seed=0)
        assert tr.shape[1] == 200 and va.shape[1] == 100 and te.shape[1] == 100

    def test_partition_is_disjoint_and_complete(self):
        U = np.arange(26.0).reshape(1, 26)
        tr, va, te = split(U, seed=3)
        merged = np.sort(np.concatenate([tr, va, te], axis=1).ravel())
        np.testing.assert_allclose(merged, np.arange(26.0))
        assert tr.shape[1] == 13 and va.shape[1] == 6 and te.shape[1] == 7

    def test_same_seed_same_split(self):
        U = np.random.default_rng(2).standard_normal((4, 40))
        a = split(U, seed=9)
        b = split(U, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_too_few_columns(self):
        with pytest.raises(ValueError):
            split(np.ones((3, 3)), seed=0)


def textbook_adam(params, grads, m, v, t, lr):
    """Per-leaf Adam with bias correction, allocating every intermediate."""
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
        v[i] = 0.999 * v[i] + (1.0 - 0.999) * (g * g)
        m_hat = m[i] / (1.0 - 0.9**t)
        v_hat = v[i] / (1.0 - 0.999**t)
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + 1e-8))
    return out


class TestOptimizers:
    # SAE 514,64,15,3 has 12 leaves; SBAE (8,4,4,2) has a (0, 4) Q block at level 2.
    @pytest.mark.parametrize(
        "class_tag, dims",
        [("SAE", (514, 64, 15, 3)), ("SBAE", (8, 4, 4, 2))],
        ids=["sae", "sbae"],
    )
    def test_matches_the_textbook_update_bitwise(self, class_tag, dims):
        rng = np.random.default_rng(15)
        params = random_theta(class_tag, Skeleton(dims), Identity(), rng).leaves()
        shapes = [p.shape for p in params]
        m = [np.zeros(shape) for shape in shapes]
        v = [np.zeros(shape) for shape in shapes]
        state = AdamState(params)
        for t in range(1, 21):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 2) for shape in shapes]
            params = textbook_adam(params, grads, m, v, t, lr=1e-3)
            adam_step(grads, state, lr=1e-3)
        for want, got in zip(params, state.leaves):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_zero_gradient_leaves_parameters(self):
        state = AdamState([np.ones((2, 2))])
        adam_step([np.zeros((2, 2))], state, lr=0.1)
        np.testing.assert_allclose(state.leaves[0], np.ones((2, 2)))

    def test_first_step_from_zero_state(self):
        g = np.array([[0.25, -3.0]])
        state = AdamState([np.zeros((1, 2))])
        adam_step([g], state, lr=1e-3)
        expected = -1e-3 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(state.leaves[0], expected, rtol=1e-6)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        g = np.array([[2.0]])
        state = AdamState([np.zeros((1, 1))])
        for _ in range(5000):
            before = state.leaves[0].copy()
            adam_step([g], state, lr=1e-3)
            step = state.leaves[0] - before
        np.testing.assert_allclose(abs(step[0, 0]), 1e-3, rtol=1e-3)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.patience, cfg.batch_size) == (1500, 500, 8)
        assert cfg.learning_rate == 1e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"patience": 0},
            {"learning_rate": -1.0},
            {"batch_size": 0},
            {"epochs": 10, "patience": 11},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTrain:
    def test_memorizes_single_sample(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0, 1, (6, 1))
        theta0 = lift(he_init(Skeleton((6, 3, 2)), LeakyReLU(0.5, 2.0), rng), "SAE")
        cfg = TrainConfig(epochs=500, patience=500, learning_rate=1e-2, batch_size=1, seed=0)
        _theta, hist = train(theta0, u, u, cfg)
        assert hist.records[-1].train_loss <= 1e-6

    def test_biorthogonal_constraint_holds_every_epoch(self, monkeypatch):
        # On 514 rows the level-1 factor X is 514x64, past pi_orth's
        # CholeskyQR2 crossover; the 10-row network stays on Householder.
        accepted = spy_on_cholesky_qr2(monkeypatch)
        rng = np.random.default_rng(4)
        for dims, samples, epochs in [((10, 4, 2), 16, 25), ((514, 32, 3), 40, 4)]:
            U = rng.uniform(0, 1, (dims[0], samples))
            theta0 = lift(eys_init(U, Skeleton(dims), LeakyReLU(5 / 6, 5 / 4)), "SBAE")
            cfg = TrainConfig(
                epochs=epochs, patience=epochs, learning_rate=1e-3, batch_size=4, seed=1
            )
            _theta, hist = train(theta0, U, U, cfg)
            assert len(hist.records) == epochs
            assert all(r.constraint_residual <= 1e-8 for r in hist.records)
        assert accepted and all(m == 514 for m, _ in accepted)

    def test_identity_single_level_converges_to_optimal_linear_error(self):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((12, 40))
        tail = pod(U, 4).error
        theta0 = lift(eys_init(U, Skeleton((12, 4)), Identity()), "SOAE")
        cfg = TrainConfig(epochs=60, patience=60, learning_rate=1e-3, batch_size=8, seed=2)
        _theta, hist = train(theta0, U, U, cfg)
        assert hist.records[-1].train_loss <= tail * 1.05

    def test_bitwise_deterministic(self, monkeypatch):
        # The 514-row SBAE run orthonormalizes a 514x64 factor by CholeskyQR2.
        accepted = spy_on_cholesky_qr2(monkeypatch)
        rng = np.random.default_rng(6)
        cases = [((8, 3), 12, "SOAE", 10), ((514, 32, 3), 40, "SBAE", 3)]
        for dims, samples, class_tag, epochs in cases:
            U = rng.uniform(0, 1, (dims[0], samples))
            theta0 = lift(eys_init(U, Skeleton(dims), HypAct.from_sharpness(0.5)), class_tag)
            cfg = TrainConfig(
                epochs=epochs, patience=epochs, learning_rate=1e-3, batch_size=4, seed=7
            )
            t1, h1 = train(theta0, U, U[:, :4], cfg)
            t2, h2 = train(theta0, U, U[:, :4], cfg)
            for p1, p2 in zip(t1.layers, t2.layers):
                for key in p1:
                    assert np.array_equal(p1[key], p2[key])
            assert [r.train_loss for r in h1.records] == [r.train_loss for r in h2.records]
        assert accepted

    def test_returns_best_validation_parameters(self):
        rng = np.random.default_rng(8)
        U = rng.uniform(0, 1, (9, 20))
        val = rng.uniform(0, 1, (9, 8))
        theta0 = lift(he_init(Skeleton((9, 4)), LeakyReLU(0.5, 2.0), rng), "SAE")
        cfg = TrainConfig(epochs=40, patience=40, learning_rate=5e-3, batch_size=4, seed=3)
        theta, hist = train(theta0, U, val, cfg)
        best_recorded = min(r.val_loss for r in hist.records)
        restored = empirical_mse(assemble(theta), val)
        np.testing.assert_allclose(restored, best_recorded, rtol=1e-12)
        assert hist.best_epoch == min(
            r.epoch for r in hist.records if r.val_loss == best_recorded
        )

    def test_early_stopping_halts_after_patience(self):
        rng = np.random.default_rng(9)
        U = rng.uniform(0, 1, (6, 8))
        # Constant validation set identical to a fixed point: loss cannot
        # improve once converged, so patience cuts the run short.
        theta0 = lift(eys_init(U, Skeleton((6, 5)), Identity()), "SOAE")
        cfg = TrainConfig(epochs=400, patience=5, learning_rate=1e-12, batch_size=8, seed=4)
        _theta, hist = train(theta0, U, U, cfg)
        assert hist.epochs_run < 400

    def test_divergence_raises_numerical_error(self):
        rng = np.random.default_rng(10)
        U = rng.uniform(0, 1, (6, 8))
        theta0 = lift(he_init(Skeleton((6, 3, 2)), LeakyReLU(0.5, 2.0), rng), "SAE")
        # Adam's step is bounded by the learning rate, so only an absurd
        # rate diverges; batch 4 makes the blow-up land on a training batch.
        cfg = TrainConfig(
            epochs=50, patience=50, learning_rate=1e100, batch_size=4, seed=5,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                NumericalError,
                match=r"batch \d+; first non-finite: (encoder|decoder) level \d$",
            ):
                train(theta0, U, U, cfg)

    @pytest.mark.parametrize(
        "value, where",
        [(1e300, "the sum of squared errors"), (1.7e308, "encoder level 1")],
        ids=["squares-overflow", "encoder-overflows"],
    )
    def test_overflowing_validation_data_names_the_first_non_finite_map(self, value, where):
        # Finite validation columns whose reconstruction errors square past
        # float64, or whose first encoder level's products do; the training
        # data in [0, 1] keeps every training loss finite.
        rng = np.random.default_rng(10)
        U = rng.uniform(0, 1, (6, 8))
        theta0 = lift(he_init(Skeleton((6, 3, 2)), LeakyReLU(0.5, 2.0), rng), "SAE")
        cfg = TrainConfig(epochs=3, patience=3, learning_rate=1e-3, batch_size=4, seed=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                NumericalError,
                match=rf"^non-finite validation loss at epoch 1; first non-finite: {where}$",
            ):
                train(theta0, U, np.full((6, 4), value), cfg)

    def test_broken_constraint_raises_numerical_error_naming_the_epoch(self):
        rng = np.random.default_rng(4)
        U = rng.uniform(0, 1, (10, 16))
        theta0 = lift(eys_init(U, Skeleton((10, 4, 2)), LeakyReLU(5 / 6, 5 / 4)), "SBAE")
        # A step of 1e4 leaves E D = I off by about 4e-4 after epoch 1.
        cfg = TrainConfig(epochs=3, patience=3, learning_rate=1e4, batch_size=4, seed=1)
        spread = r"scale spread max s\^2 / min s\^2 by level: \d\.\d{3}e[+-]\d+, \d\.\d{3}e[+-]\d+$"
        with pytest.raises(NumericalError, match=r"epoch 1\b.*violates E D = I.*; " + spread):
            train(theta0, U, U, cfg)

    @pytest.mark.parametrize("class_tag", ["SAE", "SBAE", "SOAE", "PlainAE"])
    def test_leaves_theta0_alone_and_returns_owned_arrays(self, class_tag):
        rng = np.random.default_rng(16)
        U = rng.uniform(0, 1, (8, 12))
        theta0 = random_theta(
            class_tag, Skeleton((8, 4, 4, 2)), LeakyReLU(0.5, 2.0), rng, well_conditioned=True
        )
        before = [x.tobytes() for x in theta0.leaves()]
        cfg = TrainConfig(epochs=3, patience=3, learning_rate=1e-2, batch_size=4, seed=0)
        theta, _hist = train(theta0, U, U, cfg)
        assert [x.tobytes() for x in theta0.leaves()] == before
        # Disjoint views into one buffer do not overlap, so also ask that each
        # returned leaf owns its data.
        assert all(x.flags.owndata for x in theta.leaves())
        leaves = theta.leaves() + theta0.leaves()
        for i, a in enumerate(leaves):
            for b in leaves[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_short_final_batch_is_kept(self):
        rng = np.random.default_rng(14)
        U = rng.uniform(0, 1, (6, 10))  # batch 4 -> batches of 4, 4, 2
        theta0 = lift(eys_init(U, Skeleton((6, 2)), Identity()), "SOAE")
        cfg = TrainConfig(epochs=2, patience=2, learning_rate=1e-3, batch_size=4, seed=0)
        _theta, hist = train(theta0, U, U, cfg)
        assert np.isfinite(hist.records[-1].train_loss)

    def test_trained_error_respects_linear_floor(self):
        rng = np.random.default_rng(11)
        U = rng.uniform(0, 1, (10, 24))
        theta0 = lift(eys_init(U, Skeleton((10, 3)), LeakyReLU(5 / 6, 5 / 4)), "SOAE")
        cfg = TrainConfig(epochs=80, patience=80, learning_rate=1e-3, batch_size=8, seed=6)
        theta, _hist = train(theta0, U, U, cfg)
        mse = empirical_mse(assemble(theta), U)
        assert mse >= linear_lower_bound(U, 3) - 1e-9


class TestHistoryCsv:
    def test_format(self, tmp_path):
        rng = np.random.default_rng(12)
        U = rng.uniform(0, 1, (6, 8))
        theta0 = lift(eys_init(U, Skeleton((6, 2)), Identity()), "SOAE")
        cfg = TrainConfig(epochs=3, patience=3, learning_rate=1e-3, batch_size=4, seed=0)
        _theta, hist = train(theta0, U, U, cfg)
        path = tmp_path / "history.csv"
        hist.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,wall_time_s,constraint_residual"
        assert len(lines) == 4
        fields = lines[1].split(",")
        assert fields[0] == "1"
        float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4])


class TestEvaluate:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(13)
        theta = random_theta("SBAE", Skeleton((8, 3)), Identity(), rng)
        psi = assemble(theta)
        U = psi.decode(rng.standard_normal((3, 6)))
        metrics = evaluate(psi, U)
        assert metrics.mse <= 1e-16 and metrics.mre <= 1e-9

    def test_zero_output_network_hand_values(self):
        theta = random_theta("SAE", Skeleton((2, 1)), Identity(), np.random.default_rng(0))
        for key in ("E", "D", "e", "d"):
            theta.layers[0][key][:] = 0.0
        psi = assemble(theta)
        u = np.array([[2.0], [0.0]])  # single sample with norm 2
        metrics = evaluate(psi, u)
        assert metrics == EvalMetrics(mse=4.0, mre=1.0)

    def test_matches_empirical_mse(self, pga100):
        psi = eys_init(pga100, Skeleton((514, 8)), Identity())
        metrics = evaluate(psi, pga100)
        assert metrics.mse == empirical_mse(psi, pga100)

    def test_zero_norm_sample_skipped_with_warning(self):
        theta = random_theta("SAE", Skeleton((2, 1)), Identity(), np.random.default_rng(1))
        psi = assemble(theta)
        U = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.warns(UserWarning, match="zero-norm"):
            metrics = evaluate(psi, U)
        assert np.isfinite(metrics.mre)
