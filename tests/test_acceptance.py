"""End-to-end acceptance suite.

Each test enforces one numbered acceptance criterion at its stated
tolerance and prints a single ``[criterion NN] ... PASS`` line (visible
with ``pytest -s`` or in captured output).  Criteria with a runtime budget
assert the elapsed wall time as well.
"""

import time

import numpy as np
import pytest

from _util import grad_check, random_theta
from symae.activations import HypAct, Identity, LeakyReLU
from symae.architecture import Skeleton, assemble
from symae.bounds import (
    empirical_mse,
    greedy_upper_bound,
    layerwise_bounds,
    linear_lower_bound,
    pod,
)
from symae.initializers import eys_init, he_init, he_variance, init_study, lift
from symae.linalg import pi_orth
from symae.training import (
    TrainConfig,
    apply_minmax,
    evaluate,
    minmax_normalize,
    split,
    train,
)

LEAKY_MILD = LeakyReLU(5 / 6, 5 / 4)      # sharpness 0.5
LEAKY_SHARP = LeakyReLU(5 / 16, 5 / 4)    # sharpness 3.0
HYP_MILD = HypAct.from_sharpness(0.5)
HYP_SHARP = HypAct.from_sharpness(3.0)


def report(num, name, detail=""):
    print(f"[criterion {num:02d}] {name}: PASS {detail}".rstrip())


def projection_error(U, V, q):
    resid = (U - q) - V @ (V.T @ (U - q))
    return float(np.sum(resid * resid)) / U.shape[1]


def test_c01_pod_exactness_and_optimality():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        U = rng.standard_normal((30, 100))
        q_star = U.mean(axis=1, keepdims=True)
        for n in (1, 5, 10):
            result = pod(U, n)
            direct = projection_error(U, result.basis, result.shift)
            rel = abs(result.error - direct) / result.error
            worst_gap = max(worst_gap, rel)
            assert rel <= 1e-9, f"set {trial}, n={n}: tail vs direct gap {rel:.3e}"
            for _ in range(1000):
                V = pi_orth(rng.standard_normal((30, n)))
                assert result.error <= projection_error(U, V, q_star) + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
    report(1, "optimal linear reduction equals covariance tail",
           f"(worst rel gap {worst_gap:.2e}, {elapsed:.1f}s)")


def test_c02_bilipschitz_suite():
    rng = np.random.default_rng(2)
    for act in (LEAKY_MILD, LEAKY_SHARP, HYP_MILD, HYP_SHARP):
        lip, lip_inv = act.lipschitz_pair()
        x = rng.uniform(-40, 40, 10_000)
        y = rng.uniform(-40, 40, 10_000)
        gap_in = np.abs(x - y)
        gap_out = np.abs(act.apply(x) - act.apply(y))
        assert np.all(gap_out <= lip * gap_in + 1e-9), act.spec()
        assert np.all(gap_out >= gap_in / lip_inv - 1e-9), act.spec()
        back = act.apply_inverse(act.apply(x))
        assert np.max(np.abs(back - x) / np.maximum(1.0, np.abs(x))) <= 1e-10, act.spec()
    report(2, "two-sided growth bounds, inverses, stated constants")


def test_c03_constraints_hold_by_construction():
    sk = Skeleton((12, 6, 3))
    acts = (LEAKY_MILD, HYP_MILD)
    rng = np.random.default_rng(3)
    for class_tag in ("SAE", "SBAE", "SOAE"):
        for trial in range(100):
            act = acts[trial % 2]
            psi = assemble(random_theta(class_tag, sk, act, rng))
            if class_tag == "SBAE":
                for layer in psi.layers:
                    gap = np.max(np.abs(layer.E @ layer.D - np.eye(layer.E.shape[0])))
                    assert gap <= 1e-10, f"trial {trial}: constraint gap {gap:.2e}"
            if class_tag in ("SBAE", "SOAE"):
                c = rng.standard_normal((3, 8))
                assert np.max(np.abs(psi.encode(psi.decode(c)) - c)) <= 1e-8
                u = rng.standard_normal((12, 8))
                once = psi.reconstruct(u)
                assert np.max(np.abs(psi.reconstruct(once) - once)) <= 1e-8
            if class_tag == "SOAE":
                lip, lip_inv = act.lipschitz_pair()
                u1, u2 = rng.standard_normal((2, 12, 32))
                ratio = np.linalg.norm(psi.encode(u1) - psi.encode(u2), axis=0)
                ratio /= np.linalg.norm(u1 - u2, axis=0)
                assert np.all(ratio <= lip**2 * (1 + 1e-9))
                c1, c2 = rng.standard_normal((2, 3, 32))
                dratio = np.linalg.norm(psi.decode(c1) - psi.decode(c2), axis=0)
                dratio /= np.linalg.norm(c1 - c2, axis=0)
                assert np.all(dratio <= lip_inv**2 * (1 + 1e-9))
    report(3, "100 random parameter draws per class satisfy their constraints")


def test_c04_gradient_correctness():
    from symae.architecture import loss_on_batch

    t0 = time.perf_counter()
    sk = Skeleton((20, 8, 4, 2))
    worst = 0.0
    for class_tag in ("SAE", "SBAE", "SOAE"):
        for act in (LEAKY_MILD, HYP_MILD):
            for seed in range(5):
                rng = np.random.default_rng(40_000 + seed)
                # O(1)-scaled parameters and a small batch, but the loss is
                # not near 1: it ranges from 22 to 490 over these 30 draws.
                # A central difference with step 1e-5 carries roundoff of
                # about eps*L/1e-5, which on a small gradient entry reads
                # as relative error: the worst draw (SBAE/leakyrelu seed
                # 40004, loss 25.4) reaches about 5.2e-6 against the 1e-5
                # bound.
                theta = random_theta(class_tag, sk, act, rng, well_conditioned=True)
                batch = 0.2 * rng.standard_normal((20, 6))

                def program(leaves, b):
                    return loss_on_batch(class_tag, act, theta.with_leaves(leaves), b)

                err = grad_check(program, theta.leaves(), batch)
                worst = max(worst, err)
                assert err <= 1e-5, f"{class_tag}/{act.spec()}/seed {seed}: {err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"
    report(4, "reverse-mode gradients match central differences",
           f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_c05_layerwise_bound_sandwich(pga100):
    sk = Skeleton((514, 20, 10, 5))
    rng = np.random.default_rng(5)
    for act in (LEAKY_MILD, HYP_MILD):
        for trial in range(100):
            psi = assemble(random_theta("SOAE", sk, act, rng))
            bounds = layerwise_bounds(psi, pga100)
            mse = empirical_mse(psi, pga100)
            assert bounds.lower <= mse + 1e-9, f"{act.spec()} trial {trial}"
            assert mse <= bounds.upper + 1e-9, f"{act.spec()} trial {trial}"
    report(5, "reconstruction error sandwiched by layerwise bounds (200 trials)")


def test_c06_iterated_svd_consistency(pga100):
    sk = Skeleton((514, 20, 10, 5))
    for act in (LEAKY_MILD, HYP_MILD, Identity()):
        psi = eys_init(pga100, sk, act)
        mse = empirical_mse(psi, pga100)
        budget = greedy_upper_bound(pga100, sk, act)
        assert mse <= budget + 1e-9, act.spec()
        if isinstance(act, Identity):
            assert abs(mse - budget) <= 1e-8
    shallow = Skeleton((514, 12))
    psi = eys_init(pga100, shallow, Identity())
    assert abs(empirical_mse(psi, pga100) - pod(pga100, 12).error) <= 1e-8
    report(6, "iterated-SVD init meets its greedy error budget")


def test_c07_initialization_study(pga400):
    t0 = time.perf_counter()
    act_mild = HYP_MILD
    widths = [Skeleton((514, 20, n2)) for n2 in range(15, 21)]
    rows = init_study(pga400, act_mild, widths, trials=100, seed=0)
    for sk, eys_mse, base_mse in rows:
        assert eys_mse <= 0.1 * base_mse, (
            f"latent {sk.latent_dim}: ratio {eys_mse / base_mse:.2e}"
        )
    ladder_mids = (3, 5, 9, 17, 33)
    ladder = [
        Skeleton((514, 65) + tuple(reversed(ladder_mids[:k])))
        for k in range(1, len(ladder_mids) + 1)
    ]
    ladder_rows = init_study(pga400, HYP_SHARP, ladder, trials=1, seed=0)
    for prev, cur in zip(ladder_rows, ladder_rows[1:]):
        assert cur[1] >= prev[1] * 0.95, (
            f"depth {cur[0].depth}: {cur[1]:.3e} < {prev[1]:.3e}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min budget"
    report(7, "data-driven init beats best-of-100 random and degrades with depth",
           f"({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def full_scale_training(pga400):
    """Standardized pipeline at full scale; shared by criteria 8 and 9."""
    t0 = time.perf_counter()
    train_U, val_U, test_U = split(pga400, seed=0)
    train_n, lo, hi = minmax_normalize(train_U)
    val_n = apply_minmax(val_U, lo, hi)
    test_n = apply_minmax(test_U, lo, hi)
    sk = Skeleton((514, 64, 15, 3))
    theta0 = lift(eys_init(train_n, sk, LEAKY_MILD), "SAE")
    config = TrainConfig(
        epochs=1500, patience=500, learning_rate=1e-3, batch_size=8, seed=0
    )
    theta, history = train(theta0, train_n, val_n, config)
    psi = assemble(theta)
    return {
        "psi": psi,
        "history": history,
        "metrics": evaluate(psi, test_n),
        "train_n": train_n,
        "skeleton": sk,
        "elapsed": time.perf_counter() - t0,
    }


def test_c08_full_scale_training(full_scale_training):
    run = full_scale_training
    history = run["history"]
    first = history.records[0].train_loss
    final = history.records[-1].train_loss
    assert run["metrics"].mse <= 5e-2, f"test MSE {run['metrics'].mse:.3e}"
    assert final <= 0.1 * first, f"loss ratio {final / first:.3e}"
    assert run["elapsed"] < 900.0, f"runtime {run['elapsed']:.0f}s exceeds 15min budget"
    report(8, "standardized full-scale training run",
           f"(test MSE {run['metrics'].mse:.2e}, ratio {final / first:.1e}, "
           f"{run['elapsed']:.0f}s)")


def test_c09_linear_floor_respected(full_scale_training):
    run = full_scale_training
    floor = linear_lower_bound(run["train_n"], run["skeleton"].dims[1])
    trained_mse = empirical_mse(run["psi"], run["train_n"])
    assert trained_mse >= floor - 1e-9

    # The floor also holds for a freshly trained constrained model.
    rng = np.random.default_rng(9)
    U = rng.uniform(0, 1, (16, 24))
    theta0 = lift(eys_init(U, Skeleton((16, 4, 2)), LEAKY_MILD), "SBAE")
    cfg = TrainConfig(epochs=40, patience=40, learning_rate=1e-3, batch_size=8, seed=0)
    theta, _hist = train(theta0, U, U, cfg)
    small_mse = empirical_mse(assemble(theta), U)
    assert small_mse >= linear_lower_bound(U, 4) - 1e-9
    report(9, "trained models never beat the linear reduction floor")


def test_c10_envelope_scaled_init_statistics():
    rng = np.random.default_rng(10)
    act = LEAKY_MILD
    psi = he_init(Skeleton((500, 200)), act, rng)
    for W, fan_in in ((psi.layers[0].E, 500), (psi.layers[0].D, 200)):
        assert W.size == 100_000
        target = he_variance(act, fan_in)
        sampled = float(np.var(W))
        assert abs(sampled - target) <= 0.02 * target, (
            f"fan-in {fan_in}: sampled {sampled:.4e} vs target {target:.4e}"
        )
    assert he_variance(Identity(), 64) == 1.0 / 64
    psi_id = he_init(Skeleton((500, 200)), Identity(), rng)
    sampled = float(np.var(psi_id.layers[0].E))
    assert abs(sampled - 1.0 / 500) <= 0.02 / 500
    report(10, "envelope-scaled gaussian init has the prescribed variance")
