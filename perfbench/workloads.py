"""The benchmark's workloads: the ``symae train`` and ``symae init-study``
pipelines, run through library calls.

Every workload takes the ``generate_pga`` seed, uses 400 snapshots (200
training columns) and splits set-up, which covers everything before the
measured call, from the measured call itself.  The library is reached through
module attributes at call time, so the traced run sees every call.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from symae import activations, architecture, bounds, cli, data_io, initializers, training

N_SNAPSHOTS = 400
SKELETON = (514, 64, 15, 3)
LEAKY = "leakyrelu:0.8333333333333334,1.25"
LEARNING_RATE = 1e-3
BATCH = 8
CONSTRAINT_TOL = 1e-9
FLOOR_SLACK = 1e-9

STUDY_SHARPNESS = 0.5
STUDY_WIDTHS = range(1, 21)
STUDY_N1 = 20
STUDY_TRIALS = 100


class Checks:
    """Pass/fail tally of the correctness gates; each record is one attempt."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def record(self, name: str, ok: bool):
        tally = self.counts.setdefault(name, [0, 0])
        tally[0] += 1
        tally[1] += not ok

    @property
    def attempted(self) -> int:
        return sum(t for t, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def load_dataset(seed: int, workdir: Path) -> tuple[np.ndarray, bool]:
    """Generate pga400, save and reload it; returns the data and bit-exactness."""
    snapshots = data_io.generate_pga(N_SNAPSHOTS, seed)
    path = workdir / "pga.csv"
    data_io.save_snapshots(snapshots, path)
    loaded = data_io.load_snapshots(path)
    exact = same_bits(loaded.U, snapshots.U) and same_bits(
        loaded.param_values, snapshots.param_values
    )
    return loaded.U, exact


def linear_floor(U: np.ndarray, n1: int) -> float:
    """``linear_lower_bound(U, n1)`` computed by numpy's LAPACK.

    The same tail sum of the 1/S covariance spectrum, from an oracle that
    does not share code with the Jacobi SVD under test, in milliseconds
    rather than the seconds the library's own SVD takes.
    """
    s = np.linalg.svd(U - U.mean(axis=1, keepdims=True), compute_uv=False)
    return float(np.sum(s[n1:] ** 2)) / U.shape[1]


def percentile_report(times: list[float]) -> dict:
    """Median, and p90 only when at least ten samples lie beyond it."""
    out = {"p50": statistics.median(times), "samples": len(times)}
    if len(times) >= 100:
        out["p90"] = statistics.quantiles(times, n=10)[8]
    return out


@dataclass
class TrainSetup:
    seed: int
    theta0: architecture.ParamVector
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    round_trip_exact: bool


@dataclass
class TrainCall:
    history: training.TrainHistory
    wall_s: float
    test_mse: float
    train_mse: float


class TrainWorkload:
    """``symae train`` on the README skeleton with a fixed epoch count.

    Patience equals the epoch count, so training never stops early and every
    call does the same work.
    """

    def __init__(self, name: str, class_tag: str, init: str, epochs: int):
        self.name = name
        self.class_tag = class_tag
        self.init = init
        self.epochs = epochs

    def setup(self, seed: int, workdir: Path) -> TrainSetup:
        U, exact = load_dataset(seed, workdir)
        train_U, val_U, test_U = training.split(U, seed)
        train_n, lo, hi = training.minmax_normalize(train_U)
        act = activations.parse_activation(LEAKY)
        skeleton = architecture.Skeleton(SKELETON)
        if self.init == "eys":
            psi0 = initializers.eys_init(train_n, skeleton, act)
        else:
            rng = np.random.default_rng(initializers.derive_seed(seed, 1))
            psi0 = initializers.orthogonal_random_init(skeleton, act, rng, self.class_tag)
        return TrainSetup(
            seed=seed,
            theta0=initializers.lift(psi0, self.class_tag),
            train=train_n,
            val=training.apply_minmax(val_U, lo, hi),
            test=training.apply_minmax(test_U, lo, hi),
            round_trip_exact=exact,
        )

    def call(self, state: TrainSetup) -> TrainCall:
        config = training.TrainConfig(
            epochs=self.epochs,
            patience=self.epochs,
            learning_rate=LEARNING_RATE,
            batch_size=BATCH,
            seed=state.seed,
        )
        start = perf_counter()
        theta, history = training.train(state.theta0, state.train, state.val, config)
        wall = perf_counter() - start
        psi = architecture.assemble(theta)
        return TrainCall(
            history=history,
            wall_s=wall,
            test_mse=training.evaluate(psi, state.test).mse,
            train_mse=bounds.empirical_mse(psi, state.train),
        )

    def verify(self, state: TrainSetup, round_trips, calls, checks: Checks) -> dict:
        """Record the gates; returns the quality figures they are based on."""
        for exact in round_trips:
            checks.record("csv_round_trip_bit_exact", exact)
        constrained = self.class_tag in ("SBAE", "SOAE")
        for c in calls:
            for r in c.history.records:
                ok = math.isfinite(r.train_loss) and math.isfinite(r.val_loss)
                if constrained:
                    ok = ok and r.constraint_residual <= CONSTRAINT_TOL
                checks.record("epoch", ok)
        first = calls[0]
        for c in calls[1:]:
            checks.record("repeat_call_identical", _same_history(c.history, first.history))
        floor = linear_floor(state.train, SKELETON[1])
        checks.record("mse_at_or_above_linear_floor", first.train_mse >= floor - FLOOR_SLACK)
        checks.record("test_mse_finite", math.isfinite(first.test_mse))
        return {"train_mse": first.train_mse, "linear_floor": floor, "test_mse": first.test_mse}

    def report(self, state: TrainSetup, calls, quality: dict) -> dict:
        """Workload metrics by the pipeline's own names: ``name -> (value, unit)``."""
        epochs = []
        for c in calls:
            walls = [r.wall_time_s for r in c.history.records]
            epochs.extend(np.diff(walls, prepend=0.0).tolist())
        columns = state.train.shape[1] * sum(c.history.epochs_run for c in calls)
        epoch = percentile_report(epochs)
        return {
            "train_cols_per_s": (columns / sum(c.wall_s for c in calls), "1/s"),
            "epoch_s_p50": (epoch["p50"], "s"),
            **({"epoch_s_p90": (epoch["p90"], "s")} if "p90" in epoch else {}),
            "epoch_samples": (epoch["samples"], "count"),
            "mse_over_floor": (quality["train_mse"] / quality["linear_floor"], "ratio"),
            "linear_floor": (quality["linear_floor"], "1"),
            "test_mse": (quality["test_mse"], "1"),
        }

    @staticmethod
    def generic(report: dict) -> dict:
        return {"work_per_s": report["train_cols_per_s"], "op_s_p50": report["epoch_s_p50"]}


def _same_history(a: training.TrainHistory, b: training.TrainHistory) -> bool:
    key = lambda h: [(r.train_loss, r.val_loss, r.constraint_residual) for r in h.records]
    return key(a) == key(b) and a.best_epoch == b.best_epoch


@dataclass
class StudySetup:
    seed: int
    U: np.ndarray
    act: activations.Activation
    skeletons: list
    round_trip_exact: bool


@dataclass
class StudyCall:
    rows: list
    wall_s: float


class InitStudyWorkload:
    """``symae init-study`` over latent widths 1-20 behind a first width of 20."""

    name = "init-study"

    def setup(self, seed: int, workdir: Path) -> StudySetup:
        U, exact = load_dataset(seed, workdir)
        return StudySetup(
            seed=seed,
            U=U,
            act=activations.HypAct.from_sharpness(STUDY_SHARPNESS),
            skeletons=[architecture.Skeleton((U.shape[0], STUDY_N1, w)) for w in STUDY_WIDTHS],
            round_trip_exact=exact,
        )

    def call(self, state: StudySetup) -> StudyCall:
        start = perf_counter()
        rows = cli.init_study(state.U, state.act, state.skeletons, STUDY_TRIALS, state.seed)
        return StudyCall(rows=rows, wall_s=perf_counter() - start)

    def verify(self, state: StudySetup, round_trips, calls, checks: Checks) -> dict:
        for exact in round_trips:
            checks.record("csv_round_trip_bit_exact", exact)
        for c in calls:
            for _skeleton, eys_mse, base_mse in c.rows:
                ok = math.isfinite(eys_mse) and math.isfinite(base_mse) and eys_mse < base_mse
                checks.record("row", ok)
        first = [(e, b) for _, e, b in calls[0].rows]
        for c in calls[1:]:
            checks.record("repeat_call_identical", [(e, b) for _, e, b in c.rows] == first)
        return {"eys_over_random_max": max(e / b for e, b in first)}

    def report(self, state: StudySetup, calls, quality: dict) -> dict:
        scored = sum(len(c.rows) * (STUDY_TRIALS + 1) for c in calls)
        return {
            "inits_scored_per_s": (scored / sum(c.wall_s for c in calls), "1/s"),
            "init_study_s_p50": (statistics.median(c.wall_s for c in calls), "s"),
            "init_study_samples": (len(calls), "count"),
            "eys_over_random_max": (quality["eys_over_random_max"], "ratio"),
        }

    @staticmethod
    def generic(report: dict) -> dict:
        return {"work_per_s": report["inits_scored_per_s"], "op_s_p50": report["init_study_s_p50"]}


# Epochs per train call: one call is a small share of a run at today's speed,
# so a run repeats calls and a faster program fits more of them in.
WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train-sae", "SAE", "eys", epochs=20),
        TrainWorkload("train-sbae", "SBAE", "orth", epochs=1),
        InitStudyWorkload(),
    )
}
