"""Standardized training pipeline: normalization, splitting, minibatch loop.

The routine is deliberately plain: global min-max normalization fit on the
training split, a seeded 50/25/25 column split, Adam on the mean squared
reconstruction loss, full-batch validation each epoch (every epoch is
recorded in the history), and early stopping that restores the
best-validation parameters.  Constrained
classes train through their unconstrained parametrizations, so the
constraint residual recorded in the history stays at roundoff level.

Adam keeps the parameters and both moments as flat float64 vectors and
updates them in place; the leaves the tape differentiates are reshaped views
into the parameter vector, so a step allocates no per-leaf temporaries.

Everything is deterministic given the config seed; wall-clock time only
appears as a reporting column.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .architecture import (
    ParamVector,
    SymmetricAutoencoder,
    _level_maps,
    assemble,
    empirical_mse,
    loss_on_batch,
)
from .autodiff import gradient
from .data_io import DataFormatError
from .linalg import NumericalError, require_matrix

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainHistory",
    "EvalMetrics",
    "minmax_normalize",
    "apply_minmax",
    "split",
    "train",
    "evaluate",
    "adam_step",
    "AdamState",
]

HISTORY_HEADER = "epoch,train_loss,val_loss,wall_time_s,constraint_residual"

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 1500
    patience: int = 500
    learning_rate: float = 1e-3
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "patience", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.patience > self.epochs:
            raise ValueError(f"patience {self.patience} exceeds the epoch budget {self.epochs}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    wall_time_s: float
    constraint_residual: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    epochs_run: int = 0

    def to_csv(self, path):
        lines = [HISTORY_HEADER]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.train_loss:.10g},{r.val_loss:.10g},"
                f"{r.wall_time_s:.10g},{r.constraint_residual:.10g}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class EvalMetrics:
    mse: float
    mre: float


# -- data preparation -------------------------------------------------------


def minmax_normalize(U: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Scale all entries into [0, 1] by the global min and max.

    Constant data cannot be scaled; it is returned unchanged with the
    neutral range ``(0, 1)`` and a warning.  A range ``hi - lo`` that
    overflows float64, or whose square does (errors are scaled back by it),
    raises :class:`DataFormatError`.
    """
    U = require_matrix(U, "snapshot matrix")
    lo = float(U.min())
    hi = float(U.max())
    if not math.isfinite((hi - lo) * (hi - lo)):
        raise DataFormatError(
            "data range overflows float64: hi - lo is not finite or its square is not, "
            f"for lo = {lo!r}, hi = {hi!r}"
        )
    if hi == lo:
        warnings.warn("constant data: min-max normalization left input unchanged")
        return U.copy(), 0.0, 1.0
    return (U - lo) / (hi - lo), lo, hi


def apply_minmax(U: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Apply a previously fitted normalization (values may leave [0, 1]).

    Raises :class:`DataFormatError` when a value leaves float64 under the map.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = (np.asarray(U, dtype=np.float64) - lo) / (hi - lo)
    if not np.isfinite(out).all():
        raise DataFormatError(
            "data leave float64 under the fitted min-max map: (U - lo) / (hi - lo) "
            f"is not finite for lo = {lo!r}, hi = {hi!r}"
        )
    return out


def split(U: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded disjoint column split: 50% train, 25% validation, rest test.

    Raises :class:`DataFormatError` (a ``ValueError``) for fewer than 4 columns.
    """
    U = require_matrix(U, "snapshot matrix")
    S = U.shape[1]
    if S < 4:
        raise DataFormatError(f"need at least 4 snapshots to split, got {S}")
    perm = np.random.default_rng(seed).permutation(S)
    n_train = S // 2
    n_val = S // 4
    return (
        U[:, perm[:n_train]].copy(),
        U[:, perm[n_train : n_train + n_val]].copy(),
        U[:, perm[n_train + n_val :]].copy(),
    )


# -- Adam --------------------------------------------------------------------


class AdamState:
    """Adam's parameters and moments, each one flat float64 vector.

    ``AdamState(leaves)`` copies the leaves, in order, into ``params``;
    ``leaves`` are reshaped views into it, so every :func:`adam_step`
    updates them in place.  ``m`` and ``v`` are the first and second moment
    accumulators, and ``t`` counts the steps taken.
    """

    def __init__(self, leaves: list[np.ndarray]):
        self.params = np.concatenate([np.ravel(x) for x in leaves], dtype=np.float64)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.t = 0
        offsets = np.cumsum([0] + [x.size for x in leaves])
        self.leaves = [
            self.params[lo:hi].reshape(x.shape)
            for x, lo, hi in zip(leaves, offsets[:-1], offsets[1:])
        ]
        self._grad = np.empty_like(self.params)
        self._scratch = np.empty_like(self.params)


def adam_step(grads: list[np.ndarray], state: AdamState, lr: float) -> None:
    """One Adam update with bias correction, in place on ``state.params``.

    ``grads`` match ``state.leaves`` in order and shape.  The whole vector is
    updated with the textbook formula and operation order, so the result is
    bitwise that of a per-leaf update.
    """
    state.t += 1
    corr1 = 1.0 - ADAM_BETA1**state.t
    corr2 = 1.0 - ADAM_BETA2**state.t
    g, s = state._grad, state._scratch
    np.concatenate([np.ravel(x) for x in grads], out=g)
    # m = beta1 m + (1 - beta1) g
    np.multiply(state.m, ADAM_BETA1, out=state.m)
    np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    np.add(state.m, s, out=state.m)
    # v = beta2 v + (1 - beta2) (g g); g is free after this
    np.multiply(g, g, out=g)
    np.multiply(g, 1.0 - ADAM_BETA2, out=g)
    np.multiply(state.v, ADAM_BETA2, out=state.v)
    np.add(state.v, g, out=state.v)
    # p -= (lr (m / corr1)) / (sqrt(v / corr2) + eps)
    np.divide(state.m, corr1, out=s)
    np.multiply(s, lr, out=s)
    np.divide(state.v, corr2, out=g)
    np.sqrt(g, out=g)
    np.add(g, ADAM_EPS, out=g)
    np.divide(s, g, out=s)
    np.subtract(state.params, s, out=state.params)


# -- training loop ------------------------------------------------------------


def train(
    theta0: ParamVector,
    train_U: np.ndarray,
    val_U: np.ndarray,
    config: TrainConfig,
) -> tuple[ParamVector, TrainHistory]:
    """Minibatch optimization with early stopping on the validation loss.

    Shuffles the training columns each epoch with the config seed, takes one
    Adam step per minibatch (the last short batch is kept), evaluates
    the validation loss full-batch at each epoch end, and stops after
    ``patience`` epochs without improvement.  Returns the parameters of the
    best validation epoch together with the logged history.

    Raises :class:`NumericalError` when a loss turns non-finite, naming the
    first level map whose output on that batch or on the validation data is
    not finite, or when the parameters at an epoch end fail :func:`assemble`'s
    checks; for SBAE the message then also gives each level's scale spread
    ``max s^2 / min s^2``.
    """
    train_U = require_matrix(train_U, "training data")
    val_U = require_matrix(val_U, "validation data")
    rng = np.random.default_rng(config.seed)
    S = train_U.shape[1]
    B = config.batch_size

    adam = AdamState(theta0.leaves())
    leaves = adam.leaves
    theta = replace(theta0, layers=theta0.with_leaves(leaves))

    def program(leaf_vars, batch):
        return loss_on_batch(theta.class_tag, theta.act, theta.with_leaves(leaf_vars), batch)

    history = TrainHistory()
    best_val = np.inf
    best_leaves = [x.copy() for x in leaves]
    best_epoch = 0
    stall = 0
    t_start = time.perf_counter()

    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(S)
        sq_sum = 0.0
        for start in range(0, S, B):
            batch = train_U[:, perm[start : start + B]]
            loss, grads = gradient(program, leaves, batch)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch {start // B + 1}{_first_non_finite(theta, batch)}"
                )
            adam_step(grads, adam, config.learning_rate)
            sq_sum += loss * batch.shape[1]
        train_loss = sq_sum / S

        try:
            psi = assemble(theta)
        except ValueError as exc:
            raise NumericalError(
                f"network after epoch {epoch} fails a check: {exc}{_scale_spreads(theta)}"
            ) from exc
        val_loss = empirical_mse(psi, val_U)
        if not np.isfinite(val_loss):
            raise NumericalError(
                f"non-finite validation loss at epoch {epoch}{_first_non_finite(theta, val_U)}"
            )

        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                val_loss=val_loss,
                wall_time_s=time.perf_counter() - t_start,
                constraint_residual=psi.constraint_residual(),
            )
        )

        if val_loss < best_val:
            best_val = val_loss
            best_leaves = [x.copy() for x in leaves]
            best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break

    history.best_epoch = best_epoch
    history.epochs_run = epoch
    theta.layers = theta.with_leaves(best_leaves)
    return theta, history


def _first_non_finite(theta: ParamVector, batch: np.ndarray) -> str:
    """Where a batch's loss went non-finite, as a clause for an error message.

    Evaluates the batch with plain arrays, map by map in the loss's order
    (:func:`~symae.architecture.loss_on_batch`), and names the first encoder
    or decoder level whose output has a non-finite entry; if none has, the
    sum of squared errors overflowed.  Runs only on the failure path.
    """
    maps = [_level_maps(theta.class_tag, theta.act, params) for params in theta.layers]
    H = batch
    with np.errstate(all="ignore"):
        for j, (encode, _) in enumerate(maps, start=1):
            H = encode(H)
            if not np.isfinite(H).all():
                return f"; first non-finite: encoder level {j}"
        for j, (_, decode) in zip(range(len(maps), 0, -1), reversed(maps)):
            H = decode(H, j < len(maps) or theta.class_tag != "PlainAE")
            if not np.isfinite(H).all():
                return f"; first non-finite: decoder level {j}"
    return "; first non-finite: the sum of squared errors"


def _scale_spreads(theta: ParamVector) -> str:
    """``max s^2 / min s^2`` of each SBAE level, as a clause for an error message.

    ``E_j D_j = I`` holds in exact arithmetic whatever the scales, but its
    roundoff grows with their spread, so a broken constraint is read beside
    it.  Empty for the other classes.
    """
    if theta.class_tag != "SBAE":
        return ""
    spreads = []
    for params in theta.layers:
        s2 = params["s"] * params["s"]
        with np.errstate(divide="ignore", invalid="ignore"):
            spreads.append(f"{np.max(s2) / np.min(s2):.3e}")
    return f"; scale spread max s^2 / min s^2 by level: {', '.join(spreads)}"


def evaluate(psi: SymmetricAutoencoder, U_test: np.ndarray) -> EvalMetrics:
    """Mean squared error and mean relative error over test columns.

    Zero-norm test columns cannot contribute a relative error; they are
    skipped with a warning.
    """
    U_test = require_matrix(U_test, "test data")
    diff = U_test - psi.reconstruct(U_test)
    diff_sq = diff * diff
    mse = float(np.sum(diff_sq)) / U_test.shape[1]  # empirical_mse's own sum
    sq = np.sum(diff_sq, axis=0)
    norms = np.sqrt(np.sum(U_test * U_test, axis=0))
    ok = norms > 0.0
    if not np.all(ok):
        warnings.warn(f"skipping {int(np.sum(~ok))} zero-norm test sample(s) in MRE")
    mre = float(np.mean(np.sqrt(sq[ok]) / norms[ok])) if np.any(ok) else 0.0
    return EvalMetrics(mse=mse, mre=mre)
