"""Batch entry points for the experiment protocols.

Subcommands
-----------
``gen-pga``     sample the gaussian-bump dataset and write the snapshot CSV.
``train``       split/normalize/init/train/evaluate one model; JSON to stdout.
``init-study``  initial test MSE of the iterated-SVD init vs. a best-of-N
                random-orthogonal baseline over a family of skeletons.
``bounds``      per-layer error-bound report for a model checkpoint.

Every command is reproducible from its flags and seed.  Exit codes:
0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .activations import parse_activation
from .architecture import Skeleton, assemble, load_model, save_model
from .bounds import empirical_mse, layerwise_bounds, linear_lower_bound
from .data_io import DataFormatError, generate_pga, load_snapshots, save_snapshots
from .initializers import (
    derive_seed,
    eys_init,
    he_init,
    init_study,
    lift,
    orthogonal_random_init,
)
from .linalg import NumericalError
from .training import TrainConfig, apply_minmax, evaluate, minmax_normalize, split, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_CLASS_BY_FLAG = {"sae": "SAE", "sbae": "SBAE", "soae": "SOAE", "ae": "PlainAE"}
_VALID_INITS = {
    "SAE": ("eys", "he"),
    "PlainAE": ("eys", "he"),
    "SBAE": ("eys", "orth"),
    "SOAE": ("eys", "orth"),
}

# Depth ladder used by the initialization study: fixed first width, latent 3.
_DEPTH_LADDER_MIDS = (3, 5, 9, 17, 33)


def _parse_skeleton(text: str) -> Skeleton:
    try:
        return Skeleton(tuple(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive(kind, zero_ok=False):
    """Argparse type: a finite ``kind`` value above zero (or zero, if ``zero_ok``)."""

    def parse(text: str):
        value = kind(text)
        if not ((value >= 0 if zero_ok else value > 0) and math.isfinite(value)):
            wording = "non-negative" if zero_ok else "positive"
            raise argparse.ArgumentTypeError(f"must be {wording}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "patience", None) is not None and args.patience > args.epochs:
        parser.error(f"--patience {args.patience} exceeds --epochs {args.epochs}")
    try:
        return args.handler(args)
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symae",
        description="Symmetric autoencoders with SVD-based initialization and error bounds.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    gen = sub.add_parser("gen-pga", help="generate the gaussian-bump snapshot dataset")
    gen.add_argument("--samples", type=_positive(int), default=400)
    gen.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen_pga)

    tr = sub.add_parser("train", help="run the standardized training pipeline")
    tr.add_argument("--data", required=True)
    tr.add_argument("--class", dest="model_class", choices=sorted(_CLASS_BY_FLAG), required=True)
    tr.add_argument("--skeleton", type=_parse_skeleton, required=True,
                    help="comma-separated dims, e.g. 514,64,15,3")
    tr.add_argument("--act", default="identity", help="identity | leakyrelu:a,b | hypact:t")
    tr.add_argument("--init", choices=("eys", "he", "orth"), default="eys")
    tr.add_argument("--epochs", type=_positive(int), default=1500)
    tr.add_argument("--patience", type=_positive(int),
                    help="early-stopping patience, at most --epochs (default: min(500, epochs))")
    tr.add_argument("--lr", type=_positive(float), default=1e-3)
    tr.add_argument("--batch", type=_positive(int), default=8)
    tr.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    tr.add_argument("--out-model")
    tr.add_argument("--out-history")
    tr.set_defaults(handler=_cmd_train)

    study = sub.add_parser("init-study", help="initial-MSE study: iterated-SVD vs random init")
    study.add_argument("--data", required=True)
    study.add_argument("--act", default="identity")
    group = study.add_mutually_exclusive_group(required=True)
    group.add_argument("--widths", help="latent widths to sweep, e.g. 1,2,...,20 or 1-20")
    group.add_argument("--depth-pattern", action="store_true",
                       help="fixed-width depth ladder ending at latent 3")
    study.add_argument("--n1", type=int, default=20, help="first width for --widths sweeps")
    study.add_argument("--trials", type=_positive(int), default=100)
    study.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    study.add_argument("--out", required=True)
    study.set_defaults(handler=_cmd_init_study)

    bnd = sub.add_parser("bounds", help="error-bound report for a trained model")
    bnd.add_argument("--model", required=True)
    bnd.add_argument("--data", required=True)
    bnd.add_argument("--out", required=True)
    bnd.set_defaults(handler=_cmd_bounds)
    return parser


def _cmd_gen_pga(args) -> int:
    save_snapshots(generate_pga(args.samples, args.seed), args.out)
    return EXIT_OK


def _initial_network(init, class_tag, train_norm, skeleton, act, seed):
    if init == "eys":
        return eys_init(train_norm, skeleton, act)
    if init == "he":
        return he_init(skeleton, act, np.random.default_rng(derive_seed(seed, 1)))
    return orthogonal_random_init(
        skeleton, act, np.random.default_rng(derive_seed(seed, 1)), class_tag
    )


def _cmd_train(args) -> int:
    class_tag = _CLASS_BY_FLAG[args.model_class]
    if args.init not in _VALID_INITS[class_tag]:
        print(
            f"error: init '{args.init}' is not available for class "
            f"'{args.model_class}' (choose from {_VALID_INITS[class_tag]})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        act = parse_activation(args.act)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    data = load_snapshots(args.data)
    skeleton = args.skeleton
    if skeleton.dims[0] != data.U.shape[0]:
        print(
            f"error: skeleton input {skeleton.dims[0]} != data dimension {data.U.shape[0]}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    train_U, val_U, test_U = split(data.U, args.seed)
    train_norm, lo, hi = minmax_normalize(train_U)
    val_norm = apply_minmax(val_U, lo, hi)
    test_norm = apply_minmax(test_U, lo, hi)

    psi0 = _initial_network(args.init, class_tag, train_norm, skeleton, act, args.seed)
    theta0 = lift(psi0, class_tag)
    config = TrainConfig(
        epochs=args.epochs,
        patience=args.patience or min(500, args.epochs),
        learning_rate=args.lr,
        batch_size=args.batch,
        seed=args.seed,
    )
    theta, history = train(theta0, train_norm, val_norm, config)
    psi = assemble(theta)
    metrics = evaluate(psi, test_norm)

    if args.out_model:
        save_model(psi, args.out_model, theta=theta)
    if args.out_history:
        history.to_csv(args.out_history)

    print(
        json.dumps(
            {
                "class": args.model_class,
                "skeleton": list(skeleton.dims),
                "activation": act.spec(),
                "init": args.init,
                "seed": args.seed,
                "mse": metrics.mse,
                "mre": metrics.mre,
                "mse_denorm": metrics.mse * (hi - lo) ** 2,
                "epochs_run": history.epochs_run,
                "best_epoch": history.best_epoch,
            }
        )
    )
    return EXIT_OK


def _parse_widths(text: str) -> list[int]:
    text = text.strip()
    if "-" in text and "," not in text:
        lo, hi = text.split("-")
        widths = range(int(lo), int(hi) + 1)
        if not widths:
            raise ValueError(f"--widths {text!r} is an empty range")
        return list(widths)
    return [int(part) for part in text.split(",")]


def _study_skeletons(args, n0: int) -> list[Skeleton]:
    if args.depth_pattern:
        return [
            Skeleton((n0, 65) + tuple(reversed(_DEPTH_LADDER_MIDS[:k])))
            for k in range(1, len(_DEPTH_LADDER_MIDS) + 1)
        ]
    return [Skeleton((n0, args.n1, w)) for w in _parse_widths(args.widths)]


def _cmd_init_study(args) -> int:
    try:
        act = parse_activation(args.act)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    data = load_snapshots(args.data)
    try:
        skeletons = _study_skeletons(args, data.U.shape[0])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = init_study(data.U, act, skeletons, args.trials, args.seed)
    with open(args.out, "w") as fh:
        fh.write("config,eys_mse,baseline_best_mse\n")
        for skeleton, eys_mse, base_mse in rows:
            label = "-".join(str(d) for d in skeleton.dims)
            fh.write(f"{label},{eys_mse:.10g},{base_mse:.10g}\n")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    psi, _theta = load_model(args.model)
    data = load_snapshots(args.data)
    if data.U.shape[0] != psi.skeleton.dims[0]:
        raise DataFormatError(
            f"data dimension {data.U.shape[0]} does not match model input "
            f"{psi.skeleton.dims[0]}"
        )
    mse = empirical_mse(psi, data.U)
    lines = []
    if psi.class_tag == "SOAE":
        report = layerwise_bounds(psi, data.U)
        lines.append("k,lower_term,upper_term")
        for k, (low, up) in enumerate(zip(report.lower_terms, report.upper_terms)):
            lines.append(f"{k},{low:.10g},{up:.10g}")
        lines.append(f"mse,{mse:.10g}")
        lines.append(f"lower,{report.lower:.10g}")
        lines.append(f"upper,{report.upper:.10g}")
    else:
        floor = linear_lower_bound(data.U, psi.skeleton.dims[1])
        lines.append("k,lower_term")
        lines.append(f"mse,{mse:.10g}")
        lines.append(f"lower,{floor:.10g}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
