"""Batch entry points for the experiment protocols.

Subcommands
-----------
``gen-pga``     sample the gaussian-bump dataset and write the snapshot CSV.
``train``       split/normalize/init/train/evaluate one model; JSON to stdout.
``init-study``  initial test MSE of the iterated-SVD init vs. a best-of-N
                random-orthogonal baseline over a family of skeletons.
``bounds``      per-layer error-bound report for a model checkpoint.

Every command is reproducible from its flags and seed on a fixed numpy/BLAS
build and BLAS thread count; another thread count can change the trailing
singular vectors LAPACK returns, and with them the results.  Exit codes:
0 success, 2 usage error, 3 data error, 4 numerical failure.  A warning
raised while a command runs is printed as one ``warning: ...`` line on
standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

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
_DEPTH_LADDER_FIRST = 65
_DEPTH_LADDER_MIDS = (3, 5, 9, 17, 33)


def _owned(parse):
    """Argparse type: run ``parse``, the flag's owner; its ``ValueError`` is the usage error."""

    def adapter(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return adapter


def _parse_skeleton(text: str) -> Skeleton:
    return Skeleton(tuple(int(part) for part in text.split(",")))


def _positive(zero_ok=False):
    """Argparse type: an int above zero (or zero, if ``zero_ok``)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < (0 if zero_ok else 1):
            wording = "non-negative" if zero_ok else "positive"
            raise argparse.ArgumentTypeError(f"must be {wording}, got {text}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """``warnings.showwarning`` for the command line: the message alone, no source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
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


def _train_config(args) -> TrainConfig:
    """The run settings of ``train``; a rejected flag ends as a usage error."""
    valid_inits = _VALID_INITS[_CLASS_BY_FLAG[args.model_class]]
    if args.init not in valid_inits:
        args.usage_error(
            f"init '{args.init}' is not available for class "
            f"'{args.model_class}' (choose from {valid_inits})"
        )
    try:
        return TrainConfig(
            epochs=args.epochs,
            patience=min(500, args.epochs) if args.patience is None else args.patience,
            learning_rate=args.lr,
            batch_size=args.batch,
            seed=args.seed,
        )
    except ValueError as exc:
        args.usage_error(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symae",
        description="Symmetric autoencoders with SVD-based initialization and error bounds.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    gen = sub.add_parser("gen-pga", help="generate the gaussian-bump snapshot dataset")
    gen.add_argument("--samples", type=_positive(), default=400)
    gen.add_argument("--seed", type=_positive(zero_ok=True), default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen_pga)

    tr = sub.add_parser("train", help="run the standardized training pipeline")
    tr.add_argument("--data", required=True)
    tr.add_argument("--class", dest="model_class", choices=sorted(_CLASS_BY_FLAG), required=True)
    tr.add_argument("--skeleton", type=_owned(_parse_skeleton), required=True,
                    help="comma-separated dims, e.g. 514,64,15,3")
    tr.add_argument("--act", type=_owned(parse_activation), default="identity",
                    help="identity | leakyrelu:a,b | hypact:t")
    tr.add_argument("--init", choices=("eys", "he", "orth"), default="eys")
    tr.add_argument("--epochs", type=int, default=1500)
    tr.add_argument("--patience", type=int,
                    help="early-stopping patience, at most --epochs (default: min(500, epochs))")
    tr.add_argument("--lr", type=float, default=1e-3)
    tr.add_argument("--batch", type=int, default=8)
    tr.add_argument("--seed", type=_positive(zero_ok=True), default=0)
    tr.add_argument("--out-model")
    tr.add_argument("--out-history")
    tr.set_defaults(handler=_cmd_train, usage_error=tr.error)

    study = sub.add_parser("init-study", help="initial-MSE study: iterated-SVD vs random init")
    study.add_argument("--data", required=True)
    study.add_argument("--act", type=_owned(parse_activation), default="identity")
    group = study.add_mutually_exclusive_group(required=True)
    group.add_argument("--widths", type=_owned(_parse_widths),
                       help="latent widths to sweep, e.g. 1,2,...,20 or 1-20")
    group.add_argument("--depth-pattern", action="store_true",
                       help="fixed-width depth ladder ending at latent 3")
    study.add_argument("--n1", type=int, default=20, help="first width for --widths sweeps")
    study.add_argument("--trials", type=_positive(), default=100)
    study.add_argument("--seed", type=_positive(zero_ok=True), default=0)
    study.add_argument("--out", required=True)
    study.set_defaults(handler=_cmd_init_study, usage_error=study.error)

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
    config = _train_config(args)  # usage errors come before any file is read
    class_tag = _CLASS_BY_FLAG[args.model_class]
    data = load_snapshots(args.data)
    if args.skeleton.dims[0] != data.U.shape[0]:
        args.usage_error(f"skeleton input {args.skeleton.dims[0]} != data rows {data.U.shape[0]}")

    train_U, val_U, test_U = split(data.U, args.seed)
    train_norm, lo, hi = minmax_normalize(train_U)
    val_norm = apply_minmax(val_U, lo, hi)
    test_norm = apply_minmax(test_U, lo, hi)

    psi0 = _initial_network(args.init, class_tag, train_norm, args.skeleton, args.act, args.seed)
    theta0 = lift(psi0, class_tag)
    theta, history = train(theta0, train_norm, val_norm, config)
    psi = assemble(theta)
    metrics = evaluate(psi, test_norm)

    if args.out_model:
        save_model(psi, args.out_model, theta=theta, normalization=(lo, hi))
    if args.out_history:
        history.to_csv(args.out_history)

    print(
        json.dumps(
            {
                "class": args.model_class,
                "skeleton": list(args.skeleton.dims),
                "activation": args.act.spec(),
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
    try:
        if "-" in text and "," not in text:
            lo, hi = text.split("-")
            widths = list(range(int(lo), int(hi) + 1))
        else:
            widths = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(
            f"--widths {text!r} is not a width, a comma list or a range LO-HI"
        ) from exc
    if not widths:
        raise ValueError(f"--widths {text!r} is an empty range")
    return widths


def _study_skeletons(args, n0: int) -> list[Skeleton]:
    """The study's skeletons on ``n0``-row data.

    A skeleton that ``Skeleton`` rejects is a usage error naming the flags
    that built it.
    """
    if args.depth_pattern:
        flags = f"--depth-pattern (first width {_DEPTH_LADDER_FIRST})"
        built = [
            (flags, (n0, _DEPTH_LADDER_FIRST) + tuple(reversed(_DEPTH_LADDER_MIDS[:k])))
            for k in range(1, len(_DEPTH_LADDER_MIDS) + 1)
        ]
    else:
        built = [(f"--n1 {args.n1} --widths {w}", (n0, args.n1, w)) for w in args.widths]
    skeletons = []
    for flags, dims in built:
        try:
            skeletons.append(Skeleton(dims))
        except ValueError as exc:
            args.usage_error(f"{flags}: {exc}")
    return skeletons


def _cmd_init_study(args) -> int:
    data = load_snapshots(args.data)
    skeletons = _study_skeletons(args, data.U.shape[0])
    rows = init_study(data.U, args.act, skeletons, args.trials, args.seed)
    with open(args.out, "w") as fh:
        fh.write("config,eys_mse,baseline_best_mse\n")
        for skeleton, eys_mse, base_mse in rows:
            label = "-".join(str(d) for d in skeleton.dims)
            fh.write(f"{label},{eys_mse:.10g},{base_mse:.10g}\n")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    psi, _theta, (lo, hi) = load_model(args.model)
    data = load_snapshots(args.data)
    if data.U.shape[0] != psi.skeleton.dims[0]:
        raise DataFormatError(
            f"data dimension {data.U.shape[0]} does not match model input "
            f"{psi.skeleton.dims[0]}"
        )
    # Score on the scale the network was fitted on, as ``train`` reports.
    U = apply_minmax(data.U, lo, hi)
    mse = empirical_mse(psi, U)
    # Rows ``k, lower_term, upper_term`` per level, then ``name, value``.
    scores = [("mse_denorm", mse * (hi - lo) ** 2), ("mse", mse)]
    if psi.class_tag == "SOAE":
        report = layerwise_bounds(psi, U)
        lines = ["k,lower_term,upper_term"]
        rows = [(k, *terms) for k, terms in enumerate(zip(report.lower_terms, report.upper_terms))]
        rows += [*scores, ("lower", report.lower), ("upper", report.upper)]
    else:
        lines = []
        rows = [*scores, ("lower", linear_lower_bound(U, psi.skeleton.dims[1]))]
    for label, *values in rows:
        line = ",".join([str(label), *(f"{v:.10g}" for v in values)])
        if not all(map(math.isfinite, values)):
            raise NumericalError(f"bounds of {args.model}: the row {line} is not finite")
        lines.append(line)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
