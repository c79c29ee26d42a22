"""symae benchmark: one workload per run, one closed-loop client in one process.

    python3 perfbench/run.py --workload train-sae --seed 0 --seconds 10 --trace 0

Workloads are named in ``BENCHMARK.json``.  With ``--trace 0`` the run sets up
the workload several times (``setup_s`` is the median), then repeats the
measured call until ``--seconds`` have passed.  With ``--trace 1`` it runs
set-up and one measured call untraced, then again with every public function
of the ``symae`` modules wrapped in spans (see ``tracing.py``), and reports
per-layer metrics; the spans are written to ``.perfbench/``.

Both modes check the workload's outputs.  The report goes to standard output,
and its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check passed.
"""

import os

# Pinned before numpy loads; the measured reason goes into every result.
BLAS_THREADS = "1"
BLAS_THREADS_REASON = (
    "across 4 runs, SAE epoch p90 ranged 46-51 ms with 1 BLAS thread "
    "but 42-112 ms with 2 (2-core box)"
)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have passed,
# so that cheap set-ups take their median over more samples.
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0


def import_symae():
    """Import ``symae`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import symae
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import symae from {ROOT / 'src'}: {exc}")
    if Path(symae.__file__).resolve().parent != ROOT / "src" / "symae":
        raise SystemExit(f"benchmark: symae imported from {symae.__file__}, not this checkout")


def resolve_public_names(names):
    """Fail loudly when a public name the benchmark relies on has moved."""
    for dotted in names:
        module, _, attr = dotted.rpartition(".")
        if not hasattr(importlib.import_module(module), attr):
            raise SystemExit(f"benchmark: public name {dotted} is missing")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed):
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    describe = lambda d: f"{d.get('name', '?')} {d.get('version', '?')}"
    return {
        "numpy": np.__version__,
        "blas": describe(deps.get("blas", {})),
        "lapack": describe(deps.get("lapack", {})),
        "blas_threads": int(BLAS_THREADS),
        "blas_threads_reason": BLAS_THREADS_REASON,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workload, seed, seconds, workdir, checks):
    round_trips, setup_times = [], []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        state = None  # let the previous set-up go before the next one starts
        start = perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(perf_counter() - start)
        round_trips.append(state.round_trip_exact)
    calls = []
    start = perf_counter()
    while not calls or perf_counter() - start < seconds:
        calls.append(workload.call(state))
    quality = workload.verify(state, round_trips, calls, checks)
    report = workload.report(state, calls, quality)
    setup_s = (statistics.median(setup_times), "s")
    rss = (peak_rss_mb(), "MB")
    headline = {"setup_s": setup_s, **workload.generic(report), "peak_rss_mb": rss}
    return headline, {"setup_s": setup_s, **report, "peak_rss_mb": rss}


def run_traced(workload, seed, workdir, checks, spans_path, predictions):
    from tracing import Tracer

    def once():
        start = perf_counter()
        state = workload.setup(seed, workdir)
        calls.append(workload.call(state))
        round_trips.append(state.round_trip_exact)
        return state, perf_counter() - start

    # Untraced before and after the traced pass, so that warm-up cost does
    # not fall on one side of the overhead ratio.
    calls, round_trips = [], []
    _, before = once()
    tracer = Tracer()
    with tracer.installed():
        state, traced = once()
    _, after = once()
    workload.verify(state, round_trips, calls, checks)
    tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = (2.0 * traced / (before + after), "ratio")
    held = {name: metrics[name][0] == want for name, want in predictions.items()}
    return metrics, held


def main(argv=None):
    import_symae()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Checks

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    attribution = json.loads((HERE / "attribution.json").read_text())
    resolve_public_names(attribution["public_names"])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    checks = Checks()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment(args.seed)))
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            predictions = attribution["zero_call_predictions"][args.workload]
            metrics, held = run_traced(
                workload, args.seed, Path(tmp), checks, spans_path, predictions
            )
            declared = spec["per_layer"]
            for name, ok in held.items():
                print(f"prediction {name} = {predictions[name]}: {'holds' if ok else 'VIOLATED'}")
            print(f"spans written to {spans_path}")
            report = dict(metrics)
        else:
            metrics, report = run_timed(workload, args.seed, args.seconds, Path(tmp), checks)
            declared = spec["end_to_end"]

    attempted, failed = checks.attempted, checks.failed
    report["error_rate"] = (failed / attempted, "ratio")
    for name, (value, unit) in report.items():
        print(f"{name:48s} {value!r:>24} {unit}")
    for name, (total, bad) in checks.counts.items():
        print(f"check {name}: {total - bad}/{total} passed")

    produced = {(name, unit) for name, (_, unit) in metrics.items()}
    if produced != {(m["name"], m["unit"]) for m in declared}:
        raise SystemExit(
            f"benchmark: metrics {sorted(produced ^ {(m['name'], m['unit']) for m in declared})} "
            "differ from BENCHMARK.json"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
