"""Benchmark for margindistill: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload comparison --seed 1 --seconds 50 --trace 0

Run it from the repository root; it imports the package from ``src/``.
With ``--trace 0`` the last line of output carries the end-to-end metrics,
with ``--trace 1`` the per-layer ones.  Exit code 2 means the program could
not be found or the arguments are wrong; no result line is printed then.
"""

import time

LAUNCH = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("comparison", "dense-mining", "cli-protocol")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length at reference speed; sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


SRC = ROOT / "src"
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import margindistill, margindistill.cli"


def import_program():
    """Import margindistill from this checkout's src/."""
    if not (SRC / "margindistill" / "__init__.py").is_file():
        print(f"error: no margindistill package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import margindistill
    import margindistill.cli  # noqa: F401
    if Path(margindistill.__file__).resolve().parent != (SRC / "margindistill").resolve():
        print(f"error: imported margindistill from {margindistill.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return margindistill


def time_imports(repeats=5):
    """Seconds from launching a fresh interpreter until it has imported the package."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT, str(SRC)], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(run):
    """End-to-end metrics: rates over every call of their stage in the run."""
    return {
        "setup_s": (run.import_s + statistics.median(run.setup_s) if run.setup_s else 0.0,
                    "s"),
        "wall_s": (run.wall_s(), "s"),
        "teacher_iters_per_s": (run.rate("teacher"), "1/s"),
        "distill_dynamic_iters_per_s": (run.rate("distill_dynamic"), "1/s"),
        "distill_fixed_iters_per_s": (run.rate("distill_fixed"), "1/s"),
        "eval_pairs_per_s": (run.rate("eval"), "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "min_accuracy": (min(run.accuracies) if run.accuracies else 0.0, "fraction"),
        "structure_corr": (statistics.fmean(run.structures) if run.structures else 0.0, "ratio"),
    }


def main(argv=None):
    args = parse_args(argv)
    md = import_program()
    sys.path.insert(0, str(ROOT))
    from perfbench import tracing, workloads

    run = workloads.Run(LAUNCH)
    plan = workloads.PLANS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    out = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        if tracer:
            tracer.install(md)
        try:
            history = []
            for index in range(workloads.n_rounds(plan, args.seconds)):
                rseed = workloads.round_seed(args.seed, index)
                if isinstance(plan, workloads.CliPlan):
                    body = lambda: workloads.cli_round(md, run, plan, rseed, out, history, tracer)  # noqa: E731
                else:
                    body = lambda: workloads.library_round(md, run, plan, rseed, out)  # noqa: E731
                run.run_round(plan, body)
            run.finish_rounds()
        finally:
            if tracer:
                tracer.restore()
        run.import_s = statistics.median(time_imports())
        if tracer:
            metrics = tracer.metrics(run)
        else:
            metrics = end_to_end(run)
        run.run_checks()
        if tracer:
            run.check_traced_triplets(tracer, plan.batch_shapes(md))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for failure in run.check_failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not run.check_failures,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
