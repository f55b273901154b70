"""Paired A/B runs of perfbench: a parent revision against a change, each from its own
``git archive`` tree.

    python3 tools/ab_pairs.py PARENT CHANGE --scratch DIR --seeds 2300-2309 \\
        --aa-seed 2400 [--traced-seed 2500] [--claim comparison:eval_pairs_per_s] \\
        [--json BENCH_N.json]

Pair i runs ``python3 perfbench/run.py --workload W --seed S --seconds 50 --trace 0``
for every workload on each side, the parent first when i is even and the change
first when i is odd.  One A/A pair runs the parent against a second archive of
the parent.  For each workload and end-to-end metric it prints each side's median
and quartiles, the per-pair ratios (change / parent), the pairs the change won,
and a verdict:

- ``gain``: the change won at least nine tenths of the pairs (ties count for
  neither) and the medians differ, in the better direction, by more than the
  parent's quartile spread;
- ``unresolved``: the parent's quartile spread exceeds the metric's bound and not
  every change run reads better than every parent run;
- ``worse than bound``: the change's median is worse than the parent's by more
  than the bound;
- ``within bound`` otherwise;

and ``too few pairs`` for fewer than ten pairs, as in the A/A pair.  Only pairs where
both sides printed a result line count; the runs without one (failed, killed or
malformed) are counted per side, and every run is written to ``--json``.

Each run's process CPU seconds (user plus system, from ``getrusage`` of the finished
benchmark process) are recorded too, and each side's median per workload is printed
as a report: it is not one of BENCHMARK.json's metrics and has no verdict.

The workloads, the run length (50 s), the metrics, their directions and their
bounds come from BENCHMARK.json in the change's tree.  Run it from the
repository root; it writes only under the scratch directory and the ``--json``
path.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path


def archive(rev: str, dest: Path) -> Path:
    """``git archive`` of ``rev`` unpacked into ``dest``, which must not exist."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")
    return dest


def commit_of(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--short", rev], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process in ``tree``: its return code, its CPU seconds (user plus
    system) and its last output line's JSON."""
    started = int(time.time())
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"seed": seed, "workload": workload, "started_unix": started,
            "returncode": proc.returncode, "cpu_s": round(cpu_s, 3), "result": result}


def quartiles(values: list[float]) -> list[float]:
    """The lower and upper quartiles (``statistics.quantiles``, inclusive method)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over pairs: ``parent[i]`` and ``change[i]`` ran as a pair."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    spread = p_q[1] - p_q[0]
    worse_by = sign * (p_med - c_med) / p_med if p_med else 0.0
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if len(parent) < 10:
        word = "too few pairs"
    elif wins >= 0.9 * len(parent) and sign * (c_med - p_med) > spread:
        word = "gain"
    elif p_med and spread / abs(p_med) > bound and not every_run_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse than bound"
    else:
        word = "within bound"
    return {"parent_median": p_med, "change_median": c_med,
            "parent_quartiles": p_q, "change_quartiles": c_q,
            "per_pair_ratios": [round(c / p, 4) if p else None for p, c in zip(parent, change)],
            "change_better_pairs": wins, "median_worse_by": round(worse_by, 4),
            "verdict": word}


def metric_values(result, metrics: list[dict]) -> list[float] | None:
    """The values of ``metrics`` in one run's result line; None if it lacks any, as the
    line of a failed, killed or malformed run does."""
    try:
        return [result["metrics"][m["name"]]["value"] for m in metrics]
    except (KeyError, TypeError):
        return None


def summarize(runs: list[dict], metrics: list[dict], other: str = "change") -> dict:
    """Per workload: the pairs where both sides have a result, each side's runs without
    one, the failed operations of each side, whether every run's checks passed, each
    side's median CPU seconds over those pairs (a report, without a verdict), and
    ``verdict`` of each metric over those pairs.  ``runs`` holds one record per side and
    pair, with keys pair, side ("parent" or ``other``), workload, result and cpu_s."""
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        sides = {side: sorted((r for r in runs if r["workload"] == workload
                               and r["side"] == side), key=lambda r: r["pair"])
                 for side in ("parent", other)}
        results = {side: [r["result"] if isinstance(r["result"], dict) else {} for r in recs]
                   for side, recs in sides.items()}
        values = {side: {r["pair"]: metric_values(r["result"], metrics) for r in recs}
                  for side, recs in sides.items()}
        both = [i for i, v in values["parent"].items()
                if v is not None and values[other].get(i) is not None]
        cpu = {side: [r["cpu_s"] for r in recs if r["pair"] in both and "cpu_s" in r]
               for side, recs in sides.items()}
        summary[workload] = {
            "pairs": len(both),
            "without_result": {side: sum(v is None for v in vals.values())
                               for side, vals in values.items()},
            "failed": {side: f"{sum(x.get('failed', 0) for x in res)} of "
                             f"{sum(x.get('attempted', 0) for x in res)}"
                       for side, res in results.items()},
            "all_correct": all(x.get("correct") is True for res in results.values()
                               for x in res),
            "cpu_s_median": {side: statistics.median(v) if v else None
                             for side, v in cpu.items()},
            "metrics": {m["name"]: verdict(
                *([values[side][i][j] for i in both] for side in ("parent", other)),
                m["better"], m["bound"]) for j, m in enumerate(metrics)} if both else {},
        }
    return summary


def print_summary(summary: dict, title: str, other: str = "change") -> None:
    print(title)
    for workload, row in summary.items():
        failed = ", ".join(f"{side} {count}" for side, count in row["failed"].items())
        missing = ", ".join(f"{side} {n}" for side, n in row["without_result"].items())
        print(f"  {workload}: {row['pairs']} pairs with both results, runs without one "
              f"{missing}, failed {failed}, all correct {row['all_correct']}")
        cpu = ", ".join(f"{side} " + ("-" if v is None else f"{v:.2f} s")
                        for side, v in row["cpu_s_median"].items())
        print(f"    process CPU, median (a report, not gated): {cpu}")
        for name, m in row["metrics"].items():
            ratios = " ".join("-" if r is None else f"{r:.3f}" for r in m["per_pair_ratios"])
            print(f"    {name:28} parent {m['parent_median']:.6g} "
                  f"[{m['parent_quartiles'][0]:.6g}, {m['parent_quartiles'][1]:.6g}]  "
                  f"{other} {m['change_median']:.6g} "
                  f"[{m['change_quartiles'][0]:.6g}, {m['change_quartiles'][1]:.6g}]  "
                  f"won {m['change_better_pairs']}/{row['pairs']}  {m['verdict']}")
            print(f"    {'':28} ratios {ratios}")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--scratch", required=True, type=Path,
                        help="a directory for the archived trees; must not exist")
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 2300-2309")
    parser.add_argument("--aa-seed", required=True, type=int)
    parser.add_argument("--traced-seed", type=int, help="one --trace 1 run per tree")
    parser.add_argument("--claim", help="workload:metric the change claims, if any")
    parser.add_argument("--json", type=Path, help="write the runs and summaries here")
    args = parser.parse_args(argv)

    trees = {"parent": archive(args.parent, args.scratch / "parent"),
             "change": archive(args.change, args.scratch / "change"),
             "parent_copy": archive(args.parent, args.scratch / "parent_copy")}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    def pair(index: int, seed: int, sides: tuple[str, str]) -> list[dict]:
        order = sides if index % 2 == 0 else sides[::-1]
        records = []
        for side in order:
            for workload in workloads:
                record = run_once(trees[side], workload, seed, seconds, 0)
                records.append({"pair": index, "first": order[0], "side": side, **record})
                print(f"pair {index} seed {seed} {workload} {side}: exit {record['returncode']}",
                      file=sys.stderr, flush=True)
        return records

    runs = [r for i, seed in enumerate(args.seeds) for r in pair(i, seed, ("parent", "change"))]
    aa_runs = pair(0, args.aa_seed, ("parent", "parent_copy"))
    summary, aa_summary = summarize(runs, metrics), summarize(aa_runs, metrics, "parent_copy")
    print_summary(summary, f"{args.change} against {args.parent}")
    print_summary(aa_summary, f"A/A: {args.parent} against a second archive of it",
                  "parent_copy")
    traced = {}
    if args.traced_seed is not None:
        for workload in workloads:
            traced[workload] = {side: run_once(trees[side], workload, args.traced_seed,
                                               seconds, 1)["result"]
                                for side in ("parent", "change")}
    if args.json:
        command = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
        args.json.write_text(json.dumps({
            "parent_commit": commit_of(args.parent), "change_commit": commit_of(args.change),
            "command": command + " --trace 0",
            "protocol": f"tools/ab_pairs.py: {len(args.seeds)} pairs on seeds "
                        f"{args.seeds[0]}-{args.seeds[-1]}, even pairs parent first; per side "
                        f"every workload in the order {', '.join(workloads)}",
            "claim": args.claim, "summary": summary,
            "aa_protocol": f"the parent against a second archive of it ('parent_copy'; "
                           f"its values are the 'change_*' entries), one pair, "
                           f"seed {args.aa_seed}",
            "aa_summary": aa_summary,
            "traced_protocol": None if args.traced_seed is None else
            f"{command} --trace 1 on seed {args.traced_seed}, once per tree, parent first",
            "traced_runs": traced, "runs": runs, "aa_runs": aa_runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
