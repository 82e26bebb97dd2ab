#!/usr/bin/env python3
"""Compare two checkouts on the end-to-end benchmark in alternating pairs.

Usage:
  tools/e2e_pairs.py --parent DIR --change DIR --workload rmat-fiber
                     [--workload ...] [--seed 1] [--seconds 25] [--pairs 10]
                     [--trace 0] [--metric op_s.p50 ...] [--raw out.json]

DIR is a checkout (or exported tree) holding e2ebench/run.py; each builds
its own .bench_build. Pair i runs both checkouts once on the same workload,
seed and length, the parent first on even pairs and the change first on odd
ones, so slow drift of the host lands on both sides equally.

For every workload and metric the report gives, for each side, the median
and the quartiles (statistics.quantiles(n=4), as e2ebench/stats.py) over
the pairs, plus the number of pairs the change won: a win is a pair in
which the change's value is strictly better in the direction BENCHMARK.json
declares for the metric. The verdict applies the gain rule: the change wins
at least 9 of 10 pairs and its median beats the parent's by more than the
parent's interquartile range. Metrics without a declared direction get
medians only.

A run that exits non-zero or reports "correct": false aborts the comparison
(exit 1); --raw keeps every run's metrics as JSON for later re-reading.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_FRACTION = 0.9


def quartiles(values):
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def is_better(change, parent, better):
    return change < parent if better == "lower" else change > parent


def count_wins(parent, change, better):
    """Pairs (parent[i], change[i]) in which the change is strictly better."""
    return sum(1 for p, c in zip(parent, change) if is_better(c, p, better))


def summarize(parent, change, better=None):
    """Medians, quartiles, wins and the gain-rule verdict for one metric."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on each side")
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    out = {"parent": {"median": pm, "q1": p1, "q3": p3},
           "change": {"median": cm, "q1": c1, "q3": c3},
           "pairs": len(parent), "better": better}
    if better is None:
        return out
    wins = count_wins(parent, change, better)
    gap = pm - cm if better == "lower" else cm - pm
    out["wins"] = wins
    out["gap"] = gap
    out["gain"] = (wins >= math.ceil(WIN_FRACTION * len(parent)) and
                   gap > p3 - p1)
    return out


def run_order(pairs):
    """The side that runs first in each pair: parent, change, parent, ..."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent")
            for i in range(pairs)]


def directions(spec):
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {workload} run was not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def format_report(workload, table):
    lines = [f"== {workload}"]
    for name, s in table.items():
        p, c = s["parent"], s["change"]
        line = (f"{name:28s} parent {p['median']:.6g} [{p['q1']:.6g}, "
                f"{p['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, "
                f"{c['q3']:.6g}]")
        if s["better"] is not None:
            verdict = "GAIN" if s["gain"] else "no gain"
            line += (f"  wins {s['wins']}/{s['pairs']}  gap {s['gap']:.6g} "
                     f"vs parent IQR {p['q3'] - p['q1']:.6g}: {verdict}")
        lines.append(line)
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metric", action="append",
                        help="report only these metrics (default: all)")
    parser.add_argument("--raw", type=Path,
                        help="write every run's metrics to this JSON file")
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = directions(spec)
    checkouts = {"parent": args.parent, "change": args.change}
    raw = {}
    try:
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i, order in enumerate(run_order(args.pairs)):
                for side in order:
                    runs[side].append(run_once(checkouts[side], workload,
                                               args.seed, args.seconds,
                                               args.trace))
                print(f"{workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
            raw[workload] = runs
            names = args.metric or list(runs["parent"][0])
            table = {name: summarize([r[name] for r in runs["parent"]],
                                     [r[name] for r in runs["change"]],
                                     better.get(name))
                     for name in names}
            print(format_report(workload, table), flush=True)
    except (OSError, RuntimeError, KeyError, json.JSONDecodeError) as e:
        print(f"e2e_pairs: {e}", file=sys.stderr)
        return 1
    finally:
        if args.raw is not None:
            args.raw.write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
