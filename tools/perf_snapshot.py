#!/usr/bin/env python3
"""Write a perf snapshot from repeated runs of one bench binary.

Usage:
  tools/perf_snapshot.py --bench build/release/bench/bench_micro_kernels \\
                         --json BENCH_kernels.json [--runs 10] [--out PATH]
                         [-- extra bench args]

The bench binaries write their JSON records ({"op", "bytes", "ns",
"copies"}, see bench::JsonRecords) into the working directory under a fixed
name. This script runs the bench --runs times in a scratch directory, reads
that file after each run, and writes one snapshot record per op:

  ns      median over the runs
  ns_max  slowest run: the noise ceiling tools/perf_diff.py scales the
          op's limit by
  bytes, copies
          median over the runs (both are deterministic for every bench
          that reports them)

Ops keep the order of the first run. An op missing from some run is an
error: a snapshot must describe one bench surface. --out defaults to
--json, so running from the repository root refreshes the committed file.

Exit status: 0 written, 1 a bench run failed, 2 usage/IO error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def run_once(bench, json_name, extra, workdir):
    path = os.path.join(workdir, json_name)
    if os.path.exists(path):
        os.remove(path)
    done = subprocess.run([bench] + extra, cwd=workdir,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        print(f"perf_snapshot: {bench} exited {done.returncode}:\n"
              f"{done.stderr}", file=sys.stderr)
        sys.exit(1)
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_snapshot: {bench} wrote no readable {json_name}: {e}",
              file=sys.stderr)
        sys.exit(2)


def summarize(runs):
    order = [rec["op"] for rec in runs[0]]
    by_op = {op: [] for op in order}
    for i, records in enumerate(runs):
        ops = {rec["op"]: rec for rec in records}
        if set(ops) != set(order):
            print(f"perf_snapshot: run {i + 1} reports a different op set",
                  file=sys.stderr)
            sys.exit(2)
        for op in order:
            by_op[op].append(ops[op])
    snapshot = []
    for op in order:
        recs = by_op[op]
        ns = [r["ns"] for r in recs]
        snapshot.append({
            "op": op,
            "bytes": statistics.median(r["bytes"] for r in recs),
            "ns": statistics.median(ns),
            "copies": statistics.median(r["copies"] for r in recs),
            "ns_max": max(ns),
        })
    return snapshot


def main():
    parser = argparse.ArgumentParser(
        description="snapshot a bench's per-op median and max time")
    parser.add_argument("--bench", required=True, help="bench binary")
    parser.add_argument("--json", required=True,
                        help="file name the bench writes into its cwd")
    parser.add_argument("--runs", type=int, default=10,
                        help="bench runs to aggregate (default 10)")
    parser.add_argument("--out", help="snapshot path (default: --json)")
    parser.add_argument("extra", nargs="*",
                        help="arguments passed to the bench (after --)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    bench = os.path.abspath(args.bench)
    with tempfile.TemporaryDirectory() as workdir:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(bench, args.json, args.extra, workdir))
            print(f"perf_snapshot: run {i + 1}/{args.runs} done",
                  file=sys.stderr)
    snapshot = summarize(runs)
    out = args.out or args.json
    with open(out, "w", encoding="utf-8") as f:
        json.dump(snapshot, f, indent=1)
        f.write("\n")
    print(f"perf_snapshot: wrote {len(snapshot)} ops over {args.runs} runs "
          f"to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
