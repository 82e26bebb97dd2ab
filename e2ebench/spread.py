#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 e2ebench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs e2ebench/run.py once per (workload, seed) with tracing off and prints,
for every end-to-end metric, the median of the runs and the quartile
spread (Q3 - Q1) / median next to the metric's bound and a third of it,
plus the host CPU time stolen during each run.
Exits 1 if any run fails or a spread (setup_s aside) exceeds its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        runs, steal = [], []
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1:] or ["{}"]
            result = json.loads(last[0]) if last[0].startswith("{") else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED\n{done.stdout[-2000:]}"
                      f"{done.stderr[-2000:]}")
                ok = False
                continue
            runs.append(result["metrics"])
            steal += [line.split(":")[1].strip()
                      for line in done.stdout.splitlines()
                      if line.startswith("host steal during the run")]
        if len(runs) < 4:
            ok = False
            continue
        print(f"== {workload}: {len(runs)} runs")
        print("  host steal per run: " + " ".join(steal))
        for m in spec["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            spread = stats.quartile_spread(values)
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > m["bound"] / 3:
                flag = "  over bound/3"
            print(f"  {m['name']:16s} median {stats.median(values):<12.6g} "
                  f"spread {spread:.4f}  bound {m['bound']}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
