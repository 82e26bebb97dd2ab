#!/usr/bin/env python3
"""End-to-end benchmark of the casp library: one workload, one seed.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds libcasp and the benchmark binary from
source into .bench_build/e2ebench on first use, runs the workload closed
loop, checks every op's output against a serial reference and checks that
the exact counts repeat across ops. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. Exits 0 only when the run is correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
RUNS_DIR = ROOT / ".bench_build" / "e2ebench-runs"
BINARY = BUILD_DIR / "casp_e2e"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then an incremental build; output goes to stderr."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def steal_seconds():
    """Host CPU time stolen from this VM so far (all CPUs), or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_binary(args, out_dir):
    env = dict(os.environ, OMP_NUM_THREADS="1")
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if not args.trace:
        cmd += ["--min-ops", str(stats.TAIL_MIN_OPS)]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"casp_e2e exited with {done.returncode}")
    with open(out_dir / "records.json") as f:
        return json.load(f)


def exact_mismatches(ops):
    """Exact counts (traffic.*, summa.*batches, kernels.flops,
    vmpi.payload_copies, svc.jobs_*, ...) that differ between ops."""
    bad = []
    for name in sorted({k for op in ops for k in op["exact"]}):
        seen = sorted({op["exact"].get(name) for op in ops},
                      key=lambda v: (v is None, v))
        if len(seen) > 1:
            bad.append(f"{name} took {len(seen)} values {seen[:4]}")
    return bad


def end_to_end(records, phase):
    ops = phase["ops"]
    good = [op for op in ops if not op["error"]]
    times = [op["op_s"] for op in ops]
    jobs = sum(op["jobs"] for op in ops)
    return {
        "setup_s": stats.median(records["setup_s"]),
        "op_s.p50": stats.median(times),
        "op_s.tail": stats.tail(times)[0],
        "jobs_per_s": sum(op["jobs"] for op in good) / phase["seconds"],
        "cpu_s_per_job": sum(op["cpu_s"] for op in ops) / max(jobs, 1),
        "mem_peak_bytes": stats.median([op["mem_peak_bytes"] for op in ops]),
        "ok_frac": len(good) / len(ops),
    }


def per_layer(names, untraced, traced):
    ops = traced["ops"]
    values = {}
    for name in names:
        values[name] = stats.median([op["layer"].get(name, 0.0) for op in ops])
    values["trace.overhead_frac"] = (
        stats.median([op["op_s"] for op in ops]) /
        stats.median([op["op_s"] for op in untraced["ops"]]) - 1.0)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise RuntimeError(f"unknown workload {args.workload}")
        build()
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        out_dir = RUNS_DIR / name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        steal0 = steal_seconds()
        records = run_binary(args, out_dir)
        steal1 = steal_seconds()
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as e:
        log(f"e2ebench: {e}")
        return 2

    if steal0 is not None and steal1 is not None:
        # Time the host gave to other guests while this run wanted the CPU;
        # a large value marks a run whose timings the host disturbed.
        print(f"host steal during the run: {steal1 - steal0:.2f} CPU-s")
    phases = records["phases"]
    ops = [op for phase in phases for op in phase["ops"]]
    errors = [op["error"] for op in ops if op["error"]]
    for reason in sorted(set(errors)):
        print(f"FAILED op: {reason}")
    mismatches = exact_mismatches(ops)
    for m in mismatches:
        print(f"FAILED exact-count self-check: {m}")

    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer([m["name"] for m in wanted], phases[0], phases[1])
        print(f"traces: {out_dir / 'bench_trace.json'} "
              f"{out_dir / 'program_trace.json'}")
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(records, phases[0])
        _, beyond, n = stats.tail([op["op_s"] for op in phases[0]["ops"]])
        print(f"op_s.tail is p{stats.TAIL_PCT} of {n} "
              f"{records['op_unit']}s ({beyond} beyond it)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32s} {values[m['name']]:.6g} {m['unit']}")

    correct = not errors and not mismatches
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(errors), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
