#!/usr/bin/env python3
"""Page faults and CPU time per op of one end-to-end workload.

Usage:
  tools/fault_probe.py --workload rmat-fiber [--seed 1] [--short 4]
                       [--long 12] [--binary PATH]

Runs the built end-to-end benchmark binary (casp_e2e, which
`python3 e2ebench/run.py` builds into .bench_build/e2ebench/) twice, for a
short and a long timed phase, and reads getrusage(RUSAGE_CHILDREN) around
each run. Both runs do the same set-up and warm-up, so the difference of
the two usages over the difference of their op counts is the cost of one
timed op with set-up cancelled out: minor and major page faults, user and
system CPU seconds, per op and per job. The warm-up is a fixed time, not a
fixed op count, so its own count can differ by an op between the runs;
longer phases shrink that error.

The probe only starts the benchmark and reads its own children's resource
usage; it changes no setting of the machine. The last line of standard
output is one JSON object with the per-op and per-job figures.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BINARY = ROOT / ".bench_build" / "e2ebench" / "casp_e2e"
FIELDS = ("minflt", "majflt", "utime", "stime")


def usage_of(ru):
    """The fields of a resource.struct_rusage this probe reports."""
    return {"minflt": ru.ru_minflt, "majflt": ru.ru_majflt,
            "utime": ru.ru_utime, "stime": ru.ru_stime}


def subtract(after, before):
    return {k: after[k] - before[k] for k in FIELDS}


def per_unit(short, long, units_short, units_long):
    """(long - short) / (units_long - units_short) for every field."""
    units = units_long - units_short
    if units <= 0:
        raise ValueError(f"the long run has {units_long} units against "
                         f"{units_short} in the short one; lengthen --long")
    return {k: (long[k] - short[k]) / units for k in FIELDS}


def timed_ops(records):
    """(ops, jobs) in the timed phases of one casp_e2e records.json."""
    ops = [op for phase in records["phases"] for op in phase["ops"]]
    return len(ops), sum(op.get("jobs", 1) for op in ops)


def run_once(binary, workload, seed, seconds):
    """One casp_e2e run: (its resource usage, timed ops, timed jobs)."""
    with tempfile.TemporaryDirectory(prefix="fault_probe_") as out:
        cmd = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", "--out-dir", out,
               "--min-ops", "1"]
        env = dict(os.environ, OMP_NUM_THREADS="1")
        before = usage_of(resource.getrusage(resource.RUSAGE_CHILDREN))
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        after = usage_of(resource.getrusage(resource.RUSAGE_CHILDREN))
        if done.returncode != 0:
            raise RuntimeError(f"{binary} exited with {done.returncode}")
        with open(Path(out) / "records.json") as f:
            ops, jobs = timed_ops(json.load(f))
    return subtract(after, before), ops, jobs


def probe(binary, workload, seed, short, long):
    short_use, short_ops, short_jobs = run_once(binary, workload, seed, short)
    long_use, long_ops, long_jobs = run_once(binary, workload, seed, long)
    return {
        "workload": workload,
        "seed": seed,
        "ops": [short_ops, long_ops],
        "jobs": [short_jobs, long_jobs],
        "per_op": per_unit(short_use, long_use, short_ops, long_ops),
        "per_job": per_unit(short_use, long_use, short_jobs, long_jobs),
    }


def format_report(result):
    lines = [f"{result['workload']} seed {result['seed']}: "
             f"{result['ops'][1] - result['ops'][0]} ops, "
             f"{result['jobs'][1] - result['jobs'][0]} jobs between the runs"]
    for unit in ("per_op", "per_job"):
        r = result[unit]
        lines.append(f"  {unit.replace('_', ' ')}: "
                     f"minflt {r['minflt']:.0f}  majflt {r['majflt']:.1f}  "
                     f"user {r['utime']:.4f} s  sys {r['stime']:.4f} s")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--short", type=float, default=4.0,
                    help="seconds of the short timed phase")
    ap.add_argument("--long", type=float, default=12.0,
                    help="seconds of the long timed phase")
    ap.add_argument("--binary", type=Path, default=DEFAULT_BINARY)
    args = ap.parse_args()
    if not args.binary.exists():
        sys.exit(f"{args.binary} is missing: build it with "
                 f"`python3 e2ebench/run.py --workload {args.workload}` "
                 "or pass --binary")
    if args.long <= args.short:
        sys.exit("--long must be longer than --short")
    result = probe(args.binary, args.workload, args.seed, args.short,
                   args.long)
    print(format_report(result))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
