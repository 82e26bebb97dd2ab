"""Self-tests for tools/fault_probe.py: the differencing and a run of a
stand-in benchmark binary."""

import json
import os
import stat
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import fault_probe  # noqa: E402

# Writes casp_e2e's records.json with 20 ops per second of timed phase
# (2 jobs each), after a fixed "set-up" that maps and touches 8 MiB, and
# maps and touches a fresh 1 MiB per op.
STAND_IN = textwrap.dedent("""\
    #!{python}
    import json, mmap, sys
    def touch(nbytes):
        m = mmap.mmap(-1, nbytes)
        for at in range(0, nbytes, 4096):
            m[at] = 1
        m.close()
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    touch(8 << 20)
    ops = []
    for _ in range(int(float(args["--seconds"]) * 20)):
        touch(1 << 20)
        ops.append({{"op_s": 0.05, "jobs": 2}})
    with open(args["--out-dir"] + "/records.json", "w") as f:
        json.dump({{"phases": [{{"ops": ops}}]}}, f)
""")


class DifferenceTest(unittest.TestCase):
    def test_set_up_cancels_out(self):
        setup = {"minflt": 5000, "majflt": 3, "utime": 2.0, "stime": 0.5}
        per_op = {"minflt": 40, "majflt": 0, "utime": 0.1, "stime": 0.01}
        run = lambda n: {k: setup[k] + n * per_op[k] for k in setup}
        got = fault_probe.per_unit(run(10), run(30), 10, 30)
        for k in per_op:
            self.assertAlmostEqual(got[k], per_op[k])

    def test_long_run_needs_more_ops(self):
        use = {k: 1 for k in fault_probe.FIELDS}
        with self.assertRaises(ValueError):
            fault_probe.per_unit(use, use, 12, 12)

    def test_timed_ops_counts_jobs(self):
        records = {"phases": [{"ops": [{"jobs": 12}, {"jobs": 12}]},
                              {"ops": [{"jobs": 12}]}]}
        self.assertEqual(fault_probe.timed_ops(records), (3, 36))


class StandInRunTest(unittest.TestCase):
    def test_probe_reports_per_op_and_per_job(self):
        with tempfile.TemporaryDirectory() as tmp:
            binary = Path(tmp) / "casp_e2e"
            binary.write_text(STAND_IN.format(python=sys.executable))
            binary.chmod(binary.stat().st_mode | stat.S_IXUSR)
            result = fault_probe.probe(binary, "stand-in", 1, 0.5, 1.5)
        self.assertEqual(result["ops"], [10, 30])
        self.assertEqual(result["jobs"], [20, 60])
        # A fresh 1 MiB per op is 256 pages; the interpreter's own faults
        # per op add noise but no set-up.
        self.assertGreater(result["per_op"]["minflt"], 100)
        self.assertLess(result["per_op"]["minflt"], 2000)
        self.assertAlmostEqual(result["per_job"]["minflt"],
                               result["per_op"]["minflt"] / 2)
        json.dumps(result)

    def test_failed_run_raises(self):
        with tempfile.TemporaryDirectory() as tmp:
            binary = Path(tmp) / "casp_e2e"
            binary.write_text(f"#!{sys.executable}\nimport sys\nsys.exit(3)\n")
            binary.chmod(binary.stat().st_mode | stat.S_IXUSR)
            with open(os.devnull, "w") as devnull:
                saved, sys.stderr = sys.stderr, devnull
                try:
                    with self.assertRaises(RuntimeError):
                        fault_probe.run_once(binary, "stand-in", 1, 0.5)
                finally:
                    sys.stderr = saved


if __name__ == "__main__":
    unittest.main()
