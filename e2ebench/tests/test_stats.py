"""Self-tests of the benchmark's statistics and naming.

    python3 -m unittest discover -s e2ebench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def fake_op(op_s, error="", exact=None, layer=None):
    return {"op_s": op_s, "jobs": 1, "error": error, "cpu_s": 2 * op_s,
            "mem_peak_bytes": 1000.0,
            "exact": {"kernels.flops": 7} if exact is None else exact,
            "layer": layer or {}}


class TailTest(unittest.TestCase):
    def test_hundred_samples_give_the_75th_smallest(self):
        value, beyond, n = stats.tail(list(range(100, 0, -1)))
        self.assertEqual((value, beyond, n), (75, 25, 100))

    def test_nearest_rank_rounds_up(self):
        # ceil(0.75 * 41) = 31: the 31st smallest, 10 beyond it.
        values = [float(i) for i in range(41)]
        self.assertEqual(stats.tail(values), (30.0, 10, 41))

    def test_at_least_ten_samples_lie_beyond(self):
        for n in (40, 41, 57, 250):
            values = [float(i) for i in range(n)]
            value, beyond, _ = stats.tail(values)
            self.assertEqual(sum(v > value for v in values), beyond)
            self.assertGreaterEqual(beyond, stats.TAIL_BEYOND)
            self.assertGreaterEqual(sum(v <= value for v in values), 0.75 * n)

    def test_min_ops_is_the_minimum(self):
        self.assertEqual(stats.TAIL_MIN_OPS, 40)
        self.assertEqual(stats.tail([5.0] * 40)[0], 5.0)
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 39)

    def test_ties_still_count_positions(self):
        values = [1.0] * 30 + [2.0] * 10
        self.assertEqual(stats.tail(values)[0], 1.0)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_one_to_ten(self):
        # Exclusive quartiles of 1..10 are 2.75 and 8.25; the median is 5.5.
        self.assertAlmostEqual(stats.quartile_spread(range(1, 11)), 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([2.5] * 10), 0.0)


class NameTest(unittest.TestCase):
    def test_pattern(self):
        for good in ("op_s.p50", "step.A-Bcast.s",
                     "traffic.AllToAll-Fiber.bytes", "9lives", "a" * 64):
            self.assertTrue(stats.valid_name(good), good)
        for bad in ("", ".x", "-x", "has space", "a/b", "a" * 65, "jobs{x}"):
            self.assertFalse(stats.valid_name(bad), bad)

    def test_benchmark_json_names(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(stats.valid_name(name), name)

    def test_emitted_end_to_end_names(self):
        records = {"setup_s": [1.0, 1.2, 1.1], "op_unit": "job"}
        phase = {"seconds": 4.0,
                 "ops": [fake_op(0.1 + i / 100) for i in range(40)]}
        values = run.end_to_end(records, phase)
        self.assertEqual(sorted(values),
                         sorted(m["name"] for m in SPEC["end_to_end"]))
        self.assertTrue(all(stats.valid_name(n) for n in values))
        self.assertTrue(all(v != 0 for v in values.values()))

    def test_emitted_per_layer_names(self):
        wanted = [m["name"] for m in SPEC["per_layer"]]
        phase = {"ops": [fake_op(0.2, layer={"kernels.flops": 9.0})] * 3}
        values = run.per_layer(wanted, phase, phase)
        self.assertEqual(sorted(values), sorted(wanted))
        self.assertEqual(values["kernels.flops"], 9.0)
        self.assertEqual(values["svc.jobs_done"], 0.0)
        self.assertAlmostEqual(values["trace.overhead_frac"], 0.0)


class ExactCountTest(unittest.TestCase):
    def test_repeating_counts_pass(self):
        ops = [fake_op(0.1, exact={"traffic.A-Bcast.bytes": 64})] * 3
        self.assertEqual(run.exact_mismatches(ops), [])

    def test_differing_count_is_named(self):
        ops = [fake_op(0.1, exact={"traffic.A-Bcast.bytes": 64}),
               fake_op(0.1, exact={"traffic.A-Bcast.bytes": 65})]
        bad = run.exact_mismatches(ops)
        self.assertEqual(len(bad), 1)
        self.assertIn("traffic.A-Bcast.bytes", bad[0])

    def test_missing_count_is_a_mismatch(self):
        ops = [fake_op(0.1, exact={"summa.batches": 4}), fake_op(0.1, exact={})]
        self.assertIn("summa.batches", run.exact_mismatches(ops)[0])


if __name__ == "__main__":
    unittest.main()
