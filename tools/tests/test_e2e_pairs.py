"""Self-tests for tools/e2e_pairs.py's verdict logic."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import e2e_pairs  # noqa: E402


class VerdictTest(unittest.TestCase):
    PARENT = [0.35, 0.34, 0.36, 0.33, 0.35, 0.37, 0.34, 0.36, 0.35, 0.34]

    def test_clear_gain(self):
        change = [v - 0.08 for v in self.PARENT]
        s = e2e_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(s["wins"], 10)
        self.assertTrue(s["gain"])
        self.assertAlmostEqual(s["gap"], 0.08)

    def test_nine_of_ten_wins_is_enough(self):
        change = [v - 0.08 for v in self.PARENT]
        change[3] = self.PARENT[3] + 0.01
        s = e2e_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(s["wins"], 9)
        self.assertTrue(s["gain"])

    def test_eight_of_ten_wins_is_not(self):
        change = [v - 0.08 for v in self.PARENT]
        change[3] = self.PARENT[3] + 0.01
        change[7] = self.PARENT[7]  # a tie is not a win
        s = e2e_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(s["wins"], 8)
        self.assertFalse(s["gain"])

    def test_gap_must_exceed_parent_iqr(self):
        # Every pair won, but by less than the parent's own spread.
        change = [v - 0.005 for v in self.PARENT]
        s = e2e_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(s["wins"], 10)
        iqr = s["parent"]["q3"] - s["parent"]["q1"]
        self.assertGreater(iqr, 0.005)
        self.assertFalse(s["gain"])

    def test_higher_is_better(self):
        parent = [10.0, 11.0, 10.5, 10.2, 10.8]
        change = [v + 3.0 for v in parent]
        s = e2e_pairs.summarize(parent, change, "higher")
        self.assertEqual(s["wins"], 5)
        self.assertTrue(s["gain"])
        self.assertFalse(e2e_pairs.summarize(change, parent, "higher")["gain"])

    def test_a_regression_is_no_gain(self):
        change = [v + 0.08 for v in self.PARENT]
        s = e2e_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(s["wins"], 0)
        self.assertLess(s["gap"], 0)
        self.assertFalse(s["gain"])

    def test_quartiles_match_statistics_quantiles(self):
        q1, med, q3 = e2e_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))
        self.assertEqual(e2e_pairs.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_undirected_metric_has_no_verdict(self):
        s = e2e_pairs.summarize([1.0, 2.0], [1.0, 2.0])
        self.assertNotIn("gain", s)
        self.assertEqual(s["change"]["median"], 1.5)

    def test_unequal_sides_are_rejected(self):
        with self.assertRaises(ValueError):
            e2e_pairs.summarize([1.0, 2.0], [1.0], "lower")

    def test_run_order_alternates(self):
        self.assertEqual(e2e_pairs.run_order(3),
                         [("parent", "change"), ("change", "parent"),
                          ("parent", "change")])

    def test_directions_come_from_the_spec(self):
        spec = {"end_to_end": [{"name": "op_s.p50", "better": "lower"}],
                "per_layer": [{"name": "sparse.saved_frac",
                               "better": "higher"}]}
        self.assertEqual(e2e_pairs.directions(spec),
                         {"op_s.p50": "lower", "sparse.saved_frac": "higher"})


if __name__ == "__main__":
    unittest.main()
