"""Unit tests for perfbench/benchlib.py.

  python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import benchlib  # noqa: E402
from benchlib import Span  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [3.1, 2.9, 3.4, 3.0, 3.3, 2.8, 3.2, 3.05, 2.95, 3.15]
        self.assertEqual(benchlib.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_single_value(self):
        self.assertEqual(benchlib.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(benchlib.spread([2.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(benchlib.spread(xs), (q3 - q1) / med)

    def test_percentile_interpolates(self):
        xs = list(range(101))
        self.assertEqual(benchlib.percentile(xs, 50), 50)
        self.assertEqual(benchlib.percentile(xs, 99), 99)
        self.assertAlmostEqual(benchlib.percentile([0, 10], 90), 9.0)
        self.assertEqual(benchlib.percentile([7], 99), 7)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_duration(self):
        spans = [Span(1, 0, 1, 1, "a", 0, 100)]
        self.assertEqual(benchlib.self_times(spans), {1: 100})

    def test_children_are_subtracted(self):
        spans = [Span(1, 0, 1, 1, "run", 0, 100),
                 Span(2, 1, 1, 1, "grad", 10, 30),
                 Span(3, 1, 1, 1, "grad", 50, 60)]
        own = benchlib.self_times(spans)
        self.assertEqual(own[1], 70)
        self.assertEqual(own[2], 20)

    def test_overlapping_children_count_once(self):
        # Two threads' children overlap in time: the union is subtracted.
        spans = [Span(1, 0, 1, 1, "run", 0, 100),
                 Span(2, 1, 1, 1, "grad", 10, 40),
                 Span(3, 1, 1, 2, "grad", 30, 50)]
        self.assertEqual(benchlib.self_times(spans)[1], 60)

    def test_nested_children_count_once(self):
        spans = [Span(1, 0, 1, 1, "run", 0, 100),
                 Span(2, 1, 1, 1, "grad", 10, 60),
                 Span(3, 1, 1, 2, "grad", 20, 30)]
        self.assertEqual(benchlib.self_times(spans)[1], 50)

    def test_children_are_clipped_to_parent(self):
        spans = [Span(1, 0, 1, 1, "run", 0, 100),
                 Span(2, 1, 1, 2, "fill", 90, 130)]
        self.assertEqual(benchlib.self_times(spans)[1], 90)

    def test_layer_totals_sum_counts_and_self(self):
        spans = [Span(1, 0, 1, 1, "replay", 0, 100),
                 Span(2, 1, 1, 1, "data.sample", 0, 40, count=8),
                 Span(3, 1, 1, 1, "dp.noise", 40, 90, count=8)]
        totals = benchlib.layer_totals(spans)
        self.assertEqual(totals["data.sample"], (8, 40, 40))
        self.assertEqual(totals["replay"], (1, 100, 10))

    def test_round_durations_follow_every_honest_call(self):
        grads = [Span(i + 1, 0, 1, 1, "models.grad", s, s + 1)
                 for i, s in enumerate([0, 2, 4, 10, 12, 14, 30, 32, 34])]
        self.assertEqual(benchlib.round_durations(grads, 3), [10, 20])


class Verdict(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_clear_gain_is_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(benchlib.pair_wins(self.parent, change, "lower"), 1.0)
        self.assertEqual(benchlib.verdict(self.parent, change, 0.1, "lower"), "improved")

    def test_direction_matters(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, 0.1, "higher"), "worse")

    def test_win_inside_parent_spread_is_not_improved(self):
        # Every pair won, but by less than the parent's interquartile range.
        change = [v * 0.99 for v in self.parent]
        self.assertEqual(benchlib.pair_wins(self.parent, change, "lower"), 1.0)
        self.assertEqual(benchlib.verdict(self.parent, change, 0.1, "lower"), "unchanged")

    def test_too_few_pair_wins_is_not_improved(self):
        change = [v * 0.7 for v in self.parent[:8]] + [v * 1.05 for v in self.parent[8:]]
        self.assertEqual(benchlib.pair_wins(self.parent, change, "lower"), 0.8)
        self.assertEqual(benchlib.verdict(self.parent, change, 0.1, "lower"), "unchanged")

    def test_small_move_is_unchanged(self):
        change = [v * 1.01 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, 0.1, "lower"), "unchanged")

    def test_regression_beyond_bound_is_worse(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(benchlib.verdict(self.parent, change, 0.1, "lower"), "worse")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [10.5] * 10
        self.assertEqual(benchlib.verdict(parent, change, 0.1, "lower"), "unresolved")

    def test_ties_count_for_neither_side(self):
        self.assertEqual(benchlib.pair_wins([1, 2, 3, 4], [1, 1, 3, 5], "lower"), 0.25)

    def test_compare_sets_pairs_workload_and_metric(self):
        a = [{"workload": "paper", "metrics": {"job_s": {"value": v, "unit": "s"}}}
             for v in self.parent]
        b = [{"workload": "paper", "metrics": {"job_s": {"value": v * 0.5, "unit": "s"}}}
             for v in self.parent]
        rows = benchlib.compare_sets(a, b, {"job_s": (0.1, "lower")})
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["verdict"], "improved")
        self.assertEqual(rows[0]["runs"], (10, 10))


if __name__ == "__main__":
    unittest.main()
