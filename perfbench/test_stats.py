"""Self-test of the benchmark's statistics on synthetic inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import FailureTally, span_self_times, tail_percentile, union_length  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_too_few_samples_has_no_tail(self):
        self.assertIsNone(tail_percentile([1.0] * 5))
        self.assertIsNone(tail_percentile(list(range(10))))

    def test_eleven_samples_give_the_lowest_rank(self):
        # the 1st percentile is the smallest sample; the other ten lie beyond
        self.assertEqual(tail_percentile([float(x) for x in range(11)]), (9, 0.0))

    def test_hundred_samples_stop_at_p90(self):
        xs = [float(x) for x in range(1, 101)]
        p, value = tail_percentile(xs)
        self.assertEqual((p, value), (90, 90.0))
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_thousand_samples_reach_p99(self):
        p, value = tail_percentile([float(x) for x in range(1, 1001)])
        self.assertEqual((p, value), (99, 990.0))

    def test_ties_do_not_count_as_beyond(self):
        # 20 equal maxima: nothing lies beyond any percentile that lands on them
        xs = [1.0] * 80 + [5.0] * 20
        p, value = tail_percentile(xs)
        self.assertEqual(value, 1.0)
        self.assertEqual(p, 80)


class SelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps(self):
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(union_length([(0, 4), (1, 2)]), 4)
        self.assertEqual(union_length([]), 0)

    def test_self_time_subtracts_union_of_children(self):
        spans = [
            ("main", 0.0, 10.0, None),
            ("a", 1.0, 4.0, 0),
            ("b", 3.0, 6.0, 0),      # overlaps a: union 1..6 is 5, not 6
            ("a.inner", 2.0, 3.0, 1),
        ]
        selfs = span_self_times(spans)
        self.assertAlmostEqual(selfs[0], 5.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_children_are_clipped_to_the_parent(self):
        selfs = span_self_times([("p", 0.0, 2.0, None), ("c", 1.0, 5.0, 0)])
        self.assertAlmostEqual(selfs[0], 1.0)


class FailureTallyTest(unittest.TestCase):
    def test_share_counts_failures_against_attempts(self):
        t = FailureTally()
        t.record(True)
        t.record(False, "bad row")
        t.record(True, weight=6)
        t.record(False, "wrong row count", weight=2)
        self.assertEqual((t.attempted, t.failed), (10, 3))
        self.assertAlmostEqual(t.share, 0.3)
        self.assertEqual(t.reasons, {"bad row": 1, "wrong row count": 2})

    def test_no_attempts_is_an_error_not_zero(self):
        with self.assertRaises(ValueError):
            FailureTally().share


if __name__ == "__main__":
    unittest.main()
