"""Tests of the benchmark's statistics helper (perfstats.py).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import perfstats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_empty_list_has_no_samples(self):
        s = perfstats.percentile([], 95)
        self.assertEqual((s.value, s.n, s.beyond), (0.0, 0, 0))

    def test_single_sample(self):
        s = perfstats.percentile([7.5], 95)
        self.assertEqual((s.value, s.n, s.beyond), (7.5, 1, 0))

    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(perfstats.median([3, 1, 2]).value, 2)
        self.assertEqual(perfstats.median([4, 1, 3, 2]).value, 2.5)

    def test_median_matches_statistics_module(self):
        values = [0.3, 9.1, 4.4, 4.4, 2.0, 7.7, 1.5]
        self.assertAlmostEqual(perfstats.median(values).value,
                               statistics.median(values))

    def test_interpolates_between_ranks(self):
        # h = (5 - 1) * 0.9 = 3.6: 60% of the way from 40 to 50.
        s = perfstats.percentile([10, 20, 30, 40, 50], 90)
        self.assertAlmostEqual(s.value, 46.0)
        self.assertEqual(s.beyond, 1)

    def test_beyond_counts_samples_above_the_value(self):
        values = list(range(1, 201))  # 200 samples
        s = perfstats.percentile(values, 95)
        self.assertEqual(s.n, 200)
        self.assertAlmostEqual(s.value, 190.05)
        self.assertEqual(s.beyond, 10)

    def test_ties_are_not_beyond(self):
        s = perfstats.percentile([5, 5, 5, 5], 95)
        self.assertEqual((s.value, s.beyond), (5, 0))

    def test_extremes(self):
        values = [4, 8, 1, 9]
        self.assertEqual(perfstats.percentile(values, 0).value, 1)
        self.assertEqual(perfstats.percentile(values, 100).value, 9)
        self.assertEqual(perfstats.percentile(values, 100).beyond, 0)

    def test_rejects_out_of_range(self):
        with self.assertRaises(ValueError):
            perfstats.percentile([1, 2], 101)
        with self.assertRaises(ValueError):
            perfstats.percentile([1, 2], -1)

    def test_order_does_not_matter(self):
        a = perfstats.percentile([9, 1, 5, 3, 7], 75)
        b = perfstats.percentile([1, 3, 5, 7, 9], 75)
        self.assertEqual((a.value, a.n, a.beyond), (b.value, b.n, b.beyond))


class MeanTest(unittest.TestCase):
    def test_mean(self):
        s = perfstats.mean([1, 2, 3, 6])
        self.assertEqual((s.value, s.n), (3.0, 4))

    def test_empty_mean(self):
        self.assertEqual(perfstats.mean([]).n, 0)


if __name__ == "__main__":
    unittest.main()
