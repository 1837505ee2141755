"""Tests of the benchmark's own arithmetic (perfbench/analysis.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(analysis.percentile(values, 0.5), 50)
        self.assertEqual(analysis.percentile(values, 0.9), 90)

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(analysis.percentile(list(range(1, 101)), 0.9), 90)  # 10 beyond
        with self.assertRaises(ValueError):
            analysis.percentile(list(range(1, 100)), 0.9)  # rank 90 of 99: 9 beyond

    def test_median_needs_twenty_samples(self):
        self.assertEqual(analysis.percentile(list(range(1, 21)), 0.5), 10)
        with self.assertRaises(ValueError):
            analysis.percentile(list(range(1, 20)), 0.5)

    def test_rejects_quantile_outside_open_interval(self):
        with self.assertRaises(ValueError):
            analysis.percentile(list(range(1000)), 1.0)


class KeptBlocksTest(unittest.TestCase):
    SECTION = {
        "latency_us": [1, 2, 3, 4, 5, 6, 7],  # the last two complete in the drain
        "blocks": [[0.0, 1.0, 0.0, True, 0, 2],
                   [1.0, 2.1, 0.2, False, 2, 2],  # steal over the limit: dropped
                   [2.1, 3.0, 0.01, True, 4, 1]],
    }

    def test_drops_stolen_blocks_and_the_drain(self):
        latency, length = analysis.kept(self.SECTION, 2.0)
        self.assertEqual(latency, [1, 2, 5])
        self.assertAlmostEqual(length, 1.9)

    def test_tops_up_with_least_stolen_blocks_on_a_busy_host(self):
        section = {"latency_us": [1, 2, 3, 4, 5, 6],
                   "blocks": [[0.0, 1.0, 0.3, False, 0, 2],
                              [1.0, 2.0, 0.15, False, 2, 2],
                              [2.0, 3.0, 0.0, True, 4, 1]]}
        # 1 s kept of the 2 s needed for half of 4 s: the 0.15 block is
        # taken back, the 0.3 block and the drain sample stay out.
        latency, length = analysis.kept(section, 4.0)
        self.assertEqual(sorted(latency), [3, 4, 5])
        self.assertAlmostEqual(length, 2.0)
        # Half of 6 s asks for every block.
        latency, length = analysis.kept(section, 6.0)
        self.assertEqual(sorted(latency), [1, 2, 3, 4, 5])
        self.assertAlmostEqual(length, 3.0)

    def test_host_record(self):
        self.assertEqual(analysis.host(self.SECTION),
                         {"blocks": 3, "dropped": 1, "max_steal_frac": 0.2})


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        # Parent 0-100; children 10-40 and 30-60 overlap on 30-40.
        self.assertEqual(analysis.self_time((0, 100), [(10, 40), (30, 60)]), 50)

    def test_nested_and_disjoint_children(self):
        children = [(10, 50), (20, 30), (70, 80)]  # 20-30 inside 10-50
        self.assertEqual(analysis.self_time((0, 100), children), 50)

    def test_children_clipped_to_parent(self):
        self.assertEqual(analysis.self_time((0, 100), [(-20, 10), (90, 130)]), 80)
        self.assertEqual(analysis.self_time((0, 100), [(150, 200)]), 100)

    def test_no_children(self):
        self.assertEqual(analysis.self_time((5, 25), []), 20)


class WaveShapeTest(unittest.TestCase):
    def test_busy_frac(self):
        # Two workers over a 100-unit wall: 60 + 40 + 50 busy of 200.
        spans = [(0, 60), (10, 50), (50, 100)]
        self.assertAlmostEqual(analysis.busy_frac(spans, 100, 2), 0.75)

    def test_fanout_and_imbalance(self):
        waves = {0: 100, 1: 500}
        spans = [(0, 110, 200), (0, 120, 260),  # wave 0: 10 fan-out, 60 imbalance
                 (1, 505, 600)]                 # wave 1: one span, no imbalance
        fanout, imbalance = analysis.wave_shape(waves, spans)
        self.assertEqual(sorted(fanout), [5, 10])
        self.assertEqual(sorted(imbalance), [0, 60])


if __name__ == "__main__":
    unittest.main()
