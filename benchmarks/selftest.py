"""Self-test of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 benchmarks/selftest.py

run.py runs it before every measurement.  It needs neither epsim nor numpy.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import stats
import tracing

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]   # 1 .. 100, shuffled below
        values = values[37:] + values[:37]
        self.assertEqual(stats.percentile(values, 90), 90.0)
        self.assertEqual(stats.percentile(values, 50), 50.0)
        self.assertEqual(stats.percentile(values, 100), 100.0)
        self.assertEqual(stats.percentile([5.0, 1.0, 3.0], 90), 5.0)
        self.assertEqual(stats.percentile([7.0], 1), 7.0)

    def test_ten_samples_beyond_p90(self):
        self.assertEqual(stats.min_samples_for(90), 100)
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)

    def test_median_of_even_sample(self):
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_reference_speed_scaling(self):
        lat = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(stats.at_reference_speed(lat, [0.5] * 4, 0.5, 3), lat)
        self.assertEqual(stats.at_reference_speed(lat, [1.0] * 4, 0.5, 3),
                         [0.5, 1.0, 1.5, 2.0])
        # one outlying reference is outvoted by its neighbours
        self.assertEqual(stats.at_reference_speed(lat, [1.0, 9.0, 1.0, 1.0], 1.0, 3),
                         lat)
        with self.assertRaises(ValueError):
            stats.at_reference_speed(lat, [1.0], 1.0, 3)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        #  0 job        [0, 10]
        #  1   a        [1, 6]
        #  2     b      [2, 3]
        #  3     c      [4, 5.5]
        #  4       d    [4.5, 5]
        #  5   e        [7, 9]
        starts = [0.0, 1.0, 2.0, 4.0, 4.5, 7.0]
        ends = [10.0, 6.0, 3.0, 5.5, 5.0, 9.0]
        parents = [-1, 0, 1, 1, 3, 0]
        selfs = tracing.self_times(starts, ends, parents)
        for got, want in zip(selfs, [3.0, 2.5, 1.0, 1.0, 0.5, 2.0]):
            self.assertAlmostEqual(got, want)
        self.assertAlmostEqual(sum(selfs), ends[0] - starts[0])

    def test_overlapping_children_counted_once(self):
        selfs = tracing.self_times([0.0, 1.0, 2.0], [10.0, 4.0, 5.0], [-1, 0, 0])
        self.assertAlmostEqual(selfs[0], 6.0)

    def test_tracer_spans_and_metrics(self):
        tracer = tracing.Tracer()
        job = tracer.begin(tracing.JOB_SPAN)
        inner = tracer.begin("fock.PureState")
        tracer.end(inner)
        tracer.end(job)
        metrics = tracer.metrics(1, 0.0, 0.0)
        self.assertEqual(metrics["fock.PureState.calls"]["value"], 1)
        covered = metrics["layer_coverage"]["value"]
        self.assertGreaterEqual(covered, 0.0)
        self.assertLessEqual(covered, 1.0)


class BenchmarkFile(unittest.TestCase):
    def test_per_layer_names_match_the_traced_report(self):
        declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in declared["per_layer"]],
                         tracing.per_layer_metric_names())


if __name__ == "__main__":
    unittest.main()
