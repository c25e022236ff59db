"""Tests of the benchmark's own arithmetic (perfbench/analysis.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import analysis


def span(sid, t0, t1, parent=0, name="x", pass_=0, tag="", **attrs):
    return {"id": sid, "parent": parent, "name": name, "pass": pass_,
            "t0": t0, "t1": t1, "cpu0": -1.0, "cpu1": -1.0, "tag": tag,
            "attrs": attrs}


class SelfTimeTest(unittest.TestCase):
    def test_no_children_is_whole_span(self):
        self.assertAlmostEqual(analysis.self_time(span(1, 0.0, 2.0), []), 2.0)

    def test_nested_children_are_subtracted(self):
        parent = span(1, 0.0, 10.0)
        kids = [span(2, 1.0, 3.0, 1), span(3, 5.0, 6.0, 1)]
        self.assertAlmostEqual(analysis.self_time(parent, kids), 7.0)

    def test_overlapping_children_count_once(self):
        # Parallel children (e.g. memsim points on several threads).
        parent = span(1, 0.0, 10.0)
        kids = [span(2, 1.0, 4.0, 1), span(3, 2.0, 5.0, 1),
                span(4, 3.0, 4.5, 1)]
        self.assertAlmostEqual(analysis.self_time(parent, kids), 6.0)

    def test_children_are_clipped_to_the_parent(self):
        parent = span(1, 2.0, 6.0)
        kids = [span(2, 0.0, 3.0, 1), span(3, 5.0, 9.0, 1)]
        self.assertAlmostEqual(analysis.self_time(parent, kids), 2.0)

    def test_touching_children(self):
        parent = span(1, 0.0, 4.0)
        kids = [span(2, 0.0, 1.0, 1), span(3, 1.0, 2.0, 1)]
        self.assertAlmostEqual(analysis.self_time(parent, kids), 2.0)


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        value, at = analysis.tail_percentile(values, 99)
        self.assertEqual(value, 990)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(at, 99.0)

    def test_p99_is_lowered_when_samples_are_few(self):
        values = list(range(1, 201))
        value, at = analysis.tail_percentile(values, 99)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertEqual(value, 190)
        self.assertAlmostEqual(at, 95.0)

    def test_every_reported_percentile_has_ten_beyond(self):
        for n in range(11, 400, 7):
            values = [float(i) for i in range(n)]
            for p in (50, 90, 99, 99.9):
                value, _ = analysis.tail_percentile(values, p)
                self.assertGreaterEqual(
                    sum(1 for v in values if v > value), 10, (n, p))

    def test_too_few_samples_give_no_percentile(self):
        self.assertEqual(analysis.tail_percentile(list(range(10)), 99),
                         (None, None))

    def test_median(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertEqual(analysis.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(analysis.median([]), 0.0)


class FailureTest(unittest.TestCase):
    def requests(self):
        return [
            {"verb": "simulate", "ok": True, "cached": False, "error": "",
             "ms": 1.0, "pass": 0},
            {"verb": "predict", "ok": False, "cached": False,
             "error": "overloaded", "ms": 0.1, "pass": 0},
            {"verb": "recommend", "ok": False, "cached": False,
             "error": "timeout", "ms": 5.0, "pass": 0},
            {"verb": "stats", "ok": True, "cached": False, "error": "",
             "ms": 0.2, "pass": 0},
        ]

    def test_refused_and_failed_requests_are_failures(self):
        attempted, failed = analysis.failure_counts(self.requests())
        self.assertEqual((attempted, failed), (4, 2))
        self.assertAlmostEqual(analysis.failed_frac(attempted, failed), 0.5)

    def test_failed_requests_are_slowest_in_percentiles(self):
        samples = analysis.latency_samples(self.requests())
        self.assertEqual(sorted(samples)[-2:], [math.inf, math.inf])

    def test_run_counts_use_requests_when_there_are_any(self):
        rows = [[r["verb"], r["ok"], r["cached"], r["error"], r["ms"],
                 r["pass"]] for r in self.requests()]
        doc = {"attempted": 0, "failed": 0, "requests": rows}
        self.assertEqual(analysis.run_counts(doc), (4, 2))
        doc = {"attempted": 416, "failed": 3, "requests": []}
        self.assertEqual(analysis.run_counts(doc), (416, 3))

    def test_failed_frac_of_nothing_is_zero(self):
        self.assertEqual(analysis.failed_frac(0, 0), 0.0)


class RequestClassTest(unittest.TestCase):
    def test_simulate_splits_on_cached_flag(self):
        self.assertEqual(analysis.request_class("simulate", True),
                         "simulate_hit")
        self.assertEqual(analysis.request_class("simulate", False),
                         "simulate_miss")

    def test_other_verbs_keep_their_name(self):
        for verb in ("predict", "recommend", "stats"):
            self.assertEqual(analysis.request_class(verb, False), verb)
            self.assertEqual(analysis.request_class(verb, True), verb)


class PerLayerTest(unittest.TestCase):
    def doc(self):
        spans = [
            span(1, 0.0, 10.0, name="pass", pass_=0),
            span(2, 1.0, 9.0, parent=1, name="sweep", pass_=0, threads=2.0),
            span(3, 2.0, 6.0, parent=2, name="memsim.point", pass_=0,
                 tag="dram", events=100.0),
            span(4, 3.0, 8.0, parent=2, name="memsim.point", pass_=0,
                 tag="hybrid", events=100.0),
        ]
        spans[1]["cpu0"], spans[1]["cpu1"] = 0.0, 12.0
        requests = [["simulate", True, True, "", 1.0, 0],
                    ["simulate", True, False, "", 3.0, 0],
                    ["stats", False, False, "overloaded", 0.5, 1]]
        return {"passes": [{"wall_s": 10.0, "cpu_s": 1.0, "traced": True},
                           {"wall_s": 8.0, "cpu_s": 1.0, "traced": False}],
                "setup_s": [1.0], "peak_rss_mb": 1.0, "attempted": 3,
                "failed": 1, "values": {}, "requests": requests,
                "spans": spans, "host": {"calibration_s": [0.1]}}

    def test_sweep_and_memsim_figures(self):
        m = analysis.per_layer(self.doc())
        self.assertAlmostEqual(m["sweep.wall_s"], 8.0)
        self.assertAlmostEqual(m["sweep.parallelism"], 1.5)
        self.assertAlmostEqual(m["sweep.first_point_s"], 1.0)
        self.assertAlmostEqual(m["sweep.idle_frac"], 1.0 - 9.0 / 16.0)
        self.assertAlmostEqual(m["sweep.self_s"], 2.0)
        self.assertAlmostEqual(m["memsim.busy_s"], 9.0)
        self.assertAlmostEqual(m["memsim.hybrid_share"], 5.0 / 9.0)
        self.assertAlmostEqual(m["memsim.events_per_s"], 200.0 / 9.0)
        self.assertAlmostEqual(m["pass.self_s"], 2.0)
        self.assertAlmostEqual(m["trace_overhead_frac"], 0.25)

    def test_only_traced_passes_feed_service_figures(self):
        m = analysis.per_layer(self.doc())
        self.assertEqual(m["service.simulate_hit.count"], 1)
        self.assertEqual(m["service.simulate_miss.count"], 1)
        self.assertEqual(m["service.stats.count"], 0)

    def test_unused_layers_read_zero(self):
        m = analysis.per_layer(self.doc())
        self.assertEqual(m["explorer.rounds"], 0.0)
        self.assertEqual(m["surrogate.train_s"], 0.0)


class ExpectedTest(unittest.TestCase):
    def test_r2_within_tolerance_passes(self):
        checks = analysis.compare_expected(
            {"r2.power_w": "0.995", "sweep_digest": "ab"},
            {"r2.power_w": "0.99", "sweep_digest": "ab"}, 0.01)
        self.assertTrue(all(c["ok"] for c in checks))

    def test_r2_outside_tolerance_and_digest_change_fail(self):
        checks = analysis.compare_expected(
            {"r2.power_w": "0.97", "sweep_digest": "ac"},
            {"r2.power_w": "0.99", "sweep_digest": "ab"}, 0.01)
        self.assertFalse(any(c["ok"] for c in checks))


if __name__ == "__main__":
    unittest.main()
