"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, span self time with nested and sibling
children, failure counting (wrong outputs and refusals), and the tracer's
rebinding of functions imported by name into other modules.
"""

from __future__ import annotations

import sys
import types
import unittest
from pathlib import Path

from stats import Latency, Tally, self_times, tail_percentile
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


class TailPercentileTest(unittest.TestCase):
    def test_p99_when_the_sample_supports_it(self):
        samples = list(range(1, 1001))
        self.assertEqual(tail_percentile(samples), (990, 0.99))

    def test_capped_to_keep_ten_samples_beyond(self):
        samples = list(range(1, 501))  # p99 would leave only 5 beyond
        value, percentile = tail_percentile(samples)
        self.assertEqual(value, 490)
        self.assertEqual(percentile, 0.98)
        self.assertEqual(sum(1 for x in samples if x > value), 10)

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(1000, 0, -1))
        self.assertEqual(tail_percentile(samples), (990, 0.99))

    def test_eleven_samples_is_the_minimum(self):
        self.assertIsNone(tail_percentile(list(range(10))))
        self.assertEqual(tail_percentile(list(range(11))), (0, 1 / 11))

    def test_latency_falls_back_to_max_and_flags_it(self):
        latency = Latency.of([3.0, 1.0, 2.0])
        self.assertEqual((latency.p50, latency.tail), (2.0, 3.0))
        self.assertEqual(latency.tail_percentile, 1.0)
        self.assertEqual(latency.samples, 3)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(self_times([(1, None, 0.0, 4.0)]), {1: 4.0})

    def test_disjoint_siblings_are_both_subtracted(self):
        own = self_times([(1, None, 0.0, 10.0), (2, 1, 1.0, 2.0), (3, 1, 4.0, 6.0)])
        self.assertEqual(own, {1: 7.0, 2: 1.0, 3: 2.0})

    def test_overlapping_siblings_are_subtracted_once(self):
        own = self_times([(1, None, 0.0, 10.0), (2, 1, 1.0, 3.0), (3, 1, 2.0, 5.0)])
        self.assertEqual(own[1], 6.0)

    def test_nested_children_subtract_only_from_their_parent(self):
        spans = [(1, None, 0.0, 10.0), (2, 1, 2.0, 6.0), (3, 2, 3.0, 4.0)]
        self.assertEqual(self_times(spans), {1: 6.0, 2: 3.0, 3: 1.0})

    def test_child_outliving_its_parent_is_clipped(self):
        own = self_times([(1, None, 0.0, 4.0), (2, 1, 3.0, 9.0)])
        self.assertEqual(own[1], 3.0)

    def test_self_times_sum_to_the_root_duration(self):
        spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 4.0), (3, 2, 2.0, 3.0), (4, 1, 5.0, 9.0)]
        self.assertAlmostEqual(sum(self_times(spans).values()), 10.0)


class TallyTest(unittest.TestCase):
    def test_wrong_outputs_refusals_and_errors_all_fail(self):
        tally = Tally()
        for outcome in ("ok", "ok", "wrong", "refused", "error"):
            tally.record(outcome)
        self.assertEqual((tally.attempted, tally.failed), (5, 3))
        self.assertEqual((tally.errors, tally.refused, tally.wrong), (1, 1, 1))
        self.assertAlmostEqual(tally.failed_ratio, 0.6)

    def test_nothing_attempted_is_not_a_failure(self):
        self.assertEqual(Tally().failed_ratio, 0.0)

    def test_unknown_outcome_is_rejected(self):
        with self.assertRaises(ValueError):
            Tally().record("late")

    def test_merge_adds_counts(self):
        left, right = Tally(), Tally()
        left.record("ok")
        right.record("wrong")
        left.merge(right)
        self.assertEqual((left.attempted, left.failed, left.wrong), (2, 1, 1))


@unittest.skipUnless((SRC / "repro").is_dir(), "program sources not found")
class RequestOutcomeTest(unittest.TestCase):
    """How the gateway workloads classify a request's outcome."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(SRC))
        import gateway

        cls.gateway = gateway

    def _loop(self, record):
        client = types.SimpleNamespace(request=lambda *args, **kwargs: record)
        loop = self.gateway._CachedLoop(None, [{"codec": "ptq"}], ['{"x": 1}'])
        return loop.submit(client, 0)

    def test_cache_hit_with_the_expected_result_is_ok(self):
        self.assertEqual(self._loop({"cache_hit": True, "result": {"x": 1}}), "ok")

    def test_miss_or_other_result_is_wrong(self):
        self.assertEqual(self._loop({"cache_hit": False, "result": {"x": 1}}), "wrong")
        self.assertEqual(self._loop({"cache_hit": True, "result": {"x": 2}}), "wrong")

    def test_rejections_and_saturation_are_refusals(self):
        from repro.service.client import ServiceRequestError, ServiceUnavailable

        classify = self.gateway._classify_error
        self.assertEqual(classify(ServiceRequestError(429, None, "u")), "refused")
        self.assertEqual(classify(ServiceUnavailable("u", 4, "HTTP 429", saturated=True)),
                         "refused")
        self.assertEqual(classify(ServiceUnavailable("u", 4, "reset")), "error")
        self.assertEqual(classify(RuntimeError("boom")), "error")


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.home = types.ModuleType("repro_selftest_home")
        self.user = types.ModuleType("repro_selftest_user")

        def work():
            return 42

        self.home.work = work
        self.user.work = work  # as ``from .home import work`` leaves it
        sys.modules.update({"repro_selftest_home": self.home, "repro_selftest_user": self.user})

    def tearDown(self):
        for name in ("repro_selftest_home", "repro_selftest_user"):
            sys.modules.pop(name)

    def test_every_importer_is_rebound_and_restored(self):
        original = self.home.work
        tracer = Tracer()
        tracer.wrap_function("work", "repro_selftest_home", "work")
        self.assertIsNot(self.user.work, original)
        with tracer.span("outer"):
            self.assertEqual(self.user.work(), 42)
            self.home.work()
        tracer.unwrap()
        self.assertIs(self.user.work, original)
        self.assertIs(self.home.work, original)
        self.assertEqual(tracer.calls("work"), 2)
        outer = next(span for span in tracer.spans if span.name == "outer")
        for span in tracer.spans:
            self.assertEqual(span.trace_id, outer.span_id)

    def test_recursive_calls_count_once(self):
        tracer = Tracer()
        with tracer.span("f"):
            with tracer.span("f"):
                pass
        self.assertEqual(tracer.calls("f"), 1)


if __name__ == "__main__":
    unittest.main()
