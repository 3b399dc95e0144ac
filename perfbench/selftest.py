"""Self-tests of the benchmark's own arithmetic.

    python3 -m unittest perfbench.selftest      # from the repository root

``run.py`` also runs them at the start of every benchmark run.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
import time
import unittest
from types import SimpleNamespace

from perfbench import loadgen, report, stats
from perfbench.tracing import attribute

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        samples = list(range(1, 101))
        random.Random(3).shuffle(samples)
        q, value = stats.tail(samples)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(q, 90.0)

    def test_smallest_sample_set_with_a_tail(self):
        q, value = stats.tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(q, 100.0 / 11)

    def test_too_few_samples_have_no_tail(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))

    def test_reported_tail_is_the_median_of_slice_tails(self):
        # 600 samples due in order make five slices of 120; a stall
        # that slows the last two slices moves only their tails.
        samples = [(float(i), float(i % 120)) for i in range(600)]
        samples[420:] = [(due, latency + 1000.0)
                         for due, latency in samples[420:]]
        summary = stats.summary_ms(samples)
        self.assertEqual(summary["slices"], 5)
        self.assertEqual(summary["tail"], 109.0)
        self.assertAlmostEqual(summary["tail_q"], 100.0 * 110 / 120)
        self.assertEqual(summary["n"], 600)

    def test_long_phases_cut_into_at_most_ten_slices(self):
        samples = [(float(i), float(i % 240)) for i in range(2400)]
        summary = stats.summary_ms(samples)
        self.assertEqual(summary["slices"], stats.SLICES)
        self.assertEqual(summary["tail"], 229.0)
        self.assertAlmostEqual(summary["tail_q"], 100.0 * 230 / 240)

    def test_few_samples_make_one_tail_slice(self):
        samples = [(float(i), float(i)) for i in range(150)]
        summary = stats.summary_ms(samples)
        self.assertEqual(summary["slices"], 1)
        self.assertEqual(summary["tail"], 139.0)
        # ... but three p50 slices of 50: medians 24.5, 74.5, 124.5.
        self.assertEqual(summary["p50"], 74.5)

    def test_tail_is_a_nearest_rank_percentile(self):
        samples = [float(i) for i in range(250)]
        q, value = stats.tail(samples)
        self.assertEqual(stats.percentile(samples, q), value)


class DueTimeScheduling(unittest.TestCase):
    def test_offsets_are_sorted_seeded_and_exact_in_count(self):
        first = loadgen.poisson_offsets(random.Random(7), 60.0, 2.5)
        again = loadgen.poisson_offsets(random.Random(7), 60.0, 2.5)
        self.assertEqual(first, again)
        self.assertEqual(len(first), 150)
        self.assertEqual(first, sorted(first))
        self.assertTrue(all(0.0 <= offset < 2.5 for offset in first))

    def test_a_stall_counts_against_the_requests_it_delays(self):
        # The first request blocks the loop for 60 ms, as a window's
        # crypto does; the next two were due 10 and 20 ms in.  Their
        # latency runs from the due time, so it includes the stall, and
        # the generator reports itself late.
        stall = 0.06

        async def issue(due):
            sent = time.perf_counter()
            if not issue.calls:
                time.sleep(stall)
            issue.calls += 1
            return loadgen.Outcome(rid=issue.calls, kind="sign",
                                   message=b"", due=due, sent=sent,
                                   done=time.perf_counter())
        issue.calls = 0

        outcomes = asyncio.run(loadgen.run_open([0.0, 0.01, 0.02], issue))
        self.assertEqual(len(outcomes), 3)
        for outcome, due_ms in zip(outcomes[1:], (10.0, 20.0)):
            self.assertGreater(outcome.late_ms, stall * 1000 - due_ms - 5)
            self.assertGreaterEqual(outcome.latency_ms, outcome.late_ms)
        dues = [o.due - outcomes[0].due for o in outcomes]
        for got, want in zip(dues, (0.0, 0.01, 0.02)):
            self.assertAlmostEqual(got, want, places=6)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        # Children [1,4] and [3,6] overlap; [8,12] sticks out of the span.
        self.assertAlmostEqual(
            stats.self_time((0.0, 10.0), [(1, 4), (3, 6), (8, 12)]), 3.0)

    def test_no_children(self):
        self.assertAlmostEqual(stats.self_time((2.0, 5.0), []), 3.0)

    def test_nested_children_do_not_double_count(self):
        self.assertAlmostEqual(
            stats.self_time((0.0, 10.0), [(2, 8), (3, 4), (5, 6)]), 4.0)


class TracingOverhead(unittest.TestCase):
    def test_overhead_is_traced_minus_untraced(self):
        self.assertAlmostEqual(stats.overhead(12.5, 10.0), 2.5)

    def test_overhead_inside_noise_may_read_negative(self):
        self.assertAlmostEqual(stats.overhead(9.5, 10.0), -0.5)


class Unattributed(unittest.TestCase):
    def test_deepest_active_span_takes_each_instant(self):
        shares = attribute(0.0, 10.0, [(1, 4, 1, "a"), (2, 3, 2, "b"),
                                       (6, 8, 1, "a")])
        self.assertAlmostEqual(shares["a"], 4.0)
        self.assertAlmostEqual(shares["b"], 1.0)
        self.assertAlmostEqual(shares[None], 5.0)

    def test_ledger_splits_request_time_and_sums_to_one(self):
        # Due at 0, sent at 1 (1 late), done at 10.  The service span
        # covers [2, 9], a share-sign span for this message [3, 5], and
        # a span serving another message must not count.
        outcome = loadgen.Outcome(rid=1, kind="sign", message=b"m", due=0.0,
                                  sent=1.0, done=10.0)
        run = SimpleNamespace(outcomes=[outcome])
        spans = [
            (1, "SigningService.sign", 2.0, 9.0, None, (b"m",), 0),
            (2, "LJYThresholdScheme.share_sign", 3.0, 5.0, 1, (b"m",), 0),
            (3, "LJYThresholdScheme.share_sign", 0.5, 9.5, None,
             (b"other",), 0),
        ]
        layer_of = {"SigningService.sign": "service.frontend",
                    "LJYThresholdScheme.share_sign": "core.scheme"}
        shares = report.ledger(run, report._Index(run, spans, layer_of))
        self.assertAlmostEqual(shares["loadgen.late"], 0.1)
        self.assertAlmostEqual(shares["service.frontend"], 0.5)
        self.assertAlmostEqual(shares["core.scheme"], 0.2)
        self.assertAlmostEqual(shares["unattributed"], 0.2)
        self.assertAlmostEqual(sum(shares.values()), 1.0)


class Definition(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_the_code_reports(self):
        path = ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        definition = json.loads(path.read_text())
        for key, table in (("end_to_end", report.END_TO_END),
                           ("per_layer", report.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"])
                      for m in definition[key]}
            self.assertEqual(listed, table)


if __name__ == "__main__":
    unittest.main()
