#!/usr/bin/env python3
"""Unit tests for bench_gate.py: direction inference and the per-file
comparison.

Run directly (CI does): ``python3 scripts/test_bench_gate.py``

The gate's judgment call is whether a metric key means "lower is better"
or "higher is better"; a wrong inference silently inverts a regression
check. These tests pin the marker table, in particular the
histogram-quantile markers (``_p50``/``_p99``/``_p999``) and the rule
that lower-is-better markers win when both kinds match. They also pin
what ``compare`` does with a key that left a BENCH file (retired, never
a failure) and with one that regressed past the tolerance (a failure).
"""

import unittest

from bench_gate import compare, direction


class DirectionInference(unittest.TestCase):
    def test_quantile_keys_are_lower_is_better(self):
        for key in (
            "obs_traced_submit_e2e_p99",
            "open_loop_assign_p50",
            "flush_sync_p999",
            "flush_sync_P99",  # case-insensitive
        ):
            self.assertEqual(direction(key), "lower", key)

    def test_unit_suffix_keys_are_lower_is_better(self):
        for key in (
            "obs_hist_record_ns",
            "replication_single_event_lag_us",
            "fence_window_ms",
            "wire_bytes_per_event",
        ):
            self.assertEqual(direction(key), "lower", key)

    def test_throughput_keys_are_higher_is_better(self):
        for key in (
            "obs_off_tput_answers_per_s",
            "pipeline_tput",
            "recovery_speedup",
            "ti_accuracy",
            "scaling_8_shards_x",
        ):
            self.assertEqual(direction(key), "higher", key)

    def test_lower_wins_when_both_kinds_of_marker_match(self):
        # An overhead multiplier is a cost even though it ends in `_x`,
        # and a latency quantile stays a cost when the key also names a
        # throughput-ish word.
        self.assertEqual(direction("obs_on_overhead_x"), "lower")
        self.assertEqual(direction("tput_latency_p99"), "lower")

    def test_unmarked_keys_have_no_direction(self):
        for key in ("events_replayed", "campaigns", "p99"):  # bare p99: no `_p99`
            self.assertIsNone(direction(key), key)

    def test_count_keys_are_not_direction_inferred(self):
        # `_count` keys are informational in main(); direction() itself
        # must not claim them either way unless another marker matches.
        self.assertIsNone(direction("migration_forwarded_count"))


def statuses(rows):
    return {key: status for status, key, _ in rows}


class Compare(unittest.TestCase):
    def test_a_key_only_in_the_baseline_is_retired_not_failed(self):
        base = {"openloop_pull_w100_assign_p99_ms": 1.11, "openloop_push_w100_assign_p99_ms": 1.18}
        current = {"openloop_pull_w100_assign_p99_ms": 1.11}
        got = statuses(compare(base, current, 0.20))
        self.assertEqual(got["openloop_push_w100_assign_p99_ms"], "retired")
        self.assertEqual(got["openloop_pull_w100_assign_p99_ms"], "ok")
        self.assertNotIn("regressed", got.values())

    def test_a_key_that_regresses_past_tolerance_fails(self):
        base = {"assign_p99_ms": 1.0, "tput_answers_per_s": 1000.0}
        # 30% slower and 30% less throughput: both past a 20% tolerance.
        current = {"assign_p99_ms": 1.3, "tput_answers_per_s": 700.0}
        got = statuses(compare(base, current, 0.20))
        self.assertEqual(got, {"assign_p99_ms": "regressed", "tput_answers_per_s": "regressed"})
        # The same moves inside a 40% tolerance pass.
        got = statuses(compare(base, current, 0.40))
        self.assertEqual(got, {"assign_p99_ms": "ok", "tput_answers_per_s": "ok"})

    def test_new_and_count_keys_never_fail(self):
        got = statuses(compare({}, {"fresh_ms": 5.0, "forwarded_count": 3}, 0.20))
        self.assertEqual(got, {"fresh_ms": "warning", "forwarded_count": "info"})


if __name__ == "__main__":
    unittest.main()
