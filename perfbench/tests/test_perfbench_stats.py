"""Self-tests of the benchmark's own logic: summaries, verdicts, scoring, ledger."""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import ledger  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def runs(values, start_seed=0):
    return [(start_seed + index, value) for index, value in enumerate(values)]


class TestSummaries:
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert stats.summarize(values) == {
            "median": statistics.median(values), "q1": q1, "q3": q3, "n": 6}

    def test_single_sample_has_no_spread(self):
        assert stats.summarize([2.5]) == {"median": 2.5, "q1": 2.5,
                                          "q3": 2.5, "n": 1}


class TestVerdicts:
    def test_pairs_by_seed_in_run_order(self):
        parent = [(1, 10.0), (2, 20.0), (1, 11.0)]
        change = [(2, 21.0), (1, 9.0), (3, 5.0), (1, 8.0)]
        assert stats.pair(parent, change) == [(20.0, 21.0), (10.0, 9.0),
                                              (11.0, 8.0)]

    def test_lower_is_better_clear_gain(self):
        parent = runs([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0])
        change = runs([9.0, 9.1, 8.9, 9.0, 9.2, 8.8, 9.0, 9.1, 8.9, 9.0])
        row = stats.verdict(parent, change, "lower", 0.1)
        assert row["verdict"] == stats.BETTER
        assert (row["wins"], row["pairs"]) == (10, 10)

    def test_higher_is_better_direction(self):
        parent = runs([1.0] * 10)
        change = runs([1.5] * 10)
        assert stats.verdict(parent, change, "higher", 0.1)["verdict"] == stats.BETTER
        assert stats.verdict(change, parent, "higher", 0.1)["verdict"] == stats.WORSE

    def test_ties_count_for_neither_side(self):
        parent = runs([10.0] * 10)
        change = runs([10.0] * 9 + [9.0])
        row = stats.verdict(parent, change, "lower", 0.1)
        assert row["wins"] == 1
        assert row["verdict"] == stats.WITHIN

    def test_nine_of_ten_wins_needed(self):
        parent = runs([10.0] * 10)
        change = runs([9.0] * 8 + [10.5, 10.5])
        assert stats.verdict(parent, change, "lower", 0.1)["verdict"] == stats.WITHIN

    def test_gain_must_beat_parent_spread(self):
        # Every pair wins, but by less than the parent's own quartile spread.
        parent = runs([9.0, 11.0, 9.0, 11.0, 9.0, 11.0, 9.0, 11.0, 9.0, 11.0])
        change = runs([8.9, 10.9, 8.9, 10.9, 8.9, 10.9, 8.9, 10.9, 8.9, 10.9])
        row = stats.verdict(parent, change, "lower", 0.25)
        assert row["wins"] == 10
        assert row["verdict"] == stats.WITHIN

    def test_worse_beyond_bound(self):
        parent = runs([10.0] * 10)
        change = runs([11.5] * 10)
        assert stats.verdict(parent, change, "lower", 0.1)["verdict"] == stats.WORSE

    def test_slightly_worse_is_within_bound(self):
        parent = runs([10.0] * 10)
        change = runs([10.5] * 10)
        assert stats.verdict(parent, change, "lower", 0.1)["verdict"] == stats.WITHIN

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = runs([6.0, 14.0, 6.0, 14.0, 6.0, 14.0, 6.0, 14.0])
        change = runs([7.0, 13.0, 7.0, 15.0, 7.0, 13.0, 7.0, 15.0])
        assert stats.verdict(parent, change, "lower", 0.1)["verdict"] == stats.UNRESOLVED

    def test_wide_spread_but_every_run_better_is_resolved(self):
        parent = runs([8.0, 12.0] * 5)
        change = runs([7.0, 7.5] * 5)
        row = stats.verdict(parent, change, "lower", 0.1)
        assert row["verdict"] != stats.UNRESOLVED

    @pytest.mark.parametrize("change_value", [5.0, 10.5, 20.0])
    def test_one_run_each_is_unresolved(self, change_value):
        row = stats.verdict([(0, 10.0)], [(0, change_value)], "lower", 0.1)
        assert row["pairs"] == 1
        assert row["verdict"] == stats.UNRESOLVED
        assert "1 paired runs" in row["note"]

    def test_nine_pairs_are_unresolved(self):
        row = stats.verdict(runs([10.0] * 9), runs([5.0] * 9), "lower", 0.1)
        assert row["verdict"] == stats.UNRESOLVED
        row = stats.verdict(runs([10.0] * 9), runs([20.0] * 9), "lower", None)
        assert row["verdict"] == stats.UNRESOLVED

    def test_unbounded_metrics(self):
        parent = runs([100.0] * 10)
        assert stats.verdict(parent, runs([50.0] * 10), "lower", None)["verdict"] == stats.BETTER
        assert stats.verdict(parent, runs([150.0] * 10), "lower", None)["verdict"] == stats.WORSE_UNBOUNDED
        assert stats.verdict(parent, runs([100.0] * 10), "lower", None)["verdict"] == stats.UNRESOLVED


class TestScore:
    SWEEP = {"digest": "d", "points": ["a", "b", "c"]}
    PANEL = {"digest": "d", "cells": {"ERM": "1", "BayesFT": "2"},
             "bo_trials": 8}

    def test_matching_sweep(self):
        result = {"ok": True, "digest": "d", "points": ["a", "b", "c"]}
        assert run.score(result, self.SWEEP) == (3, 0)

    def test_sweep_counts_mismatched_points(self):
        result = {"ok": True, "digest": "x", "points": ["a", "z", "z"]}
        assert run.score(result, self.SWEEP) == (3, 2)

    def test_sweep_digest_mismatch_alone_fails_once(self):
        result = {"ok": True, "digest": "x", "points": ["a", "b", "c"]}
        assert run.score(result, self.SWEEP) == (3, 1)

    def test_crash_and_degraded_fail_everything(self):
        assert run.score({"ok": False}, self.SWEEP) == (3, 3)
        degraded = {"ok": True, "digest": "d", "points": ["a", "b", "c"],
                    "degraded": True}
        assert run.score(degraded, self.SWEEP) == (3, 3)

    def test_panel_cells_and_search(self):
        good = {"ok": True, "cells": {"ERM": "1", "BayesFT": "2"}}
        assert run.score(good, self.PANEL) == (10, 0)
        erm_bad = {"ok": True, "cells": {"ERM": "x", "BayesFT": "2"}}
        assert run.score(erm_bad, self.PANEL) == (10, 1)
        search_bad = {"ok": True, "cells": {"ERM": "1", "BayesFT": "x"}}
        assert run.score(search_bad, self.PANEL) == (10, 9)
        degraded = {"ok": True, "cells": dict(good["cells"]),
                    "degraded_cells": ["ERM"]}
        assert run.score(degraded, self.PANEL) == (10, 1)
        assert run.score(None, self.PANEL) == (10, 10)


class TestLedger:
    SNAPSHOT = {
        "spans": [
            {"name": "evaluation.sweep", "start": 0.0, "seconds": 2.0,
             "attrs": {"n_evaluations": 6, "cache_hits": 2, "tasks_shipped": 3,
                       "bytes_shipped": 300, "workers": 2, "fallback": False},
             "children": [
                 {"name": "backend", "start": 0.5, "seconds": 1.0, "attrs": {},
                  "children": [
                      {"name": "task", "start": 0.5, "seconds": 0.8,
                       "attrs": {"remote": True}, "children": [
                           {"name": "nn.conv2d", "start": 0.5, "seconds": 0.4,
                            "attrs": {"flop": 800, "bytes": 100},
                            "children": []},
                           {"name": "trial_batch", "start": 0.9,
                            "seconds": 0.1, "attrs": {"trials": 4},
                            "children": []}]},
                      {"name": "task", "start": 0.5, "seconds": 0.6,
                       "attrs": {"remote": True}, "children": [
                           {"name": "trial", "start": 0.5, "seconds": 0.1,
                            "attrs": {}, "children": []}]}]}]},
            {"name": "data.build", "start": 2.0, "seconds": 0.5, "attrs": {},
             "children": []},
        ],
        "metrics": {"counters": {"cold_starts": 1}, "gauges": {}},
    }

    @pytest.fixture
    def trace(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        ledger.write_spans(self.SNAPSHOT, path, "run-1")
        return path

    def test_span_rows_carry_run_end_and_parent(self, trace):
        from repro.telemetry.export import read_trace_jsonl

        records, counters = ledger._span_rows(trace)
        assert [r["name"] for r in records][:3] == ["evaluation.sweep",
                                                    "backend", "task"]
        assert all(r["run"] == "run-1" for r in records)
        by_id = {r["id"]: r for r in records}
        conv = next(r for r in records if r["name"] == "nn.conv2d")
        assert conv["remote"] and by_id[conv["parent"]]["name"] == "task"
        assert conv["end"] == pytest.approx(0.9)
        assert counters == {"cold_starts": 1}
        # Still the program's trace format: it reads back to the snapshot.
        assert read_trace_jsonl(trace) == self.SNAPSHOT

    def test_layer_metrics(self, trace):
        metrics = ledger.layer_metrics(trace, 4.0, 1.0)
        assert metrics["nn.conv2d.calls"] == 1
        assert metrics["nn.conv2d.flop_per_byte"] == 8.0
        assert metrics["sweep.cache_hit_ratio"] == pytest.approx(2 / 8)
        assert metrics["execution.tasks_shipped"] == 3
        assert metrics["execution.bytes_per_task"] == 100.0
        assert metrics["execution.worker_busy_ratio"] == pytest.approx(1.4 / 2.0)
        assert metrics["execution.pool_cold_starts"] == 1
        assert metrics["inference.trials_per_pass"] == pytest.approx(5 / 2)
        # Covered: import (1.0) + outermost main-process layer spans (2.5).
        assert metrics["trace.coverage"] == pytest.approx(3.5 / 4.0)
        assert metrics["trace.untraced_s"] == pytest.approx(0.5)
        assert metrics["training.samples_per_s"] == 0.0
    def test_kernel_flops_from_operand_shapes(self):
        np = pytest.importorskip("numpy")
        functional = pytest.importorskip("repro.nn.functional")
        from repro.nn.tensor import Tensor

        x = Tensor(np.zeros((2, 3, 8, 8)))
        weight = Tensor(np.zeros((4, 3, 3, 3)))
        out = functional.conv2d(x, weight, None, padding=1)
        attrs = ledger._kernel_attrs(out, x, weight, None, padding=1)
        assert attrs["flop"] == 2 * (2 * 4 * 8 * 8) * (3 * 3 * 3)
        assert attrs["bytes"] == 8 * (2 * 3 * 64 + 4 * 27 + 2 * 4 * 64)

        x = Tensor(np.zeros((5, 7)))
        weight = Tensor(np.zeros((2, 7)))
        out = functional.linear(x, weight)
        assert ledger._kernel_attrs(out, x, weight)["flop"] == 2 * 5 * 2 * 7
