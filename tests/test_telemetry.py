"""Tests for :mod:`repro.telemetry` and its instrumentation of every layer.

The two load-bearing guarantees:

* **zero interference** — canonical sweep reports, golden BO traces and
  on-disk store bytes are byte-identical with tracing off, on, and on with
  JSONL export, across every execution backend and worker count;
* **honest accounting** — worker-side spans and counters ship back with
  task results and merge under the submitting span; degraded runs (pool
  fallbacks) surface as counters instead of only a transient warning.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.data import SyntheticMNIST, train_test_split
from repro.evaluation.sweep import DriftSweepEngine
from repro.execution import cells as cells_module
from repro.execution.cells import run_cells
from repro.fault.drift import LogNormalDrift
from repro.models import build_mlp
from repro.scenarios import FaultSpec, ResultStore, ScenarioRunner, ScenarioSpec
from repro.scenarios.cli import main as cli_main
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    ProgressReporter,
    Telemetry,
    Tracer,
    current,
    format_trace_summary,
    read_trace_jsonl,
    span_breakdown,
    summarize_trace,
    using,
    write_trace_jsonl,
)
from repro.telemetry.tracer import _NULL_SPAN, NULL_TRACER
from repro.utils.config import ExperimentConfig


# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_and_gauge_basics(self):
        registry = MetricsRegistry()
        registry.counter("evals").add()
        registry.counter("evals").add(4)
        registry.gauge("workers").set(3)
        assert registry.value("evals") == 5
        assert registry.value("workers") == 3
        assert registry.value("missing", default=-1) == -1
        assert len(registry) == 2

    def test_same_object_on_reuse(self):
        registry = MetricsRegistry()
        assert registry.counter("n") is registry.counter("n")
        assert registry.gauge("g") is registry.gauge("g")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError, match="already a counter"):
            registry.gauge("n")
        registry.gauge("g")
        with pytest.raises(ValueError, match="already a gauge"):
            registry.counter("g")

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("n").add(7)
        registry.gauge("g").set(2)
        registry.reset()
        assert registry.value("n") == 0 and registry.value("g") == 0

    def test_merge_sums_counters_keeps_max_gauge(self):
        parent = MetricsRegistry()
        parent.counter("n").add(2)
        parent.gauge("workers").set(4)
        worker = MetricsRegistry()
        worker.counter("n").add(3)
        worker.counter("only_worker").add(1)
        worker.gauge("workers").set(2)
        parent.merge(worker.snapshot())
        assert parent.value("n") == 5
        assert parent.value("only_worker") == 1
        assert parent.value("workers") == 4  # max, not last-write
        assert parent.as_dict() == {"n": 5, "only_worker": 1, "workers": 4}


# --------------------------------------------------------------------------- #
class TestTracer:
    def test_nesting_mirrors_call_structure(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner"):
                assert tracer.current_span().name == "inner"
            with tracer.span("inner"):
                pass
        assert tracer.current_span() is None
        assert [root.name for root in tracer.roots] == ["outer"]
        assert [child.name for child in outer.children] == ["inner", "inner"]
        exported = tracer.export()[0]
        assert exported["attrs"] == {"kind": "test"}
        assert exported["seconds"] >= sum(
            child["seconds"] for child in exported["children"])

    def test_set_attaches_mid_span_attrs(self):
        tracer = Tracer()
        with tracer.span("chunk", trials=8) as span:
            span.set(unique=5)
        assert span.attrs == {"trials": 8, "unique": 5}

    def test_exception_unwinding_pops_tolerantly(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current_span() is None

    def test_graft_rebases_and_tags_remote(self):
        worker = Tracer()
        with worker.span("task", trials=2):
            with worker.span("trial"):
                pass
        parent = Tracer()
        with parent.span("backend") as span:
            parent.graft(worker.export(), under=span)
        adopted = span.children[0]
        assert adopted["attrs"]["remote"] is True
        assert adopted["attrs"]["trials"] == 2
        # Rebase: worker offsets shift onto the submitting span's start.
        assert adopted["start"] >= span.start
        assert adopted["children"][0]["name"] == "trial"
        # Durations are never rewritten by the graft.
        assert adopted["seconds"] == worker.export()[0]["seconds"]

    def test_null_tracer_is_shared_and_inert(self):
        assert NULL_TRACER.span("anything", k=1) is _NULL_SPAN
        assert NULL_TRACER.span("other") is _NULL_SPAN
        with NULL_TRACER.span("x") as span:
            span.set(irrelevant=True)
        assert NULL_TRACER.export() == []
        assert NULL_TRACER.current_span() is None
        assert not NULL_TRACER.enabled


# --------------------------------------------------------------------------- #
class TestSession:
    def test_default_is_null(self):
        assert current() is NULL_TELEMETRY
        assert not current().enabled
        snap = NULL_TELEMETRY.snapshot()
        assert snap == {"spans": [], "metrics": {"counters": {}, "gauges": {}}}

    def test_using_pushes_and_pops(self):
        telemetry = Telemetry()
        with using(telemetry):
            assert current() is telemetry
            inner = Telemetry()
            with using(inner):
                assert current() is inner
            assert current() is telemetry
        assert current() is NULL_TELEMETRY

    def test_using_pops_on_exception(self):
        with pytest.raises(RuntimeError):
            with using(Telemetry()):
                raise RuntimeError("boom")
        assert current() is NULL_TELEMETRY

    def test_gauge_keeps_max(self):
        telemetry = Telemetry()
        telemetry.gauge("workers", 4)
        telemetry.gauge("workers", 2)
        assert telemetry.metrics.value("workers") == 4

    def test_absorb_none_is_noop(self):
        telemetry = Telemetry()
        telemetry.absorb(None)
        telemetry.absorb({})
        assert telemetry.snapshot()["spans"] == []

    def test_absorb_merges_worker_snapshot(self):
        worker = Telemetry()
        with worker.span("task"):
            worker.add("evaluations_total", 3)
        parent = Telemetry()
        with parent.span("backend") as span:
            parent.absorb(worker.snapshot(), under=span)
        snapshot = parent.snapshot()
        assert snapshot["metrics"]["counters"]["evaluations_total"] == 3
        grafted = snapshot["spans"][0]["children"][0]
        assert grafted["name"] == "task" and grafted["attrs"]["remote"]


# --------------------------------------------------------------------------- #
class TestExport:
    def _snapshot(self):
        telemetry = Telemetry()
        with telemetry.span("sweep", grid=2):
            with telemetry.span("sigma", sigma=0.0):
                with telemetry.span("chunk", trials=3):
                    pass
            with telemetry.span("sigma", sigma=0.4):
                pass
        telemetry.add("evaluations_total", 4)
        telemetry.add("cache_hits_total", 2)
        telemetry.add("pool_fallbacks")
        telemetry.gauge("workers", 2)
        return telemetry.snapshot()

    def test_jsonl_roundtrip(self, tmp_path):
        snapshot = self._snapshot()
        path = write_trace_jsonl(snapshot, tmp_path / "trace.jsonl")
        assert read_trace_jsonl(path) == snapshot
        rows = [json.loads(line)
                for line in path.read_text().strip().splitlines()]
        assert rows[0]["type"] == "span" and rows[0]["parent"] is None
        assert {row["type"] for row in rows} == {"span", "metrics"}

    def test_span_breakdown_aggregates_by_name(self):
        snapshot = self._snapshot()
        table = span_breakdown(snapshot["spans"][0])
        assert table["sigma"]["count"] == 2
        assert table["chunk"]["count"] == 1
        assert set(table) == {"sweep", "sigma", "chunk"}

    def test_summarize_counts_and_rates(self, tmp_path):
        snapshot = self._snapshot()
        summary = summarize_trace(snapshot)
        assert summary["span_count"] == 4
        assert summary["cache_hit_rate"] == pytest.approx(2 / 6)
        by_name = {row["name"]: row for row in summary["spans"]}
        assert by_name["sigma"]["count"] == 2
        # self time can never exceed cumulative time.
        for row in summary["spans"]:
            assert 0.0 <= row["self_seconds"] <= row["seconds"] + 1e-9
        # Path input produces the same report as the dict input.
        path = write_trace_jsonl(snapshot, tmp_path / "trace.jsonl")
        assert summarize_trace(path) == summary

    def test_format_surfaces_degraded_counters(self):
        text = format_trace_summary(summarize_trace(self._snapshot()))
        assert "DEGRADED" in text and "pool_fallbacks = 1" in text
        assert "cache hit rate" in text

    def test_summarize_worker_busy_from_remote_spans(self):
        worker = Telemetry()
        with worker.span("task"):
            pass
        parent = Telemetry()
        with parent.span("backend") as span:
            parent.absorb(worker.snapshot(), under=span)
        parent.gauge("workers", 2)
        summary = summarize_trace(parent.snapshot())
        task_seconds = [row["seconds"] for row in summary["spans"]
                        if row["name"] == "task"][0]
        assert summary["worker_busy_seconds"] == pytest.approx(task_seconds)


# --------------------------------------------------------------------------- #
class TestProgressReporter:
    def test_counts_percentage_and_eta(self):
        lines = []
        reporter = ProgressReporter(4, emit=lines.append)
        line = reporter.advance(note="cell-a")
        assert line.startswith("[1/4] 25% cells")
        assert "eta" in line and "cell-a" in line
        reporter.advance(3)
        assert lines[-1].startswith("[4/4] 100%") and "eta" not in lines[-1]

    def test_unknown_total_counts_without_percentage(self):
        reporter = ProgressReporter(0)
        line = reporter.advance()
        assert line.startswith("[1] cells") and "%" not in line


# --------------------------------------------------------------------------- #
# Determinism: tracing must never touch canonical output.
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sweep_inputs():
    dataset = SyntheticMNIST(n_samples=120, image_size=16, rng=7)
    _, test_set = train_test_split(dataset, test_fraction=0.5, rng=7)
    return test_set


def _run_sweep(test_set, backend, workers, mode, tmp_path=None):
    model = build_mlp(256, depth=2, width=16, num_classes=10, rng=5)
    engine = DriftSweepEngine(model, test_set, trials=3, workers=workers,
                              backend=backend, trial_batch=2,
                              rng=np.random.default_rng(11),
                              drift_factory=LogNormalDrift)
    if mode == "off":
        return engine.run((0.0, 0.4), label="t"), None
    telemetry = Telemetry()
    with using(telemetry):
        report = engine.run((0.0, 0.4), label="t")
    snapshot = telemetry.snapshot()
    if mode == "export":
        write_trace_jsonl(snapshot, tmp_path / f"{backend}-{workers}.jsonl")
    return report, snapshot


class TestSweepDeterminism:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 0), ("process", 2), ("shared_memory", 2)])
    @pytest.mark.parametrize("mode", ["on", "export"])
    def test_canonical_report_identical_traced_or_not(
            self, sweep_inputs, tmp_path, backend, workers, mode):
        baseline, _ = _run_sweep(sweep_inputs, "serial", 0, "off")
        report, snapshot = _run_sweep(sweep_inputs, backend, workers, mode,
                                      tmp_path)
        assert report.to_json(canonical=True) == \
            baseline.to_json(canonical=True)
        assert snapshot["metrics"]["counters"]["evaluations_total"] > 0
        names = {span["name"]
                 for root in snapshot["spans"]
                 for span in _walk_all(root)}
        assert {"sweep", "sigma", "chunk"} <= names

    @pytest.mark.parametrize("backend", ["process", "shared_memory"])
    def test_worker_spans_ship_back_tagged_remote(self, sweep_inputs, backend):
        _, snapshot = _run_sweep(sweep_inputs, backend, 2, "on")
        remote = [span for root in snapshot["spans"]
                  for span in _walk_all(root)
                  if span["attrs"].get("remote")]
        assert remote and all(span["name"] == "task" for span in remote)
        assert snapshot["metrics"]["counters"]["tasks_shipped"] > 0


def _walk_all(span):
    yield span
    for child in span.get("children", ()):
        yield from _walk_all(child)


class TestSearchDeterminism:
    def _search_json(self, split, traced: bool) -> str:
        from repro.core import (
            BayesFTSearch, DriftMarginalizedObjective, DropoutSearchSpace,
        )
        train_set, test_set = split
        model = build_mlp(256, depth=3, width=16, num_classes=10, rng=5)
        space = DropoutSearchSpace(model)
        objective = DriftMarginalizedObjective(test_set, sigma=0.7,
                                               monte_carlo_samples=2,
                                               metric="accuracy", rng=7)
        search = BayesFTSearch(space, objective, train_set,
                               epochs_per_trial=1, learning_rate=0.1, rng=9,
                               suggest_batch=2, search_workers=2)
        if not traced:
            return search.run(n_trials=4).to_json()
        telemetry = Telemetry()
        with using(telemetry):
            result = search.run(n_trials=4)
        names = {span["name"]
                 for root in telemetry.snapshot()["spans"]
                 for span in _walk_all(root)}
        assert {"bo_batch", "suggest_batch", "search_trial"} <= names
        return result.to_json()

    def test_async_search_bytes_identical_traced_or_not(self):
        dataset = SyntheticMNIST(n_samples=160, image_size=16, rng=3)
        split = train_test_split(dataset, test_fraction=0.25, rng=3)
        assert self._search_json(split, False) == \
            self._search_json(split, True)


# --------------------------------------------------------------------------- #
def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny", model="mlp", dataset="mnist",
        fault=FaultSpec("lognormal"), sigmas=(0.0, 0.8), trials=2, seed=3,
        train=ExperimentConfig(epochs=1, train_samples=64, test_samples=32,
                               batch_size=32, learning_rate=0.1))
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestRunnerIntegration:
    def test_store_report_bytes_identical_traced_or_not(self, tmp_path):
        blobs = {}
        for mode in ("off", "on"):
            store = ResultStore(tmp_path / mode)
            runner = ScenarioRunner(store)
            if mode == "on":
                with using(Telemetry()):
                    runner.run(tiny_spec(), scenario="s")
            else:
                runner.run(tiny_spec(), scenario="s")
            entry = store.path_for(tiny_spec())
            blobs[mode] = {name: (entry / name).read_bytes()
                           for name in ("spec.json", "report.json")}
        assert blobs["off"] == blobs["on"]

    def test_meta_json_gets_volatile_telemetry_summary(self, tmp_path):
        store = ResultStore(tmp_path)
        with using(Telemetry()):
            ScenarioRunner(store).run(tiny_spec(), scenario="s")
        meta = json.loads(
            (store.path_for(tiny_spec()) / "meta.json").read_text())
        assert meta["telemetry"]["cell"]["count"] == 1
        assert "sweep" in meta["telemetry"]

    def test_untraced_meta_has_no_telemetry(self, tmp_path):
        store = ResultStore(tmp_path)
        ScenarioRunner(store).run(tiny_spec(), scenario="s")
        meta = json.loads(
            (store.path_for(tiny_spec()) / "meta.json").read_text())
        assert "telemetry" not in meta

    def test_reporter_advances_per_cell(self, tmp_path):
        lines = []
        runner = ScenarioRunner(ResultStore(tmp_path),
                                reporter=ProgressReporter(2, emit=lines.append))
        runner.run_specs([tiny_spec(), tiny_spec(name="tiny2", seed=4)])
        assert len(lines) == 2 and lines[-1].startswith("[2/2]")


class TestFallbackSurfacing:
    def test_cell_pool_fallback_recorded_as_counter(self, tmp_path, monkeypatch):
        class BrokenPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, *args, **kwargs):
                raise BrokenExecutor("no forks today")

            def shutdown(self, *args, **kwargs):
                pass

        from repro.execution import runtime as runtime_module
        monkeypatch.setattr(runtime_module, "ProcessPoolExecutor", BrokenPool)
        specs = [tiny_spec(), tiny_spec(name="tiny2", seed=4)]
        telemetry = Telemetry()
        # A warm pool leased by an earlier test would never touch the
        # patched constructor; cold, the fan-out builds its own private
        # runtime and pool for this call.
        from repro.execution.runtime import ExecutionRuntime, using_runtime
        with using_runtime(ExecutionRuntime(enabled=False)), using(telemetry):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results, reason = run_cells(specs, str(tmp_path), None,
                                            workers=2)
        assert reason is not None and "BrokenExecutor" in reason
        assert all(result["report"] for result in results)
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters["cell_pool_fallbacks"] == 1

    def test_runner_degraded_records_cell_fallback(self, tmp_path, monkeypatch):
        def broken_run_cells(specs, store_root, scenario, workers,
                             runner_kwargs=None, progress=None):
            results = []
            context = {"store_root": store_root, "scenario": scenario,
                       "runner_kwargs": dict(runner_kwargs or {})}
            for payload in [spec.to_dict() for spec in specs]:
                result = cells_module._execute_cell(context, payload)
                results.append(result)
                if progress is not None:
                    progress(result)
            return results, "BrokenExecutor: no forks today"

        import repro.scenarios.runner as runner_module
        monkeypatch.setattr(runner_module, "run_cells", broken_run_cells)
        runner = ScenarioRunner(ResultStore(tmp_path))
        runner.run_specs([tiny_spec(), tiny_spec(name="tiny2", seed=4)],
                         scenario="s", cell_workers=2)
        assert any(event["layer"] == "cell_fanout"
                   for event in runner.degraded)


# --------------------------------------------------------------------------- #
class TestCli:
    def test_run_trace_progress_and_summarize(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert cli_main(["run", "smoke", "--out", str(tmp_path / "results"),
                         "--trace", str(trace), "--progress"]) == 0
        captured = capsys.readouterr()
        assert trace.is_file()
        assert "trace written to" in captured.out
        assert "[1/1] 100% cells" in captured.err

        assert cli_main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spans, wall" in out and "cache hit rate" in out

        assert cli_main(["trace", "summarize", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["span_count"] > 0
        assert {"cell", "sweep"} <= {row["name"] for row in payload["spans"]}

    def test_run_json_payload_carries_telemetry_and_degraded(
            self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert cli_main(["run", "smoke", "--out", str(tmp_path / "results"),
                         "--trace", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degraded"] == []
        assert payload["telemetry"]["trace"] == str(trace)
        assert payload["telemetry"]["counters"]["evaluations_total"] > 0

    def test_run_without_trace_stays_untraced(self, tmp_path, capsys):
        assert cli_main(["run", "smoke", "--out", str(tmp_path / "results"),
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "telemetry" not in payload
        assert current() is NULL_TELEMETRY
