"""Tests for the execution runtime and its one client, ``TaskPool``.

Four contracts, in descending order of importance:

* **Determinism is untouched.**  Canonical sweep reports, golden BO
  traces and store bytes are byte-identical with warm reuse on or off —
  the runtime moves *where* pools and bytes live, never what is
  evaluated.
* **Lifecycle hygiene.**  Leases never cross a fork, broken pools are
  evicted instead of resold, the idle TTL and segment cap actually reap,
  and ``shutdown()`` leaves no live worker processes and no
  ``/dev/shm`` segments behind.
* **One fan-out primitive.**  ``TaskPool`` returns results in submission
  order, lets a task's own error propagate, degrades a dead pool to
  serial with one warning, and — cold — leaves nothing behind.
* **Observability.**  ``pool_reuses`` / ``cold_starts`` /
  ``segment_reuses`` surface through the ambient telemetry session and
  the ``trace summarize`` report, and ``workers_used`` reflects the
  configured cap rather than an executor internal.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import warnings
from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.data import SyntheticMNIST, train_test_split
from repro.evaluation import DriftSweepEngine
from repro.execution import TaskPool, validate_backend
from repro.execution.runtime import (
    ExecutionRuntime, get_runtime, read_payload, using_runtime,
)
from repro.models import build_mlp
from repro.training import train_classifier

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@contextmanager
def fresh_runtime(**kwargs):
    """A private runtime for one test: swapped in globally, shut down after."""
    runtime = ExecutionRuntime(**kwargs)
    try:
        with using_runtime(runtime):
            yield runtime
    finally:
        runtime.shutdown()


@pytest.fixture(scope="module")
def trained():
    dataset = SyntheticMNIST(n_samples=200, image_size=16, rng=13)
    train_set, test_set = train_test_split(dataset, test_fraction=0.3, rng=13)
    model = build_mlp(256, depth=3, width=32, num_classes=10, rng=13)
    train_classifier(model, train_set, epochs=3, learning_rate=0.1, rng=13)
    return model, test_set


def _canonical(trained, **kwargs) -> str:
    model, test_set = trained
    report = DriftSweepEngine(model, test_set, trials=3, rng=99,
                              **kwargs).run((0.0, 0.6, 1.2), label="warm")
    return report.to_json(canonical=True)


# Module-level so a leased pool can ship them to its workers.
def _probe_nested_lease(_):
    from repro.execution.runtime import get_runtime
    return get_runtime().lease_pool(2) is None


def _kill_worker(_):
    os._exit(1)


def _reverse_finish_task(context, payload):
    # The first payload sleeps longest, so workers finish in reverse order.
    time.sleep(context["step"] * (context["count"] - payload))
    return {"index": payload, "pid": os.getpid()}


def _oserror_task(context, payload):
    raise OSError(f"disk full while saving cell {payload}")


def _exit_outside_parent_task(context, payload):
    if os.getpid() != context["parent"]:
        os._exit(1)  # kill the worker: only in-process execution survives
    return payload * 10


def _pid_task(context, payload):
    return os.getpid()


def _wait_dead(pid: int) -> bool:
    for _ in range(100):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def _child_runtime_view(queue):
    runtime = get_runtime()
    queue.put({"stats": runtime.stats(),
               "lease_is_none": runtime.lease_pool(2) is None})


# --------------------------------------------------------------------------- #
class TestRuntimeCore:
    def test_disabled_or_serial_never_leases(self):
        runtime = ExecutionRuntime(enabled=False)
        assert runtime.lease_pool(2) is None
        assert runtime.lease_payload(b"x") is None
        enabled = ExecutionRuntime(enabled=True)
        try:
            assert enabled.lease_pool(0) is None
            assert enabled.lease_pool(1) is None
        finally:
            enabled.shutdown()

    def test_pool_reuse_hands_back_the_same_executor(self):
        with fresh_runtime() as runtime:
            first = runtime.lease_pool(2)
            pool = first.pool
            first.release()
            second = runtime.lease_pool(2)
            assert second.pool is pool
            second.release()
            counters = runtime.stats()["counters"]
            assert counters["cold_starts"] == 1
            assert counters["pool_reuses"] == 1

    def test_release_is_idempotent(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            lease.release()
            lease.release()  # second release must be a no-op
            assert runtime.stats()["pools"] == 1

    def test_payload_published_once_per_digest(self):
        payload = pickle.dumps({"weights": np.arange(6.0)})
        with fresh_runtime() as runtime:
            first = runtime.lease_payload(payload)
            second = runtime.lease_payload(payload)
            assert second.handle == first.handle
            third = runtime.lease_payload(payload + b"!")
            assert third.handle != first.handle
            counters = runtime.stats()["counters"]
            assert counters["segments_published"] == 2
            assert counters["segment_reuses"] == 1
            roundtrip = read_payload(first.handle)
            np.testing.assert_array_equal(roundtrip["weights"], np.arange(6.0))
            for lease in (first, second, third):
                lease.release()

    def test_idle_ttl_reaps_unleased_segments_and_pools(self):
        with fresh_runtime(idle_ttl=0.0) as runtime:
            lease = runtime.lease_payload(b"ephemeral")
            name = lease.handle[1]
            pool_lease = runtime.lease_pool(2)
            lease.release()
            pool_lease.release()
            time.sleep(0.01)
            runtime.reap()
            stats = runtime.stats()
            assert stats["segments"] == 0 and stats["pools"] == 0
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_leased_resources_survive_the_reaper(self):
        with fresh_runtime(idle_ttl=0.0) as runtime:
            lease = runtime.lease_payload(b"pinned")
            pool_lease = runtime.lease_pool(2)
            time.sleep(0.01)
            runtime.reap()
            stats = runtime.stats()
            assert stats["segments"] == 1 and stats["pools"] == 1
            segment = shared_memory.SharedMemory(name=lease.handle[1])
            segment.close()
            lease.release()
            pool_lease.release()

    def test_idle_segment_cap_evicts_oldest_first(self):
        with fresh_runtime(max_idle_segments=1) as runtime:
            leases = [runtime.lease_payload(bytes([i]) * 8) for i in range(3)]
            names = [lease.handle[1] for lease in leases]
            for lease in leases:
                lease.release()
            runtime.reap()
            assert runtime.stats()["segments"] == 1
            for name in names[:2]:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            survivor = shared_memory.SharedMemory(name=names[2])
            survivor.close()

    def test_shutdown_leaves_no_processes_or_segments(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            # Materialise the workers before recording their pids.
            assert lease.pool.submit(max, 1, 2).result() == 2
            pids = [proc.pid for proc in lease.pool._processes.values()]
            assert pids
            payload = runtime.lease_payload(b"to-be-unlinked")
            name = payload.handle[1]
            lease.release()
            payload.release()
            runtime.shutdown()
            for pid in pids:
                for _ in range(100):
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail(f"worker {pid} still alive after shutdown()")
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
            stats = runtime.stats()
            assert stats["pools"] == 0 and stats["segments"] == 0

    def test_release_after_shutdown_is_a_noop(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            segment = runtime.lease_payload(b"gone")
            runtime.shutdown()
            lease.release()
            segment.release()
            assert runtime.stats()["pools"] == 0

    def test_broken_pool_evicted_and_next_lease_is_cold(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            with pytest.raises(Exception):  # BrokenProcessPool
                lease.pool.submit(_kill_worker, None).result()
            lease.release()
            replacement = runtime.lease_pool(2)
            assert not getattr(replacement.pool, "_broken", False)
            assert replacement.pool.submit(max, 3, 4).result() == 4
            replacement.release()
            assert runtime.stats()["counters"]["cold_starts"] == 2

    def test_configure_disabled_shuts_down(self):
        with fresh_runtime() as runtime:
            runtime.lease_pool(2).release()
            runtime.configure(enabled=False)
            assert runtime.stats()["pools"] == 0
            assert runtime.lease_pool(2) is None
            runtime.configure(enabled=True)
            lease = runtime.lease_pool(2)
            assert lease is not None
            lease.release()

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_lease_never_crosses_fork(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            assert lease.pool.submit(max, 1, 2).result() == 2
            context = multiprocessing.get_context("fork")
            queue = context.Queue()
            child = context.Process(target=_child_runtime_view, args=(queue,))
            child.start()
            view = queue.get(timeout=30)
            child.join(timeout=30)
            # The forked child sees an empty runtime (the parent's pools
            # were dropped, not closed) and may not lease at all.
            assert view["stats"]["pools"] == 0
            assert view["stats"]["segments"] == 0
            assert view["lease_is_none"]
            # ... and the parent's pool is still alive and usable.
            assert lease.pool.submit(max, 5, 6).result() == 6
            lease.release()

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_workers_cannot_lease_nested_pools(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            assert lease.pool.submit(_probe_nested_lease, None).result()
            lease.release()


# --------------------------------------------------------------------------- #
class TestWarmColdIdentity:
    """Reports are byte-identical with runtime reuse on or off."""

    @pytest.mark.parametrize("kwargs", [
        dict(backend="process", workers=2),
        # max_chunk_trials=1 would leave every chunk on the single-task
        # in-process fast path (no pool, warm or cold) — chunk at 2 so the
        # pool engages while the chunked schedule is still exercised.
        dict(backend="process", workers=2, max_chunk_trials=2),
        dict(backend="shared_memory", workers=2),  # registry alias
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_sweep_reports_byte_identical(self, trained, kwargs):
        with fresh_runtime(enabled=False):
            cold = _canonical(trained, **kwargs)
        with fresh_runtime() as runtime:
            warm_first = _canonical(trained, **kwargs)   # cold start
            warm_second = _canonical(trained, **kwargs)  # pool + segment reuse
            counters = runtime.stats()["counters"]
            assert counters["pool_reuses"] >= 1
        assert cold == warm_first == warm_second

    def test_cold_runtime_leases_nothing_from_the_global_one(self, trained):
        with fresh_runtime(enabled=False) as runtime:
            cold = _canonical(trained, backend="process", workers=2)
            assert runtime.stats()["pools"] == 0
            assert runtime.stats()["segments"] == 0
        with fresh_runtime():
            assert cold == _canonical(trained, backend="process", workers=2)

    def test_async_bo_golden_trace_byte_identical(self):
        from repro.core import (
            BayesFTSearch, DriftMarginalizedObjective, DropoutSearchSpace,
        )
        dataset = SyntheticMNIST(n_samples=160, image_size=16, rng=3)
        train_set, test_set = train_test_split(dataset, test_fraction=0.25,
                                               rng=3)

        def run_search():
            model = build_mlp(256, depth=3, width=16, num_classes=10, rng=5)
            space = DropoutSearchSpace(model)
            objective = DriftMarginalizedObjective(
                test_set, sigma=0.7, monte_carlo_samples=2,
                metric="accuracy", rng=7)
            search = BayesFTSearch(space, objective, train_set,
                                   epochs_per_trial=1, learning_rate=0.1,
                                   rng=9, suggest_batch=2, search_workers=2)
            return search.run(n_trials=4).to_json()

        with fresh_runtime(enabled=False):
            cold = run_search()
        with fresh_runtime() as runtime:
            warm = run_search()
            again = run_search()
            assert runtime.stats()["counters"]["pool_reuses"] >= 1
        assert cold == warm == again

    def test_cell_fanout_store_bytes_identical(self, tmp_path):
        from repro.scenarios import (
            FaultSpec, ResultStore, ScenarioRunner, ScenarioSpec,
        )
        from repro.utils.config import ExperimentConfig

        def specs():
            train = ExperimentConfig(epochs=1, train_samples=64,
                                     test_samples=32, batch_size=32,
                                     learning_rate=0.1)
            return [ScenarioSpec(name=name, model="mlp", dataset="mnist",
                                 fault=FaultSpec("lognormal"),
                                 sigmas=(0.0, 0.8), trials=2, seed=3,
                                 train=train)
                    for name in ("tiny", "tiny2")]

        blobs = {}
        for mode in ("cold", "warm"):
            with fresh_runtime(enabled=(mode == "warm")):
                store = ResultStore(tmp_path / mode)
                ScenarioRunner(store).run_specs(specs(), scenario="s",
                                                cell_workers=2)
                blobs[mode] = {
                    (spec.name, name): (store.path_for(spec) / name).read_bytes()
                    for spec in specs()
                    for name in ("spec.json", "report.json")}
        assert blobs["cold"] == blobs["warm"]


# --------------------------------------------------------------------------- #
class TestTaskPool:
    """The one fan-out primitive, warm (global runtime) and cold (private)."""

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_results_in_submission_order_when_finishing_reversed(self, warm):
        count = 4
        with fresh_runtime(enabled=warm):
            pool = TaskPool(2)
            try:
                results = pool.map_ordered(_reverse_finish_task,
                                           {"step": 0.15, "count": count},
                                           list(range(count)))
            finally:
                pool.close()
        assert [result["index"] for result in results] == list(range(count))
        assert all(result["pid"] != os.getpid() for result in results)
        assert pool.tasks_shipped == count and not pool.fell_back

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_task_oserror_propagates_and_is_not_breakage(self, warm):
        with fresh_runtime(enabled=warm), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pool = TaskPool(2, name="cell")
            try:
                with pytest.raises(OSError, match="disk full"):
                    pool.map_ordered(_oserror_task, {}, [0, 1, 2])
            finally:
                pool.close()
        assert not pool.fell_back and pool.fallback_reason is None

    def test_dead_worker_falls_back_to_serial_with_one_warning(self):
        with fresh_runtime() as runtime:
            pool = TaskPool(2, name="cell")
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    results = pool.map_ordered(
                        _exit_outside_parent_task, {"parent": os.getpid()},
                        [1, 2, 3])
            finally:
                pool.close()
            # The broken pool was evicted, not kept for the next lease.
            assert runtime.stats()["pools"] == 0
        fallbacks = [w for w in caught if "fell back" in str(w.message)]
        assert len(fallbacks) == 1
        assert results == [10, 20, 30]
        assert pool.fell_back and "Broken" in pool.fallback_reason

    def test_cold_pool_leaves_no_processes_or_segments(self):
        with fresh_runtime(enabled=False) as shared:
            pool = TaskPool(2)
            pids = set(pool.map_ordered(_pid_task, {"payload": b"x" * 64},
                                        list(range(4))))
            private = pool.runtime
            assert private is not shared
            segment = pool._context_lease.handle[1]
            pool.close()
            assert shared.stats()["pools"] == 0
        assert pids and os.getpid() not in pids
        for pid in pids:
            assert _wait_dead(pid), f"worker {pid} still alive after close()"
        assert private.stats()["pools"] == private.stats()["segments"] == 0
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)

    def test_single_payload_and_single_worker_run_in_process(self):
        with fresh_runtime() as runtime:
            for workers, payloads in ((2, [1]), (1, [1, 2])):
                pool = TaskPool(workers)
                assert set(pool.map_ordered(_pid_task, {}, payloads)) == \
                    {os.getpid()}
                pool.close()
            assert runtime.stats()["pools"] == 0


# --------------------------------------------------------------------------- #
class TestObservability:
    def test_warm_counters_reach_trace_summaries(self, trained):
        from repro.telemetry import Telemetry, using
        from repro.telemetry.export import format_trace_summary, summarize_trace
        with fresh_runtime(), using(Telemetry()) as telemetry:
            _canonical(trained, backend="process", workers=2)
            _canonical(trained, backend="process", workers=2)
            summary = summarize_trace(telemetry.snapshot())
        assert summary["counters"]["cold_starts"] == 1
        assert summary["counters"]["pool_reuses"] >= 1
        rendered = format_trace_summary(summary)
        assert "warm runtime" in rendered
        assert "pool reuses" in rendered

    def test_workers_used_reports_configured_cap(self, trained):
        model, test_set = trained
        with fresh_runtime():
            engine = DriftSweepEngine(model, test_set, trials=2, rng=7,
                                      backend="process", workers=2)
            report = engine.run((0.0, 0.8))
        assert report.workers == 2

    def test_cold_single_task_still_reports_configured_cap(self, trained):
        """workers_used is the configured cap even when fewer tasks ship."""
        model, test_set = trained
        with fresh_runtime(enabled=False):
            report = DriftSweepEngine(model, test_set, trials=1, rng=7,
                                      backend="process", workers=2,
                                      ).run((0.7,))
        assert report.workers >= 1


# --------------------------------------------------------------------------- #
class TestValidateBackend:
    def test_unknown_name_rejected_with_available_list(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            validate_backend("warp-drive")

    def test_none_names_and_instances_accepted(self):
        from repro.execution import SerialBackend
        validate_backend(None)
        validate_backend("shared_memory")
        validate_backend(SerialBackend())

    def test_engine_construction_builds_no_backend(self, trained, monkeypatch):
        """Engine __init__ validates via the registry — no throwaway pool."""
        import repro.evaluation.sweep as sweep_module
        model, test_set = trained

        def explode(*args, **kwargs):
            raise AssertionError("resolve_backend called during __init__")

        monkeypatch.setattr(sweep_module, "resolve_backend", explode)
        engine = DriftSweepEngine(model, test_set, trials=2, rng=1,
                                  backend="process", workers=2)
        assert engine.backend == "process"
