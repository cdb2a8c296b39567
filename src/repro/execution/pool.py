"""The one fan-out primitive: :class:`TaskPool`.

Every process fan-out in this package — trials within a sweep (the trial
backends), architectures within a BO batch (:mod:`repro.execution.search`)
and cells within a scenario matrix (:mod:`repro.execution.cells`) — is the
same operation with different payloads: run ``task_fn(context, payload)``
for each payload and hand the results back in submission order.
:class:`TaskPool` owns everything around that call:

* **the pool lease** — from the process-wide warm
  :class:`~repro.execution.runtime.ExecutionRuntime`, or, when that is
  opted out (or this is a worker process), from a *private* runtime the
  pool shuts down at :meth:`TaskPool.close`.  Cold execution is a setting
  of the one lifecycle, not a second code path;
* **context publication** — ``(setup, context)`` is pickled once per
  context, published as a digest-keyed shared-memory payload, and
  installed by each worker once per digest (``setup(context)`` builds any
  per-context worker state, e.g. a trial injector snapshot);
* **the worker entry point** :func:`_run_task`, with the telemetry
  envelope: when the submitting session traces, each task runs under a
  throwaway session inside a ``task`` span and its snapshot is grafted
  under the submitting span;
* **breakage classification** — failures to lease, publish or submit and
  :class:`~concurrent.futures.BrokenExecutor` are *pool* breakage; an
  error a task raises propagates unchanged (retrying it would only fail
  again, after wasted work);
* **the serial fallback** — on breakage the unfinished remainder runs
  in-process with one warning, and later maps stay in-process.

Completion order never leaks: results are filed under their payload index.
"""

from __future__ import annotations

import pickle
import warnings
from concurrent.futures import BrokenExecutor, as_completed
from typing import Callable

from ..telemetry import MetricsRegistry, Telemetry, current, using
from .runtime import ExecutionRuntime, get_runtime, read_payload

__all__ = ["TaskPool", "PoolBroke"]

#: Result-slot sentinel distinguishing "not run yet" from a task that
#: legitimately returned ``None``.
_UNFINISHED = object()


class PoolBroke(Exception):
    """The *pool* failed, not a task.

    Raised around leasing, publication and submission (fork limits,
    pickling) and on :class:`BrokenExecutor` from a result — the cases
    where re-running the remaining payloads in-process can succeed.
    Classifying by *where* the exception came from rather than by type is
    what keeps e.g. a cell's ``OSError`` (disk full while saving to the
    store) from being mistaken for pool breakage.
    """

    def __init__(self, error: BaseException):
        super().__init__(f"{type(error).__name__}: {error}")
        self.error = error


# --------------------------------------------------------------------------- #
# Worker side.
# --------------------------------------------------------------------------- #
#: The context this worker last installed: its digest and the state built
#: from it.  A task whose handle carries the same digest skips the unpickle.
_INSTALLED: dict = {}


def _installed_state(handle: tuple):
    if _INSTALLED.get("digest") != handle[0]:
        # Cleared first so a failed install can never leave a stale digest
        # claiming the previous context is still current.
        _INSTALLED.clear()
        setup, context = read_payload(handle)
        _INSTALLED["state"] = context if setup is None else setup(context)
        _INSTALLED["digest"] = handle[0]
    return _INSTALLED["state"]


def _run_task(task_fn: Callable, handle: tuple, trace: bool, payload):
    """The one worker entry point: install the context, run, envelope.

    Returns ``(result, telemetry snapshot or None)``.  ``trace`` is per
    task, never part of the context digest: it is telemetry state, not
    evaluation content, and carries no entropy.
    """
    state = _installed_state(handle)
    if not trace:
        return task_fn(state, payload), None
    telemetry = Telemetry()
    with using(telemetry):
        with telemetry.span("task"):
            result = task_fn(state, payload)
    return result, telemetry.snapshot()


# --------------------------------------------------------------------------- #
# Submitting side.
# --------------------------------------------------------------------------- #
class TaskPool:
    """Run ``task_fn(context, payload)`` over ``workers`` processes.

    Parameters
    ----------
    workers:
        Pool width; below 2 every map runs in-process.
    name:
        Labels the fallback warning and the ambient
        ``<name>_pool_fallbacks`` counter.
    fallback:
        ``True`` runs the unfinished remainder in-process on pool
        breakage.  ``False`` re-raises the breakage's original error
        instead — for callers (the trial backends) whose in-process path
        lives elsewhere.

    Attributes
    ----------
    tasks_shipped / fell_back / fallback_reason:
        Volatile accounting over the pool's
        :class:`~repro.telemetry.MetricsRegistry`.
    """

    def __init__(self, workers: int, name: str = "task",
                 fallback: bool = True):
        self.workers = int(workers)
        self.name = name
        self.fallback = fallback
        self.metrics = MetricsRegistry()
        self.fallback_reason: str | None = None
        self._runtime: ExecutionRuntime | None = None
        self._private = False
        self._pool_lease = None
        self._context_lease = None
        self._published: tuple | None = None

    @property
    def tasks_shipped(self) -> int:
        return self.metrics.value("tasks_shipped")

    @property
    def fell_back(self) -> bool:
        return self.metrics.value("pool_fallbacks") > 0

    @property
    def runtime(self) -> ExecutionRuntime:
        """The runtime this pool leases from (private when cold)."""
        if self._runtime is None:
            shared = get_runtime()
            self._private = not shared.enabled
            self._runtime = ExecutionRuntime() if self._private else shared
        return self._runtime

    # ------------------------------------------------------------------ #
    def map_ordered(self, task_fn: Callable, context, payloads: list,
                    setup: Callable | None = None,
                    progress: Callable | None = None) -> list:
        """Run every payload; results come back in ``payloads`` order.

        ``task_fn`` and ``setup`` must be module-level (they cross to
        workers by reference) and ``task_fn`` self-contained: every task
        re-derives its state from the installed context and its own
        payload.  ``progress``, when given, is called with each result as
        it finishes (completion order).
        """
        results = [_UNFINISHED] * len(payloads)
        if (self.workers >= 2 and len(payloads) >= 2
                and self.fallback_reason is None):
            try:
                self._map_remote(task_fn, context, setup, payloads, results,
                                 progress)
            except PoolBroke as broke:
                self.close()
                if not self.fallback:
                    raise broke.error
                warnings.warn(f"{self.name} fan-out fell back to serial "
                              f"execution ({broke})", RuntimeWarning,
                              stacklevel=2)
                self.fallback_reason = str(broke)
                self.metrics.counter("pool_fallbacks").add()
                current().add(f"{self.name}_pool_fallbacks")
        unfinished = [index for index, result in enumerate(results)
                      if result is _UNFINISHED]
        if unfinished:
            state = context if setup is None else setup(context)
            for index in unfinished:
                results[index] = task_fn(state, payloads[index])
                if progress is not None:
                    progress(results[index])
        return results

    def _map_remote(self, task_fn, context, setup, payloads, results,
                    progress) -> None:
        telemetry = current()
        under = telemetry.tracer.current_span() if telemetry.enabled else None
        try:
            if self._pool_lease is None:
                self._pool_lease = self.runtime.lease_pool(self.workers)
            handle = self._publish(setup, context)
            pool = self._pool_lease.pool
            futures = {pool.submit(_run_task, task_fn, handle,
                                   telemetry.enabled, payload): index
                       for index, payload in enumerate(payloads)}
        except Exception as error:  # lease/publish/submit-time failure
            raise PoolBroke(error) from error
        self.metrics.counter("tasks_shipped").add(len(futures))
        try:
            for future in as_completed(futures):
                try:
                    result, snapshot = future.result()
                except BrokenExecutor as error:
                    raise PoolBroke(error) from error
                results[futures[future]] = result
                telemetry.absorb(snapshot, under=under)
                if progress is not None:
                    progress(result)
        except BaseException:
            # Do not leave queued work on a pool the next caller leases.
            for future in futures:
                future.cancel()
            raise

    def _publish(self, setup, context) -> tuple:
        """Lease the ``(setup, context)`` payload, once per context object."""
        published = self._published
        if (published is None or published[0] is not setup
                or published[1] is not context):
            if self._context_lease is not None:
                self._context_lease.release()
            self._context_lease = self.runtime.lease_payload(
                pickle.dumps((setup, context)))
            self._published = (setup, context)
        return self._context_lease.handle

    def close(self) -> None:
        """Release the leases; shut a private runtime down.  Idempotent.

        A broken pool is evicted by the runtime on release, so the next
        lease forks a fresh one.
        """
        for lease in (self._pool_lease, self._context_lease):
            if lease is not None:
                lease.release()
        self._pool_lease = self._context_lease = self._published = None
        if self._private:
            self._runtime.shutdown()
        self._runtime, self._private = None, False
