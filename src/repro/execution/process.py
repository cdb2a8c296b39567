"""Worker-pool execution with pickled trial payloads.

The worker context (model, dataset, evaluate_fn, evaluator) is published
once per sweep through :class:`~repro.execution.pool.TaskPool`; each task
then pickles one trial group's full drifted parameter arrays — simple and
dependency-free, but for deep models the per-task pickling dominates (see
:class:`~repro.execution.shared.SharedMemoryBackend` for the
shared-memory alternative that ships only an offset table).
"""

from __future__ import annotations

from typing import Callable

from ..telemetry import current
from .base import ExecutionBackend, TrialResult, register_backend
from .pool import TaskPool

__all__ = ["ProcessPoolBackend"]


# --------------------------------------------------------------------------- #
# Worker side, module-level so tasks can reference it.
# --------------------------------------------------------------------------- #
def _install_trial_context(context: tuple) -> dict:
    """Worker state for one published context, built once per digest.

    The model arrives clean (it is published before any trial is applied),
    so the worker-local injector snapshots the same clean state as the
    main process and ``apply_trial`` enforces the identical restore
    invariant: parameters absent from a trial reset to the snapshot, so a
    worker that just ran a trial drifting a different parameter subset
    (per-σ policies) cannot leak stale weights into the next one.
    """
    from ..fault.drift import LogNormalDrift
    from ..fault.injector import FaultInjector
    from ..inference import PerTrialEvaluator

    model, data, evaluate_fn, evaluator = context
    injector = FaultInjector(model, LogNormalDrift(0.0))
    injector.snapshot()
    return {"model": model, "injector": injector, "data": data,
            "evaluate_fn": evaluate_fn,
            "evaluator": evaluator or PerTrialEvaluator()}


def _evaluate_trials(state: dict, pending: dict) -> list[TrialResult]:
    # The worker runs the same evaluator instance the main process would
    # use in-process — batching logic has exactly one code path — so the
    # per-trial scores a pool returns are the serial path's, bit for bit.
    return state["evaluator"].run(state["model"], state["data"],
                                  state["evaluate_fn"], pending,
                                  state["injector"].apply_trial)


def _evaluate_group(state: dict, group: list) -> list[TrialResult]:
    return _evaluate_trials(state, dict(group))


@register_backend("process")
class ProcessPoolBackend(ExecutionBackend):
    """Fan trials out over ``workers`` processes, pickled trial groups as tasks.

    The pool is engaged lazily on the first chunk with two or more tasks,
    so no process is leased (and no context published) without work to
    do; chunks that fit a single task always evaluate in-process.  With
    the default per-trial evaluator a task is exactly one trial; a batched
    evaluator packs ``trial_batch`` trials per task.  Any pool failure
    propagates to the engine, which degrades the rest of the sweep to
    serial evaluation.

    Subclasses change only the payload encoding: :meth:`_worker_context`
    (what workers install once per sweep) and :meth:`_ship` (what each
    chunk's tasks carry).
    """

    name = "process"
    out_of_process = True

    def __init__(self, workers: int = 2):
        super().__init__()
        if workers < 2:
            raise ValueError("a pool backend needs at least 2 workers; "
                             "use SerialBackend for in-process evaluation")
        self.workers = int(workers)
        self._tasks: TaskPool | None = None
        self._context_payload: tuple | None = None

    # ------------------------------------------------------------------ #
    def _worker_context(self, tasks: TaskPool) -> tuple:
        """The context every worker installs (once per content digest)."""
        context = self.context
        return (context.model, context.data, context.evaluate_fn,
                context.evaluator)

    def _group_pending(self, pending: dict[str, dict]) -> list[list]:
        """Group pending trials into worker tasks of ``trial_batch`` trials.

        One trial per task is the historical shipping pattern; a batched
        evaluator widens tasks so workers amortise per-task overhead over
        a whole stacked forward pass.
        """
        size = 1
        if self.context is not None and self.context.evaluator is not None:
            size = max(1, int(getattr(self.context.evaluator,
                                      "trial_batch", 1)))
        items = list(pending.items())
        return [items[start:start + size]
                for start in range(0, len(items), size)]

    @staticmethod
    def _task_bytes(digest: str, params: dict) -> int:
        """Payload size of one pickled task: digest + names + array bytes."""
        return (len(digest)
                + sum(len(name) + arrays.nbytes
                      for name, arrays in params.items()))

    def _ship(self, tasks: TaskPool, pending: dict[str, dict],
              groups: list[list]) -> list[list[TrialResult]]:
        """Run one chunk's groups as pickled-array tasks."""
        self.metrics.counter("tasks_shipped").add(len(groups))
        self.metrics.counter("bytes_shipped").add(
            sum(self._task_bytes(digest, params)
                for digest, params in pending.items()))
        return tasks.map_ordered(_evaluate_group, self._context_payload,
                                 groups, setup=_install_trial_context)

    def run_trials(self, pending: dict[str, dict],
                   apply_trial: Callable[[dict], None]) -> list[TrialResult]:
        groups = self._group_pending(pending)
        if len(groups) < 2:
            return self._run_in_process(pending, apply_trial)
        with current().span("backend", backend=self.name,
                            tasks=len(groups)):
            if self._tasks is None:
                self._tasks = TaskPool(self.workers, fallback=False)
                self._context_payload = self._worker_context(self._tasks)
            batches = self._ship(self._tasks, pending, groups)
            self.used_backend = self.name
            self.workers_used = self._tasks.workers
        return [result for batch in batches for result in batch]

    def close(self) -> None:
        if self._tasks is not None:
            self._tasks.close()
            self._tasks = None
        self._context_payload = None
