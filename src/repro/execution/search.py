"""Search-trial fan-out: evaluate independent search trials over a pool.

A batched Bayesian-optimisation step proposes ``q`` architectures at once
(:meth:`~repro.bayesopt.optimizer.BayesianOptimizer.suggest_batch`); each is
an independent train-then-evaluate unit of work — a pure function of
``(architecture, base weights, trial seed)`` — so the batch ships to worker
processes wholesale.  :class:`SearchTrialPool` is a
:class:`~repro.execution.pool.TaskPool` bound to one search's task function
and context: the context is published once per search, the pool persists
across every batch, and results come back in submission order whichever
worker finished first — the guarantee the ordered-observation-replay
contract of :class:`~repro.core.scheduler.AsyncTrialScheduler` is built on.
"""

from __future__ import annotations

from typing import Callable

from ..telemetry import current
from .pool import FANOUT_BACKENDS, TaskPool

__all__ = ["SearchTrialPool", "SEARCH_BACKENDS"]

#: Search fan-out ships one pickled base state per trial plus a tiny payload;
#: ``shared_memory`` still governs each trial's *inner* sweep.
SEARCH_BACKENDS = FANOUT_BACKENDS


class SearchTrialPool(TaskPool):
    """A task pool running ``task_fn(context, payload)`` per search trial.

    ``workers`` ``0``/``1`` executes in-process; ``backend=None`` derives
    ``"process"``/``"serial"`` from ``workers``.  ``used_backend``,
    ``tasks_shipped``, ``fell_back`` and ``fallback_reason`` are volatile
    scheduling accounting, never part of canonical results.
    """

    def __init__(self, task_fn: Callable, context: dict, workers: int = 0,
                 backend: str | None = None):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if backend is None:
            backend = "process" if workers >= 2 else "serial"
        if backend not in SEARCH_BACKENDS:
            raise ValueError(f"unknown search backend {backend!r}; "
                             f"expected one of {SEARCH_BACKENDS}")
        if workers < 2:
            backend = "serial"
        super().__init__(workers, name="search")
        self.used_backend = backend
        self._task_fn = task_fn
        self._context = context

    def run_batch(self, payloads: list) -> list:
        """Execute one batch; results returned in ``payloads`` order."""
        if self.used_backend == "serial":
            return [self._task_fn(self._context, payload)
                    for payload in payloads]
        shipped = self.tasks_shipped
        results = self.map_ordered(self._task_fn, self._context, payloads)
        current().add("tasks_shipped", self.tasks_shipped - shipped)
        return results
