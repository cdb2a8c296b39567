"""Scenario-cell fan-out: run independent declarative cells over a pool.

Scenario matrices (``fault_matrix``, ``dataset_matrix``, …) are embarrassingly
parallel: every declarative :class:`~repro.scenarios.spec.ScenarioSpec` cell
is seeded by its own ``spec.seed`` and touches nothing shared except the
content-addressed result store, which is safe under concurrent writers by
construction: each save publishes its staging directory with one atomic
rename (first writer wins on duplicate hashes), and the SQLite index rows
serialize behind WAL locking with a busy-timeout — each worker process
opens its own connection (never inherited across ``fork``), so N workers
hammering one store lose no entries and leave a consistent index
(``tests/test_store.py`` asserts exactly that).  Each cell task carries a
few kilobytes of spec JSON through a :class:`~repro.execution.pool.TaskPool`;
the worker trains, sweeps and saves its cell into the store, so a matrix
fill-in killed at any point resumes from whatever cells finished.
"""

from __future__ import annotations

from ..telemetry import current
from .pool import TaskPool

__all__ = ["run_cells"]


def _execute_cell(context: dict, spec_payload: dict) -> dict:
    """Task: execute one declarative cell, persist it, return it.

    Everything crosses as plain data.  The cell executes exactly the code
    path :meth:`ScenarioRunner.run` uses in the parent — same registries,
    same seeding, same store writes, same scheduling overrides
    (``context["runner_kwargs"]`` carries the parent runner's
    ``workers``/``max_chunk_trials``/``backend``) — which is what keeps
    fanned-out matrices bit-identical to serial ones.
    """
    from ..scenarios.runner import ScenarioRunner
    from ..scenarios.spec import ScenarioSpec
    from ..scenarios.store import ResultStore

    store_root = context["store_root"]
    store = None if store_root is None else ResultStore(store_root)
    runner = ScenarioRunner(store, **context["runner_kwargs"])
    run = runner.run(ScenarioSpec.from_dict(spec_payload),
                     scenario=context["scenario"])
    return {"report": run.report.as_dict(), "cached": run.cached,
            "elapsed_seconds": run.elapsed_seconds}


def run_cells(specs, store_root: str | None, scenario: str | None,
              workers: int, runner_kwargs: dict | None = None,
              progress=None) -> tuple[list[dict], str | None]:
    """Execute cells over ``workers`` processes; results in ``specs`` order.

    A *pool* failure degrades the remaining cells to in-process execution
    with a warning, so a matrix run always completes; an error raised by a
    cell itself propagates unchanged.  Returns ``(results,
    fallback_reason)``: the second element is ``None`` for a healthy run
    and the breakage description when the pool degraded — callers surface
    it in run summaries.  ``progress``, when given, is called once per
    finished cell (in completion order) with its result dict — the hook
    behind ``--progress`` ETA lines.
    """
    width = min(workers, len(specs))
    context = {"store_root": store_root, "scenario": scenario,
               "runner_kwargs": dict(runner_kwargs or {})}
    telemetry = current()
    with telemetry.span("cell_fanout", cells=len(specs), workers=workers):
        # Worker-side sweeps report their own (serial) worker counts; the
        # fan-out's pool width is the figure that makes utilisation honest.
        telemetry.gauge("workers", width)
        pool = TaskPool(width, name="cell")
        try:
            results = pool.map_ordered(_execute_cell, context,
                                       [spec.to_dict() for spec in specs],
                                       progress=progress)
        finally:
            pool.close()
    return results, pool.fallback_reason
