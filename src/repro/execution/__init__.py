"""Pluggable execution layer: where evaluations actually run.

The measurement layer (:class:`~repro.evaluation.sweep.DriftSweepEngine`)
decides *what* to evaluate — pre-drawn, deduplicated, content-addressed
fault trials — and this package decides *where*.  One primitive,
:class:`TaskPool`, runs every process fan-out: ``map_ordered(task_fn,
context, payloads)`` publishes the context once (digest-keyed shared
memory), ships the payloads, and returns results in submission order,
degrading to in-process execution if the pool breaks.  Its three users
differ only in their payloads:

* trial backends — :class:`SerialBackend` (in-process, the default and
  the universal fallback), :class:`ProcessPoolBackend` (pickled trial
  arrays per task) and :class:`SharedMemoryBackend` (each chunk's weights
  published once; tasks carry only offset tables);
* :class:`SearchTrialPool` — concurrent BO search trials;
* :func:`run_cells` — independent scenario cells.

Pools come from the process-wide warm :class:`ExecutionRuntime`: they are
leased and returned still running, so back-to-back sweeps (the BO inner
loop) stop paying fork + context shipping per sweep.
``configure_runtime(enabled=False)`` (``python -m repro run
--cold-runtime``) makes every ``TaskPool`` lease from a private runtime it
shuts down at ``close()`` instead.  Backends receive fully-materialised
weights and consume no randomness, so seeded results are bit-identical
across every backend, worker count and warm or cold runtime.
"""

from .base import (
    EvalContext, ExecutionBackend, TrialResult,
    available_backends, register_backend, resolve_backend, validate_backend,
)
from .runtime import (
    ExecutionRuntime, configure_runtime, get_runtime, shutdown_runtime,
    using_runtime,
)
from .pool import TaskPool
from .serial import SerialBackend
from .process import ProcessPoolBackend
from .shared import SharedMemoryBackend
from .cells import run_cells
from .search import SearchTrialPool, SEARCH_BACKENDS

__all__ = [
    "EvalContext", "ExecutionBackend", "TrialResult",
    "available_backends", "register_backend", "resolve_backend",
    "validate_backend",
    "ExecutionRuntime", "configure_runtime", "get_runtime",
    "shutdown_runtime", "using_runtime", "TaskPool",
    "SerialBackend", "ProcessPoolBackend", "SharedMemoryBackend",
    "run_cells", "SearchTrialPool", "SEARCH_BACKENDS",
]
