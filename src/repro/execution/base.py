"""The execution-backend contract and registry.

An :class:`ExecutionBackend` answers one question for the measurement
layer: *given a batch of pre-drawn fault trials, evaluate each one and
return its metrics* — nothing more.  Everything that determines the
numbers (drift sampling, chunking, caching, aggregation) stays in
:class:`~repro.evaluation.sweep.DriftSweepEngine`; the backend only decides
*where* the evaluations run (in-process, in a pickled-task worker pool, or
in a worker pool fed through shared memory).  That split is what keeps the
determinism contract — seeded sweeps are bit-identical for any backend and
any worker count — trivially true: backends receive fully-materialised
weight arrays and consume no randomness.

Backends are registered by name (``serial``, ``process``,
``shared_memory``) so scheduling can be chosen from configuration (the
``python -m repro run --backend`` flag, the engine's ``backend=``
parameter) without importing concrete classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..telemetry import MetricsRegistry

__all__ = [
    "EvalContext", "TrialResult", "ExecutionBackend",
    "register_backend", "available_backends", "resolve_backend",
    "validate_backend", "split_metrics",
]


def split_metrics(value) -> tuple[float, float | None]:
    """Normalise an ``evaluate_fn`` result to ``(score, loss-or-None)``.

    An evaluation function may return a bare float (score only, the classic
    accuracy path) or a ``(score, loss)`` pair (the objective path, which
    needs both Eq.-3 losses and figure-ready accuracies from one forward
    pass).
    """
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise TypeError(
                "evaluate_fn must return a float score or a (score, loss) "
                f"pair; got a sequence of length {len(value)}")
        return float(value[0]), float(value[1])
    return float(value), None


@dataclass
class EvalContext:
    """Everything a backend needs to score one trial.

    Trial application is *not* part of the context: in-process execution
    receives an ``apply_trial`` callable with each :meth:`run_trials` batch
    (the engine's already-snapshotted injector), and worker processes build
    their own injector from the clean model published to them.

    ``evaluator`` is the :class:`~repro.inference.InferenceEvaluator`
    driving the model calls (``None`` means per-trial).  Backends read its
    ``trial_batch`` to group trials into worker tasks and ship the
    evaluator itself to workers, so batching happens worker-side.
    """

    model: object
    data: object
    evaluate_fn: Callable
    evaluator: object | None = None


@dataclass
class TrialResult:
    """One evaluated trial: content digest plus its metrics and cost.

    ``batched`` records whether the trial was scored inside a stacked
    multi-trial forward pass — bookkeeping for the report's volatile
    ``batched_evaluations`` counter, never part of canonical results.
    """

    digest: str
    score: float
    loss: float | None
    seconds: float
    batched: bool = False


class ExecutionBackend:
    """Base class: evaluate batches of pre-drawn trials.

    Lifecycle: the engine calls :meth:`open` once per sweep (before any
    trials are shipped), :meth:`run_trials` once per deduplicated chunk,
    and :meth:`close` in a ``finally`` block.  A backend instance is
    single-sweep: ``open`` resets the shipping counters.

    Subclasses set :attr:`name` (the registry key) and
    :attr:`out_of_process`.  The engine catches ``run_trials`` failures
    only for out-of-process backends (a broken pool degrades to serial
    evaluation with a warning); in-process evaluation errors propagate,
    exactly like the historical serial path.

    Accounting attributes, all reset by ``open`` and surfaced on
    :class:`~repro.evaluation.sweep.SweepReport` as volatile fields:

    ``used_backend`` / ``workers_used``
        What actually happened — a process backend that never saw a chunk
        with two or more unique trials reports ``("serial", 1)`` because no
        pool was ever engaged.
    ``tasks_shipped`` / ``bytes_shipped``
        Tasks sent to worker processes and the payload bytes they carried
        (array bytes for pickled tasks, the pickled offset-table message
        for shared-memory tasks).  In-process evaluation ships nothing.
        Both are read-only views over the backend's
        :class:`~repro.telemetry.MetricsRegistry` — increment sites go
        through ``self.metrics`` so the shipping stats share the one
        counter implementation with every other layer.
    """

    name = "abstract"
    out_of_process = False

    def __init__(self) -> None:
        self.context: EvalContext | None = None
        self.used_backend = "serial"
        self.workers_used = 1
        self.metrics = MetricsRegistry()

    @property
    def tasks_shipped(self) -> int:
        return self.metrics.value("tasks_shipped")

    @property
    def bytes_shipped(self) -> int:
        return self.metrics.value("bytes_shipped")

    # ------------------------------------------------------------------ #
    def open(self, context: EvalContext) -> None:
        """Bind the sweep's model/data/evaluate_fn and reset the counters."""
        self.context = context
        self.used_backend = "serial"
        self.workers_used = 1
        self.metrics.reset()

    def run_trials(self, pending: dict[str, dict],
                   apply_trial: Callable[[dict], None]) -> list[TrialResult]:
        """Evaluate every ``digest -> {parameter: array}`` trial in ``pending``.

        ``apply_trial`` installs one trial's arrays on the in-process model
        (and resets parameters absent from the trial to the clean
        snapshot); backends that evaluate in the main process must use it,
        worker pools reproduce it remotely.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pools, shared-memory segments, any other resources."""

    # ------------------------------------------------------------------ #
    def _evaluator(self):
        """The context's inference evaluator, defaulting to per-trial."""
        if self.context is not None and self.context.evaluator is not None:
            return self.context.evaluator
        from ..inference import PerTrialEvaluator  # leaf-ward; avoids a cycle
        return PerTrialEvaluator()

    def _run_in_process(self, pending: dict[str, dict],
                        apply_trial: Callable[[dict], None]) -> list[TrialResult]:
        """Shared serial path: evaluate each trial on the live model."""
        if self.context is None:
            raise RuntimeError("backend.open() must run before run_trials()")
        return self._evaluator().run(self.context.model, self.context.data,
                                     self.context.evaluate_fn, pending,
                                     apply_trial)


# --------------------------------------------------------------------------- #
# Registry.
# --------------------------------------------------------------------------- #
_BACKEND_REGISTRY: dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(name: str):
    """Decorator registering a backend class under ``name``."""

    def _register(cls):
        key = name.lower()
        if key in _BACKEND_REGISTRY:
            raise ValueError(f"execution backend {name!r} is already registered")
        _BACKEND_REGISTRY[key] = cls
        return cls

    return _register


def available_backends() -> list[str]:
    """Registered backend names, for CLIs and error messages."""
    return sorted(_BACKEND_REGISTRY)


def validate_backend(backend) -> None:
    """Fail fast on an unknown backend selector without building one.

    The construction-time twin of :func:`resolve_backend`: a pure registry
    lookup, so callers that resolve afresh on every run (the engine) can
    reject a typo'd name at ``__init__`` without paying for — or leaking —
    a throwaway backend instance.
    """
    if backend is None or isinstance(backend, ExecutionBackend):
        return
    key = str(backend).lower()
    if key not in _BACKEND_REGISTRY:
        raise ValueError(f"unknown execution backend {backend!r}; "
                         f"available: {available_backends()}")


def resolve_backend(backend, workers: int = 0) -> ExecutionBackend:
    """Turn a backend selector into a fresh backend instance.

    ``backend`` may be ``None`` (choose from ``workers`` exactly like the
    historical engine: ``workers >= 2`` means the pickled process pool,
    anything less is serial), a registry name, or an already-constructed
    :class:`ExecutionBackend` (returned as-is; its own worker count wins).
    Named pool backends default to two workers when ``workers`` does not ask
    for more — naming a pool backend *is* asking for a pool.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = "process" if workers >= 2 else "serial"
    key = str(backend).lower()
    if key not in _BACKEND_REGISTRY:
        raise ValueError(f"unknown execution backend {backend!r}; "
                         f"available: {available_backends()}")
    cls = _BACKEND_REGISTRY[key]
    if getattr(cls, "out_of_process", False):
        return cls(workers=max(2, int(workers)))
    return cls()
