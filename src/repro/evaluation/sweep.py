"""Vectorized Monte-Carlo drift-sweep engine.

Every curve in Figures 2–4 of the paper is the same measurement: for each σ
on a grid, evaluate the model under ``trials`` independently drifted weight
copies and average.  The naive loop re-snapshots the weights, re-draws the
drift and re-runs the full test set once per (σ, trial) pair with zero reuse.
:class:`DriftSweepEngine` is the production-scale replacement:

1. **Vectorized sampling** — all drift copies are pre-drawn with one
   :meth:`~repro.fault.drift.DriftModel.sample_batch` RNG call per
   (σ, parameter, chunk) via :meth:`FaultInjector.plan_trials
   <repro.fault.injector.FaultInjector.plan_trials>`, in the main process.
   Because sampling is decoupled from evaluation, results are bit-identical
   regardless of how evaluation is scheduled.
2. **Chunked pre-drawing** — ``max_chunk_trials`` bounds how many weight
   copies per parameter are materialised at once, so PreAct-ResNet-depth
   models sweep in bounded memory.  Per-parameter RNG streams make the drawn
   trials bit-identical for any chunk size.
3. **Single snapshot** — the clean weights are snapshotted once per sweep
   (:meth:`FaultInjector.multi_trial`), not once per trial, and restored even
   if an evaluation raises mid-sweep.
4. **Pluggable execution** — evaluation is scheduled through an
   :class:`~repro.execution.ExecutionBackend` (serial, pickled process
   pool, or shared-memory weight shipping; any out-of-process failure
   degrades to serial), plus an inference cache keyed on the drifted weight
   bytes so bit-identical trials (every σ=0 trial, for instance) are
   evaluated exactly once.  A caller-owned ``shared_cache`` extends the
   cache across engine runs — the BayesFT inner objective reuses it across
   Bayesian-optimisation trials.  ``trial_batch`` composes with all of the
   above: an :class:`~repro.inference.InferenceEvaluator` owns the model
   calls, and the batched strategy evaluates several stacked trials per
   forward pass — bit-identically — both in-process and inside workers.
5. **Structured results** — the sweep streams into the existing
   :class:`~repro.evaluation.robustness.RobustnessCurve` and returns a
   JSON-serializable :class:`SweepReport` with timing statistics and, when
   the evaluation function reports one, a per-trial loss track (the paper's
   Eq. 3 objective needs losses, its figures need accuracies).

The legacy :func:`~repro.evaluation.robustness.robustness_curve` /
:func:`~repro.evaluation.detection_metrics.map_under_drift` entry points are
thin wrappers over this engine, as are the BayesFT inner objective
(:class:`~repro.core.objective.DriftMarginalizedObjective`) and the fig2/fig3
experiment harnesses.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..execution import EvalContext, resolve_backend, validate_backend
from ..fault.drift import DriftModel, LogNormalDrift
from ..inference import ClassificationAccuracy, resolve_evaluator
from ..fault.injector import FaultInjector
from ..fault.policy import LayerFaultPolicy
from ..telemetry import MetricsRegistry, current
from ..utils.rng import get_rng
from .robustness import RobustnessCurve, accuracy

__all__ = ["DriftSweepEngine", "SweepReport", "classification_accuracy"]


def classification_accuracy(model, data, batch_size: int = 256) -> float:
    """Default evaluation function: clean classification accuracy."""
    return accuracy(model, data, batch_size=batch_size)


def _weights_digest(params: dict) -> str:
    """Content hash of one trial's drifted arrays (the inference-cache key)."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name]).tobytes())
    return h.hexdigest()


@dataclass
class SweepReport:
    """JSON-serializable record of one drift sweep, with timing statistics.

    ``means``/``stds``/``trial_scores`` carry the primary score per σ (the
    accuracy track plotted in Figs. 2–3).  When the engine's ``evaluate_fn``
    also reports a loss, ``loss_means``/``loss_stds``/``trial_losses`` carry
    the Eq.-3 loss track; they are empty lists otherwise.

    :attr:`VOLATILE_FIELDS` names the fields that legitimately vary between
    bit-identical runs (scheduling, shipping and timing);
    :meth:`canonical_dict` / ``to_json(canonical=True)`` drop them, giving
    the byte-comparable projection the result store persists and the
    backend-equivalence tests diff.
    """

    label: str
    sigmas: list = field(default_factory=list)
    means: list = field(default_factory=list)
    stds: list = field(default_factory=list)
    trial_scores: list = field(default_factory=list)  # per-σ list of per-trial scores
    loss_means: list = field(default_factory=list)    # empty unless losses tracked
    loss_stds: list = field(default_factory=list)
    trial_losses: list = field(default_factory=list)  # per-σ list of per-trial losses
    trials: int = 0
    workers: int = 1          # worker processes actually used (1 = serial)
    backend: str = "serial"   # "serial", "process" or "shared_memory"
    fallback_reason: str = ""  # why a requested parallel run degraded to serial
    n_evaluations: int = 0    # model evaluations actually run (after caching)
    cache_hits: int = 0       # trials answered from the inference cache
    max_chunk_trials: int | None = None  # chunk bound the sweep ran with
    peak_resident_trials: int = 0  # most weight copies materialised at once
    tasks_shipped: int = 0    # trials sent to worker processes
    bytes_shipped: int = 0    # payload bytes those tasks carried
    trial_batch: int | None = None  # trials per stacked forward pass (None = 1)
    batched_evaluations: int = 0  # evaluations answered by a stacked pass
    elapsed_seconds: float = 0.0
    per_sigma_seconds: list = field(default_factory=list)  # summed eval time per σ

    #: Fields that vary between bit-identical runs of the same seeded sweep
    #: (scheduling, shipping and timing); everything else is deterministic.
    VOLATILE_FIELDS = (
        "workers", "backend", "fallback_reason", "elapsed_seconds",
        "per_sigma_seconds", "max_chunk_trials", "peak_resident_trials",
        "tasks_shipped", "bytes_shipped", "trial_batch", "batched_evaluations",
    )

    def curve(self) -> RobustnessCurve:
        """The sweep as the classic accuracy-vs-σ curve (Fig. 2/3 series)."""
        return RobustnessCurve(label=self.label, sigmas=list(self.sigmas),
                               means=list(self.means), stds=list(self.stds))

    def as_dict(self) -> dict:
        return {
            "label": self.label, "sigmas": list(self.sigmas),
            "means": list(self.means), "stds": list(self.stds),
            "trial_scores": [list(scores) for scores in self.trial_scores],
            "loss_means": list(self.loss_means),
            "loss_stds": list(self.loss_stds),
            "trial_losses": [list(losses) for losses in self.trial_losses],
            "trials": self.trials, "workers": self.workers,
            "backend": self.backend, "fallback_reason": self.fallback_reason,
            "n_evaluations": self.n_evaluations,
            "cache_hits": self.cache_hits,
            "max_chunk_trials": self.max_chunk_trials,
            "peak_resident_trials": self.peak_resident_trials,
            "tasks_shipped": self.tasks_shipped,
            "bytes_shipped": self.bytes_shipped,
            "trial_batch": self.trial_batch,
            "batched_evaluations": self.batched_evaluations,
            "elapsed_seconds": self.elapsed_seconds,
            "per_sigma_seconds": list(self.per_sigma_seconds),
        }

    def canonical_dict(self) -> dict:
        """The deterministic projection: :attr:`VOLATILE_FIELDS` removed.

        Two seeded sweeps of the same model/data/grid agree on this dict
        byte for byte regardless of backend, worker count or chunk size.
        """
        data = self.as_dict()
        for key in self.VOLATILE_FIELDS:
            data.pop(key, None)
        return data

    def to_json(self, indent: int | None = None, canonical: bool = False) -> str:
        """Serialize; ``canonical=True`` gives the sorted-key deterministic
        projection (used by the result store and the backend-equivalence
        tests), ``False`` the full record including volatile stats."""
        if canonical:
            return json.dumps(self.canonical_dict(), indent=indent,
                              sort_keys=True)
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepReport":
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        return cls.from_dict(json.loads(text))

    def __len__(self) -> int:
        return len(self.sigmas)


class DriftSweepEngine:
    """Batched, cached, optionally parallel accuracy-vs-σ measurement.

    Parameters
    ----------
    model:
        Trained network to evaluate (its weights are snapshotted once per
        sweep and always restored).
    data:
        Whatever ``evaluate_fn`` consumes — a classification
        :class:`~repro.data.loader.Dataset` for the default accuracy
        evaluation, a list of detection samples for mAP sweeps, …
    trials:
        Monte-Carlo drift trials per σ grid point.
    drift_factory:
        Callable mapping σ to a :class:`DriftModel` (or a
        :class:`LayerFaultPolicy`); defaults to the paper's
        :class:`LogNormalDrift`.  Passing a ``DriftModel`` *instance* is an
        error: its fixed parameters would silently override every σ.
    workers:
        ``0``/``1`` evaluates serially; ``n >= 2`` spreads trials over ``n``
        worker processes.  Seeded results are bit-identical either way
        because all randomness is pre-drawn in the main process.
    backend:
        Where trial evaluations run: ``None`` derives the backend from
        ``workers`` (the historical behaviour), or pass an
        :mod:`repro.execution` registry name (``"serial"``, ``"process"``,
        ``"shared_memory"``) or an :class:`~repro.execution.ExecutionBackend`
        instance.  Backends never change results — they receive
        fully-materialised weights and consume no randomness — so the choice
        trades only shipping cost against parallelism.  Out-of-process
        backend failures degrade the rest of the sweep to serial evaluation
        (recorded in ``SweepReport.fallback_reason``).
    evaluate_fn:
        ``f(model, data) -> float`` or ``f(model, data) -> (score, loss)``,
        run per trial; must be picklable for the process backend.  Defaults
        to classification accuracy at ``batch_size``.  When it returns a
        ``(score, loss)`` pair the report additionally carries the per-trial
        loss track (``loss_means``/``trial_losses``).
    cache:
        Skip re-evaluating trials whose drifted weights are bit-identical to
        an already-evaluated trial (every σ=0 trial hits this).
    shared_cache:
        Optional caller-owned ``dict`` mapping weight digests to
        ``(score, loss)``; entries found there skip evaluation (counted as
        cache hits) and newly evaluated trials are written back, so the
        cache persists across engine runs.  Used by the BayesFT inner
        objective to reuse evaluations across Bayesian-optimisation trials.
        Requires ``cache=True`` (content-addressed keys).
    max_chunk_trials:
        Upper bound on how many drifted weight copies per parameter are
        materialised at once (``None`` pre-draws each σ's full trial batch).
        Results are bit-identical for any value — see
        :meth:`FaultInjector.plan_trials
        <repro.fault.injector.FaultInjector.plan_trials>` — so the knob
        trades only memory against scheduling freedom: chunks of one trial
        evaluate serially even when ``workers >= 2``.
    trial_batch:
        How many trials each forward pass evaluates (``None``/``1`` is the
        historical one-trial-at-a-time path).  ``n >= 2`` routes evaluation
        through the :class:`~repro.inference.TrialBatchedEvaluator`, which
        stacks ``n`` drifted weight realisations along a leading trial axis
        and runs them in one tiled forward pass — bit-identical to ``n``
        separate passes (see :mod:`repro.nn.functional`), so like
        ``workers``, ``backend`` and ``max_chunk_trials`` this is a pure
        scheduling knob.  Composes with all of them: worker tasks widen to
        ``trial_batch`` trials, and the σ=0 collapse and inference cache
        dedupe *before* batching, so batches only ever contain unique
        trials.  Evaluation functions without the batched protocol
        (``evaluate_trials``) silently run per-trial.
    """

    def __init__(self, model, data, *, trials: int = 5, drift_factory=None,
                 batch_size: int = 256, workers: int = 0, rng=None,
                 skip: Sequence[str] = (), cache: bool = True,
                 shared_cache: dict | None = None,
                 max_chunk_trials: int | None = None,
                 evaluate_fn: Callable | None = None,
                 backend=None, trial_batch: int | None = None):
        if trials < 1:
            raise ValueError("trials must be at least 1")
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if max_chunk_trials is not None and max_chunk_trials < 1:
            raise ValueError("max_chunk_trials must be at least 1 (or None)")
        if shared_cache is not None and not cache:
            raise ValueError(
                "shared_cache requires cache=True: with caching disabled the "
                "trials are keyed by position, not weight content, so reusing "
                "them across runs would return stale scores for different "
                "weights")
        if isinstance(drift_factory, DriftModel):
            raise TypeError(
                "drift_factory must be a callable mapping sigma to a DriftModel "
                f"(e.g. LogNormalDrift, not LogNormalDrift(...)); got the instance "
                f"{drift_factory!r}, whose fixed parameters would silently override "
                "every sigma in the sweep")
        self.model = model
        self.data = data
        self.trials = int(trials)
        self.drift_factory = drift_factory
        self.batch_size = int(batch_size)
        self.workers = int(workers)
        self.rng = get_rng(rng)
        self.skip = tuple(skip)
        self.cache = bool(cache)
        self.shared_cache = shared_cache
        self.max_chunk_trials = None if max_chunk_trials is None else int(max_chunk_trials)
        self.evaluate_fn = evaluate_fn or ClassificationAccuracy(
            batch_size=self.batch_size)
        self.backend = backend
        self.trial_batch = None if trial_batch is None else int(trial_batch)
        # Fail fast on an unknown backend name or trial_batch; each run()
        # resolves the backend afresh, the evaluator is reused.  Validation
        # is a pure registry lookup — no throwaway backend is built here.
        self.evaluator = resolve_evaluator(self.trial_batch)
        validate_backend(self.backend)

    # ------------------------------------------------------------------ #
    def _drift_for(self, sigma: float) -> DriftModel | LayerFaultPolicy:
        if self.drift_factory is None:
            return LogNormalDrift(float(sigma))
        return self.drift_factory(sigma)

    def run(self, sigmas: Sequence[float], label: str = "") -> SweepReport:
        """Sweep σ over ``sigmas`` and return the full report.

        ``report.curve()`` gives the plot-ready :class:`RobustnessCurve`.
        """
        label = label or type(self.model).__name__
        telemetry = current()
        with telemetry.span("sweep", label=label, grid=len(sigmas),
                            trials=self.trials) as sweep_span:
            return self._run([float(sigma) for sigma in sigmas], label,
                             telemetry, sweep_span)

    def _run(self, sigmas: list[float], label: str, telemetry,
             sweep_span) -> SweepReport:
        start = time.perf_counter()
        injector = FaultInjector(self.model, LogNormalDrift(0.0),
                                 skip=self.skip, rng=self.rng)

        digest_of: dict[tuple[int, int], str] = {}
        first_key: dict[str, tuple[int, int]] = {}  # digest -> key that evaluated it
        scores: dict[str, float] = {}
        losses: dict[str, float | None] = {}
        eval_seconds: dict[str, float] = {}
        # The sweep's own accounting lives in a per-run MetricsRegistry —
        # the one counter implementation — and the report fields below are
        # views of its final values.
        metrics = MetricsRegistry()
        cache_hits = metrics.counter("cache_hits")
        n_evaluations = metrics.counter("n_evaluations")
        batched_evaluations = metrics.counter("batched_evaluations")
        fallback_reason = ""
        backend = resolve_backend(self.backend, workers=self.workers)
        backend.open(EvalContext(model=self.model, data=self.data,
                                 evaluate_fn=self.evaluate_fn,
                                 evaluator=self.evaluator))
        backend_broken = False
        if self.shared_cache:
            for digest, (score, loss) in self.shared_cache.items():
                scores[digest] = score
                losses[digest] = loss

        try:
            with injector.multi_trial():
                for sigma_index, sigma in enumerate(sigmas):
                    with telemetry.span("sigma", sigma=sigma):
                        backend_broken, fallback_reason = self._run_sigma(
                            sigma_index, sigma, injector, backend,
                            backend_broken, fallback_reason, telemetry,
                            digest_of, first_key, scores, losses,
                            eval_seconds, cache_hits, n_evaluations,
                            batched_evaluations)
        finally:
            backend.close()

        if self.shared_cache is not None:
            for digest in first_key:
                self.shared_cache[digest] = (scores[digest], losses[digest])

        # 4. Stream per-trial scores into the aggregate curve/report.
        has_losses = all(losses[digest] is not None for digest in digest_of.values())
        report = SweepReport(label=label, trials=self.trials,
                             workers=backend.workers_used,
                             backend=backend.used_backend,
                             fallback_reason=fallback_reason,
                             n_evaluations=n_evaluations.value,
                             cache_hits=cache_hits.value,
                             max_chunk_trials=self.max_chunk_trials,
                             peak_resident_trials=injector.peak_resident_trials,
                             tasks_shipped=backend.tasks_shipped,
                             bytes_shipped=backend.bytes_shipped,
                             trial_batch=self.trial_batch,
                             batched_evaluations=batched_evaluations.value)
        # Roll the run's counters into the ambient session (no-op when
        # telemetry is off) so `trace summarize` sees system-wide totals.
        telemetry.add("evaluations_total", n_evaluations.value)
        telemetry.add("cache_hits_total", cache_hits.value)
        telemetry.add("batched_evaluations", batched_evaluations.value)
        telemetry.add("tasks_shipped", backend.tasks_shipped)
        telemetry.add("bytes_shipped", backend.bytes_shipped)
        telemetry.gauge("workers", backend.workers_used)
        sweep_span.set(backend=backend.used_backend,
                       n_evaluations=n_evaluations.value,
                       cache_hits=cache_hits.value)
        for sigma_index, sigma in enumerate(sigmas):
            per_trial = [scores[digest_of[(sigma_index, trial_index)]]
                         for trial_index in range(self.trials)]
            seconds = sum(eval_seconds.get(digest, 0.0)
                          for digest, key in first_key.items()
                          if key[0] == sigma_index)
            report.sigmas.append(sigma)
            report.means.append(float(np.mean(per_trial)))
            report.stds.append(float(np.std(per_trial)))
            report.trial_scores.append(per_trial)
            report.per_sigma_seconds.append(round(seconds, 6))
            if has_losses:
                per_loss = [losses[digest_of[(sigma_index, trial_index)]]
                            for trial_index in range(self.trials)]
                report.loss_means.append(float(np.mean(per_loss)))
                report.loss_stds.append(float(np.std(per_loss)))
                report.trial_losses.append(per_loss)
        report.elapsed_seconds = round(time.perf_counter() - start, 6)
        return report

    def _run_sigma(self, sigma_index: int, sigma: float, injector, backend,
                   backend_broken: bool, fallback_reason: str, telemetry,
                   digest_of, first_key, scores, losses, eval_seconds,
                   cache_hits, n_evaluations, batched_evaluations
                   ) -> tuple[bool, str]:
        """Measure one σ grid point; returns updated backend health."""
        # 1. Pre-draw this σ's trials in memory-bounded chunks: one
        #    vectorized RNG call per (parameter, chunk), all in the main
        #    process.  Consuming the streams here, before any evaluation is
        #    scheduled, is what makes the sweep deterministic for any worker
        #    count, and the per-parameter streams make it deterministic for
        #    any chunk size.
        drift = self._drift_for(sigma)
        # A drift with no randomness (σ=0) produces `trials` bit-identical
        # copies; draw/hash/evaluate it once and map every trial onto that
        # digest — the cache would have collapsed them anyway, this skips
        # the redundant drawing and hashing too.
        collapse = (self.cache and isinstance(drift, DriftModel)
                    and drift.is_deterministic())
        draw_count = 1 if collapse else self.trials
        plan = injector.plan_trials(draw_count, drift,
                                    max_chunk=self.max_chunk_trials)
        trial_index = 0
        for count, chunk in plan:
            with telemetry.span("chunk", trials=count) as chunk_span:
                # 2. Deduplicate against everything evaluated so far (the
                #    inference cache, including shared entries).
                pending: dict[str, dict] = {}
                for offset in range(count):
                    key = (sigma_index, trial_index + offset)
                    params = {name: arrays[offset]
                              for name, arrays in chunk.items()}
                    digest = (_weights_digest(params) if self.cache
                              else f"trial-{key[0]}-{key[1]}")
                    digest_of[key] = digest
                    if digest in scores or digest in pending:
                        cache_hits.add()
                    else:
                        pending[digest] = params
                        first_key[digest] = key
                if not pending:
                    trial_index += count
                    continue
                chunk_span.set(unique=len(pending))

                # 3. Evaluate this chunk's unique weight sets through the
                #    execution backend.  In-process evaluation errors
                #    propagate; an out-of-process backend that breaks (pool
                #    setup, pickling, a dead worker) degrades the rest of
                #    the sweep to serial.
                if not backend_broken:
                    try:
                        for result in backend.run_trials(
                                pending, injector.apply_trial):
                            scores[result.digest] = result.score
                            losses[result.digest] = result.loss
                            eval_seconds[result.digest] = result.seconds
                            n_evaluations.add()
                            batched_evaluations.add(int(result.batched))
                    except Exception as error:
                        if not backend.out_of_process:
                            raise
                        backend_broken = True
                        fallback_reason = f"{type(error).__name__}: {error}"
                        telemetry.add("sweep_serial_fallbacks")
                        warnings.warn(
                            f"parallel sweep fell back to serial "
                            f"evaluation ({fallback_reason})",
                            RuntimeWarning, stacklevel=2)
                # Serial completion of anything the backend did not answer
                # (everything, once it is broken), through the same
                # evaluator the backend's workers run.
                leftovers = {digest: params
                             for digest, params in pending.items()
                             if digest not in scores}
                if leftovers:
                    for result in self.evaluator.run(
                            self.model, self.data, self.evaluate_fn,
                            leftovers, injector.apply_trial):
                        scores[result.digest] = result.score
                        losses[result.digest] = result.loss
                        eval_seconds[result.digest] = result.seconds
                        n_evaluations.add()
                        batched_evaluations.add(int(result.batched))
                trial_index += count
        if collapse:
            digest = digest_of[(sigma_index, 0)]
            for extra in range(1, self.trials):
                digest_of[(sigma_index, extra)] = digest
                cache_hits.add()
        return backend_broken, fallback_reason
