"""The drift-marginalised objective of Eq. (3)–(4), routed through the sweep engine.

``u(α, θ) = −E_{θ̃~p(θ̃)}[ℓ(f_{α,θ̃}(x), y)]`` is intractable; the paper
estimates it with ``T`` Monte-Carlo samples of the drifted weights
(Eq. 4).  For reporting, an accuracy-based variant (mean accuracy under
drift) is also provided — it is the quantity actually plotted in the
paper's figures and is bounded in [0, 1], which keeps the GP surrogate well
behaved.

This is the hottest path of the whole system: the estimate runs once per
Bayesian-optimisation trial (Algorithm 1, line 8).  Instead of a private
per-draw loop, the ``T`` drift draws are pre-drawn vectorized and evaluated
through :class:`~repro.evaluation.sweep.DriftSweepEngine`, which gives the
search three things for free:

* an **inference cache** — bit-identical drifted weight sets (every clean
  σ=0 draw, and any repeat across BO trials via the persistent
  ``shared_cache``) are evaluated exactly once;
* **deterministic seeding** — results are bit-identical for any
  ``sweep_workers`` count and any ``max_chunk_trials`` chunk size, because
  all randomness is consumed in the main process before evaluation is
  scheduled;
* optional **process-parallel fan-out** of the Monte-Carlo draws.
"""

from __future__ import annotations

import numpy as np

from ..data.loader import Dataset
from ..evaluation.sweep import DriftSweepEngine, SweepReport
from ..inference import AccuracyAndLoss
from ..nn.module import Module
from ..telemetry import MetricsRegistry
from ..utils.rng import get_rng

__all__ = ["DriftMarginalizedObjective"]

#: Accuracy and cross-entropy from one forward pass (per trial or per
#: stacked trial batch).  The engine stores the accuracy as the trial score
#: and the loss in the report's loss track, so one sweep serves Eq. 3
#: (``neg_loss``) and the figures (``accuracy``).  A module-level instance
#: so the process-parallel backends can pickle it.
_batch_metrics = AccuracyAndLoss()


class DriftMarginalizedObjective:
    """Monte-Carlo estimator of the drift-marginalised utility.

    Parameters
    ----------
    dataset:
        Validation data on which the utility is estimated.
    sigma:
        Drift level σ used during the search.  The paper searches at a
        representative σ and evaluates over the full sweep.
    monte_carlo_samples:
        ``T`` in Eq. (4).
    metric:
        ``"neg_loss"`` (the paper's Eq. 3) or ``"accuracy"``.
    max_batch:
        Evaluation subsample size per Monte-Carlo draw, to bound CPU cost.
    sweep_workers:
        Worker processes for the inner sweep: ``0``/``1`` evaluates the
        Monte-Carlo draws serially, ``n >= 2`` fans them out over ``n``
        processes.  Seeded results are bit-identical either way.
    sweep_backend:
        Execution backend for the inner sweep (``None`` derives it from
        ``sweep_workers``; otherwise a :mod:`repro.execution` registry name
        such as ``"process"`` or a backend instance).  Never changes
        results.
    max_chunk_trials:
        Bound on how many drifted weight copies are materialised at once
        while pre-drawing the ``T`` samples (``None`` = all at once); lets
        PreAct-ResNet-depth models run the search in bounded memory without
        changing any result.
    trial_batch:
        Trials per stacked forward pass in the inner sweep (``None``/``1``
        evaluates the Monte-Carlo draws one at a time).  Like
        ``sweep_workers`` and ``max_chunk_trials`` this never changes
        results — batched evaluation is bit-identical (see
        :mod:`repro.inference`) — it only amortises per-draw dispatch
        overhead across the ``T`` samples.

    Attributes
    ----------
    evaluations_total / cache_hits_total:
        Running counters over every engine run this objective has issued —
        ``cache_hits_total`` is the number of model evaluations the
        inference cache saved the Bayesian-optimisation loop.  Both are
        read-only views over the objective's
        :class:`~repro.telemetry.MetricsRegistry` (``self.metrics``).
    """

    def __init__(self, dataset: Dataset, sigma: float = 0.6,
                 monte_carlo_samples: int = 5, metric: str = "neg_loss",
                 max_batch: int = 512, rng=None, sweep_workers: int = 0,
                 max_chunk_trials: int | None = None, sweep_backend=None,
                 trial_batch: int | None = None):
        if monte_carlo_samples < 1:
            raise ValueError("monte_carlo_samples must be at least 1")
        if metric not in ("neg_loss", "accuracy"):
            raise ValueError("metric must be 'neg_loss' or 'accuracy'")
        if sweep_workers < 0:
            raise ValueError("sweep_workers must be non-negative")
        self.dataset = dataset
        self.sigma = float(sigma)
        self.monte_carlo_samples = int(monte_carlo_samples)
        self.metric = metric
        self.max_batch = int(max_batch)
        self.rng = get_rng(rng)
        self.sweep_workers = int(sweep_workers)
        self.max_chunk_trials = max_chunk_trials
        self.sweep_backend = sweep_backend
        self.trial_batch = trial_batch
        # Digest -> (accuracy, loss), persisted across evaluate() calls so
        # repeated weight states across BO trials are never re-evaluated.
        self._shared_cache: dict = {}
        self.metrics = MetricsRegistry()
        self.last_report: SweepReport | None = None

    @property
    def evaluations_total(self) -> int:
        return self.metrics.value("evaluations_total")

    @property
    def cache_hits_total(self) -> int:
        return self.metrics.value("cache_hits_total")

    # ------------------------------------------------------------------ #
    def clone(self, rng=None) -> "DriftMarginalizedObjective":
        """A fresh objective with this configuration, its own RNG and cache.

        The async search scheduler gives every concurrent trial a clone
        seeded from the trial's own spawned stream: trials running in
        different worker processes cannot share the in-process
        ``_shared_cache`` or an RNG, so each trial gets private ones and the
        evaluation becomes a pure function of ``(model state, trial seed)``
        — the property that makes seeded async searches bit-identical for
        any worker count.  Counters start at zero; the scheduler aggregates
        them back into ``BayesFTResult.objective_stats``.
        """
        return DriftMarginalizedObjective(
            self.dataset, sigma=self.sigma,
            monte_carlo_samples=self.monte_carlo_samples, metric=self.metric,
            max_batch=self.max_batch, rng=rng,
            sweep_workers=self.sweep_workers,
            max_chunk_trials=self.max_chunk_trials,
            sweep_backend=self.sweep_backend, trial_batch=self.trial_batch)

    def _evaluation_batch(self) -> tuple[np.ndarray, np.ndarray]:
        return self._evaluation_data()[:]

    def _evaluation_data(self) -> Dataset:
        n = len(self.dataset)
        if n <= self.max_batch:
            return self.dataset
        # A fresh subsample invalidates the cross-call cache: its entries
        # were measured on a different evaluation batch, so identical
        # weights would no longer produce identical metrics.
        self._shared_cache.clear()
        indices = self.rng.choice(n, size=self.max_batch, replace=False)
        return self.dataset.subset(indices)

    def _engine(self, model: Module, batch: Dataset) -> DriftSweepEngine:
        return DriftSweepEngine(model, batch, trials=self.monte_carlo_samples,
                                workers=self.sweep_workers,
                                backend=self.sweep_backend,
                                max_chunk_trials=self.max_chunk_trials,
                                trial_batch=self.trial_batch,
                                rng=self.rng, evaluate_fn=_batch_metrics,
                                shared_cache=self._shared_cache)

    def _utility(self, report: SweepReport, row: int) -> float:
        if self.metric == "accuracy":
            return float(np.mean(report.trial_scores[row]))
        return -float(np.mean(report.trial_losses[row]))

    def _record(self, report: SweepReport) -> None:
        self.metrics.counter("evaluations_total").add(report.n_evaluations)
        self.metrics.counter("cache_hits_total").add(report.cache_hits)
        self.last_report = report

    # ------------------------------------------------------------------ #
    def evaluate(self, model: Module) -> float:
        """Estimate u(α, θ) for the model's current architecture and weights."""
        model.eval()
        report = self._engine(model, self._evaluation_data()).run(
            (self.sigma,), label="objective")
        self._record(report)
        return self._utility(report, 0)

    def evaluate_with_clean(self, model: Module) -> tuple[float, float, SweepReport]:
        """Drifted and clean utility from one engine run over (0, σ).

        The σ=0 row's ``T`` trials are bit-identical, so the inference cache
        collapses them to a single model evaluation — the clean diagnostic
        the search loop logs every trial is nearly free.  Returns
        ``(u_drifted, u_clean, report)``.
        """
        model.eval()
        report = self._engine(model, self._evaluation_data()).run(
            (0.0, self.sigma), label="objective")
        self._record(report)
        return self._utility(report, 1), self._utility(report, 0), report

    def evaluate_clean(self, model: Module) -> float:
        """The same metric without any drift (diagnostic; one forward pass)."""
        model.eval()
        score, loss = _batch_metrics(model, self._evaluation_data())
        return score if self.metric == "accuracy" else -loss

    def __call__(self, model: Module) -> float:
        return self.evaluate(model)
