"""High-level BayesFT API: the one-call entry point used by examples/benches."""

from __future__ import annotations

import numpy as np

from ..data.loader import Dataset, train_test_split
from ..nn.module import Module
from ..utils.rng import get_rng
from .algorithm import BayesFTSearch, BayesFTResult
from .objective import DriftMarginalizedObjective
from .search_space import DropoutSearchSpace

__all__ = ["BayesFT"]


class BayesFT:
    """Search for a fault-tolerant configuration of an existing model.

    Typical use::

        model = build_model("mlp", num_classes=10, image_size=16)
        bayesft = BayesFT(sigma=0.6, n_trials=10, epochs_per_trial=2)
        result = bayesft.fit(model, train_set)
        print(result.best_alpha)          # per-layer dropout rates
        # `model` now carries the best dropout rates and trained weights.

    Parameters
    ----------
    sigma:
        Drift level used inside the search objective (Eq. 3–4).
    n_trials:
        Number of Bayesian-optimisation trials (outer iterations of
        Algorithm 1).
    epochs_per_trial:
        SGD epochs per trial (``E`` in Algorithm 1).
    monte_carlo_samples:
        ``T`` in Eq. (4).
    metric:
        ``"accuracy"`` (default, bounded and well-scaled for the GP) or
        ``"neg_loss"`` (the paper's literal Eq. 3).
    validation_fraction:
        Portion of the training data held out for the drifted objective.
    optimizer_kind:
        ``"bayes"`` or ``"random"`` (the ablation baseline).
    sweep_workers:
        Worker processes for the inner Monte-Carlo objective, forwarded to
        :class:`~repro.evaluation.sweep.DriftSweepEngine`: ``0``/``1``
        evaluates serially, ``n >= 2`` fans the drift draws out over ``n``
        processes.  Seeded search results are bit-identical either way.
    max_chunk_trials:
        Bound on how many drifted weight copies the inner objective
        materialises at once (``None`` = all ``monte_carlo_samples``);
        bounds memory for deep models without changing any seeded result.
    sweep_backend:
        Execution backend for the inner objective's sweeps (``None``
        derives it from ``sweep_workers``; or a :mod:`repro.execution`
        name such as ``"process"``).  Never changes seeded results.
    trial_batch:
        Monte-Carlo draws per stacked forward pass in the inner objective
        (``None``/``1`` evaluates draws one at a time).  Batched evaluation
        is bit-identical (see :mod:`repro.inference`), so like the other
        scheduling knobs this never changes seeded results.
    warm_start:
        If True (default) each trial fine-tunes the current weights; if
        False every trial retrains from the initial weights.
    suggest_batch:
        ``q``: architectures proposed per round via constant-liar batch
        suggestion (``1`` keeps the sequential loop, bit-identical to the
        pre-async implementation).
    search_workers:
        ``k``: worker processes evaluating a suggestion batch concurrently.
        Never changes seeded results — the canonical trace depends only on
        ``suggest_batch``.
    early_stop_margin:
        Async-mode early termination: a trial whose clean (σ=0) utility
        falls more than this margin below the best committed objective
        skips the drifted sweep (``None`` disables).
    rng:
        Seed or ``numpy.random.Generator`` shared by training, the search
        and the objective; a fixed seed makes the whole search reproducible.
    """

    def __init__(self, sigma: float = 0.6, n_trials: int = 10, epochs_per_trial: int = 2,
                 monte_carlo_samples: int = 3, metric: str = "accuracy",
                 validation_fraction: float = 0.25, batch_size: int = 64,
                 learning_rate: float = 0.05, momentum: float = 0.9,
                 weight_optimizer: str = "sgd",
                 max_dropout_rate: float = 0.9, optimizer_kind: str = "bayes",
                 sweep_workers: int = 0, max_chunk_trials: int | None = None,
                 sweep_backend=None, trial_batch: int | None = None,
                 warm_start: bool = True, suggest_batch: int = 1,
                 search_workers: int = 0,
                 early_stop_margin: float | None = None, rng=None):
        if not 0.0 < validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")
        self.sigma = sigma
        self.n_trials = n_trials
        self.epochs_per_trial = epochs_per_trial
        self.monte_carlo_samples = monte_carlo_samples
        self.metric = metric
        self.validation_fraction = validation_fraction
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_optimizer = weight_optimizer
        self.max_dropout_rate = max_dropout_rate
        self.optimizer_kind = optimizer_kind
        self.sweep_workers = sweep_workers
        self.max_chunk_trials = max_chunk_trials
        self.sweep_backend = sweep_backend
        self.trial_batch = trial_batch
        self.warm_start = warm_start
        self.suggest_batch = suggest_batch
        self.search_workers = search_workers
        self.early_stop_margin = early_stop_margin
        self.rng = get_rng(rng)
        self.search_: BayesFTSearch | None = None
        self.result_: BayesFTResult | None = None

    def fit(self, model: Module, dataset: Dataset,
            validation_dataset: Dataset | None = None) -> BayesFTResult:
        """Run the BayesFT search on ``model``; the model is modified in place."""
        if validation_dataset is None:
            train_set, validation_dataset = train_test_split(
                dataset, test_fraction=self.validation_fraction, rng=self.rng)
        else:
            train_set = dataset
        search_space = DropoutSearchSpace(model, max_rate=self.max_dropout_rate)
        objective = DriftMarginalizedObjective(
            validation_dataset, sigma=self.sigma,
            monte_carlo_samples=self.monte_carlo_samples, metric=self.metric,
            sweep_workers=self.sweep_workers,
            max_chunk_trials=self.max_chunk_trials,
            sweep_backend=self.sweep_backend,
            trial_batch=self.trial_batch, rng=self.rng)
        self.search_ = BayesFTSearch(
            search_space, objective, train_set,
            epochs_per_trial=self.epochs_per_trial, batch_size=self.batch_size,
            learning_rate=self.learning_rate, momentum=self.momentum,
            weight_optimizer=self.weight_optimizer,
            optimizer_kind=self.optimizer_kind, warm_start=self.warm_start,
            suggest_batch=self.suggest_batch,
            search_workers=self.search_workers,
            early_stop_margin=self.early_stop_margin,
            rng=self.rng)
        self.result_ = self.search_.run(n_trials=self.n_trials)
        return self.result_

    @property
    def best_alpha(self) -> np.ndarray:
        """Per-layer dropout rates of the best trial (after :meth:`fit`)."""
        if self.result_ is None:
            raise RuntimeError("call fit() first")
        return self.result_.best_alpha
