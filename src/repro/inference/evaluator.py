"""Inference evaluators: the model-call side of trial evaluation.

The drift-sweep engine, the BayesFT inner objective and the ReRAM
program-and-verify deployment all end in the same inner loop: *install one
pre-drawn weight trial, run the evaluation function, collect its metrics*.
An :class:`InferenceEvaluator` owns exactly that loop, behind one contract:

``run(model, data, evaluate_fn, pending, apply_trial) -> [TrialResult]``

with ``pending`` the engine's deduplicated ``digest -> {parameter: array}``
mapping.  Two strategies implement it:

* :class:`PerTrialEvaluator` — the historical behaviour: one
  ``apply_trial`` + one full forward pass per trial.
* :class:`TrialBatchedEvaluator` — groups up to ``trial_batch`` trials,
  installs their arrays *stacked* along a leading trial axis (the
  injector's ``apply_trial`` writes arrays verbatim, so the same call
  installs stacked weights), and evaluates the whole group in one tiled
  forward pass through the :func:`repro.nn.functional.trial_batching`
  context.  The per-sample work (window copies, activations, pooling,
  normalisation statistics) is amortised across the group while the GEMMs
  stay per-trial with unchanged operand shapes — so the per-trial scores
  and losses are **bit-identical** to the per-trial evaluator's, and
  ``trial_batch`` is a pure scheduling knob like ``workers`` or
  ``max_chunk_trials``.

Batching requires the evaluation function to advertise the protocol
``evaluate_fn.evaluate_trials(model, data, trials) -> [metrics]`` (see
:mod:`repro.inference.metrics`); functions without it — e.g. the detection
mAP partial — silently fall back to per-trial evaluation, as do trial
groups whose parameter sets differ.

Evaluators run identically in the main process (serial path, serial
fallback) and inside execution-backend workers, which is how worker-side
batching amortises per-task overhead without a second code path.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..execution.base import TrialResult, split_metrics
from ..telemetry import current

__all__ = [
    "InferenceEvaluator", "PerTrialEvaluator", "TrialBatchedEvaluator",
    "resolve_evaluator",
]


class InferenceEvaluator:
    """Contract: evaluate pre-drawn trials, return per-trial results.

    ``trial_batch`` is the scheduling granularity the execution backends
    read when grouping trials into worker tasks (1 = one trial per task,
    the historical shipping pattern).
    """

    name = "abstract"
    trial_batch = 1

    def run(self, model, data, evaluate_fn: Callable, pending: dict,
            apply_trial: Callable[[dict], None]) -> list[TrialResult]:
        """Evaluate every ``digest -> {parameter: array}`` trial in ``pending``.

        ``apply_trial`` installs one trial's arrays on ``model`` (resetting
        parameters absent from the trial to the clean snapshot); the caller
        owns snapshot/restore around the whole run.
        """
        raise NotImplementedError


class PerTrialEvaluator(InferenceEvaluator):
    """One ``apply_trial`` and one full forward pass per trial."""

    name = "per_trial"

    def run(self, model, data, evaluate_fn: Callable, pending: dict,
            apply_trial: Callable[[dict], None]) -> list[TrialResult]:
        telemetry = current()
        results = []
        for digest, params in pending.items():
            with telemetry.span("trial"):
                apply_trial(params)
                start = time.perf_counter()
                value = evaluate_fn(model, data)
                score, loss = split_metrics(value)
            results.append(TrialResult(digest, score, loss,
                                       time.perf_counter() - start))
        return results


class TrialBatchedEvaluator(InferenceEvaluator):
    """Evaluate up to ``trial_batch`` stacked trials per forward pass.

    Falls back to :class:`PerTrialEvaluator` semantics whenever batching
    cannot apply — a singleton group, an evaluation function without the
    ``evaluate_trials`` protocol, or a group whose trials drift different
    parameter subsets (stacking needs one common parameter set).  Per-trial
    ``seconds`` are the group's wall clock split evenly; timing is a
    volatile report field, so the attribution never affects canonical
    results.
    """

    name = "trial_batched"

    def __init__(self, trial_batch: int):
        if trial_batch < 1:
            raise ValueError("trial_batch must be at least 1")
        self.trial_batch = int(trial_batch)

    def run(self, model, data, evaluate_fn: Callable, pending: dict,
            apply_trial: Callable[[dict], None]) -> list[TrialResult]:
        fallback = PerTrialEvaluator()
        if self.trial_batch < 2 or not hasattr(evaluate_fn, "evaluate_trials"):
            return fallback.run(model, data, evaluate_fn, pending, apply_trial)
        items = list(pending.items())
        results = []
        for start in range(0, len(items), self.trial_batch):
            group = items[start:start + self.trial_batch]
            names = set(group[0][1])
            if len(group) == 1 or any(set(params) != names
                                      for _, params in group[1:]):
                results.extend(fallback.run(model, data, evaluate_fn,
                                            dict(group), apply_trial))
                continue
            stacked = {name: np.stack([params[name] for _, params in group])
                       for name in group[0][1]}
            begin = time.perf_counter()
            with current().span("trial_batch", trials=len(group)):
                apply_trial(stacked)
                metrics = evaluate_fn.evaluate_trials(model, data, len(group))
            if len(metrics) != len(group):
                raise RuntimeError(
                    f"{type(evaluate_fn).__name__}.evaluate_trials returned "
                    f"{len(metrics)} results for {len(group)} trials")
            share = (time.perf_counter() - begin) / len(group)
            for (digest, _), value in zip(group, metrics):
                score, loss = split_metrics(value)
                results.append(TrialResult(digest, score, loss, share,
                                           batched=True))
        return results


def resolve_evaluator(trial_batch: int | None) -> InferenceEvaluator:
    """Turn the engine's ``trial_batch`` knob into an evaluator instance."""
    if trial_batch is not None and int(trial_batch) < 1:
        raise ValueError("trial_batch must be at least 1 (or None)")
    if trial_batch is None or int(trial_batch) == 1:
        return PerTrialEvaluator()
    return TrialBatchedEvaluator(int(trial_batch))
