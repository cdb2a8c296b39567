"""Deploying a trained network onto simulated ReRAM hardware.

:func:`deploy_on_reram` replaces every parameter of a trained model with the
weights a crossbar array would actually realise (programming error, process
variation, retention drift), giving an end-to-end hardware-in-the-loop
evaluation path that complements the purely statistical Eq. (1) drift used
in the paper's figures.

The per-parameter perturbation is expressed as a
:class:`~repro.fault.drift.DriftModel` (:class:`CrossbarRealization`) and
applied through the :class:`~repro.fault.injector.FaultInjector` snapshot
machinery (``snapshot`` → ``draw_trials`` → ``apply_trial``) — the same
trial plumbing the :class:`~repro.evaluation.sweep.DriftSweepEngine` uses —
rather than a private mutation loop.  Deployment intentionally leaves the
realised weights in place (that *is* the deployment), so the
``multi_trial`` context manager, which restores on exit, is not used; the
returned :class:`DeploymentReport` records what the hardware did to every
parameter.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..execution import EvalContext, resolve_backend
from ..fault.drift import DriftModel
from ..fault.injector import FaultInjector
from ..nn.module import Module
from ..nn.layers import Linear
from ..nn.tensor import Tensor
from ..utils.rng import get_rng
from .crossbar import CrossbarArray
from .device import DeviceConfig, DeviceVariationModel

__all__ = ["ReRAMLinear", "CrossbarRealization", "DeploymentReport", "deploy_on_reram"]


class ReRAMLinear(Module):
    """A Linear layer whose matmul is computed by a simulated crossbar array.

    Inference only (the crossbar holds fixed programmed weights); used in the
    hardware-deployment example to show activation-level noise rather than
    the weight-level abstraction.  Batches are computed with one dense
    :meth:`~repro.reram.crossbar.CrossbarArray.matmat` per tile (one analog
    read cycle per batch), not a per-row ``matvec`` loop.
    """

    def __init__(self, linear: Linear, config: DeviceConfig | None = None,
                 deployment_time: float = 1.0, rng=None):
        super().__init__()
        self.in_features = linear.in_features
        self.out_features = linear.out_features
        self.config = config or DeviceConfig()
        self.array = CrossbarArray(linear.weight.data, config=self.config,
                                   deployment_time=deployment_time, rng=rng)
        self.bias = None if linear.bias is None else linear.bias.data.copy()

    def forward(self, x: Tensor) -> Tensor:
        inputs = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        outputs = self.array.matmat(inputs)
        if self.bias is not None:
            outputs = outputs + self.bias
        return Tensor(outputs)

    def __repr__(self) -> str:
        return (f"ReRAMLinear(in_features={self.in_features}, "
                f"out_features={self.out_features}, tiles={self.array.num_tiles})")


class CrossbarRealization(DriftModel):
    """The crossbar's weight realisation expressed as a :class:`DriftModel`.

    ``perturb`` maps a clean parameter array to the weights simulated ReRAM
    hardware would actually hold: 2-D-or-higher parameters are flattened to
    a matrix, programmed onto a tiled :class:`CrossbarArray` (differential
    conductance pairs, programming error, process variation, retention
    drift) and read back; 1-D parameters (biases, norm affine parameters)
    are perturbed with the device model's equivalent log-normal factor,
    matching how they would be stored in peripheral ReRAM cells.

    Expressing deployment as a drift model means the generic
    :class:`~repro.fault.injector.FaultInjector` machinery — snapshots,
    pre-drawn trials, per-layer policies, sweep engines — applies to the
    hardware path unchanged.
    """

    def __init__(self, config: DeviceConfig | None = None,
                 deployment_time: float = 1.0,
                 tile_rows: int = 128, tile_cols: int = 128):
        self.config = config or DeviceConfig()
        self.deployment_time = float(deployment_time)
        self.tile_rows = int(tile_rows)
        self.tile_cols = int(tile_cols)
        #: Crossbar tiles programmed so far (bookkeeping for reports).
        self.tiles_programmed = 0

    def perturb(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if weights.ndim >= 2:
            matrix = weights.reshape(weights.shape[0], -1)
            array = CrossbarArray(matrix, tile_rows=self.tile_rows,
                                  tile_cols=self.tile_cols, config=self.config,
                                  deployment_time=self.deployment_time, rng=rng)
            self.tiles_programmed += array.num_tiles
            return array.effective_weights().reshape(weights.shape)
        variation = DeviceVariationModel(self.config, self.deployment_time, rng=rng)
        return weights * variation.sample_log_factors(weights.shape)

    def __repr__(self) -> str:
        return (f"CrossbarRealization(deployment_time={self.deployment_time}, "
                f"tiles={self.tile_rows}x{self.tile_cols})")


@dataclass
class DeploymentReport:
    """SweepReport-style, JSON-serializable record of one hardware deployment.

    Iterating (or calling ``keys``/``values``/``items``/``[]``) walks the
    per-parameter relative errors, so the report is a drop-in replacement
    for the plain ``{name: error}`` dict earlier revisions returned.
    """

    label: str
    parameter_errors: dict = field(default_factory=dict)  # name -> mean |Δw|/|w|
    deployment_time: float = 0.0
    equivalent_sigma: float = 0.0   # Eq.-1 σ implied by the device physics
    crossbar_tiles: int = 0         # tiles programmed across all parameters
    n_parameters: int = 0           # parameter arrays deployed
    trials: int = 1                 # candidate realisations drawn
    selected_trial: int = 0         # which candidate was programmed
    candidate_scores: list = field(default_factory=list)  # per-candidate score
    validation_score: float | None = None  # score of the deployed realisation
    elapsed_seconds: float = 0.0

    def mean_relative_error(self) -> float:
        """Mean of the per-parameter relative errors (0.0 when empty)."""
        if not self.parameter_errors:
            return 0.0
        return float(np.mean(list(self.parameter_errors.values())))

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "parameter_errors": dict(self.parameter_errors),
            "deployment_time": self.deployment_time,
            "equivalent_sigma": self.equivalent_sigma,
            "crossbar_tiles": self.crossbar_tiles,
            "n_parameters": self.n_parameters,
            "trials": self.trials,
            "selected_trial": self.selected_trial,
            "candidate_scores": list(self.candidate_scores),
            "validation_score": self.validation_score,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentReport":
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "DeploymentReport":
        return cls.from_dict(json.loads(text))

    # Mapping-style access to the per-parameter errors (backwards compatible
    # with the dict this function used to return).
    def __iter__(self):
        return iter(self.parameter_errors)

    def __getitem__(self, name: str) -> float:
        return self.parameter_errors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.parameter_errors

    def __len__(self) -> int:
        return len(self.parameter_errors)

    def keys(self):
        return self.parameter_errors.keys()

    def values(self):
        return self.parameter_errors.values()

    def items(self):
        return self.parameter_errors.items()


def deploy_on_reram(model: Module, config: DeviceConfig | None = None,
                    deployment_time: float = 1.0, rng=None,
                    tile_rows: int = 128, tile_cols: int = 128,
                    trials: int = 1, validate_data=None,
                    evaluate_fn=None, backend=None,
                    trial_batch: int | None = None) -> DeploymentReport:
    """Overwrite ``model``'s parameters with crossbar-realised values.

    Each realisation is drawn as a :meth:`FaultInjector.draw_trials` trial
    of a :class:`CrossbarRealization` drift model and written with
    :meth:`FaultInjector.apply_trial`, so the hardware path shares the
    snapshot/trial machinery (and determinism guarantees) of the drift
    sweeps.  The realised weights are left in place; the injector's clean
    snapshot is used only to measure the per-parameter error.

    With ``trials > 1`` the deployment becomes program-and-verify: ``trials``
    independent candidate realisations (programming noise differs per
    attempt) are scored on ``validate_data`` through the pluggable
    :mod:`repro.execution` layer — ``backend`` accepts the same selector as
    :class:`~repro.evaluation.sweep.DriftSweepEngine` (``None``/name/
    instance), so candidates for a deep model can be fanned out over a
    worker pool — and the best-scoring candidate is the one
    programmed.  ``evaluate_fn`` defaults to classification accuracy, and
    ``trial_batch`` scores that many candidates per stacked forward pass
    (bit-identically; see :mod:`repro.inference`).  Candidate draws are
    pre-drawn from the seeded injector, so the selected realisation is
    bit-identical for any backend, worker count or trial-batch size.

    Returns a :class:`DeploymentReport` with the per-parameter mean relative
    errors, the device model's equivalent Eq.-1 σ, crossbar bookkeeping and
    (when validated) the per-candidate scores, so callers (and tests) can
    verify the deployment actually perturbed the weights.
    """
    start = time.perf_counter()
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > 1 and validate_data is None:
        raise ValueError(
            "program-and-verify deployment (trials > 1) needs validate_data "
            "to score the candidate realisations")
    config = config or DeviceConfig()
    realization = CrossbarRealization(config, deployment_time,
                                      tile_rows=tile_rows, tile_cols=tile_cols)
    injector = FaultInjector(model, realization, rng=get_rng(rng))
    injector.snapshot()
    batch = injector.draw_trials(trials)
    candidates = [{name: arrays[index] for name, arrays in batch.items()}
                  for index in range(trials)]

    candidate_scores: list[float] = []
    selected = 0
    validation_score = None
    if validate_data is not None:
        if evaluate_fn is None:
            from ..inference import ClassificationAccuracy
            evaluate_fn = ClassificationAccuracy()
        from ..inference import resolve_evaluator
        exec_backend = resolve_backend(backend)
        context = EvalContext(model=model, data=validate_data,
                              evaluate_fn=evaluate_fn,
                              evaluator=resolve_evaluator(trial_batch))
        exec_backend.open(context)
        pending = {f"candidate-{index}": params
                   for index, params in enumerate(candidates)}
        try:
            results = exec_backend.run_trials(pending, injector.apply_trial)
        except Exception as error:
            if not exec_backend.out_of_process:
                raise
            # Same contract as the sweep engine: a broken pool degrades to
            # serial scoring instead of failing the deployment.
            import warnings

            warnings.warn(f"deployment verification fell back to serial "
                          f"evaluation ({type(error).__name__}: {error})",
                          RuntimeWarning, stacklevel=2)
            from ..execution import SerialBackend

            exec_backend.close()
            exec_backend = SerialBackend()
            exec_backend.open(context)
            results = exec_backend.run_trials(pending, injector.apply_trial)
        finally:
            exec_backend.close()
        scores = {result.digest: result.score for result in results}
        candidate_scores = [scores[f"candidate-{index}"]
                            for index in range(trials)]
        selected = int(np.argmax(candidate_scores))
        validation_score = candidate_scores[selected]

    injector.apply_trial(candidates[selected])

    errors: dict[str, float] = {}
    clean = injector.clean_parameters
    for name, parameter in model.named_parameters():
        denom = np.maximum(np.abs(clean[name]), 1e-12)
        errors[name] = float(np.mean(np.abs(parameter.data - clean[name]) / denom))

    return DeploymentReport(
        label=type(model).__name__,
        parameter_errors=errors,
        deployment_time=float(deployment_time),
        equivalent_sigma=DeviceVariationModel(config, deployment_time).effective_sigma(),
        crossbar_tiles=realization.tiles_programmed,
        n_parameters=len(errors),
        trials=int(trials),
        selected_trial=selected,
        candidate_scores=candidate_scores,
        validation_score=validation_score,
        elapsed_seconds=round(time.perf_counter() - start, 6),
    )
