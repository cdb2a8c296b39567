"""Tests for the pluggable execution layer (`repro.execution`).

The load-bearing guarantee is backend equivalence: a seeded sweep produces a
byte-identical canonical report whether trials are evaluated in-process or
in a worker pool — for any worker count and any chunk size, σ=0 cache fast
path included.  On top of that: registry resolution rules (``shared_memory``
is an alias of ``process``), shipping accounting, the serial-fallback
contract, and the execution-layer users (`deploy_on_reram`
program-and-verify, the BO objective).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticMNIST, train_test_split
from repro.evaluation import DriftSweepEngine
from repro.execution import (
    ExecutionBackend, ProcessPoolBackend, SerialBackend, available_backends,
    resolve_backend, validate_backend,
)
from repro.models import build_mlp
from repro.training import train_classifier


@pytest.fixture(scope="module")
def trained():
    dataset = SyntheticMNIST(n_samples=200, image_size=16, rng=13)
    train_set, test_set = train_test_split(dataset, test_fraction=0.3, rng=13)
    model = build_mlp(256, depth=3, width=32, num_classes=10, rng=13)
    train_classifier(model, train_set, epochs=3, learning_rate=0.1, rng=13)
    return model, test_set


class TestRegistry:
    def test_issue_backends_registered(self):
        assert {"serial", "process", "shared_memory"} <= set(available_backends())

    def test_resolve_from_workers_matches_historical_behaviour(self):
        assert isinstance(resolve_backend(None, workers=0), SerialBackend)
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)
        assert isinstance(resolve_backend(None, workers=2), ProcessPoolBackend)

    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_shared_memory_is_an_alias_of_process(self):
        validate_backend("shared_memory")
        backend = resolve_backend("shared_memory", workers=3)
        assert type(backend) is ProcessPoolBackend
        assert backend.name == "process" and backend.workers == 3

    def test_named_pool_backend_defaults_to_two_workers(self):
        assert resolve_backend("process", workers=0).workers == 2
        assert resolve_backend("process", workers=4).workers == 4

    def test_unknown_backend_rejected_with_available_list(self):
        with pytest.raises(ValueError, match="shared_memory"):
            resolve_backend("gpu")

    def test_engine_rejects_unknown_backend_at_construction(self, trained):
        model, test_set = trained
        with pytest.raises(ValueError, match="unknown execution backend"):
            DriftSweepEngine(model, test_set, backend="warp-drive")

    def test_pool_backend_needs_two_workers(self):
        with pytest.raises(ValueError, match="at least 2 workers"):
            ProcessPoolBackend(workers=1)


class TestBackendEquivalence:
    """Seeded sweeps are byte-identical across every backend/schedule."""

    SIGMAS = (0.0, 0.6, 1.2)  # σ=0 exercises the deterministic-drift fast path

    def _canonical(self, trained, **kwargs) -> str:
        model, test_set = trained
        report = DriftSweepEngine(model, test_set, trials=3, rng=99,
                                  **kwargs).run(self.SIGMAS, label="equiv")
        return report.to_json(canonical=True)

    @pytest.mark.parametrize("kwargs", [
        dict(backend="serial"),
        dict(workers=2),                       # historical selector
        dict(backend="process", workers=2),
        dict(backend="process", workers=3),
        dict(backend="shared_memory", workers=2),  # registry alias
        dict(backend="process", workers=2, max_chunk_trials=1),
        dict(backend="process", workers=2, max_chunk_trials=2),
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_byte_identical_canonical_reports(self, trained, kwargs):
        assert self._canonical(trained, **kwargs) == self._canonical(trained)

    def test_sigma_zero_fast_path_survives_every_backend(self, trained):
        model, test_set = trained
        for backend in ("serial", "process"):
            report = DriftSweepEngine(model, test_set, trials=4, rng=5,
                                      workers=2, backend=backend).run((0.0, 0.9))
            assert report.cache_hits >= 3          # σ=0 collapses to one eval
            assert report.stds[0] == 0.0
            assert report.n_evaluations == 8 - report.cache_hits

    def test_backend_instance_can_be_passed_and_reused(self, trained):
        """One backend instance serves several sweeps (reopened each run)."""
        model, test_set = trained
        backend = ProcessPoolBackend(workers=2)
        first = DriftSweepEngine(model, test_set, trials=2, rng=7,
                                 backend=backend).run((0.0, 0.8))
        second = DriftSweepEngine(model, test_set, trials=2, rng=7,
                                  backend=backend).run((0.0, 0.8))
        assert first.to_json(canonical=True) == second.to_json(canonical=True)
        assert second.backend == "process"


class TestShippingAccounting:
    def test_serial_ships_nothing(self, trained):
        model, test_set = trained
        report = DriftSweepEngine(model, test_set, trials=3, rng=1).run((0.8,))
        assert report.backend == "serial"
        assert report.tasks_shipped == 0 and report.bytes_shipped == 0

    def test_volatile_fields_exclude_shipping_from_canonical(self, trained):
        model, test_set = trained
        report = DriftSweepEngine(model, test_set, trials=2, rng=1,
                                  workers=2, backend="process").run((0.7,))
        canonical = report.canonical_dict()
        for field in ("tasks_shipped", "bytes_shipped", "backend", "workers"):
            assert field not in canonical


class _ExplodingPoolBackend(ExecutionBackend):
    """Out-of-process backend whose shipping always fails."""

    name = "exploding"
    out_of_process = True

    def run_trials(self, pending, apply_trial):
        raise OSError("no forks left")


class _ExplodingSerialBackend(_ExplodingPoolBackend):
    name = "exploding-serial"
    out_of_process = False


class TestFallback:
    def test_broken_pool_degrades_to_serial_with_identical_results(self, trained):
        model, test_set = trained
        reference = DriftSweepEngine(model, test_set, trials=3, rng=17).run((0.0, 0.9))
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            degraded = DriftSweepEngine(model, test_set, trials=3, rng=17,
                                        backend=_ExplodingPoolBackend()).run((0.0, 0.9))
        assert degraded.fallback_reason.startswith("OSError")
        assert degraded.backend == "serial"
        assert degraded.to_json(canonical=True) == reference.to_json(canonical=True)

    def test_in_process_backend_errors_propagate(self, trained):
        model, test_set = trained
        engine = DriftSweepEngine(model, test_set, trials=2, rng=0,
                                  backend=_ExplodingSerialBackend())
        with pytest.raises(OSError, match="no forks left"):
            engine.run((0.5,))

    def test_weights_restored_after_fallback_sweep(self, trained):
        model, test_set = trained
        before = model.state_dict()
        with pytest.warns(RuntimeWarning):
            DriftSweepEngine(model, test_set, trials=2, rng=0,
                             backend=_ExplodingPoolBackend()).run((1.2,))
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])


class TestObjectiveBackend:
    def test_bo_objective_identical_through_shared_memory(self, trained):
        from repro.core.objective import DriftMarginalizedObjective

        model, test_set = trained
        values = {}
        for backend in (None, "shared_memory"):
            objective = DriftMarginalizedObjective(
                test_set, sigma=0.7, monte_carlo_samples=3, rng=11,
                sweep_workers=2 if backend else 0, sweep_backend=backend)
            values[backend] = objective.evaluate_with_clean(model)[:2]
        assert values[None] == values["shared_memory"]


class TestDeployProgramAndVerify:
    def _model(self):
        return build_mlp(64, depth=2, width=12, num_classes=4, rng=0)

    def _data(self):
        dataset = SyntheticMNIST(n_samples=40, image_size=8, rng=2)
        _, test_set = train_test_split(dataset, test_fraction=0.5, rng=2)
        return test_set

    def test_multi_trial_deploy_needs_validation_data(self):
        from repro.reram import deploy_on_reram

        with pytest.raises(ValueError, match="validate_data"):
            deploy_on_reram(self._model(), trials=3)

    def test_best_candidate_is_programmed(self):
        from repro.reram import deploy_on_reram

        report = deploy_on_reram(self._model(), rng=4, trials=3,
                                 validate_data=self._data())
        assert report.trials == 3
        assert len(report.candidate_scores) == 3
        assert report.selected_trial == int(np.argmax(report.candidate_scores))
        assert report.validation_score == max(report.candidate_scores)
        assert report.mean_relative_error() > 0  # the deployment really perturbs
        restored = type(report).from_json(report.to_json())
        assert restored == report

    def test_candidate_selection_identical_across_backends(self):
        from repro.reram import deploy_on_reram

        results = []
        for backend in ("serial", "process"):
            model = self._model()
            report = deploy_on_reram(model, rng=9, trials=3,
                                     validate_data=self._data(),
                                     backend=backend)
            results.append((report.candidate_scores, report.selected_trial,
                            {k: v.tolist() for k, v in model.state_dict().items()}))
        assert results[0] == results[1]

    def test_single_trial_deploy_unchanged(self):
        from repro.reram import deploy_on_reram

        report = deploy_on_reram(self._model(), rng=1)
        assert report.trials == 1 and report.selected_trial == 0
        assert report.candidate_scores == [] and report.validation_score is None
