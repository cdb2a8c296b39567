"""Tests for the scenario subsystem: specs, store, runner, library, CLI.

The load-bearing guarantees:

* ``ScenarioSpec`` round-trips through JSON and its content hash is stable
  against key order and scheduling knobs;
* the result store resumes (skips) completed cells, detects corruption with
  a labeled error, and stores **byte-identical** report files for any
  worker count (the determinism contract made auditable on disk);
* the figure harnesses produce bit-identical curves with and without a
  store-backed runner.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fault.drift import CompositeFault, LogNormalDrift, StuckAtFault
from repro.scenarios import (
    FaultSpec, ResultStore, ResultStoreError, Scenario, ScenarioRunner,
    ScenarioSpec, available_fault_models, available_scenarios, get_scenario,
)
from repro.scenarios.cli import main
from repro.scenarios.store import VOLATILE_REPORT_FIELDS
from repro.utils.config import ExperimentConfig


def tiny_spec(**overrides) -> ScenarioSpec:
    """A cell small enough that executing it takes well under a second."""
    defaults = dict(
        name="tiny", model="mlp", dataset="mnist",
        fault=FaultSpec("lognormal"), sigmas=(0.0, 0.8), trials=2, seed=3,
        train=ExperimentConfig(epochs=1, train_samples=64, test_samples=32,
                               batch_size=32, learning_rate=0.1))
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestFaultSpec:
    def test_registry_covers_issue_kinds(self):
        names = available_fault_models()
        for kind in ("lognormal", "gaussian", "uniform", "stuckat", "bitflip",
                     "composite"):
            assert kind in names

    def test_build_dispatches_severity(self):
        drift = FaultSpec("lognormal").build(0.7)
        assert isinstance(drift, LogNormalDrift) and drift.sigma == 0.7
        stuck = FaultSpec("stuckat", params={"stuck_value": 1.5}).build(0.2)
        assert isinstance(stuck, StuckAtFault)
        assert stuck.probability == 0.2 and stuck.stuck_value == 1.5

    def test_composite_parse_and_scale(self):
        spec = FaultSpec.parse("composite:lognormal+stuckat")
        assert spec.kind == "composite"
        assert [c.kind for c in spec.components] == ["lognormal", "stuckat"]
        scaled = FaultSpec("composite", components=(
            FaultSpec("lognormal"), FaultSpec("stuckat", scale=0.1)))
        built = scaled.build(1.0)
        assert isinstance(built, CompositeFault)
        assert built.models[1].probability == pytest.approx(0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            FaultSpec("made-up")

    def test_bad_params_raise_labeled_error(self):
        with pytest.raises(ValueError, match="bad parameters"):
            FaultSpec("bitflip", params={"nonsense": 3}).build(0.1)

    def test_json_round_trip(self):
        spec = FaultSpec("composite", components=(
            FaultSpec("gaussian", params={"relative": False}),
            FaultSpec("stuckat", scale=0.5)))
        assert FaultSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        """A typo'd key must not silently run a different fault model."""
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"kind": "gaussian",
                                 "parameters": {"relative": False}})


class TestScenarioSpec:
    def test_json_round_trip_preserves_hash(self):
        spec = tiny_spec(model_kwargs={"depth": 3},
                         context={"figure": "fig2_dropout", "harness_seed": 1})
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.to_dict() == spec.to_dict()
        assert restored.spec_hash() == spec.spec_hash()

    def test_hash_stable_across_key_order(self):
        spec = tiny_spec()
        shuffled = dict(reversed(list(spec.to_dict().items())))
        # A JSON file whose keys arrive in any order names the same cell.
        assert ScenarioSpec.from_dict(
            json.loads(json.dumps(shuffled))).spec_hash() == spec.spec_hash()

    def test_hash_ignores_scheduling_knobs(self):
        base = tiny_spec()
        assert tiny_spec(workers=4).spec_hash() == base.spec_hash()
        assert tiny_spec(max_chunk_trials=1).spec_hash() == base.spec_hash()
        config = ExperimentConfig(
            epochs=1, train_samples=64, test_samples=32,
            extra={"sweep_workers": 8, "sweep_chunk_trials": 2})
        assert tiny_spec(train=config).spec_hash() == tiny_spec(
            train=ExperimentConfig(epochs=1, train_samples=64,
                                   test_samples=32)).spec_hash()

    def test_hash_ignores_search_scheduling_knobs(self):
        """The async-search knobs name how a run was scheduled, not what
        cell it computed — same contract as sweep_workers."""
        base = tiny_spec()
        assert tiny_spec(search_workers=4).spec_hash() == base.spec_hash()
        assert tiny_spec(suggest_batch=2).spec_hash() == base.spec_hash()
        config = ExperimentConfig(
            epochs=1, train_samples=64, test_samples=32,
            extra={"search_workers": 4, "suggest_batch": 2})
        assert tiny_spec(train=config).spec_hash() == tiny_spec(
            train=ExperimentConfig(epochs=1, train_samples=64,
                                   test_samples=32)).spec_hash()

    def test_search_knobs_round_trip_in_dict_form(self):
        spec = tiny_spec(search_workers=2, suggest_batch=3)
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored.search_workers == 2
        assert restored.suggest_batch == 3
        assert restored.spec_hash() == tiny_spec().spec_hash()

    def test_hash_covers_result_determining_fields(self):
        base = tiny_spec()
        assert tiny_spec(seed=4).spec_hash() != base.spec_hash()
        assert tiny_spec(fault=FaultSpec("gaussian")).spec_hash() != base.spec_hash()
        assert tiny_spec(sigmas=(0.0, 0.9)).spec_hash() != base.spec_hash()
        assert tiny_spec(trials=3).spec_hash() != base.spec_hash()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(sigmas=())
        with pytest.raises(ValueError):
            tiny_spec(trials=0)
        with pytest.raises(ValueError):
            tiny_spec(metric="bleu")


class TestResultStore:
    def _stored(self, tmp_path):
        spec = tiny_spec()
        runner = ScenarioRunner(ResultStore(tmp_path / "store"))
        run = runner.run(spec)
        return spec, runner.store, run

    def test_save_load_round_trip(self, tmp_path):
        spec, store, run = self._stored(tmp_path)
        assert store.contains(spec)
        loaded = store.load(spec)
        assert loaded.means == run.report.means
        assert loaded.trial_scores == run.report.trial_scores

    def test_resume_skips_completed_cells(self, tmp_path):
        spec, store, first = self._stored(tmp_path)
        second = ScenarioRunner(store).run(spec)
        assert not first.cached and second.cached
        assert second.report.means == first.report.means

    def test_corrupted_report_raises_labeled_error(self, tmp_path):
        spec, store, _ = self._stored(tmp_path)
        report_file = store.path_for(spec) / "report.json"
        report_file.write_text(report_file.read_text()[:40])  # truncate
        with pytest.raises(ResultStoreError, match="corrupted"):
            store.load(spec)

    def test_mistyped_report_fields_raise_labeled_error(self, tmp_path):
        """Valid JSON with a scalar where a list belongs is corruption too,
        not a bare TypeError escaping to the caller."""
        spec, store, _ = self._stored(tmp_path)
        report_file = store.path_for(spec) / "report.json"
        tampered = json.loads(report_file.read_text())
        tampered["sigmas"] = 0.5
        report_file.write_text(json.dumps(tampered))
        with pytest.raises(ResultStoreError, match="corrupted"):
            store.load(spec)

    def test_edited_spec_detected_by_hash_mismatch(self, tmp_path):
        spec, store, _ = self._stored(tmp_path)
        spec_file = store.path_for(spec) / "spec.json"
        tampered = json.loads(spec_file.read_text())
        tampered["seed"] = 999  # claims to be a different experiment
        spec_file.write_text(json.dumps(tampered))
        with pytest.raises(ResultStoreError, match="hashes to"):
            store.load(spec)

    def test_missing_file_raises(self, tmp_path):
        spec, store, _ = self._stored(tmp_path)
        (store.path_for(spec) / "meta.json").unlink()
        with pytest.raises(ResultStoreError, match="missing meta.json"):
            store.load(spec)
        # The failed load evicted the stale index row, so the hand-broken
        # entry stops answering membership checks.
        assert not store.contains(spec)

    def test_missing_entry_raises(self, tmp_path):
        store = ResultStore(tmp_path / "empty")
        with pytest.raises(ResultStoreError, match="no entry"):
            store.load(tiny_spec())

    def test_entries_iterates_and_validates(self, tmp_path):
        spec, store, _ = self._stored(tmp_path)
        entries = list(store.entries())
        assert len(entries) == len(store) == 1
        stored_spec, report, meta = entries[0]
        assert stored_spec.spec_hash() == spec.spec_hash()
        assert "volatile" in meta

    def test_stale_staging_directories_are_invisible(self, tmp_path):
        """Regression: a crash mid-save leaves `<hash>.tmp-<pid>` behind;
        it must not surface as an entry or break report/compare."""
        import shutil

        spec, store, _ = self._stored(tmp_path)
        entry = store.path_for(spec)
        shutil.copytree(entry, entry.with_name(entry.name + ".tmp-9999"))
        assert len(store) == 1
        assert len(list(store.entries())) == 1  # does not raise


class TestDeterminism:
    def test_stored_report_bytes_identical_for_any_workers(self, tmp_path):
        """The acceptance criterion: workers ∈ {0, 2} → same report.json."""
        spec = tiny_spec()
        payloads = {}
        for workers in (0, 2):
            store = ResultStore(tmp_path / f"store-w{workers}")
            ScenarioRunner(store, workers=workers).run(spec)
            payloads[workers] = (store.path_for(spec) / "report.json").read_bytes()
        assert payloads[0] == payloads[2]

    def test_stored_report_bytes_identical_for_any_search_knobs(self, tmp_path):
        """The proof behind excluding search_workers/suggest_batch from a
        declarative cell's hash: such a cell runs no search."""
        spec = tiny_spec()
        payloads = {}
        for knobs in ({}, {"search_workers": 2, "suggest_batch": 4}):
            store = ResultStore(tmp_path / f"store-{len(knobs)}")
            ScenarioRunner(store, **knobs).run(
                tiny_spec(**knobs))
            payloads[len(knobs)] = (store.path_for(spec)
                                    / "report.json").read_bytes()
        assert payloads[0] == payloads[2]

    def test_volatile_fields_live_in_meta_not_report(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        ScenarioRunner(store).run(spec)
        report = json.loads((store.path_for(spec) / "report.json").read_text())
        meta = json.loads((store.path_for(spec) / "meta.json").read_text())
        for field in VOLATILE_REPORT_FIELDS:
            assert field not in report
            assert field in meta["volatile"]


class TestScenarioRunner:
    def test_summary_reports_no_clean_accuracy_without_sigma_zero(self, tmp_path):
        """A grid that never visits severity 0 has nothing 'clean' in it."""
        spec = tiny_spec(sigmas=(0.5, 1.0))
        run = ScenarioRunner(ResultStore(tmp_path / "store")).run(spec)
        assert run.summary()["clean"] is None
        run_with_zero = ScenarioRunner().run(tiny_spec())
        assert run_with_zero.summary()["clean"] == run_with_zero.report.means[0]

    def test_figure_cell_specs_cannot_be_executed_declaratively(self):
        spec = tiny_spec(context={"figure": "fig2_dropout"})
        with pytest.raises(ValueError, match="figure-harness context"):
            ScenarioRunner().run(spec)

    def test_run_scenario_by_name_and_resume(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = ScenarioRunner(store).run_scenario("smoke")
        again = ScenarioRunner(store).run_scenario("smoke")
        assert [run.cached for run in first] == [False]
        assert [run.cached for run in again] == [True]
        assert again[0].report.means == first[0].report.means

    def test_figure_harness_with_store_matches_plain_run(self, tmp_path):
        """Store-backed and store-less runs produce bit-identical curves."""
        from repro.experiments import run_dropout_ablation

        config = ExperimentConfig(epochs=1, train_samples=64, test_samples=32,
                                  drift_trials=2, sigma_grid=(0.0, 1.0),
                                  batch_size=32, learning_rate=0.1)
        plain = run_dropout_ablation(config, seed=0)
        runner = ScenarioRunner(ResultStore(tmp_path / "store"))
        stored = run_dropout_ablation(config, seed=0, runner=runner)
        rerun = run_dropout_ablation(
            config, seed=0, runner=ScenarioRunner(runner.store))
        for a, b, c in zip(plain, stored, rerun):
            assert a.means == b.means == c.means
            assert a.stds == b.stds == c.stds
        assert len(runner.store) == 3  # one cell per dropout variant

    def test_figure_cell_hash_covers_call_site_variants(self, tmp_path):
        """Regression: the harness threads one RNG through every variant, so
        a call that runs a *subset* of variants trains different weights for
        the same label — its cells must not be answered from a store filled
        by the full-variant call."""
        from repro.experiments import run_dropout_ablation, run_depth_ablation

        config = ExperimentConfig(epochs=1, train_samples=64, test_samples=32,
                                  drift_trials=1, sigma_grid=(0.0, 1.0),
                                  batch_size=32, learning_rate=0.1)
        store = ResultStore(tmp_path / "store")
        run_depth_ablation(config, seed=0, depths=(3, 6),
                           runner=ScenarioRunner(store))
        subset_runner = ScenarioRunner(store)
        run_depth_ablation(config, seed=0, depths=(6,), runner=subset_runner)
        assert [run.cached for run in subset_runner.runs] == [False]

        # Different figures sharing a label/config never collide either.
        dropout_runner = ScenarioRunner(store)
        run_dropout_ablation(config, seed=0, runner=dropout_runner)
        assert not any(run.cached for run in dropout_runner.runs)

    def test_fig3_cell_hash_covers_method_subset(self, tmp_path):
        from repro.experiments.fig3_classification import _cell_spec

        config = ExperimentConfig.fast()
        full = _cell_spec("a_mlp_mnist", "ERM", "mlp", "mnist", config, 0,
                          methods=("erm", "bayesft"))
        subset = _cell_spec("a_mlp_mnist", "ERM", "mlp", "mnist", config, 0,
                            methods=("erm",))
        assert full.spec_hash() != subset.spec_hash()

    def test_fig3_batched_search_misses_the_sequential_store(self, tmp_path):
        """Regression: suggest_batch changes which model the BayesFT search
        produces, so a q=2 panel must not be answered with the stored q=1
        curves — while q=1 keeps its pre-existing cell hashes."""
        from repro.experiments.fig3_classification import (
            _cell_spec, run_classification_comparison,
        )

        def config(**extra):
            return ExperimentConfig(epochs=2, train_samples=64,
                                    test_samples=32, drift_trials=2,
                                    sigma_grid=(0.0, 1.0), batch_size=32,
                                    learning_rate=0.1, bo_trials=2,
                                    monte_carlo_samples=2, extra=extra)

        methods = ("bayesft", "erm")
        store = ResultStore(tmp_path / "store")

        def panel(**extra):
            runner = ScenarioRunner(store)
            run_classification_comparison("a_mlp_mnist", config(**extra),
                                          methods=methods, seed=0,
                                          runner=runner)
            return runner.runs

        sequential = panel()
        assert [run.cached for run in sequential] == [False, False]
        assert [run.spec.spec_hash() for run in sequential] == [
            _cell_spec("a_mlp_mnist", label, "mlp", "mnist", config(), 0,
                       methods).spec_hash() for label in ("BayesFT", "ERM")]
        batched = panel(suggest_batch=2)
        assert [run.cached for run in batched] == [False, False]
        for seq, bat in zip(sequential, batched):
            assert seq.spec.spec_hash() != bat.spec.spec_hash()
        assert [run.cached for run in panel()] == [True, True]
        assert [run.cached for run in panel(suggest_batch=2,
                                            search_workers=2)] == [True, True]

    def test_scenario_registry_contents(self):
        names = available_scenarios()
        assert "smoke" in names and "fault_matrix" in names
        assert "fig2_dropout" in names and "fig3_b_lenet_mnist" in names
        scenario = get_scenario("fault_matrix")
        faults = {spec.fault.describe() for spec in scenario.cells()}
        assert {"lognormal", "gaussian", "uniform", "stuckat", "bitflip",
                "composite:lognormal+stuckat"} <= faults

    def test_register_scenario_validates_shape(self):
        from repro.scenarios import register_scenario

        with pytest.raises(ValueError, match="exactly one"):
            register_scenario(Scenario(name="x-test-only",
                                       description="no builder and no figure"))
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("smoke"))


class TestCLI:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        assert "fault_matrix" in capsys.readouterr().out

    def test_run_report_compare_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["run", "smoke", "--out", out, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cells_executed"] == 1 and first["cells_cached"] == 0

        assert main(["run", "smoke", "--out", out, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cells_cached"] >= 1  # the acceptance criterion

        assert main(["report", "--out", out, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["cells"]) == 1
        assert report["cells"][0]["name"] == "smoke-mlp-lognormal"

        assert main(["compare", "smoke", "--out", out, "--json"]) == 0
        compare = json.loads(capsys.readouterr().out)
        assert compare["cells"][0]["fault"] == "lognormal"

    def test_compare_requires_stored_cells(self, tmp_path):
        with pytest.raises(SystemExit, match="not in"):
            main(["compare", "smoke", "--out", str(tmp_path / "nothing")])

    def test_compare_rejects_figure_scenarios(self, tmp_path):
        with pytest.raises(SystemExit, match="figure"):
            main(["compare", "fig2_dropout", "--out", str(tmp_path)])

    def test_corrupted_store_reported_as_error(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["run", "smoke", "--out", out]) == 0
        store = ResultStore(out)
        entry = next(iter(store.hashes()))
        (store.entry_dir(entry) / "report.json").write_text("{not json")
        assert main(["report", "--out", out]) == 2
        assert "corrupted" in capsys.readouterr().err


class TestCliUserErrors:
    """A user error is one labelled stderr line and a non-zero exit, never
    a traceback — for every subcommand that takes a path or a name."""

    @pytest.mark.parametrize("argv, expected", [
        (["trace", "summarize", "{tmp}/missing.jsonl"], "cannot read trace"),
        (["trace", "summarize", "{tmp}"], "cannot read trace"),
        (["trace", "summarize", "{tmp}/garbage.jsonl"], "cannot read trace"),
        (["run", "no_such_scenario"], "invalid choice"),
        (["run", "smoke", "--backend", "warp-drive"], "invalid choice"),
        (["run", "smoke", "--out", "{tmp}/afile"], "not a directory"),
        (["report", "--out", "{tmp}/missing"], "no result store"),
        (["compare", "no_such_scenario", "--out", "{tmp}"],
         "unknown scenario"),
        (["query", "--out", "{tmp}/missing"], "no result store"),
        (["migrate-store", "--out", "{tmp}/missing"], "no result store"),
        (["gc", "--out", "{tmp}/afile"], "not a directory"),
    ], ids=lambda value: value if isinstance(value, str) else " ".join(
        value[:2]).replace("{tmp}/", ""))
    def test_one_labelled_line_and_nonzero_exit(self, tmp_path, capsys,
                                                argv, expected):
        (tmp_path / "afile").write_text("not a store")
        (tmp_path / "garbage.jsonl").write_text("{not json\n")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert code not in (0, None)
        assert len(lines) == 1 and "error:" in lines[0], captured.err
        assert expected in lines[0]
        assert not (tmp_path / "missing").exists()  # nothing was created


class TestPolicySpecs:
    """Per-layer fault policies as spec data (`policy` field + registry)."""

    POLICY = {"kind": "per_layer_sigma",
              "sigma_scales": {r"layers\.0": 2.0},
              "default_scale": 0.5}

    def test_policy_registry_contents(self):
        from repro.fault.policy import available_policies

        assert {"uniform", "per_layer_sigma"} <= set(available_policies())

    def test_policy_enters_the_spec_hash(self):
        base = tiny_spec()
        with_policy = tiny_spec(policy=dict(self.POLICY))
        assert with_policy.spec_hash() != base.spec_hash()
        # ... and different policy parameters are different cells.
        stronger = dict(self.POLICY, default_scale=1.0)
        assert tiny_spec(policy=stronger).spec_hash() != with_policy.spec_hash()

    def test_policy_hash_stable_across_json_round_trip(self):
        spec = tiny_spec(policy=dict(self.POLICY))
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.policy == spec.policy
        assert restored.spec_hash() == spec.spec_hash()

    def test_unknown_policy_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault policy"):
            tiny_spec(policy={"kind": "chaotic"})
        with pytest.raises(ValueError, match="'kind'"):
            tiny_spec(policy={"sigma_scales": {}})

    def test_per_layer_sigma_requires_lognormal_fault(self, tmp_path):
        from repro.fault.policy import build_policy

        with pytest.raises(ValueError, match="log-normal"):
            build_policy("per_layer_sigma", 0.5, FaultSpec("stuckat"),
                         sigma_scales={"w": 1.0})

    def test_policy_cell_executes_and_differs_from_uniform(self, tmp_path):
        runner = ScenarioRunner(ResultStore(tmp_path / "results"))
        uniform = runner.run(tiny_spec(name="uniform-cell"))
        # Only the first layer drifts, at double strength; everything else
        # stays clean — a different measurement than uniform drift.
        selective = runner.run(tiny_spec(
            name="policy-cell",
            policy={"kind": "per_layer_sigma",
                    "sigma_scales": {r"layers\.0\.": 2.0}}))
        assert uniform.report.means[0] == selective.report.means[0]  # σ=0
        assert uniform.report.trial_scores != selective.report.trial_scores

    def test_policy_cell_resumes_from_store(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        spec = tiny_spec(name="policy-resume", policy=dict(self.POLICY))
        first = ScenarioRunner(store).run(spec)
        second = ScenarioRunner(store).run(spec)
        assert not first.cached and second.cached
        assert second.report.means == first.report.means


class TestDetectionCells:
    """Declarative fig3-detection-style cells (mAP sweeps in the runner)."""

    def test_detection_smoke_scenario_runs_and_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        cold = ScenarioRunner(store).run_scenario("detection_smoke")
        assert len(cold) == 1 and not cold[0].cached
        report = cold[0].report
        assert report.sigmas[0] == 0.0
        assert report.means[0] > 0.2          # the detector really detects
        assert report.means[-1] < report.means[0]   # and drift degrades it
        resumed = ScenarioRunner(store).run_scenario("detection_smoke")
        assert resumed[0].cached
        assert resumed[0].report.means == report.means

    def test_detection_cell_requires_map_metric(self):
        spec = tiny_spec(name="bad-detector", model="detector",
                         dataset="pedestrians", metric="accuracy",
                         image_size=32)
        with pytest.raises(ValueError, match="metric='map'"):
            ScenarioRunner().run(spec)

    def test_detection_cell_is_scheduling_invariant(self, tmp_path):
        spec = get_scenario("detection_smoke").cells(seed=0)[0]
        serial = ScenarioRunner().run(spec)
        parallel = ScenarioRunner(workers=2, backend="shared_memory").run(spec)
        assert (parallel.report.to_json(canonical=True)
                == serial.report.to_json(canonical=True))


class TestCellFanOut:
    """run_specs(cell_workers=2): matrix cells over worker processes."""

    def _specs(self):
        return [tiny_spec(name=f"cell-{i}", seed=i) for i in range(3)]

    def test_fanned_matrix_matches_serial_bit_for_bit(self, tmp_path):
        specs = self._specs()
        serial_store = ResultStore(tmp_path / "serial")
        ScenarioRunner(serial_store).run_specs(specs)
        fanned_store = ResultStore(tmp_path / "fanned")
        runs = ScenarioRunner(fanned_store).run_specs(specs, cell_workers=2)
        assert [run.spec.name for run in runs] == [s.name for s in specs]
        for spec in specs:
            a = (serial_store.path_for(spec) / "report.json").read_bytes()
            b = (fanned_store.path_for(spec) / "report.json").read_bytes()
            assert a == b

    def test_interrupted_fill_in_resumes_without_recompute(self, tmp_path):
        specs = self._specs()
        store = ResultStore(tmp_path / "results")
        # A "killed" matrix run that only finished the first cell.
        ScenarioRunner(store).run_specs(specs[:1])
        runner = ScenarioRunner(store)
        runs = runner.run_specs(specs, cell_workers=2)
        assert [run.cached for run in runs] == [True, False, False]
        # Everything is now stored; a further run recomputes nothing.
        again = ScenarioRunner(store).run_specs(specs, cell_workers=2)
        assert [run.cached for run in again] == [True, True, True]

    def test_figure_context_cells_cannot_fan_out(self):
        specs = [tiny_spec(name=f"ctx-{i}", context={"figure": "fig9"})
                 for i in range(2)]
        with pytest.raises(ValueError, match="figure-harness context"):
            ScenarioRunner().run_specs(specs, cell_workers=2)

    def test_figure_scenarios_cannot_fan_out(self, tmp_path):
        runner = ScenarioRunner(ResultStore(tmp_path / "results"))
        with pytest.raises(ValueError, match="cannot fan out"):
            runner.run_scenario("fig2_dropout", cell_workers=2)


class TestStoreGC:
    def _filled(self, tmp_path, n=3):
        store = ResultStore(tmp_path / "results")
        runner = ScenarioRunner(store)
        for i in range(n):
            runner.run(tiny_spec(name=f"gc-{i}", seed=i), scenario="gc-test")
        return store

    def test_stats_accounting(self, tmp_path):
        store = self._filled(tmp_path)
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        assert stats["by_scenario"] == {"gc-test": 3}
        assert stats["oldest"] <= stats["newest"]
        assert stats["stale_staging_dirs"] == 0

    def test_gc_keep_latest_removes_oldest(self, tmp_path):
        store = self._filled(tmp_path)
        # Make creation order unambiguous (the stamp has 1s resolution);
        # gc ranks from the index, so hand-edited stamps need a reindex.
        for index, spec_hash in enumerate(sorted(store.hashes())):
            meta_path = store.entry_dir(spec_hash) / "meta.json"
            meta = json.loads(meta_path.read_text())
            meta["created_at"] = f"2026-01-0{index + 1}T00:00:00+0000"
            meta_path.write_text(json.dumps(meta))
        store.reindex()
        ordered = sorted(store.hashes())
        result = store.gc(keep_latest=1)
        assert result["entries_kept"] == 1
        assert sorted(result["removed_entries"]) == ordered[:2]
        assert result["bytes_freed"] > 0
        assert list(store.hashes()) == [ordered[2]]

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        store = self._filled(tmp_path)
        result = store.gc(keep_latest=0, dry_run=True)
        assert len(result["removed_entries"]) == 3 and result["dry_run"]
        assert store.stats()["entries"] == 3

    def test_gc_collects_stale_staging_dirs(self, tmp_path):
        store = self._filled(tmp_path, n=1)
        stale = store.root / ("f" * 64 + ".tmp-123")
        stale.mkdir()
        (stale / "report.json").write_text("{}")
        assert store.stats()["stale_staging_dirs"] == 1
        result = store.gc()
        assert result["removed_staging"] == [stale.name]
        assert result["removed_entries"] == []
        assert not stale.exists()
        assert store.stats()["entries"] == 1  # complete entries untouched

    def test_gc_rejects_negative_keep(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            ResultStore(tmp_path).gc(keep_latest=-1)

    def test_cli_gc_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["run", "smoke", "--out", out]) == 0
        capsys.readouterr()
        assert main(["gc", "--out", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["before"]["entries"] == 1
        assert payload["gc"]["removed_entries"] == []
        assert main(["gc", "--out", out, "--keep-latest", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["gc"]["removed_entries"]) == 1
        assert payload["after"]["entries"] == 0


class TestSchedulingKnobInvariance:
    def test_backend_knob_never_enters_the_hash(self):
        base = tiny_spec()
        assert tiny_spec(backend="shared_memory").spec_hash() == base.spec_hash()
        assert tiny_spec(workers=4, backend="process").spec_hash() == base.spec_hash()

    def test_runner_backend_override_is_result_invariant(self, tmp_path):
        spec = tiny_spec(name="backend-invariant")
        serial = ScenarioRunner().run(spec)
        shm = ScenarioRunner(workers=2, backend="shared_memory").run(spec)
        assert (shm.report.to_json(canonical=True)
                == serial.report.to_json(canonical=True))

    def test_cli_backend_flag_produces_identical_store(self, tmp_path, capsys):
        plain, shm = str(tmp_path / "plain"), str(tmp_path / "shm")
        assert main(["run", "smoke", "--out", plain, "--json"]) == 0
        assert main(["run", "smoke", "--out", shm, "--workers", "2",
                     "--backend", "shared_memory", "--json"]) == 0
        capsys.readouterr()
        store = ResultStore(plain)
        entry = next(iter(store.hashes()))
        a = (ResultStore(plain).entry_dir(entry) / "report.json").read_bytes()
        b = (ResultStore(shm).entry_dir(entry) / "report.json").read_bytes()
        assert a == b

    def test_cli_shared_memory_alias_stores_process_bytes(self, tmp_path,
                                                          capsys):
        """``--backend shared_memory`` is an alias: it runs the process
        pool, so its stored reports equal ``--backend process`` byte for
        byte and its volatile run record names the pool actually used."""
        stores = {}
        for backend in ("process", "shared_memory"):
            stores[backend] = ResultStore(tmp_path / backend)
            assert main(["run", "smoke", "--out", str(stores[backend].root),
                         "--workers", "2", "--backend", backend,
                         "--json"]) == 0
        capsys.readouterr()
        hashes = sorted(stores["process"].hashes())
        assert hashes == sorted(stores["shared_memory"].hashes())
        for entry in hashes:
            pooled, alias = (store.entry_dir(entry) for store in stores.values())
            assert ((pooled / "report.json").read_bytes()
                    == (alias / "report.json").read_bytes())
            meta = json.loads((alias / "meta.json").read_text())
            assert meta["volatile"]["backend"] == "process"


class TestCellFanOutOverrides:
    def test_runner_overrides_reach_worker_cells(self, tmp_path):
        """--chunk-trials etc. must keep working under --cell-workers.

        The engine setting a cell ran with is auditable in its meta.json
        volatile record, so the stored cells prove the override crossed
        the process boundary.
        """
        store = ResultStore(tmp_path / "results")
        specs = [tiny_spec(name=f"ov-{i}", seed=i) for i in range(2)]
        runner = ScenarioRunner(store, max_chunk_trials=1)
        runner.run_specs(specs, cell_workers=2)
        for spec in specs:
            meta = json.loads(
                (store.path_for(spec) / "meta.json").read_text())
            assert meta["volatile"]["max_chunk_trials"] == 1
            assert meta["volatile"]["peak_resident_trials"] == 1

    def test_cell_errors_propagate_without_serial_retry(self, tmp_path):
        """A deterministic cell failure is not pool breakage: no fallback
        warning, no wasted serial recompute — the original error surfaces."""
        import warnings as warnings_module

        # Passes spec validation, fails in the runner: detection dataset
        # with a classification metric.
        bad = tiny_spec(name="bad-cell", model="detector",
                        dataset="pedestrians", metric="accuracy",
                        image_size=32)
        good = tiny_spec(name="good-cell")
        runner = ScenarioRunner(ResultStore(tmp_path / "results"))
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="metric='map'"):
                runner.run_specs([bad, good], cell_workers=2)
