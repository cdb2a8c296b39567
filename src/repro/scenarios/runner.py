"""Execute scenario specs on the sweep engine, with resume from the store.

:class:`ScenarioRunner` is the orchestration layer between the declarative
:class:`~repro.scenarios.spec.ScenarioSpec` world and the measurement
machinery: it resolves model and dataset names through the registries,
trains the model per the embedded
:class:`~repro.utils.config.ExperimentConfig`, sweeps the severity grid on
:class:`~repro.evaluation.sweep.DriftSweepEngine`, and persists each
completed cell into a :class:`~repro.scenarios.store.ResultStore` keyed by
the spec's content hash — so re-running a scenario skips every finished
cell and cross-scenario comparisons read from disk.

Two entry paths share the sweep/store logic:

* :meth:`run` — fully declarative cells: the runner builds, trains and
  sweeps from the spec alone (each cell is RNG-independent, seeded by
  ``spec.seed``, so cells can be cached, skipped and re-ordered freely);
* :meth:`sweep_trained` — figure-harness cells: the harness owns model
  construction and training (preserving its exact RNG threading, so curves
  match the pre-scenario code paths bit for bit) and routes only the sweep
  through the runner, gaining the cache and the store for free.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..data.loader import train_test_split
from ..data.registry import build_dataset, dataset_info
from ..evaluation.detection_metrics import mean_average_precision
from ..evaluation.sweep import DriftSweepEngine, SweepReport
from ..execution.cells import run_cells
from ..fault.policy import build_policy
from ..models.registry import build_model
from ..telemetry import ProgressReporter, current, span_breakdown
from ..training.trainer import train_classifier, train_detector
from .spec import ScenarioSpec
from .store import ResultStore

__all__ = ["ScenarioRunner", "ScenarioRun", "EVALUATION_SEED_OFFSET"]

#: Added to ``spec.seed`` for the default evaluation RNG, matching the
#: fig2 harness convention (training and evaluation streams never mix).
EVALUATION_SEED_OFFSET = 99991


@dataclass
class ScenarioRun:
    """Outcome of one cell: the report, and whether the store answered it."""

    spec: ScenarioSpec
    report: SweepReport
    cached: bool = False
    elapsed_seconds: float = 0.0

    def summary(self) -> dict:
        """One machine-readable row for CLI/benchmark output.

        ``clean`` is the zero-severity accuracy, and ``None`` when the
        grid does not include severity 0 (nothing in that sweep is clean).
        """
        curve = self.report.curve()
        return {
            "name": self.spec.name,
            "model": self.spec.model,
            "dataset": self.spec.dataset,
            "fault": self.spec.fault.describe(),
            "hash": self.spec.spec_hash()[:16],
            "cached": self.cached,
            "clean": (self.report.means[self.report.sigmas.index(0.0)]
                      if 0.0 in self.report.sigmas else None),
            "worst": float(min(self.report.means)),
            "n_evaluations": self.report.n_evaluations,
            "cache_hits": self.report.cache_hits,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "sigmas": list(curve.sigmas),
            "means": list(curve.means),
        }


class ScenarioRunner:
    """Resolve, execute and persist scenario cells.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore`; without one every cell is executed
        fresh and nothing is persisted (the figure harnesses default to
        this, keeping them side-effect free).
    workers, max_chunk_trials, backend, trial_batch:
        Scheduling overrides applied to every cell (``None`` defers to the
        spec); ``backend`` names a :mod:`repro.execution` trial backend
        (``serial``/``process``; ``shared_memory`` aliases ``process``),
        ``trial_batch`` how many trials each stacked forward pass
        evaluates.  They never change results — the engine's determinism
        contract — and never enter the spec hash.
    search_workers, suggest_batch:
        Async BO-search scheduling for figure scenarios whose harness runs a
        BayesFT search (fig3): ``suggest_batch`` architectures proposed per
        round, evaluated over ``search_workers`` processes.  Injected into
        the harness config's ``extra``; a batched search records its
        ``suggest_batch`` in the context (and so the hash) of the cells
        it produces.  ``search_workers`` never changes a batched search's
        seeded results; the canonical trace depends only on
        ``suggest_batch``.
    progress:
        Optional ``callable(str)`` receiving one line per cell (the CLI
        passes ``print``).
    reporter:
        Optional :class:`~repro.telemetry.ProgressReporter` emitting
        ``done/total`` + ETA lines as matrix cells complete (the CLI's
        ``--progress`` flag).  Purely cosmetic — wall-clock only.
    """

    def __init__(self, store: ResultStore | None = None, *,
                 workers: int | None = None,
                 max_chunk_trials: int | None = None,
                 backend: str | None = None,
                 trial_batch: int | None = None,
                 search_workers: int | None = None,
                 suggest_batch: int | None = None,
                 progress: Callable[[str], None] | None = None,
                 reporter: ProgressReporter | None = None):
        self.store = store
        self.workers = workers
        self.max_chunk_trials = max_chunk_trials
        self.backend = backend
        self.trial_batch = trial_batch
        self.search_workers = search_workers
        self.suggest_batch = suggest_batch
        self.progress = progress
        self.reporter = reporter
        #: Every cell this runner has resolved, in execution order.
        self.runs: list[ScenarioRun] = []
        #: Degradation events (pool fallbacks) observed by this runner, in
        #: occurrence order — surfaced in CLI run summaries so a degraded
        #: run is detectable after its RuntimeWarning has scrolled away.
        self.degraded: list[dict] = []

    # ------------------------------------------------------------------ #
    def _log(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _engine_kwargs(self, spec: ScenarioSpec) -> dict:
        workers = self.workers if self.workers is not None else spec.workers
        max_chunk = (self.max_chunk_trials if self.max_chunk_trials is not None
                     else spec.max_chunk_trials)
        backend = self.backend if self.backend is not None else spec.backend
        trial_batch = (self.trial_batch if self.trial_batch is not None
                       else spec.trial_batch)
        kwargs = dict(trials=spec.trials, workers=int(workers),
                      max_chunk_trials=max_chunk, backend=backend,
                      trial_batch=trial_batch,
                      drift_factory=self._drift_factory(spec))
        if spec.metric == "map":
            kwargs["evaluate_fn"] = functools.partial(mean_average_precision,
                                                      iou_threshold=0.5)
        return kwargs

    @staticmethod
    def _drift_factory(spec: ScenarioSpec):
        """severity → drift model (or per-layer policy, when the spec asks).

        A cell without a ``policy`` sweeps its fault model uniformly over
        every parameter; with one, each grid point resolves through the
        :mod:`repro.fault.policy` registry so the sweep drifts layers
        selectively (policy parameters are part of the spec hash).
        """
        if spec.policy is None:
            return spec.fault.factory()
        policy = dict(spec.policy)
        kind = policy.pop("kind")

        def _factory(severity: float):
            return build_policy(kind, severity, spec.fault, **policy)

        return _factory

    def _finish(self, spec: ScenarioSpec, report: SweepReport, cached: bool,
                elapsed: float, scenario: str | None,
                telemetry_summary: dict | None = None) -> ScenarioRun:
        if not cached and report.fallback_reason:
            self.degraded.append({"cell": spec.name, "layer": "sweep",
                                  "reason": report.fallback_reason})
        if not cached and self.store is not None:
            metadata = {"scenario": scenario} if scenario else {}
            if telemetry_summary:
                # Volatile by construction (wall timings) — meta.json only,
                # never report.json, so store bytes stay canonical.
                metadata["telemetry"] = telemetry_summary
            self.store.save(spec, report, metadata)
        run = ScenarioRun(spec=spec, report=report, cached=cached,
                          elapsed_seconds=elapsed)
        self.runs.append(run)
        state = "cached" if cached else f"ran in {elapsed:.2f}s"
        self._log(f"  [{spec.spec_hash()[:12]}] {spec.name}: {state}")
        if self.reporter is not None:
            self.reporter.advance(note=f"{spec.name} ({state})")
        return run

    # ------------------------------------------------------------------ #
    def run(self, spec: ScenarioSpec, scenario: str | None = None) -> ScenarioRun:
        """Execute one declarative cell (or answer it from the store)."""
        if spec.context:
            raise ValueError(
                f"cell {spec.name!r} carries figure-harness context "
                f"{sorted(spec.context)} and cannot be re-executed from its "
                "spec alone; run its figure scenario instead")
        start = time.perf_counter()
        if self.store is not None and self.store.contains(spec):
            report = self.store.load(spec)
            return self._finish(spec, report, True,
                                time.perf_counter() - start, scenario)
        telemetry = current()
        with telemetry.span("cell", cell=spec.name,
                            hash=spec.spec_hash()[:12]) as span:
            report = self._execute(spec)
        summary = span_breakdown(span) if telemetry.enabled else None
        return self._finish(spec, report, False,
                            time.perf_counter() - start, scenario,
                            telemetry_summary=summary)

    def run_specs(self, specs: Sequence[ScenarioSpec],
                  scenario: str | None = None,
                  cell_workers: int | None = None) -> list[ScenarioRun]:
        """Execute a batch of declarative cells, optionally fanned out.

        ``cell_workers`` below 2 executes the cells one after another (the
        historical behaviour).  ``cell_workers >= 2`` ships the cells still
        missing from the store — whole (train → sweep → persist) units,
        each seeded by its own ``spec.seed`` — to ``cell_workers`` worker
        processes via :func:`repro.execution.run_cells`; every
        finished cell lands in the store as it completes, so a matrix
        fill-in killed mid-run resumes from exactly the cells that
        finished.  Results (and ``self.runs`` bookkeeping) come back in
        ``specs`` order and are bit-identical to a serial run.
        """
        if (cell_workers or 0) < 2 or len(specs) < 2:
            return [self.run(spec, scenario=scenario) for spec in specs]
        for spec in specs:
            if spec.context:
                raise ValueError(
                    f"cell {spec.name!r} carries figure-harness context and "
                    "cannot be fanned out; run its figure scenario instead")
        start = time.perf_counter()
        # Answer everything already stored, fan out only the gaps.  The
        # batch probe is one index query, so resuming a 100k-cell matrix
        # costs O(matrix) hashing, not O(matrix) filesystem stats.
        missing = (list(specs) if self.store is None
                   else self.store.missing(specs))
        executed: dict[str, dict] = {}
        if missing:
            store_root = None if self.store is None else str(self.store.root)
            # Worker-side runners inherit this runner's scheduling
            # overrides, so e.g. --chunk-trials keeps bounding memory and
            # --backend keeps choosing the trial backend inside each cell.
            runner_kwargs = dict(workers=self.workers,
                                 max_chunk_trials=self.max_chunk_trials,
                                 backend=self.backend,
                                 trial_batch=self.trial_batch,
                                 search_workers=self.search_workers,
                                 suggest_batch=self.suggest_batch)
            on_cell = None
            if self.reporter is not None:
                on_cell = lambda payload: self.reporter.advance()  # noqa: E731
            payloads, cell_fallback = run_cells(
                missing, store_root, scenario, workers=cell_workers,
                runner_kwargs=runner_kwargs, progress=on_cell)
            if cell_fallback:
                self.degraded.append({"cell": scenario or "(batch)",
                                      "layer": "cell_fanout",
                                      "reason": cell_fallback})
            executed = {spec.spec_hash(): payload
                        for spec, payload in zip(missing, payloads)}
        runs = []
        for spec in specs:
            payload = executed.get(spec.spec_hash())
            if payload is None:  # answered by the store (cached)
                runs.append(self.run(spec, scenario=scenario))
                continue
            report = SweepReport.from_dict(payload["report"])
            if not payload["cached"] and report.fallback_reason:
                self.degraded.append({"cell": spec.name, "layer": "sweep",
                                      "reason": report.fallback_reason})
            run = ScenarioRun(spec=spec, report=report, cached=payload["cached"],
                              elapsed_seconds=payload["elapsed_seconds"])
            self.runs.append(run)
            self._log(f"  [{spec.spec_hash()[:12]}] {spec.name}: "
                      f"ran in {run.elapsed_seconds:.2f}s (cell worker)")
            runs.append(run)
        self._log(f"  fan-out: {len(missing)} cells over {cell_workers} "
                  f"workers in {time.perf_counter() - start:.2f}s")
        return runs

    def _execute(self, spec: ScenarioSpec) -> SweepReport:
        info = dataset_info(spec.dataset)
        if info.task == "detection":
            return self._execute_detection(spec, info)
        if info.task != "classification":
            raise ValueError(
                f"declarative cells support classification and detection "
                f"datasets; {spec.dataset!r} is a {info.task} dataset")
        train = spec.train
        num_classes = spec.num_classes or info.num_classes
        rng = np.random.default_rng(spec.seed)
        total = train.train_samples + train.test_samples
        dataset = build_dataset(spec.dataset, n_samples=total,
                                image_size=spec.image_size,
                                num_classes=num_classes, rng=rng,
                                **spec.dataset_kwargs)
        fraction = train.test_samples / total
        train_set, test_set = train_test_split(dataset, test_fraction=fraction,
                                               rng=rng)
        model = build_model(spec.model, num_classes=num_classes,
                            in_channels=info.in_channels,
                            image_size=spec.image_size, rng=rng,
                            **spec.model_kwargs)
        train_classifier(model, train_set, epochs=train.epochs,
                         batch_size=train.batch_size,
                         learning_rate=train.learning_rate,
                         momentum=train.momentum,
                         weight_decay=train.weight_decay,
                         optimizer=train.optimizer, rng=rng)
        engine = DriftSweepEngine(
            model, test_set,
            rng=np.random.default_rng(spec.seed + EVALUATION_SEED_OFFSET),
            **self._engine_kwargs(spec))
        return engine.run(spec.sigmas, label=spec.name)

    def _execute_detection(self, spec: ScenarioSpec, info) -> SweepReport:
        """Declarative fig3-detection-style cell: train a detector, sweep mAP.

        Mirrors :meth:`_execute`'s seeding discipline — one ``spec.seed``
        stream for data/model/training, a decoupled evaluation stream — so
        detection cells cache, resume and re-order exactly like
        classification ones.
        """
        if spec.metric != "map":
            raise ValueError(
                f"detection dataset {spec.dataset!r} needs metric='map' "
                f"(cell {spec.name!r} asks for {spec.metric!r})")
        train = spec.train
        rng = np.random.default_rng(spec.seed)
        total = train.train_samples + train.test_samples
        dataset = build_dataset(spec.dataset, n_samples=total,
                                image_size=spec.image_size, rng=rng,
                                **spec.dataset_kwargs)
        fraction = train.test_samples / total
        train_samples, test_samples = dataset.split(test_fraction=fraction,
                                                    rng=rng)
        model = build_model(spec.model, in_channels=info.in_channels,
                            image_size=spec.image_size, rng=rng,
                            **spec.model_kwargs)
        train_detector(model, train_samples, epochs=train.epochs,
                       batch_size=train.batch_size,
                       learning_rate=train.learning_rate, rng=rng)
        engine = DriftSweepEngine(
            model, test_samples,
            rng=np.random.default_rng(spec.seed + EVALUATION_SEED_OFFSET),
            **self._engine_kwargs(spec))
        return engine.run(spec.sigmas, label=spec.name)

    # ------------------------------------------------------------------ #
    def sweep_trained(self, model, data, spec: ScenarioSpec,
                      rng=None, scenario: str | None = None) -> SweepReport:
        """Sweep an already-trained model, consulting the store first.

        The figure harnesses call this with their own evaluation ``rng`` so
        the produced curves are bit-identical to the pre-scenario code path;
        ``spec`` (including its harness ``context``) is only the cell's
        identity for caching.
        """
        start = time.perf_counter()
        if self.store is not None and self.store.contains(spec):
            report = self.store.load(spec)
            self._finish(spec, report, True, time.perf_counter() - start,
                         scenario)
            return report
        if rng is None:
            rng = np.random.default_rng(spec.seed + EVALUATION_SEED_OFFSET)
        telemetry = current()
        with telemetry.span("cell", cell=spec.name,
                            hash=spec.spec_hash()[:12]) as span:
            engine = DriftSweepEngine(model, data, rng=rng,
                                      **self._engine_kwargs(spec))
            report = engine.run(spec.sigmas, label=spec.name)
        summary = span_breakdown(span) if telemetry.enabled else None
        self._finish(spec, report, False, time.perf_counter() - start,
                     scenario, telemetry_summary=summary)
        return report

    # ------------------------------------------------------------------ #
    def run_scenario(self, scenario, config=None, seed: int | None = None,
                     cell_workers: int | None = None) -> list[ScenarioRun]:
        """Run a named or :class:`~repro.scenarios.library.Scenario` object.

        Grid scenarios execute their spec list — fanned out over worker
        processes when ``cell_workers >= 2`` (see :meth:`run_specs`);
        figure scenarios invoke their harness with this runner threaded
        through, so every sweep the harness performs lands in (or is
        answered by) the store.  Returns the runs this call produced,
        cached cells included.
        """
        from .library import get_scenario, run_figure_scenario

        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        first = len(self.runs)
        self._log(f"scenario {scenario.name}: {scenario.description}")
        if scenario.figure is None:
            self.run_specs(scenario.cells(seed=seed), scenario=scenario.name,
                           cell_workers=cell_workers)
        else:
            if (cell_workers or 0) >= 2:
                raise ValueError(
                    f"figure scenario {scenario.name!r} cannot fan out cells: "
                    "its harness threads one RNG through all variants")
            if self.search_workers is not None or self.suggest_batch is not None:
                # Harnesses read async-search scheduling from config.extra;
                # explicit keys already in the config win over overrides.
                config = config or scenario.default_config()
                if self.search_workers is not None:
                    config.extra.setdefault("search_workers", self.search_workers)
                if self.suggest_batch is not None:
                    config.extra.setdefault("suggest_batch", self.suggest_batch)
            run_figure_scenario(scenario, self, config=config, seed=seed)
        return self.runs[first:]
