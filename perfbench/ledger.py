"""Per-layer ledger: spans around the public functions of each ``repro`` layer.

The program is not changed.  :func:`install` wraps public functions and
methods from the outside, and each wrapper records a span in the ambient
:mod:`repro.telemetry` session.  Worker processes of the execution layer are
forked after :func:`install`, so they inherit the wrappers; their spans come
back grafted under the program's own ``task`` spans, the same way the
program's spans do.  With no session active (``current().enabled`` false) a
wrapper calls straight through.

:func:`write_spans` writes a repetition's spans with the program's trace
writer, adding the run id and end time, and :func:`layer_metrics` reduces
them to the per-layer metrics named in ``BENCHMARK.json``.  FLOPs and bytes
of ``conv2d`` and ``linear`` calls are computed from operand shapes, not
counted by hardware.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from pathlib import Path

#: Span names this module records, so metrics can tell them from the
#: program's own spans (``sweep``, ``chunk``, ``task``, ...).
LAYER_SPANS = (
    "nn.conv2d", "nn.linear", "nn.batchnorm", "nn.pool", "nn.backward",
    "fault.sample", "inference.run", "evaluation.sweep",
    "execution.run_trials", "training.fit", "baselines.apply",
    "core.search", "core.objective", "bayesopt.gp_fit", "bayesopt.suggest",
    "scenarios.store_save", "scenarios.store_probe", "data.build",
)

_depth: dict = {}


def _reset_depth() -> None:
    _depth.clear()


def _wrap(fn, name: str, *, outermost: bool = False, before=None, after=None):
    """Return ``fn`` wrapped in a span called ``name``.

    ``outermost`` records only the outer call when the layer re-enters
    itself (a batched evaluator falling back to the per-trial one, a
    ``suggest`` that calls ``suggest_batch``), so busy time is not counted
    twice.  ``before(*args, **kwargs)`` and ``after(result, *args,
    **kwargs)`` return span attributes.
    """
    from repro.telemetry import current

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        telemetry = current()
        if not telemetry.enabled or (outermost and _depth.get(name)):
            return fn(*args, **kwargs)
        attrs = before(*args, **kwargs) if before else {}
        if outermost:
            _depth[name] = 1
        try:
            with telemetry.span(name, **attrs) as span:
                result = fn(*args, **kwargs)
                if after:
                    span.set(**after(result, *args, **kwargs))
        finally:
            if outermost:
                _depth[name] = 0
        return result

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _patch_method(cls, attr: str, name: str, **options) -> None:
    original = cls.__dict__[attr]
    if hasattr(original, "__perfbench_wrapped__"):
        return
    setattr(cls, attr, _wrap(original, name, **options))


def _patch_function(module, attr: str, name: str, **options) -> None:
    """Wrap a module-level function everywhere ``repro`` holds a reference."""
    original = getattr(module, attr)
    if hasattr(original, "__perfbench_wrapped__"):
        return
    wrapped = _wrap(original, name, **options)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _nbytes(tensor) -> int:
    return 0 if tensor is None else int(tensor.data.nbytes)


def _kernel_attrs(result, x, weight, bias=None, *args, **kwargs) -> dict:
    """Computed FLOPs and operand bytes of one conv2d/linear call.

    Every output element is a dot product over the weight's fan-in
    (``in`` for linear, ``in * kh * kw`` for conv), so FLOPs are
    ``2 * output elements * fan-in``; bytes are input + weight + bias +
    output as stored.  Holds for stacked trial weights too.
    """
    fan_in = 1
    for size in (weight.shape[-1:] if weight.data.ndim in (2, 3)
                 else weight.shape[-3:]):
        fan_in *= size
    return {"flop": 2 * int(result.data.size) * fan_in,
            "bytes": (_nbytes(x) + _nbytes(weight) + _nbytes(bias)
                      + _nbytes(result)),
            "counted": "computed"}


def _evaluator_attrs(self, model, data, evaluate_fn, pending, *args,
                     **kwargs) -> dict:
    return {"trials": len(pending)}


def _sweep_attrs(report, *args, **kwargs) -> dict:
    return {"n_evaluations": report.n_evaluations,
            "cache_hits": report.cache_hits,
            "tasks_shipped": report.tasks_shipped,
            "bytes_shipped": report.bytes_shipped,
            "workers": report.workers, "backend": report.backend,
            "fallback": bool(report.fallback_reason)}


def install() -> None:
    """Wrap every layer's public entry points (idempotent)."""
    from repro.baselines.base import RobustTrainingMethod
    from repro.bayesopt.gp import GaussianProcessRegressor
    from repro.bayesopt.optimizer import BayesianOptimizer
    from repro.core.algorithm import BayesFTSearch
    from repro.core.objective import DriftMarginalizedObjective
    from repro.data import registry as data_registry
    from repro.evaluation.sweep import DriftSweepEngine
    from repro.execution.base import ExecutionBackend
    from repro.fault.drift import DriftModel
    from repro.inference.evaluator import InferenceEvaluator
    from repro.nn import functional as F
    from repro.nn.layers.normalization import BatchNorm1d, BatchNorm2d
    from repro.nn.tensor import Tensor
    from repro.scenarios.store import ResultStore
    from repro.training.trainer import Trainer

    # nn: forward kernels by module type, and the whole backward pass.
    for attr in ("conv2d", "linear"):
        _patch_function(F, attr, f"nn.{attr}", after=_kernel_attrs)
    for attr in ("max_pool2d", "avg_pool2d", "adaptive_avg_pool2d"):
        _patch_function(F, attr, "nn.pool")
    for cls in (BatchNorm1d, BatchNorm2d):
        _patch_method(cls, "forward", "nn.batchnorm")
    _patch_method(Tensor, "backward", "nn.backward", outermost=True)

    # fault: every drift draw (vectorised batches and single perturbs).
    draw = {"outermost": True,
            "after": lambda out, *a, **k: {"bytes": int(out.nbytes)}}
    _patch_method(DriftModel, "sample_batch", "fault.sample", **draw)
    for cls in _subclasses(DriftModel):
        if "perturb" in cls.__dict__:
            _patch_method(cls, "perturb", "fault.sample", **draw)

    # inference, evaluation, execution.
    for cls in _subclasses(InferenceEvaluator):
        if "run" in cls.__dict__:
            _patch_method(cls, "run", "inference.run", outermost=True,
                          before=_evaluator_attrs)
    _patch_method(DriftSweepEngine, "run", "evaluation.sweep",
                  outermost=True, after=_sweep_attrs)
    for cls in _subclasses(ExecutionBackend):
        if "run_trials" in cls.__dict__:
            _patch_method(cls, "run_trials", "execution.run_trials",
                          outermost=True)

    # training and baselines.
    fit_signature = inspect.signature(Trainer.fit)

    def fit_attrs(*args, **kwargs):
        bound = fit_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"samples": len(bound.arguments["dataset"])
                * int(bound.arguments["epochs"])}

    _patch_method(Trainer, "fit", "training.fit", outermost=True,
                  before=fit_attrs)
    for cls in _subclasses(RobustTrainingMethod):
        if "apply" in cls.__dict__:
            _patch_method(cls, "apply", "baselines.apply", outermost=True,
                          before=lambda self, *a, **k: {
                              "method": type(self).name.lower()})

    # core (BayesFT search and its Eq. 3-4 objective) and bayesopt.
    _patch_method(BayesFTSearch, "run", "core.search", outermost=True)
    for attr in ("evaluate", "evaluate_with_clean", "evaluate_clean"):
        _patch_method(DriftMarginalizedObjective, attr, "core.objective",
                      outermost=True)
    _patch_method(GaussianProcessRegressor, "fit", "bayesopt.gp_fit")
    for attr in ("suggest", "suggest_batch"):
        _patch_method(BayesianOptimizer, attr, "bayesopt.suggest",
                      outermost=True)

    # scenarios (result store) and data.
    _patch_method(ResultStore, "save", "scenarios.store_save")
    for attr in ("contains", "contains_hash"):
        _patch_method(ResultStore, attr, "scenarios.store_probe",
                      outermost=True)
    _patch_function(data_registry, "build_dataset", "data.build")

    os.register_at_fork(after_in_child=_reset_depth)


# --------------------------------------------------------------------------- #
def write_spans(snapshot: dict, path, run_id: str) -> None:
    """Write a session snapshot as the program's JSON-lines trace.

    The rows are those of :func:`repro.telemetry.export.write_trace_jsonl`
    (``id``, ``parent``, ``name``, ``start``, ``seconds``, ``attrs``), each
    span row with the repetition's ``run`` id and its ``end`` added.
    """
    from repro.telemetry.export import write_trace_jsonl

    path = write_trace_jsonl(snapshot, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        if row["type"] == "span":
            row.update(run=run_id, end=row["start"] + row["seconds"])
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n"
                            for row in rows))


def _span_rows(path) -> tuple[list[dict], dict]:
    """Span rows of a trace file, each marked ``remote`` when it or an
    ancestor was recorded in a worker; and the trace's counters."""
    records, counters, remote = [], {}, {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        if row["type"] == "metrics":
            counters = row["counters"]
            continue
        row["remote"] = remote[row["id"]] = bool(
            row["attrs"].get("remote") or remote.get(row["parent"]))
        records.append(row)
    return records, counters


def _sum(records, name, key=None) -> float:
    return sum((r["attrs"].get(key, 0) if key else r["seconds"])
               for r in records if r["name"] == name)


def _count(records, name) -> int:
    return sum(1 for r in records if r["name"] == name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(path, wall_s: float, import_s: float) -> dict:
    """Reduce one traced repetition's trace file to the per-layer metrics.

    Pool cold starts and reuses come from the trace's counters, where the
    execution runtime reports them.

    Busy times are inclusive span seconds summed over every process (worker
    spans included), so on a pool workload a layer can be busy for longer
    than the wall clock.  Ratios over an empty base are reported as 0.
    """
    from repro.telemetry.export import read_trace_jsonl, summarize_trace

    records, counters = _span_rows(path)
    by_id = {r["id"]: r for r in records}
    metrics: dict = {}

    for kind in ("conv2d", "linear"):
        name = f"nn.{kind}"
        flop, nbytes = _sum(records, name, "flop"), _sum(records, name, "bytes")
        metrics[f"{name}.calls"] = _count(records, name)
        metrics[f"{name}.busy_s"] = _sum(records, name)
        metrics[f"{name}.gflop_computed"] = flop / 1e9
        metrics[f"{name}.gb_computed"] = nbytes / 1e9
        metrics[f"{name}.flop_per_byte"] = _ratio(flop, nbytes)
    for kind in ("batchnorm", "pool", "backward"):
        metrics[f"nn.{kind}.busy_s"] = _sum(records, f"nn.{kind}")

    metrics["fault.sample.calls"] = _count(records, "fault.sample")
    metrics["fault.sample.busy_s"] = _sum(records, "fault.sample")
    metrics["fault.sample.mb_drawn"] = _sum(records, "fault.sample", "bytes") / 1e6

    # Forward passes: the program's own "trial" (one trial) and
    # "trial_batch" (a stack of trials) spans.
    single = _count(records, "trial")
    stacks = [r for r in records if r["name"] == "trial_batch"]
    metrics["inference.run.calls"] = _count(records, "inference.run")
    metrics["inference.run.busy_s"] = _sum(records, "inference.run")
    metrics["inference.trials_per_pass"] = _ratio(
        single + sum(r["attrs"].get("trials", 0) for r in stacks),
        single + len(stacks))

    sweeps = [r for r in records if r["name"] == "evaluation.sweep"]
    evaluations = sum(r["attrs"].get("n_evaluations", 0) for r in sweeps)
    hits = sum(r["attrs"].get("cache_hits", 0) for r in sweeps)
    metrics["sweep.calls"] = len(sweeps)
    metrics["sweep.busy_s"] = sum(r["seconds"] for r in sweeps)
    metrics["sweep.evaluations"] = evaluations
    metrics["sweep.cache_hit_ratio"] = _ratio(hits, hits + evaluations)

    def ancestors(record):
        while record["parent"] is not None:
            record = by_id[record["parent"]]
            yield record

    tasks = sum(r["attrs"].get("tasks_shipped", 0) for r in sweeps)
    shipped = sum(r["attrs"].get("bytes_shipped", 0) for r in sweeps)
    # Worker capacity: the program's "backend" spans (main process waiting
    # on the pool) times the sweep's worker count; busy: the seconds of the
    # task trees the workers sent back, as the program's summary counts them.
    capacity = 0.0
    for record in records:
        if record["name"] == "backend" and not record["remote"]:
            sweep = next((a for a in ancestors(record)
                          if a["name"] == "evaluation.sweep"), None)
            workers = sweep["attrs"].get("workers", 1) if sweep else 1
            capacity += record["seconds"] * max(1, workers)
    busy = summarize_trace(read_trace_jsonl(path))["worker_busy_seconds"]
    metrics["execution.run_trials.busy_s"] = _sum(records, "execution.run_trials")
    metrics["execution.tasks_shipped"] = tasks
    metrics["execution.bytes_per_task"] = _ratio(shipped, tasks)
    metrics["execution.worker_busy_ratio"] = _ratio(busy, capacity)
    metrics["execution.pool_cold_starts"] = counters.get("cold_starts", 0)
    metrics["execution.pool_reuses"] = counters.get("pool_reuses", 0)
    metrics["execution.fallbacks"] = sum(
        1 for r in sweeps if r["attrs"].get("fallback"))

    fits = [r for r in records if r["name"] == "training.fit"]
    fit_s = sum(r["seconds"] for r in fits)
    metrics["training.fit.busy_s"] = fit_s
    metrics["training.samples_per_s"] = _ratio(
        sum(r["attrs"].get("samples", 0) for r in fits), fit_s)
    for method in ("erm", "ftna", "reram-v", "awp"):
        metrics[f"baselines.apply.busy_s.{method}"] = sum(
            r["seconds"] for r in records
            if r["name"] == "baselines.apply"
            and r["attrs"].get("method") == method)

    metrics["core.search.busy_s"] = _sum(records, "core.search")
    metrics["core.objective.calls"] = _count(records, "core.objective")
    metrics["core.objective.busy_s"] = _sum(records, "core.objective")
    inner = [r for r in sweeps
             if any(a["name"] == "core.objective" for a in ancestors(r))]
    inner_hits = sum(r["attrs"].get("cache_hits", 0) for r in inner)
    inner_evals = sum(r["attrs"].get("n_evaluations", 0) for r in inner)
    metrics["core.objective.cache_hit_ratio"] = _ratio(
        inner_hits, inner_hits + inner_evals)

    metrics["bayesopt.gp_fit.calls"] = _count(records, "bayesopt.gp_fit")
    metrics["bayesopt.gp_fit.busy_s"] = _sum(records, "bayesopt.gp_fit")
    metrics["bayesopt.suggest.busy_s"] = _sum(records, "bayesopt.suggest")

    metrics["scenarios.store_save.calls"] = _count(records, "scenarios.store_save")
    metrics["scenarios.store_save.busy_s"] = _sum(records, "scenarios.store_save")
    metrics["scenarios.store_probe.busy_s"] = _sum(records, "scenarios.store_probe")

    metrics["data.build.busy_s"] = _sum(records, "data.build")
    metrics["import.busy_s"] = import_s

    # Coverage: main-process time inside an outermost layer span, plus the
    # import; everything else in the repetition's wall time is "untraced".
    layer = set(LAYER_SPANS)
    covered = import_s + sum(
        r["seconds"] for r in records
        if r["name"] in layer and not r["remote"]
        and not any(a["name"] in layer for a in ancestors(r)))
    metrics["trace.coverage"] = _ratio(covered, wall_s)
    metrics["trace.untraced_s"] = max(0.0, wall_s - covered)
    return metrics
