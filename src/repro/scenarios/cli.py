"""``python -m repro`` — the scenario command line.

Subcommands:

* ``list`` — scenarios, fault models, models, datasets and execution
  backends;
* ``run`` — execute a scenario into an on-disk result store (finished
  cells are skipped on re-runs; ``--backend`` picks the trial execution
  backend, ``--cell-workers`` fans a grid scenario's cells over worker
  processes, ``--trace out.jsonl`` captures a span trace, ``--progress``
  prints live done/total + ETA lines to stderr);
* ``trace summarize`` — human report over a ``--trace`` JSONL file (top
  spans by cumulative time, cache hit rate, bytes shipped, worker
  utilisation);
* ``report`` — tabulate every cell stored under ``--out``;
* ``compare`` — align the stored cells of two or more grid scenarios;
* ``query`` — filter the store's SQLite index (``--model``, ``--fault``,
  ``--worst '<0.5'``, …) without opening any entry files;
* ``migrate-store`` — upgrade a legacy flat store to the sharded layout
  (entries move by rename; every canonical byte preserved);
* ``gc`` — size accounting and garbage collection for long-lived stores.

Everything prints human tables by default and JSON with ``--json``, so the
CLI doubles as a machine interface for the benchmark suite and CI.  User
errors — a missing or unreadable input file or store, an unknown scenario
or backend name — print one labelled line to stderr and exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..data.registry import available_datasets
from ..evaluation.statistics import curve_auc
from ..execution import available_backends, configure_runtime
from ..models.registry import available_models
from ..telemetry import (
    ProgressReporter,
    Telemetry,
    format_trace_summary,
    summarize_trace,
    using,
    write_trace_jsonl,
)
from ..utils.config import ExperimentConfig
from .library import available_scenarios, get_scenario
from .runner import ScenarioRunner
from .spec import available_fault_models
from .query import QUERY_FIELDS, SCORE_FIELDS, StoreQuery
from .store import ResultStore, ResultStoreError

__all__ = ["main"]


class CliError(Exception):
    """A user error: reported as one ``error:`` line on stderr, exit 2."""


class _Parser(argparse.ArgumentParser):
    """Argument errors as one labelled stderr line, without the usage dump."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _open_store(path: str, must_exist: bool = True) -> ResultStore:
    """The result store at ``path``; inspecting commands need it to exist."""
    root = Path(path)
    if root.exists() and not root.is_dir():
        raise CliError(f"result store {path!r} is not a directory")
    if must_exist and not root.is_dir():
        raise CliError(f"no result store at {path!r}")
    return ResultStore(root)


def _scenario(name: str):
    try:
        return get_scenario(name)
    except ValueError as error:
        raise CliError(str(error)) from None


def _emit(payload: dict, as_json: bool, text: str) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True) if as_json else text)


# --------------------------------------------------------------------------- #
def _cmd_list(args) -> int:
    rows = []
    for name in available_scenarios():
        scenario = get_scenario(name)
        cells = len(scenario.cells()) if scenario.figure is None else None
        rows.append({"name": name, "kind": scenario.kind(),
                     "cells": cells, "description": scenario.description})
    payload = {"scenarios": rows,
               "fault_models": available_fault_models(),
               "models": available_models(),
               "datasets": available_datasets(),
               "backends": available_backends()}
    lines = ["scenarios:"]
    for row in rows:
        cells = "harness" if row["cells"] is None else f"{row['cells']} cells"
        lines.append(f"  {row['name']:<22} [{row['kind']}, {cells}] "
                     f"{row['description']}")
    lines.append(f"fault models: {', '.join(payload['fault_models'])}")
    lines.append(f"models:       {', '.join(payload['models'])}")
    lines.append(f"datasets:     {', '.join(payload['datasets'])}")
    lines.append(f"backends:     {', '.join(payload['backends'])}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


# --------------------------------------------------------------------------- #
def _cmd_run(args) -> int:
    store = _open_store(args.out, must_exist=False)
    if args.cold_runtime:
        configure_runtime(enabled=False)
    reporter = None
    if args.progress:
        scenario = get_scenario(args.scenario)
        # Figure scenarios discover their cells as the harness runs;
        # total=0 makes the reporter count without a percentage.
        total = len(scenario.cells(seed=args.seed)) \
            if scenario.figure is None else 0
        reporter = ProgressReporter(
            total, emit=lambda line: print(line, file=sys.stderr))
    runner = ScenarioRunner(store, workers=args.workers,
                            max_chunk_trials=args.chunk_trials,
                            backend=args.backend,
                            trial_batch=args.trial_batch,
                            search_workers=args.search_workers,
                            suggest_batch=args.suggest_batch,
                            progress=None if args.json else print,
                            reporter=reporter)
    # Figure scenarios default to the fast config (scenario.default_config);
    # --full runs the harness at its own full-scale default.  Grid cells
    # embed their training config in the spec and ignore this.
    config = ExperimentConfig() if args.full else None

    def _run():
        return runner.run_scenario(args.scenario, config=config,
                                   seed=args.seed,
                                   cell_workers=args.cell_workers)

    if args.trace:
        telemetry = Telemetry()
        with using(telemetry):
            runs = _run()
        snapshot = telemetry.snapshot()
        write_trace_jsonl(snapshot, args.trace)
    else:
        runs = _run()
    cached = sum(run.cached for run in runs)
    payload = {"scenario": args.scenario, "store": str(store.root),
               "cells": [run.summary() for run in runs],
               "cells_total": len(runs), "cells_cached": cached,
               "cells_executed": len(runs) - cached,
               "degraded": runner.degraded}
    text = (f"{args.scenario}: {len(runs)} cells, {cached} answered from the "
            f"store, {len(runs) - cached} executed (results in {store.root})")
    if args.trace:
        payload["telemetry"] = {"trace": args.trace,
                                "counters": snapshot["metrics"]["counters"],
                                "gauges": snapshot["metrics"]["gauges"]}
        text += f"\ntrace written to {args.trace} " \
                f"(python -m repro trace summarize {args.trace})"
    for event in runner.degraded:
        text += (f"\nDEGRADED {event['layer']} in {event['cell']}: "
                 f"{event['reason']}")
    _emit(payload, args.json, text)
    return 0


# --------------------------------------------------------------------------- #
def _cmd_trace_summarize(args) -> int:
    try:
        summary = summarize_trace(args.path)
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise CliError(f"cannot read trace {args.path!r}: {error}") from None
    _emit(summary, args.json, format_trace_summary(summary, top=args.top))
    return 0


# --------------------------------------------------------------------------- #
def _curve_stats(report) -> dict:
    curve = report.curve()
    # "clean" is the zero-severity point; grids without one have no clean
    # accuracy to report.
    clean = (curve.means[curve.sigmas.index(0.0)]
             if 0.0 in curve.sigmas else None)
    return {"clean": clean, "worst": float(min(curve.means)),
            "auc": float(curve_auc(curve))}


def _fmt(value: "float | None") -> str:
    return f"{value:6.3f}" if value is not None else "     -"


def _cmd_report(args) -> int:
    store = _open_store(args.out)
    rows = []
    for spec, report, meta in store.entries():
        rows.append({"hash": spec.spec_hash()[:16], "name": spec.name,
                     "model": spec.model, "dataset": spec.dataset,
                     "fault": spec.fault.describe(),
                     "scenario": meta.get("scenario"),
                     "sigmas": list(spec.sigmas),
                     "means": list(report.means),
                     **_curve_stats(report)})
    rows.sort(key=lambda row: (row["scenario"] or "", row["name"]))
    payload = {"store": str(store.root), "cells": rows}
    lines = [f"result store {store.root}: {len(rows)} cells",
             f"  {'name':<28} {'model':<10} {'dataset':<8} {'fault':<22} "
             f"{'clean':>6} {'worst':>6} {'auc':>6}"]
    for row in rows:
        lines.append(f"  {row['name']:<28} {row['model']:<10} "
                     f"{row['dataset']:<8} {row['fault']:<22} "
                     f"{_fmt(row['clean'])} {row['worst']:6.3f} "
                     f"{row['auc']:6.3f}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


# --------------------------------------------------------------------------- #
def _cmd_compare(args) -> int:
    # A missing store is reported per cell below ("not in ...").
    store = _open_store(args.out, must_exist=False)
    columns = []
    for name in args.scenarios:
        scenario = _scenario(name)
        if scenario.figure is not None:
            raise SystemExit(
                f"compare works on grid scenarios; {name!r} is a figure "
                "scenario — use `report` to inspect its stored cells")
        for spec in scenario.cells(seed=args.seed):
            if not store.contains(spec):
                raise SystemExit(
                    f"cell {spec.name!r} of scenario {name!r} is not in "
                    f"{store.root}; run `python -m repro run {name} --out "
                    f"{store.root}` first")
            columns.append((name, spec, store.load(spec)))
    payload = {"store": str(store.root), "cells": [
        {"scenario": name, "name": spec.name,
         "fault": spec.fault.describe(), "sigmas": list(spec.sigmas),
         "means": list(report.means), **_curve_stats(report)}
        for name, spec, report in columns]}
    lines = [f"comparing {len(columns)} stored cells from "
             f"{', '.join(args.scenarios)}:",
             f"  {'scenario':<16} {'cell':<28} {'clean':>6} {'worst':>6} "
             f"{'auc':>6}  severity: mean accuracy"]
    for name, spec, report in columns:
        stats = _curve_stats(report)
        curve = " ".join(f"{sigma:g}:{mean:.3f}"
                         for sigma, mean in zip(report.sigmas, report.means))
        lines.append(f"  {name:<16} {spec.name:<28} {_fmt(stats['clean'])} "
                     f"{stats['worst']:6.3f} {stats['auc']:6.3f}  {curve}")
    best = max(columns, key=lambda item: _curve_stats(item[2])["auc"])
    lines.append(f"highest robustness AUC: {best[1].name} "
                 f"({_curve_stats(best[2])['auc']:.3f})")
    _emit(payload, args.json, "\n".join(lines))
    return 0


# --------------------------------------------------------------------------- #
def _cmd_query(args) -> int:
    store = _open_store(args.out)
    filters = {field: getattr(args, field)
               for field in (*QUERY_FIELDS, "name", *SCORE_FIELDS, "limit")
               if getattr(args, field) is not None}
    try:
        store_query = StoreQuery(**filters)
    except ValueError as error:
        raise SystemExit(f"bad query: {error}") from error
    rows = store.query(**filters)
    payload = {"store": str(store.root),
               "filters": store_query.describe(),
               "matches": len(rows), "cells": rows}
    described = ", ".join(f"{key}={value}" for key, value
                          in payload["filters"].items()) or "no filters"
    lines = [f"result store {store.root}: {len(rows)} cells match "
             f"({described})",
             f"  {'name':<28} {'model':<10} {'dataset':<8} {'fault':<22} "
             f"{'clean':>6} {'worst':>6} {'best':>6}  hash"]
    for row in rows:
        lines.append(f"  {row['name']:<28} {row['model']:<10} "
                     f"{row['dataset']:<8} {row['fault']:<22} "
                     f"{_fmt(row['clean'])} {_fmt(row['worst'])} "
                     f"{_fmt(row['best'])}  {row['hash'][:12]}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


# --------------------------------------------------------------------------- #
def _cmd_migrate_store(args) -> int:
    store = _open_store(args.out)
    result = store.migrate()
    payload = {"store": str(store.root), **result}
    _emit(payload, args.json,
          f"result store {store.root}: moved {result['moved']} flat entries "
          f"into sharded buckets ({result['duplicates']} flat duplicates "
          f"dropped); index rebuilt over {result['entries']} entries "
          f"({result['skipped']} unparsable skipped)")
    return 0


# --------------------------------------------------------------------------- #
def _fmt_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KiB", "MiB"):
        if size < 1024:
            return f"{count} B" if unit == "B" else f"{size:.1f} {unit}"
        size /= 1024
    return f"{size:.1f} GiB"


def _cmd_gc(args) -> int:
    store = _open_store(args.out)
    before = store.stats()
    result = store.gc(keep_latest=args.keep_latest, dry_run=args.dry_run)
    after = before if args.dry_run else store.stats()
    payload = {"store": str(store.root), "before": before, "after": after,
               "gc": result}
    verb = "would remove" if args.dry_run else "removed"
    lines = [f"result store {store.root}: {before['entries']} cells, "
             f"{_fmt_bytes(before['total_bytes'])}"
             + (f" (+{before['stale_staging_dirs']} stale staging dirs)"
                if before["stale_staging_dirs"] else "")]
    for scenario, count in before["by_scenario"].items():
        lines.append(f"  {scenario:<24} {count} cells")
    lines.append(f"gc {verb} {len(result['removed_entries'])} cells and "
                 f"{len(result['removed_staging'])} staging dirs, freeing "
                 f"{_fmt_bytes(result['bytes_freed'])} "
                 f"({result['entries_kept']} cells kept)")
    _emit(payload, args.json, "\n".join(lines))
    return 0


# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro",
        description="BayesFT scenario orchestration: declarative "
                    "(model × dataset × fault × severity) experiment cells "
                    "with an on-disk, content-addressed result store.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list scenarios and registries")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run a scenario (resumes from --out)")
    p_run.add_argument("scenario", choices=available_scenarios())
    p_run.add_argument("--out", default="results",
                       help="result-store directory (default: ./results)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=None,
                       help="sweep worker processes (never changes results)")
    p_run.add_argument("--chunk-trials", type=int, default=None,
                       dest="chunk_trials",
                       help="bound pre-drawn weight copies per parameter")
    p_run.add_argument("--backend", choices=available_backends(), default=None,
                       help="trial execution backend (never changes results); "
                            "shared_memory is an alias of process")
    p_run.add_argument("--trial-batch", type=int, default=None,
                       dest="trial_batch",
                       help="trials evaluated per stacked forward pass "
                            "(never changes results)")
    p_run.add_argument("--cell-workers", type=int, default=None,
                       dest="cell_workers",
                       help="fan a grid scenario's independent cells over N "
                            "worker processes (resumes through the store; "
                            "never changes results)")
    p_run.add_argument("--search-workers", type=int, default=None,
                       dest="search_workers",
                       help="BO search trials evaluated concurrently over N "
                            "worker processes (figure scenarios with a "
                            "BayesFT search; never changes seeded results)")
    p_run.add_argument("--suggest-batch", type=int, default=None,
                       dest="suggest_batch",
                       help="architectures proposed per BO round via "
                            "constant-liar batch suggestion (1 = the "
                            "sequential paper loop)")
    p_run.add_argument("--full", action="store_true",
                       help="figure scenarios: run the harness at its "
                            "full-scale default config instead of the fast "
                            "one (grid scenarios embed their own config)")
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="capture a span trace of the whole run to a "
                            "JSON-lines file (never changes results; "
                            "inspect with `trace summarize`)")
    p_run.add_argument("--progress", action="store_true",
                       help="print live done/total + ETA lines to stderr "
                            "as cells complete")
    p_run.add_argument("--cold-runtime", action="store_true",
                       help="opt out of the warm execution runtime: build "
                            "and tear down a fresh worker pool per sweep "
                            "instead of leasing persistent ones (results "
                            "are byte-identical either way)")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_trace = sub.add_parser("trace", help="inspect a --trace JSONL file")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_sum = trace_sub.add_parser(
        "summarize", help="span/metric breakdown: top spans by cumulative "
                          "time, cache hit rate, bytes shipped, worker "
                          "utilisation")
    p_sum.add_argument("path", help="JSONL file written by run --trace")
    p_sum.add_argument("--top", type=int, default=12,
                       help="span rows to show (default: 12)")
    p_sum.add_argument("--json", action="store_true")
    p_sum.set_defaults(func=_cmd_trace_summarize)

    p_report = sub.add_parser("report", help="tabulate a result store")
    p_report.add_argument("--out", default="results")
    p_report.add_argument("--json", action="store_true")
    p_report.set_defaults(func=_cmd_report)

    p_compare = sub.add_parser("compare",
                               help="align stored cells of grid scenarios")
    p_compare.add_argument("scenarios", nargs="+")
    p_compare.add_argument("--out", default="results")
    p_compare.add_argument("--seed", type=int, default=None)
    p_compare.add_argument("--json", action="store_true")
    p_compare.set_defaults(func=_cmd_compare)

    p_query = sub.add_parser(
        "query", help="filter the store's index (no entry files opened)")
    p_query.add_argument("--out", default="results")
    p_query.add_argument("--model", default=None,
                         help="exact model registry name, e.g. preact18")
    p_query.add_argument("--dataset", default=None)
    p_query.add_argument("--fault", default=None,
                         help="fault label, e.g. bitflip or "
                              "composite:lognormal+stuckat")
    p_query.add_argument("--scenario", default=None,
                         help="scenario that produced the cell")
    p_query.add_argument("--metric", default=None)
    p_query.add_argument("--name", default=None,
                         help="cell-name filter; * matches anything")
    p_query.add_argument("--worst", default=None,
                         help="bound on the worst per-σ mean score, "
                              "e.g. '<0.5' or '>=0.9'")
    p_query.add_argument("--best", default=None,
                         help="bound on the best per-σ mean score")
    p_query.add_argument("--clean", default=None,
                         help="bound on the σ=0 mean score")
    p_query.add_argument("--limit", type=int, default=None)
    p_query.add_argument("--json", action="store_true")
    p_query.set_defaults(func=_cmd_query)

    p_migrate = sub.add_parser(
        "migrate-store",
        help="move a legacy flat store into the sharded layout "
             "(renames only; canonical bytes untouched; idempotent)")
    p_migrate.add_argument("--out", default="results")
    p_migrate.add_argument("--json", action="store_true")
    p_migrate.set_defaults(func=_cmd_migrate_store)

    p_gc = sub.add_parser("gc", help="result-store size accounting + cleanup")
    p_gc.add_argument("--out", default="results")
    p_gc.add_argument("--keep-latest", type=int, default=None,
                      dest="keep_latest",
                      help="keep only the N most recently created cells "
                           "(default: remove nothing but stale staging dirs)")
    p_gc.add_argument("--dry-run", action="store_true", dest="dry_run",
                      help="report what would be removed without deleting")
    p_gc.add_argument("--json", action="store_true")
    p_gc.set_defaults(func=_cmd_gc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ResultStoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
