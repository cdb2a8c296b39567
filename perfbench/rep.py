"""One repetition of a benchmark workload, in a fresh Python process.

``run.py`` starts this script once per repetition, so every repetition pays
interpreter start-up, the ``repro`` import and, on the pool workload, pool
start-up, as a user's command does.  The job arrives as one JSON argument
and the result is written as JSON to ``job["result"]``::

    python perfbench/rep.py '{"root": ".", "workload": "sweep-preact18",
        "seed": 0, "size": "full", "variant": "timed", "trace": false,
        "spawned": <time.monotonic() before the process was started>,
        "workdir": "...", "result": "...", "spans": "..."}'

``variant`` "reference" runs the same inputs through an independent
configuration the program promises is byte-identical (trial batching, or
the serial backend), to check the timed runs against.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SIGMAS = (0.0, 0.3, 0.6, 0.9, 1.2, 1.5)

#: Input sizes per workload.  "smoke" is the reduced size the self-tests
#: run; it keeps every code path (the pool included) but little of the work.
SIZES = {
    "full": {
        "sweep-preact18": {"images": 128, "trials": 8, "sigmas": SIGMAS},
        # 16 trials per σ (two tasks of 8) on 128 images keeps the pool,
        # shipping and worker-side batching busy in repetitions of a few
        # seconds; a run needs several of them because 2-worker timings on
        # 2 cores spread by a quarter from one repetition to the next.
        "sweep-lenet-2w": {"images": 128, "trials": 16, "sigmas": SIGMAS},
        "panel-fig3b": {"full": True},
    },
    "smoke": {
        "sweep-preact18": {"images": 16, "trials": 2, "sigmas": (0.0, 0.6)},
        "sweep-lenet-2w": {"images": 32, "trials": 16, "sigmas": (0.0, 0.6)},
        "panel-fig3b": {"full": False},
    },
}

#: (model, dataset, input channels) of the two sweep workloads.
SWEEP_MODELS = {
    "sweep-preact18": ("preact18", "cifar", 3),
    "sweep-lenet-2w": ("lenet", "mnist", 1),
}

#: Engine settings: the timed configuration and the reference one.
ENGINE_KWARGS = {
    ("sweep-preact18", "timed"): {},
    ("sweep-preact18", "reference"): {"trial_batch": 8},
    ("sweep-lenet-2w", "timed"): {"workers": 2, "trial_batch": 8},
    ("sweep-lenet-2w", "reference"): {"workers": 0, "trial_batch": 8},
}

PANEL = "fig3_b_lenet_mnist"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sweep_outputs(report) -> dict:
    """Digest of the canonical report, and one per σ point."""
    canonical = report.canonical_dict()
    points = len(canonical["sigmas"])
    per_point = [key for key, value in canonical.items()
                 if isinstance(value, list) and len(value) == points]
    return {
        "digest": _sha256(json.dumps(canonical, sort_keys=True).encode()),
        "points": [_sha256(json.dumps({key: canonical[key][index]
                                       for key in per_point},
                                      sort_keys=True).encode())
                   for index in range(points)],
        "evaluations": report.n_evaluations,
    }


def run_sweep(job: dict, size: dict, marks: dict) -> dict:
    import numpy as np
    from repro.data.registry import build_dataset
    from repro.evaluation import DriftSweepEngine
    from repro.models import build_model

    model_name, dataset, channels = SWEEP_MODELS[job["workload"]]
    rng = np.random.default_rng(job["seed"])
    data = build_dataset(dataset, n_samples=size["images"], image_size=16,
                         num_classes=10, rng=rng)
    model = build_model(model_name, num_classes=10, in_channels=channels,
                        image_size=16, rng=rng)
    marks["ready"] = time.monotonic()
    kwargs = ENGINE_KWARGS[(job["workload"], job["variant"])]
    engine = DriftSweepEngine(model, data, trials=size["trials"],
                              rng=job["seed"], **kwargs)
    start = time.perf_counter()
    report = engine.run(size["sigmas"], label=job["workload"])
    marks["work_s"] = time.perf_counter() - start
    outputs = _sweep_outputs(report)
    # A pool workload that ran serially degraded; a serial one cannot.
    outputs["degraded"] = bool(report.fallback_reason) or (
        kwargs.get("workers", 0) >= 2 and report.backend == "serial")
    return outputs


def _time_sweeps(marks: dict) -> None:
    """Add the seconds and evaluations of every outermost sweep call (the
    search objective's and the stored cells') to ``marks``."""
    from repro.evaluation.sweep import DriftSweepEngine

    run = DriftSweepEngine.run
    marks["work_s"], marks["evaluations"] = 0.0, 0
    inside = [False]

    def timed(self, *args, **kwargs):
        if inside[0]:
            return run(self, *args, **kwargs)
        inside[0] = True
        start = time.perf_counter()
        try:
            report = run(self, *args, **kwargs)
        finally:
            inside[0] = False
        marks["work_s"] += time.perf_counter() - start
        marks["evaluations"] += report.n_evaluations
        return report

    DriftSweepEngine.run = timed


def run_panel(job: dict, size: dict, marks: dict, cli_main) -> dict:
    from repro.scenarios.library import get_scenario
    from repro.utils.config import ExperimentConfig

    store = Path(job["workdir"]) / "store"
    argv = ["run", PANEL, "--seed", str(job["seed"]), "--out", str(store),
            "--json"]
    if size["full"]:
        argv.append("--full")
    if job["variant"] == "reference":
        argv += ["--trial-batch", "8"]
    config = (ExperimentConfig() if size["full"]
              else get_scenario(PANEL).default_config())
    printed = io.StringIO()
    _time_sweeps(marks)
    with contextlib.redirect_stdout(printed):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"python -m repro {' '.join(argv)} exited {code}")
    payload = json.loads(printed.getvalue())
    cells = {}
    for report_path in sorted(store.glob("*/*/report.json")):
        name = json.loads((report_path.parent / "spec.json").read_text())["name"]
        cells[name] = _sha256(report_path.read_bytes())
    return {
        "digest": _sha256(json.dumps(cells, sort_keys=True).encode()),
        "cells": cells,
        "bo_trials": config.bo_trials,
        "evaluations": marks["evaluations"],
        "degraded_cells": sorted({event.get("cell", "")
                                  for event in payload.get("degraded", [])}),
    }


def main(job: dict) -> dict:
    root = Path(job["root"]).resolve()
    sys.path.insert(0, str(root / "src"))
    size = SIZES[job["size"]][job["workload"]]
    marks: dict = {}

    begin = time.perf_counter()
    if job["workload"] == "panel-fig3b":
        # Exactly what `python -m repro` imports before parsing arguments.
        from repro.__main__ import main as cli_main
    else:
        import repro  # noqa: F401  (the whole package, as users import it)
    marks["import_s"] = time.perf_counter() - begin
    marks["ready"] = time.monotonic()

    from repro.telemetry import Telemetry, using
    session = Telemetry() if job["trace"] else None
    if session is not None:
        import ledger  # beside this script, so already on sys.path
        ledger.install()

    with using(session) if session else contextlib.nullcontext():
        if job["workload"] == "panel-fig3b":
            outputs = run_panel(job, size, marks, cli_main)
        else:
            outputs = run_sweep(job, size, marks)

    # Join pool workers now (interpreter exit would do the same), so their
    # peak RSS is in RUSAGE_CHILDREN.
    from repro.execution import shutdown_runtime
    shutdown_runtime()
    # Stop and reap the shared-memory resource tracker too: left to exit
    # with this process it is orphaned, and the next repetition waits until
    # init has reaped it.
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()
    result = {
        "setup_s": marks["ready"] - job["spawned"],
        "import_s": marks["import_s"],
        "work_s": marks["work_s"],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                        ) * 1024 / 1e6,
        **outputs,
    }
    if session is not None:
        ledger.write_spans(session.snapshot(), job["spans"], job["run_id"])
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    result = main(job)
    Path(job["result"]).write_text(json.dumps(result))
