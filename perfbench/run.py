"""Benchmark of the BayesFT reproduction, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload panel-fig3b --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py                  # all three workloads, default seed
    python3 perfbench/run.py --trace 1        # the per-layer ledger instead
    python3 perfbench/run.py compare parent.jsonl change.jsonl
    python3 perfbench/run.py record-references --seeds 0-63,1009

Each repetition runs in a fresh Python process (``rep.py``), so import and
pool start-up count as they do for a user.  A run repeats its workload
until one more repetition would pass ``--seconds``, checks every
repetition's outputs against the reference for its seed, and prints every
metric named in ``BENCHMARK.json`` with its unit.  ``workloads.json`` lists
the workloads; ``BENCHMARK.json`` names the two its check runs.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any output did
not match.  Full records (environment, every repetition, quartiles) are
appended to ``perfbench/out/results.jsonl`` and traced spans are written
to ``perfbench/out/spans/``.

The benchmark never sets BLAS or thread environment variables; it records
them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ledger
import stats

ROOT = Path(__file__).resolve().parents[1]
# The ledger reads traces with the program's own trace reader.
sys.path.insert(1, str(ROOT / "src"))
HERE = ROOT / "perfbench"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

#: A run starts no repetition after this many seconds and kills one that
#: is still going at RUN_LIMIT_S, so it always ends within 180 s.
START_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A run that cannot produce a result (missing program, failed reference)."""


def _load(path: Path):
    return json.loads(path.read_text())


# --------------------------------------------------------------------------- #
# Environment block
# --------------------------------------------------------------------------- #
def _blas_runtime() -> dict:
    """OpenBLAS core and thread count as loaded by numpy (best effort)."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        numpy.__file__)), "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            try:
                corename = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return {"core": corename().decode(), "threads": threads()}
    return {"core": None, "threads": None}


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"], capture_output=True,
                                text=True, check=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def environment() -> dict:
    """Cores, Python, numpy, BLAS and its thread settings, git state."""
    import numpy

    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": build.get("name"), "version": build.get("version"),
                 **_blas_runtime()},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git": _git_state(),
    }


def fingerprint(env: dict) -> dict:
    """What recorded reference digests depend on besides the code."""
    return {"machine": env["machine"], "numpy": env["numpy"],
            "blas": env["blas"]["version"], "blas_core": env["blas"]["core"]}


# --------------------------------------------------------------------------- #
# Repetitions
# --------------------------------------------------------------------------- #
def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a repetition's process group and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(workload: str, seed: int, size: str, variant: str, trace: bool,
            run_id: str, timeout: float) -> dict:
    """Run one repetition in a fresh process; returns its result dict.

    ``ok`` is false when the process failed or timed out; ``error`` then
    holds the end of its standard error.
    """
    workdir = OUT / "tmp" / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    spans = OUT / "spans" / f"{run_id}.jsonl"
    if trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
    job = {"root": str(ROOT), "workload": workload, "seed": seed,
           "size": size, "variant": variant, "trace": trace,
           "run_id": run_id, "workdir": str(workdir),
           "result": str(workdir / "result.json"), "spans": str(spans)}
    job["spawned"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(job)], cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        _, err = proc.communicate()
        err = (err or "") + f"\nrepetition killed after {timeout:.0f} s"
    finally:
        wall = time.monotonic() - job["spawned"]
        _stop_group(proc.pid)
    result_path = Path(job["result"])
    result = (_load(result_path)
              if proc.returncode == 0 and result_path.exists() else {})
    shutil.rmtree(workdir, ignore_errors=True)
    result.update(ok=bool(result), wall_s=wall, run_id=run_id,
                  traced=trace, error="" if result else (err or "")[-2000:])
    if trace and result["ok"]:
        result["layers"] = ledger.layer_metrics(spans, wall,
                                                result["import_s"])
    return result


def _outputs(result: dict) -> dict:
    keys = ("digest", "points", "cells", "bo_trials")
    return {key: result[key] for key in keys if key in result}


def score(result: dict | None, reference: dict) -> tuple:
    """``(attempted, failed)`` operations of one repetition.

    An operation is a σ point of a sweep, or a cell or BO trial of the
    panel.  It fails when the repetition crashed, degraded to serial, or
    produced output that differs from the reference.
    """
    if "cells" in reference:
        names = set(reference["cells"])
        attempted = len(names) + reference["bo_trials"]
        if not result or not result.get("ok"):
            return attempted, attempted
        bad = {name for name in names
               if result["cells"].get(name) != reference["cells"][name]}
        bad |= set(result["cells"]) - names
        bad |= set(result.get("degraded_cells", ()))
        failed = min(len(bad), len(names))
        if "BayesFT" in bad:
            failed += reference["bo_trials"]
        return attempted, failed
    attempted = len(reference["points"])
    if not result or not result.get("ok") or result.get("degraded"):
        return attempted, attempted
    failed = sum(1 for got, want in zip(result["points"], reference["points"])
                 if got != want)
    failed += abs(len(result["points"]) - attempted)
    if not failed and result["digest"] != reference["digest"]:
        failed = 1
    return attempted, min(failed, attempted)


class Run:
    """One workload at one seed: reference, repetitions, summary."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: str, env: dict):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.size, self.env = trace, size, env
        self.started = time.monotonic()
        self.attempted = self.failed = 0
        self.reps: list[dict] = []
        self.notes: list[str] = []
        self.stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"

    def _rep(self, variant: str, trace: bool, label: str) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        return run_rep(self.workload, self.seed, self.size, variant, trace,
                       f"{self.workload}-s{self.seed}-{self.stamp}-{label}",
                       remaining)

    def reference(self) -> tuple[dict, bool]:
        """Recorded digests for this seed, else (or also) a reference run.

        ``sweep-lenet-2w`` always runs its serial reference; a recorded
        digest is only used on the numpy/BLAS build it was recorded with.
        Returns the reference and whether a reference run happened.
        """
        entry = None
        if self.size == "full" and REFERENCES.exists():
            table = _load(REFERENCES)
            if table.get("fingerprint") == fingerprint(self.env):
                entry = table["workloads"].get(self.workload, {}).get(
                    str(self.seed))
        computed = None
        if entry is None or self.workload == "sweep-lenet-2w":
            rep = self._rep("reference", False, "reference")
            if not rep["ok"]:
                raise BenchError(f"{self.workload}: the reference run failed:"
                                 f"\n{rep['error']}")
            computed = _outputs(rep)
            self.notes.append("reference: computed by an untimed run of the "
                              + ("serial backend" if self.workload ==
                                 "sweep-lenet-2w" else "trial-batched path"))
        if entry is not None:
            self.notes.append("reference: recorded in references.json")
            if computed is not None:
                attempted, failed = score({**computed, "ok": True}, entry)
                self.attempted += attempted
                self.failed += failed
        return (entry if entry is not None else computed), computed is not None

    def measure(self) -> None:
        reference, warm = self.reference()
        if not warm:
            # Warm the file cache (and byte-compile a fresh checkout)
            # outside the timed repetitions.
            try:
                subprocess.run([sys.executable, "-c",
                                "import sys; sys.path.insert(0, 'src'); "
                                "import repro"], cwd=ROOT, check=False,
                               stdout=subprocess.DEVNULL, timeout=60)
            except subprocess.TimeoutExpired:
                pass  # the first repetition then pays it; nothing to undo
        begin = time.monotonic()
        while True:
            # Traced and untraced repetitions alternate in a traced run, so
            # the tracing overhead is measured in the same run.
            traced = self.trace and len(self.reps) % 2 == 0
            rep = self._rep("timed", traced, f"r{len(self.reps)}")
            self.reps.append(rep)
            attempted, failed = score(rep, reference)
            self.attempted += attempted
            self.failed += failed
            if not rep["ok"]:
                self.notes.append(f"repetition {rep['run_id']} failed:\n"
                                  f"{rep['error']}")
                break
            elapsed = time.monotonic() - begin
            typical = statistics.median(r["wall_s"] for r in self.reps)
            need_pair = self.trace and len(self.reps) < 2
            if time.monotonic() - self.started > START_LIMIT_S:
                break
            if not need_pair and elapsed + typical > self.seconds:
                break

    def metrics(self, names: list[str]) -> dict:
        """The run's value of each named metric, with the median, quartiles
        and count of its repetitions' samples.

        The value is the median, except for ``wall_s`` (the mean repetition)
        and ``evals_per_s`` (all evaluations over all sweep seconds): a
        2-worker repetition's sweep is either fast or slow, depending on how
        the workers' BLAS threads share the cores, and a median of a few
        such repetitions jumps between the two.
        """
        good = [rep for rep in self.reps if rep["ok"]]
        samples: dict = {}
        values: dict = {}
        if self.trace:
            traced = [rep for rep in good if rep["traced"]]
            plain = [rep for rep in good if not rep["traced"]]
            for rep in traced:
                for name, value in rep["layers"].items():
                    samples.setdefault(name, []).append(value)
            if traced and plain:
                samples["trace.overhead_ratio"] = [
                    statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain)]
        else:
            for rep in good:
                samples.setdefault("setup_s", []).append(rep["setup_s"])
                samples.setdefault("wall_s", []).append(rep["wall_s"])
                samples.setdefault("evals_per_s", []).append(
                    rep["evaluations"] / rep["work_s"])
                samples.setdefault("peak_rss_mb", []).append(
                    rep["peak_rss_mb"])
            if good:
                values["wall_s"] = statistics.mean(samples["wall_s"])
                values["evals_per_s"] = (
                    sum(rep["evaluations"] for rep in good)
                    / sum(rep["work_s"] for rep in good))
        summary = {}
        for name in names:
            if samples.get(name):
                summary[name] = stats.summarize(samples[name])
                summary[name]["value"] = values.get(
                    name, summary[name]["median"])
        return summary


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_run(run: Run, summary: dict, catalogue: list[dict]) -> None:
    env = run.env
    blas = env["blas"]
    print(f"== {run.workload}  seed {run.seed}  {len(run.reps)} repetitions "
          f"({'traced/untraced' if run.trace else 'untraced'}, {run.size})")
    print(f"   env: {env['usable_cores']} cores, Python {env['python']}, "
          f"numpy {env['numpy']}, {blas['name']} {blas['version']} "
          f"core {blas['core']} threads {blas['threads']}, thread env "
          + (", ".join(f"{k}={v}" for k, v in env["thread_env"].items()
                       if v is not None) or "unset")
          + f", git {env['git']['sha'] or 'n/a'}"
          + (" dirty" if env["git"]["dirty"] else ""))
    for note in run.notes:
        print(f"   {note}")
    for metric in catalogue:
        name = metric["name"]
        if name not in summary:
            print(f"   {name:<36} (not measured)")
            continue
        s = summary[name]
        print(f"   {name:<36} {_fmt(s['value']):>12} {metric['unit']:<12}"
              f" median {_fmt(s['median'])}  q1 {_fmt(s['q1'])}"
              f"  q3 {_fmt(s['q3'])}  n {s['n']}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"   {'failed_ratio':<36} {_fmt(ratio):>12} {'ratio':<12}"
          f" {run.failed} of {run.attempted} operations failed")


def _record(run: Run, summary: dict, catalogue: list[dict]) -> dict:
    units = {metric["name"]: metric["unit"] for metric in catalogue}
    return {
        "workload": run.workload, "seed": run.seed, "trace": int(run.trace),
        "size": run.size, "seconds": run.seconds, "env": run.env,
        "notes": run.notes, "attempted": run.attempted, "failed": run.failed,
        "correct": run.failed == 0 and len(summary) == len(catalogue),
        "metrics": {name: {"unit": units[name], **s}
                    for name, s in summary.items()},
        "reps": [{key: value for key, value in rep.items()
                  if key not in ("points", "cells")} for rep in run.reps],
    }


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #
def _check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'repro'} "
                         "is missing; run from the root of a checkout")


def bench_main(argv: list[str]) -> int:
    spec = _load(ROOT / "BENCHMARK.json")
    meta = _load(HERE / "workloads.json")
    names = list(meta["workloads"])
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=meta["default_seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs for the self-tests")
    parser.add_argument("--results", type=Path,
                        default=OUT / "results.jsonl",
                        help="JSON-lines file the full records append to")
    args = parser.parse_args(argv)
    _check_checkout()
    # A terminated run unwinds, so every repetition's process group is
    # stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    catalogue = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    workloads = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    correct = True
    for workload in workloads:
        run = Run(workload, args.seed, args.seconds, bool(args.trace),
                  args.size, env)
        run.measure()
        summary = run.metrics([metric["name"] for metric in catalogue])
        print_run(run, summary, catalogue)
        record = _record(run, summary, catalogue)
        args.results.parent.mkdir(parents=True, exist_ok=True)
        with args.results.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        attempted += run.attempted
        failed += run.failed
        correct = correct and record["correct"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, entry in record["metrics"].items():
            metrics[prefix + name] = {"value": entry["value"],
                                      "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py compare",
        description="Compare the result records of a parent and a change.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = _load(ROOT / "BENCHMARK.json")
    parent, change = _records(args.parent), _records(args.change)
    rows = []
    for trace, catalogue in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in _load(HERE / "workloads.json")["workloads"]:
            ours = [r for r in parent
                    if r["workload"] == workload and r["trace"] == trace]
            theirs = [r for r in change
                      if r["workload"] == workload and r["trace"] == trace]
            if not ours or not theirs:
                continue
            fail_a = sum(r["failed"] for r in ours) / max(
                1, sum(r["attempted"] for r in ours))
            fail_b = sum(r["failed"] for r in theirs) / max(
                1, sum(r["attempted"] for r in theirs))
            for metric in catalogue:
                name = metric["name"]
                a = [(r["seed"], r["metrics"][name]["value"]) for r in ours
                     if name in r["metrics"]]
                b = [(r["seed"], r["metrics"][name]["value"]) for r in theirs
                     if name in r["metrics"]]
                if not a or not b:
                    continue
                row = stats.verdict(a, b, metric["better"],
                                    metric.get("bound"))
                if row["verdict"] == stats.BETTER and fail_b > fail_a:
                    row["verdict"] = stats.UNRESOLVED
                    row["note"] = "more operations failed than at the parent"
                rows.append({"workload": workload, "metric": name,
                             "unit": metric["unit"], "trace": trace,
                             "bound": metric.get("bound"), **row})
    print(f"{'workload':<16} {'metric':<34} {'parent median [q1, q3] n':<34} "
          f"{'change median [q1, q3] n':<34} {'wins':>7}  verdict")
    for row in rows:
        cells = []
        for side in ("parent", "change"):
            s = row[side]
            cells.append(f"{_fmt(s['median'])} [{_fmt(s['q1'])}, "
                         f"{_fmt(s['q3'])}] {s['n']}")
        bound = "" if row["bound"] is None else f" (bound {row['bound']:.0%})"
        print(f"{row['workload']:<16} {row['metric']:<34} {cells[0]:<34} "
              f"{cells[1]:<34} {row['wins']:>3}/{row['pairs']:<3}  "
              f"{row['verdict']}{bound}{'; ' + row['note'] if 'note' in row else ''}")
    return 0


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record_main(argv: list[str]) -> int:
    names = list(_load(HERE / "workloads.json")["workloads"])
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py record-references",
        description="Record reference digests (from the reference runs) for "
                    "the given seeds into perfbench/references.json.")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-63,1009"))
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    args = parser.parse_args(argv)
    _check_checkout()
    env = environment()
    table = _load(REFERENCES) if REFERENCES.exists() else {}
    if table.get("fingerprint") != fingerprint(env):
        table = {"fingerprint": fingerprint(env), "workloads": {}}
    for workload in (names if args.workload == "all" else [args.workload]):
        entries = table["workloads"].setdefault(workload, {})
        for seed in args.seeds:
            rep = run_rep(workload, seed, "full", "reference", False,
                          f"record-{workload}-s{seed}-{os.getpid()}",
                          RUN_LIMIT_S)
            if not rep["ok"]:
                raise BenchError(f"{workload} seed {seed}: {rep['error']}")
            entries[str(seed)] = _outputs(rep)
            print(f"{workload} seed {seed}: {rep['digest'][:16]}", flush=True)
            REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True)
                                  + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = {"compare": compare_main, "record-references": record_main}
    try:
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:])
        return bench_main(argv)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
