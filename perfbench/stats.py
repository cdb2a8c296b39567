"""Summaries and parent-vs-change verdicts for benchmark results.

The rules are the repository's benchmark rules:

* a summary is the median and the quartiles of ``statistics.quantiles``
  (its default method), with the sample count;
* fewer than ten runs paired by seed are **unresolved**, whatever they show;
* a change is **better** when it wins at least nine tenths of the paired
  runs (ties count for neither) and its median beats the parent's by more
  than the parent's own spread (the distance between its quartiles);
* otherwise, where the parent's spread is wider than the metric's bound,
  the metric is **unresolved** unless every run of the change reads better
  than every run of the parent;
* otherwise it is **worse beyond the bound** when the change's median is
  worse than the parent's by more than ``bound`` times the parent's median,
  and **within the bound** if not.

Per-layer metrics carry no bound: they are better, worse (the mirror of the
better rule) or unresolved.
"""

from __future__ import annotations

import statistics

BETTER = "better"
WORSE = "worse beyond the bound"
WITHIN = "within the bound"
UNRESOLVED = "unresolved"
WORSE_UNBOUNDED = "worse"

#: Paired runs needed before any verdict but "unresolved".
MIN_PAIRS = 10


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of a list of samples."""
    values = [float(value) for value in values]
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _gain(parent: float, change: float, better: str) -> float:
    """How much ``change`` beats ``parent`` (negative when it is worse)."""
    return change - parent if better == "higher" else parent - change


def pair(parent: list[tuple], change: list[tuple]) -> list[tuple]:
    """Pair ``(seed, value)`` runs by seed, in run order within a seed."""
    by_seed: dict = {}
    for seed, value in parent:
        by_seed.setdefault(seed, []).append(value)
    pairs = []
    for seed, value in change:
        queue = by_seed.get(seed)
        if queue:
            pairs.append((queue.pop(0), value))
    return pairs


def verdict(parent: list[tuple], change: list[tuple], better: str,
            bound: float | None) -> dict:
    """Compare the ``(seed, value)`` runs of a parent and a change."""
    a = [value for _, value in parent]
    b = [value for _, value in change]
    pairs = pair(parent, change)
    wins = sum(1 for x, y in pairs if _gain(x, y, better) > 0)
    losses = sum(1 for x, y in pairs if _gain(x, y, better) < 0)
    base, new = summarize(a), summarize(b)
    own_spread = base["q3"] - base["q1"]
    gain = _gain(base["median"], new["median"], better)
    every_run_better = all(_gain(x, y, better) > 0 for x in a for y in b)

    row = {"parent": base, "change": new, "pairs": len(pairs), "wins": wins}
    if len(pairs) < MIN_PAIRS:
        return {**row, "verdict": UNRESOLVED,
                "note": f"{len(pairs)} paired runs, {MIN_PAIRS} needed"}
    if wins >= 0.9 * len(pairs) and gain > own_spread:
        result = BETTER
    elif bound is None:
        result = (WORSE_UNBOUNDED
                  if losses >= 0.9 * len(pairs) and -gain > own_spread
                  else UNRESOLVED)
    elif own_spread > bound * abs(base["median"]) and not every_run_better:
        result = UNRESOLVED
    elif -gain > bound * abs(base["median"]):
        result = WORSE
    else:
        result = WITHIN
    return {**row, "verdict": result}
