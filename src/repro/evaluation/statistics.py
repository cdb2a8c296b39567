"""Summary statistics over robustness curves."""

from __future__ import annotations

import numpy as np

from .robustness import RobustnessCurve

__all__ = ["curve_auc", "sigma_at_accuracy", "compare_curves", "mean_confidence_interval"]


def curve_auc(curve: RobustnessCurve) -> float:
    """Area under the accuracy-vs-σ curve (trapezoidal), normalised by the σ span.

    A scalar robustness score: 1.0 means perfect accuracy across the whole
    sweep, higher is better.
    """
    sigmas = np.asarray(curve.sigmas)
    means = np.asarray(curve.means)
    if len(sigmas) < 2:
        return float(means[0]) if len(means) else 0.0
    span = sigmas[-1] - sigmas[0]
    if span <= 0:
        return float(means.mean())
    return float(np.trapezoid(means, sigmas) / span)


def sigma_at_accuracy(curve: RobustnessCurve, threshold: float = 0.5) -> float:
    """The largest σ at which accuracy still meets ``threshold``.

    Linear interpolation between grid points; returns 0 if the clean
    accuracy is already below the threshold and the last σ if the curve
    never drops below it.  This is the "accuracy cliff location" statistic
    used to compare methods in EXPERIMENTS.md.
    """
    sigmas = np.asarray(curve.sigmas)
    means = np.asarray(curve.means)
    if means[0] < threshold:
        return 0.0
    for index in range(1, len(sigmas)):
        if means[index] < threshold:
            # Interpolate the crossing between index-1 and index.
            x0, x1 = sigmas[index - 1], sigmas[index]
            y0, y1 = means[index - 1], means[index]
            if y0 == y1:
                return float(x0)
            return float(x0 + (threshold - y0) * (x1 - x0) / (y1 - y0))
    return float(sigmas[-1])


def compare_curves(curve_a: RobustnessCurve, curve_b: RobustnessCurve) -> dict:
    """Pairwise comparison summary between two methods on the same σ grid."""
    if list(curve_a.sigmas) != list(curve_b.sigmas):
        raise ValueError("curves must share the same sigma grid")
    means_a = np.asarray(curve_a.means)
    means_b = np.asarray(curve_b.means)
    gaps = means_a - means_b
    return {
        "auc_a": curve_auc(curve_a),
        "auc_b": curve_auc(curve_b),
        "max_gap": float(gaps.max()),
        "mean_gap": float(gaps.mean()),
        "a_wins_fraction": float((gaps > 0).mean()),
    }


def mean_confidence_interval(values, confidence: float = 0.95) -> tuple[float, float]:
    """Mean and half-width of the Student-t confidence interval."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float("nan"), float("nan")
    mean = float(values.mean())
    if values.size == 1:
        return mean, 0.0
    from scipy import stats

    sem = stats.sem(values)
    half_width = float(sem * stats.t.ppf((1 + confidence) / 2.0, values.size - 1))
    return mean, half_width
