"""Acquisition functions for choosing the next Bayesian-optimisation trial."""

from __future__ import annotations

import numpy as np

from .gp import GaussianProcessRegressor

__all__ = ["AcquisitionFunction", "PosteriorMean", "ExpectedImprovement",
           "UpperConfidenceBound"]


class AcquisitionFunction:
    """Scores candidate points; higher is better."""

    def __call__(self, gp: GaussianProcessRegressor, candidates: np.ndarray,
                 best_observed: float) -> np.ndarray:
        raise NotImplementedError


class PosteriorMean(AcquisitionFunction):
    """The paper's rule (Algorithm 1, line 9): pick the posterior-mean maximiser.

    This is pure exploitation of the surrogate; the paper relies on the
    random initial trials for exploration.
    """

    def __call__(self, gp: GaussianProcessRegressor, candidates: np.ndarray,
                 best_observed: float) -> np.ndarray:
        return gp.predict(candidates)


class ExpectedImprovement(AcquisitionFunction):
    """EI(α) = E[max(g(α) − g⁺ − ξ, 0)] under the GP posterior."""

    def __init__(self, xi: float = 0.01):
        if xi < 0:
            raise ValueError("xi must be non-negative")
        self.xi = float(xi)

    def __call__(self, gp: GaussianProcessRegressor, candidates: np.ndarray,
                 best_observed: float) -> np.ndarray:
        from scipy.stats import norm

        mean, std = gp.predict(candidates, return_std=True)
        improvement = mean - best_observed - self.xi
        z = improvement / std
        return improvement * norm.cdf(z) + std * norm.pdf(z)


class UpperConfidenceBound(AcquisitionFunction):
    """UCB(α) = μ(α) + β·σ(α)."""

    def __init__(self, beta: float = 2.0):
        if beta < 0:
            raise ValueError("beta must be non-negative")
        self.beta = float(beta)

    def __call__(self, gp: GaussianProcessRegressor, candidates: np.ndarray,
                 best_observed: float) -> np.ndarray:
        mean, std = gp.predict(candidates, return_std=True)
        return mean + self.beta * std
