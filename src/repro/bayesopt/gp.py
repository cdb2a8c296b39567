"""Gaussian-process regression surrogate (Eq. (5)–(8) of the paper)."""

from __future__ import annotations

import numpy as np

from .kernels import ExponentialKernel, Kernel

__all__ = ["GaussianProcessRegressor"]


class GaussianProcessRegressor:
    """Exact GP regression with a jitter-stabilised Cholesky solve.

    Given trials ``X = α_{1:n}`` and observed objective values ``y = g(α_{1:n})``,
    the posterior at a new point α is Gaussian with

        μ_n(α)  = k(α, X) K⁻¹ y
        σ²_n(α) = k(α, α) − k(α, X) K⁻¹ k(X, α)

    which is Eq. (8) of the paper (the paper writes the mean recursion with
    κ_n; the standard kriging equations are identical).
    """

    def __init__(self, kernel: Kernel | None = None, noise: float = 1e-6,
                 normalize_y: bool = True):
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.kernel = kernel or ExponentialKernel()
        self.noise = float(noise)
        self.normalize_y = normalize_y
        self._X: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: np.ndarray | None = None
        self._cho = None
        self._y_scaled: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._X is not None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Fit the surrogate to observed (trial, objective) pairs."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if self.normalize_y and y.size > 1 and y.std() > 0:
            self._y_mean, self._y_std = float(y.mean()), float(y.std())
        else:
            self._y_mean, self._y_std = float(y.mean()) if y.size else 0.0, 1.0
        y_scaled = (y - self._y_mean) / self._y_std

        K = self.kernel(X, X)
        K[np.diag_indices_from(K)] += self.noise + 1e-10
        # Increase jitter until the Cholesky succeeds (degenerate trial sets).
        from scipy import linalg

        jitter = 0.0
        for attempt in range(6):
            try:
                self._cho = linalg.cho_factor(K + jitter * np.eye(K.shape[0]), lower=True)
                break
            except linalg.LinAlgError:
                jitter = 10.0 ** (attempt - 8)
        else:
            raise linalg.LinAlgError("GP covariance matrix is not positive definite")
        self._alpha = linalg.cho_solve(self._cho, y_scaled)
        self._y_scaled = y_scaled
        self._X = X
        return self

    def predict(self, X_new: np.ndarray, return_std: bool = False):
        """Posterior mean (and optionally standard deviation) at ``X_new``."""
        if not self.is_fitted:
            raise RuntimeError("predict() called before fit()")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=np.float64))
        K_cross = self.kernel(X_new, self._X)
        mean = K_cross @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        from scipy import linalg

        v = linalg.cho_solve(self._cho, K_cross.T)
        variance = self.kernel.diag(X_new) - np.einsum("ij,ji->i", K_cross, v)
        variance = np.maximum(variance, 1e-12)
        return mean, np.sqrt(variance) * self._y_std

    def log_marginal_likelihood(self) -> float:
        """Log p(y | X) of the fitted (scaled) targets.

        Uses the standard identity  -½ yᵀK⁻¹y − Σᵢ log Lᵢᵢ − n/2 log 2π.
        Everything it needs — ``alpha = K⁻¹ y``, the Cholesky factor ``L``
        (whose diagonal carries ½ log|K|) and the scaled targets — is
        cached by :meth:`fit`, so this is O(n): no kernel matrix is
        rebuilt and no O(n²) matmul re-derives ``y``.
        """
        if not self.is_fitted:
            raise RuntimeError("fit() must be called first")
        L = self._cho[0]
        return float(-0.5 * np.dot(self._y_scaled, self._alpha)
                     - np.log(np.diag(L)).sum()
                     - 0.5 * self._y_scaled.size * np.log(2 * np.pi))
