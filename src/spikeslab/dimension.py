"""Priors on the number of nonzero coordinates.

Every constructor returns a normalized log-pmf over {0, ..., n} with strictly
positive mass everywhere.  The posterior engine consumes these through the
per-model log-weights  lambda_p = log pi_n(p) - log C(n, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .logpoly import _logsumexp


class DimensionFamily(str, Enum):
    COMPLEXITY = "complexity"
    BETABIN_POWER = "betabin"
    BINOMIAL = "binomial"
    POISSON = "poisson"
    GEOMETRIC = "geometric"
    CUSTOM = "custom"


@dataclass(frozen=True)
class DimensionPrior:
    n: int
    log_pmf: np.ndarray
    family: DimensionFamily = DimensionFamily.CUSTOM
    params: tuple = field(default_factory=tuple)

    def __post_init__(self):
        lp = np.asarray(self.log_pmf, dtype=float)
        object.__setattr__(self, "log_pmf", lp)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if lp.shape != (self.n + 1,):
            raise ValueError(f"log_pmf must have length n + 1 = {self.n + 1}")
        if np.any(np.isnan(lp)) or np.any(lp == np.inf):
            raise ValueError("log_pmf entries must be finite or -inf")
        total = _logsumexp(lp)
        if abs(total) > 1e-10:
            raise ValueError(f"log_pmf is not normalized (log-sum-exp = {total:.3e})")

    def log_model_weights(self) -> np.ndarray:
        """Vector of log pi_n(p) - log C(n, p), p = 0..n."""
        return self.log_pmf - _log_binomials(self.n)


@lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, one math.lgamma each, read-only: shared by every
    prior of that size."""
    out = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    out.flags.writeable = False
    return out


def _log_binomials(n: int) -> np.ndarray:
    """log C(n, p), p = 0..n."""
    f = _log_factorials(n)
    return f[-1] - f - f[::-1]


def _check_size(n: int):
    """Name a size n below 1 before any array is built."""
    if n < 1:
        raise ValueError("n must be at least 1")


def _normalized(n: int, log_weights: np.ndarray, family: DimensionFamily, params: tuple) -> DimensionPrior:
    log_weights = np.asarray(log_weights, dtype=float)
    return DimensionPrior(n, log_weights - _logsumexp(log_weights), family, params)


def complexity_prior(n: int, kappa: float, b: float = 3.0) -> DimensionPrior:
    """pi_n(p) proportional to exp(-kappa * p * log(b n / p)).

    The p = 0 weight is the continuity limit exp(0) = 1.
    """
    _check_size(n)
    if kappa <= 0 or b <= 0:
        raise ValueError("kappa and b must be positive")
    p = np.arange(n + 1, dtype=float)
    w = np.zeros(n + 1)
    w[1:] = -kappa * p[1:] * np.log(b * n / p[1:])
    return _normalized(n, w, DimensionFamily.COMPLEXITY, (kappa, b))


def betabin_power_prior(n: int, kappa: float) -> DimensionPrior:
    """pi_n(p) proportional to C(2n - p, n)^kappa.

    kappa = 1 is the Beta-binomial(1, n + 1) hierarchical prior, with
    pi_n(p) / pi_n(p - 1) = (n - p + 1) / (2n - p + 1) <= 1/2.
    """
    _check_size(n)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    f = _log_factorials(2 * n)
    p = np.arange(n + 1)
    w = kappa * (f[2 * n - p] - f[n] - f[n - p])
    return _normalized(n, w, DimensionFamily.BETABIN_POWER, (kappa,))


def binomial_prior(n: int, alpha: float) -> DimensionPrior:
    """Binomial(n, alpha) prior on dimension; alpha strictly inside (0, 1)."""
    _check_size(n)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly in (0, 1)")
    p = np.arange(n + 1, dtype=float)
    w = _log_binomials(n) + p * np.log(alpha) + (n - p) * np.log1p(-alpha)
    return _normalized(n, w, DimensionFamily.BINOMIAL, (alpha,))


def poisson_prior(n: int, alpha: float) -> DimensionPrior:
    """Poisson(alpha) truncated to {0, ..., n} and renormalized."""
    _check_size(n)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    w = np.arange(n + 1) * np.log(alpha) - _log_factorials(n)
    return _normalized(n, w, DimensionFamily.POISSON, (alpha,))


def geometric_prior(n: int, succ_prob: float) -> DimensionPrior:
    """Geometric on {0, 1, ...} with the given success probability, truncated."""
    _check_size(n)
    if not 0.0 < succ_prob < 1.0:
        raise ValueError("success probability must lie strictly in (0, 1)")
    p = np.arange(n + 1, dtype=float)
    w = p * np.log1p(-succ_prob)
    return _normalized(n, w, DimensionFamily.GEOMETRIC, (succ_prob,))


def custom_prior(n: int, log_weights) -> DimensionPrior:
    """User-supplied unnormalized log-weights over {0, ..., n}."""
    _check_size(n)
    return _normalized(n, np.asarray(log_weights, dtype=float), DimensionFamily.CUSTOM, ())
