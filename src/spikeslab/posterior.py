"""Exact posterior functionals for the spike-and-slab normal-means model.

The model: X_i = theta_i + eps_i with standard normal noise; theta drawn by
picking a dimension p from a DimensionPrior, a uniformly random support of
size p, and i.i.d. slab values on the support.

Everything is computed from the generating polynomial
prod_i (phi(X_i) + psi(X_i) Z) with the common factor prod_i phi(X_i)
divided out, so the engine works with the bounded ratios r_i = psi/phi on
the log scale.  The reported log partition function is relative to that
common factor (it cancels in every posterior quantity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .dimension import DimensionFamily, DimensionPrior
from .logpoly import inclusion_log_numerators, product_of_linear_factors
from .slabs import (
    SlabFamily,
    SlabPrior,
    log_phi,
    log_psi,
    log_psi_partial,
    posterior_shrinkage,
    slab_cdf_at_zero,
    slab_quantile,
    slab_tables,
    table_quantiles,
)

DEFAULT_LEVELS = (0.025, 0.975)


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-coordinate posterior summaries plus the dimension pmf."""

    log_partition: float
    dim_log_pmf: np.ndarray
    inclusion_prob: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    credible_lo: np.ndarray
    credible_hi: np.ndarray
    levels: tuple = DEFAULT_LEVELS

    @property
    def expected_dimension(self) -> float:
        p = np.arange(self.dim_log_pmf.size)
        return float(np.sum(p * np.exp(self.dim_log_pmf)))


def validate_observations(x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size == 0:
        raise ValueError("observations must form a nonempty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")
    return x


class Posterior:
    """Fitted posterior: summary fields plus marginal cdf / quantile access."""

    def __init__(self, x, dim_prior: DimensionPrior, slab: SlabPrior,
                 levels=DEFAULT_LEVELS, quantiles: bool = True):
        x = validate_observations(x)
        n = x.size
        if dim_prior.n != n:
            raise ValueError(f"dimension prior is over 0..{dim_prior.n} but n = {n}")
        self.x = x
        self.slab = slab
        self.dim_prior = dim_prior
        self.levels = tuple(levels)

        # the families without closed forms get one panel table per distinct
        # observation, built here and used for every slab evaluation of the
        # fit; the fitted object keeps none, so stored fits stay small
        idx = np.arange(n)
        tables = self._tables(idx)
        if tables is not None:
            self._log_psi = np.array([tables[i].log_psi for i in idx])
            shrinkage = np.array([tables[i].mean for i in idx])
        else:
            self._log_psi = log_psi(slab, x)
            shrinkage = posterior_shrinkage(slab, x)
        log_r = self._log_psi - log_phi(x)
        lam = dim_prior.log_model_weights()

        binomial = dim_prior.family is DimensionFamily.BINOMIAL
        if binomial:
            F = product_of_linear_factors(log_r)
        else:
            # O(n^2) forward-backward pass for q_i = d log Z / d log r_i
            F, log_num = inclusion_log_numerators(log_r, lam)
        self.log_partition = float(logsumexp(lam + F.log_coeffs))
        self.dim_log_pmf = lam + F.log_coeffs - self.log_partition
        if binomial:
            # binomial dimension prior makes the coordinates independent:
            # posterior odds of inclusion are (alpha psi) / ((1 - alpha) phi)
            alpha = dim_prior.params[0]
            la, l1a = np.log(alpha), np.log1p(-alpha)
            log_q = la + log_r - np.logaddexp(l1a, la + log_r)
            self.inclusion_prob = np.exp(log_q)
        else:
            self.inclusion_prob = np.exp(np.minimum(log_r + log_num - self.log_partition, 0.0))

        self.mean = self.inclusion_prob * shrinkage

        if quantiles:
            self.median = self._coordinatewise_median_vec(idx, tables)
            lo, hi = self.levels
            self.credible_lo = self._quantile_vec(np.full(n, lo), idx, tables)
            self.credible_hi = self._quantile_vec(np.full(n, hi), idx, tables)
        else:
            self.median = self.credible_lo = self.credible_hi = None

    # -- marginal slab cdf H(u) = psi(x, u) / psi(x) -----------------------

    def _tables(self, idx):
        """Panel tables of the coordinates idx, keyed by coordinate, one per
        distinct observation; None for the closed-form slab families."""
        if self.slab.family not in (SlabFamily.STUDENT, SlabFamily.EXP_POWER):
            return None
        return dict(zip(idx.tolist(), slab_tables(self.slab, self.x[idx])))

    def _slab_cdf_at_zero(self, idx, tables):
        """H(0) for the coordinates idx: the tables' cumulative sum at the
        knot 0, or the closed form."""
        if tables is not None:
            return np.array([tables[i].cdf_at_zero for i in idx])
        return slab_cdf_at_zero(self.slab, self.x[idx])

    def _slab_quantile(self, idx, tau, tables):
        """Generalized inverse of H for tau in (0, 1); +/-inf outside."""
        idx, tau = np.broadcast_arrays(idx, np.asarray(tau, dtype=float))
        out = np.where(tau <= 0.0, -np.inf, np.inf)
        inside = (tau > 0.0) & (tau < 1.0)
        if not np.any(inside):
            return out
        ii, ti = idx[inside], tau[inside]
        if tables is not None:
            out[inside] = table_quantiles([tables[i] for i in ii], ti)
        else:
            out[inside] = slab_quantile(self.slab, self.x[ii], ti)
        return out

    def marginal_cdf(self, i: int, u: float) -> float:
        """Posterior P(theta_i <= u | X): atom of size 1 - q_i at zero plus
        the slab part q_i * psi(x_i, u) / psi(x_i).  For the Student and
        exponential-power slabs each call builds the coordinate's table."""
        self._check_index(i)
        if np.isinf(u):
            return 0.0 if u < 0 else 1.0
        q = self.inclusion_prob[i]
        val = (1.0 - q) * (u >= 0.0)
        if q > 0.0:
            tables = self._tables(np.array([i]))
            if tables is not None:
                val += q * tables[i].cdf(u)
            else:
                val += q * float(np.exp(log_psi_partial(self.slab, self.x[i], u)
                                        - self._log_psi[i]))
        return float(min(max(val, 0.0), 1.0))

    def marginal_quantile(self, i: int, level: float) -> float:
        """Generalized inverse of the marginal cdf.  The atom at zero is
        handled analytically and the slab part is inverted exactly: the
        Gaussian slab posterior by ndtri, the Laplace one, a two-piece normal
        mixture split at 0, by ndtri_exp on the piece that holds the level,
        and the coordinate's panel table (Student, exponential power) by
        Newton steps inside the panel that holds the level."""
        self._check_index(i)
        if not 0.0 < level < 1.0:
            raise ValueError("level must lie strictly in (0, 1)")
        idx = np.array([i])
        return float(self._quantile_vec(np.asarray([level]), idx, self._tables(idx))[0])

    def _quantile_vec(self, levels: np.ndarray, idx, tables) -> np.ndarray:
        q = self.inclusion_prob[idx]
        out = np.zeros(levels.shape)
        h0 = np.where(q > 0.0, self._slab_cdf_at_zero(idx, tables), 0.5)
        atom_lo = q * h0
        atom_hi = atom_lo + (1.0 - q)
        below = levels <= atom_lo
        above = levels > atom_hi
        if np.any(below):
            out[below] = self._slab_quantile(idx[below], levels[below] / q[below], tables)
        if np.any(above):
            out[above] = self._slab_quantile(
                idx[above], (levels[above] - (1.0 - q[above])) / q[above], tables
            )
        return out

    def coordinatewise_median(self, i: int) -> float:
        """Median of the marginal posterior of coordinate i; exactly zero
        whenever the inclusion probability is at most 1/2."""
        self._check_index(i)
        idx = np.array([i])
        return float(self._coordinatewise_median_vec(idx, self._tables(idx))[0])

    def _coordinatewise_median_vec(self, idx, tables) -> np.ndarray:
        q = self.inclusion_prob[idx]
        with np.errstate(divide="ignore"):
            inv2q = np.where(q > 0.0, 1.0 / (2.0 * np.maximum(q, 1e-300)), np.inf)
        upper = self._slab_quantile(idx, 1.0 - inv2q, tables)
        lower = self._slab_quantile(idx, inv2q, tables)
        return np.maximum(upper, 0.0) + np.minimum(lower, 0.0)

    def _check_index(self, i: int):
        if not 0 <= i < self.x.size:
            raise IndexError(f"coordinate {i} out of range 0..{self.x.size - 1}")

    @property
    def summary(self) -> PosteriorSummary:
        if self.median is None:
            raise ValueError("posterior was fitted with quantiles=False")
        return PosteriorSummary(
            log_partition=self.log_partition,
            dim_log_pmf=self.dim_log_pmf,
            inclusion_prob=self.inclusion_prob,
            mean=self.mean,
            median=self.median,
            credible_lo=self.credible_lo,
            credible_hi=self.credible_hi,
            levels=self.levels,
        )


def fit(x, dim_prior: DimensionPrior, slab: SlabPrior, levels=DEFAULT_LEVELS,
        quantiles: bool = True) -> Posterior:
    """Compute the exact posterior for observations x."""
    return Posterior(x, dim_prior, slab, levels=levels, quantiles=quantiles)


def eb_binomial_weight(x, slab: SlabPrior) -> float:
    """Marginal maximum-likelihood mixture weight for a binomial(n, alpha)
    dimension prior: argmax over alpha in [min(1/n, 1 - 1e-6), 1 - 1e-6] of
    sum_i log((1 - alpha) phi(x_i) + alpha psi(x_i)); n = 1 gives 1 - 1e-6."""
    x = validate_observations(x)
    n = x.size
    lphi = log_phi(x)
    lpsi = log_psi(slab, x)

    def neg_loglik(alpha):
        return -float(
            np.logaddexp(np.log1p(-alpha) + lphi, np.log(alpha) + lpsi).sum()
        )

    hi = 1.0 - 1e-6
    lo = min(1.0 / n, hi)
    if lo >= hi:  # n = 1 corner
        return hi
    # imported here: scipy.optimize loads scipy.linalg, sparse and spatial,
    # about 25 MB that a process fitting no empirical-Bayes weight never needs
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(neg_loglik, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-8})
    best = float(res.x)
    # the likelihood can be monotone; snap to an endpoint when it wins
    for cand in (lo, hi):
        if neg_loglik(cand) < neg_loglik(best):
            best = cand
    return best
