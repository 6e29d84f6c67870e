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
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp, ndtri

from .dimension import DimensionFamily, DimensionPrior
from .logpoly import _schoolbook_step, product_of_linear_factors
from .slabs import (
    SlabCdfTable,
    SlabFamily,
    SlabPrior,
    log_phi,
    log_psi,
    log_psi_partial,
    posterior_shrinkage,
)

DEFAULT_LEVELS = (0.025, 0.975)

_BRACKET = 40.0  # Laplace quantile bracket half-width around each observation
_BISECT_ITERS = 40  # 80 / 2^40 < 1e-10 absolute on the quantile


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
                 levels=DEFAULT_LEVELS, strategy: str = "schoolbook",
                 quantiles: bool = True):
        x = validate_observations(x)
        n = x.size
        if dim_prior.n != n:
            raise ValueError(f"dimension prior is over 0..{dim_prior.n} but n = {n}")
        self.x = x
        self.slab = slab
        self.dim_prior = dim_prior
        self.levels = tuple(levels)

        self._log_phi = log_phi(x)
        self._log_psi = log_psi(slab, x)
        log_r = self._log_psi - self._log_phi
        lam = dim_prior.log_model_weights()

        F = product_of_linear_factors(log_r, strategy)
        self.log_partition = float(logsumexp(lam + F.log_coeffs))
        self.dim_log_pmf = lam + F.log_coeffs - self.log_partition

        if dim_prior.family is DimensionFamily.BINOMIAL:
            # binomial dimension prior makes the coordinates independent:
            # posterior odds of inclusion are (alpha psi) / ((1 - alpha) phi)
            alpha = dim_prior.params[0]
            la, l1a = np.log(alpha), np.log1p(-alpha)
            log_q = la + log_r - np.logaddexp(l1a, la + log_r)
            self.inclusion_prob = np.exp(log_q)
        else:
            # forward-backward pass for q_i = d log Z / d log r_i, O(n^2).  A
            # backward sweep builds G[i][a] = log sum_b s_i[b] exp(lam[a+b+1]),
            # s_i being the coefficients of prod_{j > i} (1 + r_j Z); a forward
            # sweep contracts G[i] with the prefix product prod_{j < i}.  Every
            # step is a log-sum-exp of nonnegative terms.
            G = [lam[1:]]
            for i in range(n - 1, 0, -1):
                g = G[-1]
                G.append(np.logaddexp(g[:i], log_r[i] + g[1:]))
            G.reverse()  # G[i] has i + 1 entries, one per prefix coefficient
            log_num = np.empty(n)
            pref = np.zeros(1)
            for i in range(n):
                t = pref + G[i]
                top = t.max()
                log_num[i] = top + np.log(np.exp(t - top).sum()) if top > -np.inf else top
                pref = _schoolbook_step(pref, log_r[i])
            self.inclusion_prob = np.exp(np.minimum(log_r + log_num - self.log_partition, 0.0))

        self._cdf_tables: dict[float, SlabCdfTable] = {}
        self._shrinkage = posterior_shrinkage(slab, x)
        self.mean = self.inclusion_prob * self._shrinkage

        if quantiles:
            self.median = self._coordinatewise_median_vec()
            lo, hi = self.levels
            self.credible_lo = self._quantile_vec(np.full(n, lo))
            self.credible_hi = self._quantile_vec(np.full(n, hi))
        else:
            self.median = self.credible_lo = self.credible_hi = None

    # -- marginal slab cdf H(u) = psi(x, u) / psi(x) -----------------------

    def _slab_cdf(self, x, lpsi, u):
        """H(u) for observations x, given their cached log psi(x)."""
        return np.exp(log_psi_partial(self.slab, x, u) - lpsi)

    def _cdf_table(self, xv: float) -> SlabCdfTable:
        key = float(xv)
        table = self._cdf_tables.get(key)
        if table is None:
            table = SlabCdfTable(self.slab, key)
            self._cdf_tables[key] = table
        return table

    def _slab_quantile(self, x, lpsi, tau):
        """Generalized inverse of H for tau in (0, 1); +/-inf outside."""
        x = np.asarray(x, dtype=float)
        tau = np.asarray(tau, dtype=float)
        x, lpsi, tau = np.broadcast_arrays(x, lpsi, tau)
        out = np.where(tau <= 0.0, -np.inf, np.inf)
        inside = (tau > 0.0) & (tau < 1.0)
        if not np.any(inside):
            return out
        out = out.copy()
        xi, ti = x[inside], tau[inside]
        if self.slab.family is SlabFamily.GAUSSIAN:
            # the slab posterior is N(m, sd^2): invert it exactly
            a = self.slab.scale
            tau2 = 1.0 + a * a
            out[inside] = xi * (a * a) / tau2 + a / np.sqrt(tau2) * ndtri(ti)
            return out
        if self.slab.family in (SlabFamily.STUDENT, SlabFamily.EXP_POWER):
            # quadrature families: invert a cached per-coordinate cdf table
            out[inside] = [
                self._cdf_table(v).quantile(t) for v, t in zip(xi, ti)
            ]
            return out
        li = lpsi[inside]
        lo = xi - _BRACKET
        hi = xi + _BRACKET
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            ge = self._slab_cdf(xi, li, mid) >= ti
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        out[inside] = 0.5 * (lo + hi)
        return out

    def marginal_cdf(self, i: int, u: float) -> float:
        """Posterior P(theta_i <= u | X): atom of size 1 - q_i at zero plus
        the slab part q_i * psi(x_i, u) / psi(x_i)."""
        self._check_index(i)
        if np.isinf(u):
            return 0.0 if u < 0 else 1.0
        q = self.inclusion_prob[i]
        val = (1.0 - q) * (u >= 0.0)
        if q > 0.0:
            val += q * float(self._slab_cdf(self.x[i], self._log_psi[i], u))
        return float(min(max(val, 0.0), 1.0))

    def marginal_quantile(self, i: int, level: float) -> float:
        """Generalized inverse of the marginal cdf; the atom at zero is
        handled analytically, the slab part exactly (Gaussian), through a
        cdf table (Student, exponential power) or by monotone bisection
        (Laplace)."""
        self._check_index(i)
        if not 0.0 < level < 1.0:
            raise ValueError("level must lie strictly in (0, 1)")
        return float(self._quantile_vec(np.asarray([level]), idx=np.asarray([i]))[0])

    def _coords(self, idx):
        """x, cached log psi(x) and q for the coordinates idx (all if None)."""
        if idx is None:
            return self.x, self._log_psi, self.inclusion_prob
        return self.x[idx], self._log_psi[idx], self.inclusion_prob[idx]

    def _quantile_vec(self, levels: np.ndarray, idx=None) -> np.ndarray:
        x, lpsi, q = self._coords(idx)
        out = np.zeros(levels.shape)
        h0 = np.where(q > 0.0, self._slab_cdf(x, lpsi, np.zeros_like(x)), 0.5)
        atom_lo = q * h0
        atom_hi = atom_lo + (1.0 - q)
        below = levels <= atom_lo
        above = levels > atom_hi
        if np.any(below):
            out[below] = self._slab_quantile(x[below], lpsi[below], levels[below] / q[below])
        if np.any(above):
            out[above] = self._slab_quantile(
                x[above], lpsi[above], (levels[above] - (1.0 - q[above])) / q[above]
            )
        return out

    def coordinatewise_median(self, i: int) -> float:
        """Median of the marginal posterior of coordinate i; exactly zero
        whenever the inclusion probability is at most 1/2."""
        self._check_index(i)
        return float(self._coordinatewise_median_vec(np.asarray([i]))[0])

    def _coordinatewise_median_vec(self, idx=None) -> np.ndarray:
        x, lpsi, q = self._coords(idx)
        with np.errstate(divide="ignore"):
            inv2q = np.where(q > 0.0, 1.0 / (2.0 * np.maximum(q, 1e-300)), np.inf)
        upper = self._slab_quantile(x, lpsi, 1.0 - inv2q)
        lower = self._slab_quantile(x, lpsi, inv2q)
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
        strategy: str = "schoolbook", quantiles: bool = True) -> Posterior:
    """Compute the exact posterior for observations x."""
    return Posterior(x, dim_prior, slab, levels=levels, strategy=strategy,
                     quantiles=quantiles)


def eb_binomial_weight(x, slab: SlabPrior) -> float:
    """Marginal maximum-likelihood mixture weight for a binomial(n, alpha)
    dimension prior: argmax over alpha in [1/n, 1 - 1e-6] of
    sum_i log((1 - alpha) phi(x_i) + alpha psi(x_i))."""
    x = validate_observations(x)
    n = x.size
    lphi = log_phi(x)
    lpsi = log_psi(slab, x)

    def neg_loglik(alpha):
        return -float(
            np.logaddexp(np.log1p(-alpha) + lphi, np.log(alpha) + lpsi).sum()
        )

    lo, hi = 1.0 / n, 1.0 - 1e-6
    if lo >= hi:  # n = 1 corner
        return lo
    res = minimize_scalar(neg_loglik, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-8})
    best = float(res.x)
    # the likelihood can be monotone; snap to an endpoint when it wins
    for cand in (lo, hi):
        if neg_loglik(cand) < neg_loglik(best):
            best = cand
    return best
