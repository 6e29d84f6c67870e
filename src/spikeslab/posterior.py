"""Exact posterior functionals for the spike-and-slab normal-means model.

The model: X_i = theta_i + eps_i with standard normal noise; theta drawn by
picking a dimension p from a DimensionPrior, a uniformly random support of
size p, and i.i.d. slab values on the support.

Everything is computed from the generating polynomial
prod_i (phi(X_i) + psi(X_i) Z) with the common factor prod_i phi(X_i)
divided out, so the engine works with the bounded ratios r_i = psi/phi on
the log scale.  The reported log partition function is relative to that
common factor (it cancels in every posterior quantity).

A block of R observation vectors of one length is fitted as one: its slab
functions are evaluated once (SlabLayer) and each sweep of the polynomial
layer runs over all R rows at a time (SlabLayer.fit).  A fitted block is
one set of arrays with a leading row axis (Fits), and a row's Posterior is
built only when that row is asked for; fit is the one row of a block of
one.  Several sets of priors on one block share its inclusion sweep
(SlabLayer.fit_each).  Every marginal quantile, the median at level 1/2
included, comes from one level formula (_marginal_quantiles), and the
medians and credible bounds of a fit take one slab quantile pass.  The
empirical-Bayes weights of a block's rows come from one batched bisection
on the score of their log-likelihoods (SlabLayer.eb_binomial_weights);
eb_binomial_weight is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dimension import DimensionFamily, DimensionPrior
from .logpoly import _forward, _logsumexp, inclusion_log_numerators, log_expit
from .slabs import SlabPrior, SlabValues, log_phi

DEFAULT_LEVELS = (0.025, 0.975)


def validate_observations(x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size == 0:
        raise ValueError("observations must form a nonempty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("observations must be finite")
    return x


# -- marginal quantiles over the flattened coordinates of a SlabValues


def _marginal_quantiles(values: SlabValues, q, levels) -> np.ndarray:
    """Marginal posterior quantiles of coordinates at inclusion probabilities
    q, which cycle over the flattened values.x: one row per level.

    Each marginal is an atom of size 1 - q at zero plus q times the slab
    posterior, whose cdf H increases strictly, so a quantile is zero or a
    slab quantile at an adjusted level.  A level below the atom,
    level < q H(0), takes level / q; one above it, level > q H(0) + 1 - q,
    takes (level - (1 - q)) / q; every other level is zero.  The median is
    the level 1/2, so it is zero wherever q <= 1/2.  Every (coordinate,
    level) off the atom goes into one SlabValues.quantile call.
    """
    k = np.arange(q.size) % values.x.size
    out = np.zeros((len(levels), q.size))
    where, tau = [], []  # flat positions in out and their slab levels
    atom_lo = q * np.where(q > 0.0, np.take(values.cdf_at_zero, k), 0.5)
    atom_hi = atom_lo + (1.0 - q)
    for row, level in enumerate(levels):
        below = np.flatnonzero(level < atom_lo)
        above = np.flatnonzero(level > atom_hi)
        where += [row * q.size + below, row * q.size + above]
        tau += [level / q[below], (level - (1.0 - q[above])) / q[above]]
    where = np.concatenate(where)
    out.flat[where] = values.quantile(k[where % q.size], np.concatenate(tau))
    return out


@lru_cache(maxsize=64)
def _coordinate_values(slab: SlabPrior, x: float) -> SlabValues:
    """The slab values of one observation, shared by the repeated cdf and
    quantile calls on a coordinate; a Posterior keeps none itself."""
    return SlabValues(slab, np.array([x]))


def _coord_row(k: int, doc: str) -> property:
    """Row k of the coords of a fit, coords[..., k, :], as a field; None past
    the rows of the fit.  Setting it gives that fit its own copy of coords
    with the row replaced, so a copied fit can change a field alone."""

    def get(self):
        return self.coords[..., k, :] if k < self.coords.shape[-2] else None

    def set(self, value):
        coords = self.coords.copy()
        coords[..., k, :] = value
        self.coords = coords

    return property(get, set, doc=doc)


@dataclass(eq=False, repr=False, slots=True)
class _Fields:
    """The fields of a Posterior or a Fits.  The per-coordinate ones are the
    rows of one (..., fields, n) array, coords: x, inclusion_prob and mean,
    then median, credible_lo and credible_hi, None without quantiles."""

    dim_prior: DimensionPrior | list
    slab: SlabPrior
    levels: tuple
    log_partition: float | np.ndarray
    dim_log_pmf: np.ndarray
    coords: np.ndarray

    x = _coord_row(0, "The observations.")
    inclusion_prob = _coord_row(1, "Posterior inclusion probabilities q_i.")
    mean = _coord_row(2, "Marginal posterior means.")
    median = _coord_row(3, "Marginal posterior medians.")
    credible_lo = _coord_row(4, "Lower credible bounds, at levels[0].")
    credible_hi = _coord_row(5, "Upper credible bounds, at levels[1].")

    @property
    def expected_dimension(self):
        """Posterior expected number of nonzero coordinates, from the pmf."""
        p = np.arange(self.dim_log_pmf.shape[-1])
        return np.sum(p * np.exp(self.dim_log_pmf), axis=-1)


@dataclass(eq=False, repr=False, slots=True)
class Posterior(_Fields):
    """Fitted posterior of one vector of observations, built by fit or as a
    row of a Fits: summary fields, the expected dimension, and marginal cdf /
    quantile access.  A kept fit is two arrays and one slotted object."""

    def marginal_cdf(self, i: int, u: float) -> float:
        """Posterior P(theta_i <= u | X): atom of size 1 - q_i at zero plus
        the slab part q_i * psi(x_i, u) / psi(x_i).  The coordinate's slab
        values (for the Student and exponential-power slabs, its table) are
        built once and cached for the calls that follow."""
        self._check_index(i)
        if np.isnan(u):
            raise ValueError("u must not be NaN")
        if np.isinf(u):
            return 0.0 if u < 0 else 1.0
        q = self.inclusion_prob[i]
        val = (1.0 - q) * (u >= 0.0)
        if q > 0.0:
            val += q * self._values(i).cdf(0, u)
        return float(min(max(val, 0.0), 1.0))

    def marginal_quantile(self, i: int, level: float) -> float:
        """Generalized inverse of the marginal cdf.  The atom at zero is
        handled analytically and the slab part is inverted exactly
        (SlabValues.quantile)."""
        self._check_index(i)
        if not 0.0 < level < 1.0:
            raise ValueError("level must lie strictly in (0, 1)")
        return float(_marginal_quantiles(self._values(i), self.inclusion_prob[[i]],
                                         (level,))[0, 0])

    def coordinatewise_median(self, i: int) -> float:
        """Median of the marginal posterior of coordinate i, its quantile at
        1/2; exactly zero whenever the inclusion probability is at most 1/2."""
        return self.marginal_quantile(i, 0.5)

    def _values(self, i: int) -> SlabValues:
        return _coordinate_values(self.slab, float(self.x[i]))

    def _check_index(self, i: int):
        if not 0 <= i < self.x.size:
            raise IndexError(f"coordinate {i} out of range 0..{self.x.size - 1}")


@dataclass(eq=False, repr=False, slots=True)
class Fits(_Fields):
    """The fitted posteriors of an (R, n) block under one set of priors,
    each field of a Posterior one array with a leading row axis: one prior
    per row, log_partition (R,), dim_log_pmf (R, n + 1), coords (R, fields, n).
    fits[r] and iteration build row r's Posterior from copies of its rows,
    so a kept row does not keep the block alive."""

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, r: int) -> Posterior:
        return Posterior(self.dim_prior[r], self.slab, self.levels, float(self.log_partition[r]),
                         self.dim_log_pmf[r].copy(), self.coords[r].copy())

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


class SlabLayer:
    """The slab functions of an (R, n) block of observations, evaluated once.

    Holds the block's SlabValues (log psi, the shrinkage zeta/psi, the slab
    cdf and its inverse, and the second moment on first use) and
    log r = log psi - log phi of every coordinate.  Every fit of the block
    and its empirical-Bayes weights read these; the fitted posteriors keep
    none of them, so stored fits stay small.
    """

    def __init__(self, slab: SlabPrior, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("observations must form an (R, n) block")
        validate_observations(X.ravel())
        self.slab = slab
        self.x = X
        self.values = SlabValues(slab, X)
        self.log_r = self.values.log_psi - log_phi(X)

    def eb_binomial_weights(self) -> np.ndarray:
        """The empirical-Bayes weight of every row (Johnstone and Silverman,
        2004): the maximiser over alpha in [min(1/n, 1 - 1e-6), 1 - 1e-6] of
        the concave log-likelihood sum_i log(1 - alpha + alpha r_i).  That is
        the root of its decreasing score sum_i 1 / (c_i + alpha), with
        c_i = 1 / (r_i - 1), or the endpoint where the score keeps its sign.
        Every row is bisected at once for a fixed 64 steps, with no tolerance
        and no early exit, so a row's weight does not depend on the others."""
        hi = 1.0 - 1e-6
        lo = min(1.0 / self.x.shape[1], hi)
        with np.errstate(divide="ignore", over="ignore"):
            # 0 where r_i overflows, -1 where r_i = 0, inf (a zero term) where r_i = 1
            c = 1.0 / np.expm1(self.log_r)

        def positive_score(alpha):
            return np.sum(1.0 / (c + alpha[:, None]), axis=1) > 0.0

        a, b = np.full(len(c), lo), np.full(len(c), hi)
        for _ in range(64):
            mid = 0.5 * (a + b)
            up = positive_score(mid)
            a, b = np.where(up, mid, a), np.where(up, b, mid)
        # b stays at hi where the score is positive throughout; where it is
        # not positive at lo, it is positive nowhere above lo either
        return np.where(positive_score(np.full(len(c), lo)), b, lo)

    def fit(self, priors, levels=DEFAULT_LEVELS, quantiles: bool = True) -> Fits:
        """The exact posteriors of the rows, one Fits: priors is one
        DimensionPrior for all rows or one per row; fit_each of one set."""
        return self.fit_each([priors], levels=levels, quantiles=quantiles)[0]

    def fit_each(self, prior_sets, levels=DEFAULT_LEVELS,
                 quantiles: bool = True) -> list[Fits]:
        """The exact posteriors of the rows under each of a list of prior
        sets, one Fits per set; a set is one DimensionPrior for all rows or a
        sequence of one per row.  Every prior reads the one normalised product F' of the factors (logpoly): its dimension pmf is
        lambda + F' - log Z', and sum_i log1p(r_i) enters only its log
        partition function.  A set of binomial priors alone takes q in closed
        form; every other set, binomial rows included, shares one pass over
        all the rows, whose centred numerators give log q_i = log s_i +
        numerator.  levels are the levels lo < hi in (0, 1) of the credible
        bounds; one quantile pass inverts them and the median, level 1/2."""
        levels = tuple(levels)
        if not (len(levels) == 2 and 0.0 < levels[0] < levels[1] < 1.0):
            raise ValueError(f"credible levels must be two levels 0 < lo < hi < 1, got {levels}")
        if not prior_sets:
            return []
        sets, lam = zip(*(self._row_priors(priors) for priors in prior_sets))
        lam = np.array(lam)  # (sets, R, n + 1)
        closed = np.array([all(p.family is DimensionFamily.BINOMIAL for p in priors)
                           for priors in sets])
        log_r = self.log_r
        log_q = np.empty(lam.shape[:2] + log_r.shape[1:])
        if closed.all():
            F = _forward(log_r)
        else:
            F, _, num = inclusion_log_numerators(log_r, lam[~closed].transpose(1, 0, 2))
            log_q[~closed] = np.minimum(log_expit(log_r) + np.moveaxis(num, 1, 0), 0.0)
        for k in np.flatnonzero(closed):
            # a binomial dimension prior makes the coordinates independent:
            # posterior odds of inclusion are (alpha psi) / ((1 - alpha) phi)
            alpha = np.array([p.params[0] for p in sets[k]])[:, None]
            log_q[k] = log_expit(np.log(alpha) - np.log1p(-alpha) + log_r)
        log_Z = _logsumexp(lam + F)  # log Z', of the normalised product
        dim_log_pmf = lam + F - log_Z[:, :, None]
        log_partition = log_Z + np.sum(np.logaddexp(0.0, log_r), axis=1)
        q = np.exp(log_q)
        mean = q * self.values.shrinkage

        fields = [np.broadcast_to(self.x, q.shape), q, mean]
        if quantiles:
            lo, hi, median = _marginal_quantiles(self.values, q.ravel(),
                                                 levels + (0.5,)).reshape((3,) + q.shape)
            fields += [median, lo, hi]
        coords = np.stack(fields, axis=2)  # (sets, R, fields, n)
        return [Fits(priors, self.slab, levels, log_partition[k], dim_log_pmf[k], coords[k])
                for k, priors in enumerate(sets)]

    def medians(self, q) -> np.ndarray:
        """Marginal posterior medians of the block's coordinates, their
        quantiles at 1/2, at inclusion probabilities q of shape (..., R, n):
        one quantile pass for any number of fits of the block.  Raises
        ValueError when the last two axes of q are not the block's."""
        q = np.asarray(q, dtype=float)
        if q.shape[-2:] != self.x.shape:
            raise ValueError(f"q of shape {q.shape} does not end in the block's {self.x.shape}")
        return _marginal_quantiles(self.values, q.ravel(), (0.5,)).reshape(q.shape)

    def _row_priors(self, priors) -> tuple[list[DimensionPrior], np.ndarray]:
        """One DimensionPrior per row, checked against the block, and their
        log model weights, one row each."""
        R, n = self.x.shape
        shared = isinstance(priors, DimensionPrior)
        priors = [priors] * R if shared else list(priors)
        if len(priors) != R:
            raise ValueError(f"need one dimension prior per row: {len(priors)} for {R} rows")
        for p in priors:
            if p.n != n:
                raise ValueError(f"dimension prior is over 0..{p.n} but n = {n}")
        if shared:
            return priors, np.tile(priors[0].log_model_weights(), (R, 1))
        return priors, np.array([p.log_model_weights() for p in priors])


def fit(x, dim_prior: DimensionPrior, slab: SlabPrior, levels=DEFAULT_LEVELS,
        quantiles: bool = True) -> Posterior:
    """The exact posterior of observations x, the one row of
    SlabLayer(slab, x[None]).fit(dim_prior)."""
    return SlabLayer(slab, validate_observations(x)[None]).fit(
        dim_prior, levels=levels, quantiles=quantiles)[0]


def eb_binomial_weight(x, slab: SlabPrior) -> float:
    """Empirical-Bayes mixture weight for a binomial(n, alpha) dimension
    prior: the root in [min(1/n, 1 - 1e-6), 1 - 1e-6] of the score of
    sum_i log((1 - alpha) phi(x_i) + alpha psi(x_i)), or the endpoint where
    the score keeps its sign; n = 1 gives 1 - 1e-6.  The one-row case of
    SlabLayer.eb_binomial_weights."""
    return float(SlabLayer(slab, validate_observations(x)[None]).eb_binomial_weights()[0])
