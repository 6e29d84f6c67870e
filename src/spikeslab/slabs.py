"""Slab densities on the nonzero coordinates and their Gaussian convolutions.

A slab prior is a symmetric density g on the real line.  The posterior
engine only ever touches g through three scalar functions:

    psi(x)      = int phi(x - t) g(t) dt          (marginal density of a
                                                   slab coordinate)
    psi(x, u)   = int_{-inf}^{u} phi(x - t) g(t) dt
    zeta(x)     = int t phi(x - t) g(t) dt        (first-moment convolution)

plus the second moment int t^2 phi(x - t) g(t) dt / psi(x) for the
contraction check.  phi is the standard normal density.

SlabValues evaluates all of them once for an array of observations, and is
the one place that decides how a family is evaluated.  Laplace and Gaussian
slabs use closed forms on the log scale (log-Phi via erfc keeps the
e^{a x} Phi(-x - a) products finite for large |x|); the Laplace ones all
come from one pair of log-Phi arrays.  Student and exponential-power slabs,
and the Laplace second moment, come from one panel Gauss-Legendre table per
distinct observation (SlabCdfTable); one peak search, zooming a grid for
every distinct observation at once (_windows), places all their windows.
log_psi, posterior_shrinkage, zeta and second_moment_ratio read a
SlabValues.

The slab cdf H(u) = psi(x, u) / psi(x) is evaluated (SlabValues.cdf) and
inverted exactly, with no bisection (SlabValues.quantile), from the same
arrays: the Gaussian slab posterior is normal; the Laplace one is a two-piece
mixture of normals split at 0, with the log weights psi comes from, inverted
by one ndtri_exp call on the piece that holds the level; a panel table sums
its panels up to u, and is inverted inside the one panel that holds the
level by safeguarded Newton steps batched over every coordinate of a call
(table_quantiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr, ndtri, ndtri_exp

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# margin of the integration window beyond the observation and the integrand's
# peak; the normal factor makes the truncated tail < Phi(-13) ~ 6e-39 of the
# total mass
_QUAD_HALFWIDTH = 13.0
_PEAK_STEP = 1e-6  # grid spacing, relative to max(1, |x|), that ends the peak search


class QuadratureError(RuntimeError):
    """Panel quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


class SlabFamily(str, Enum):
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"
    STUDENT = "student"
    EXP_POWER = "exppower"


@dataclass(frozen=True)
class SlabPrior:
    """Symmetric slab density with a scale and an optional shape parameter.

    scale: Laplace rate a, Gaussian standard deviation, Student scale, or
        exponential-power scale.
    shape: Student degrees of freedom (> 2, so the second moment is finite)
        or exponential-power exponent in (0, 2].
    """

    family: SlabFamily
    scale: float = 1.0
    shape: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.family is SlabFamily.STUDENT:
            if self.shape is None or not self.shape > 2:
                raise ValueError("Student slab needs degrees of freedom > 2")
        elif self.family is SlabFamily.EXP_POWER:
            if self.shape is None or not (0 < self.shape <= 2):
                raise ValueError("exponential-power exponent must lie in (0, 2]")


def laplace_slab(rate: float = 1.0) -> SlabPrior:
    return SlabPrior(SlabFamily.LAPLACE, scale=rate)


def gaussian_slab(std: float = 1.0) -> SlabPrior:
    return SlabPrior(SlabFamily.GAUSSIAN, scale=std)


def student_slab(df: float, scale: float = 1.0) -> SlabPrior:
    return SlabPrior(SlabFamily.STUDENT, scale=scale, shape=df)


def exp_power_slab(alpha: float, scale: float = 1.0) -> SlabPrior:
    return SlabPrior(SlabFamily.EXP_POWER, scale=scale, shape=alpha)


def log_phi(z):
    z = np.asarray(z, dtype=float)
    return -0.5 * z * z - _LOG_SQRT_2PI


@lru_cache(maxsize=None)
def _exp_power_log_norm(alpha: float) -> float:
    # int exp(-|y|^alpha) dy = 2 Gamma(1 + 1/alpha); exact, verified against
    # quadrature in the test suite
    return math.log(2.0) + gammaln(1.0 + 1.0 / alpha)


def log_g(prior: SlabPrior, t):
    """Log slab density, finite for every finite t."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("log_g requires finite arguments")
    s = prior.scale
    if prior.family is SlabFamily.LAPLACE:
        out = math.log(s / 2.0) - s * np.abs(t)
    elif prior.family is SlabFamily.GAUSSIAN:
        out = log_phi(t / s) - math.log(s)
    elif prior.family is SlabFamily.STUDENT:
        nu = prior.shape
        z = t / s
        out = (
            gammaln((nu + 1.0) / 2.0)
            - gammaln(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
            - math.log(s)
            - 0.5 * (nu + 1.0) * np.log1p(z * z / nu)
        )
    else:
        alpha = prior.shape
        out = -np.abs(t / s) ** alpha - _exp_power_log_norm(alpha) - math.log(s)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# panel quadrature (Student, exponential-power, Laplace second moment)
# ---------------------------------------------------------------------------

_PANELS_PER_HALFWIDTH = 32  # panels across _QUAD_HALFWIDTH, at most
_GRADED = 2.0 ** -np.arange(1.0, 44.0)  # knot offsets 0.5 down to 1.1e-13
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_QUAD_TOL = 1e-10  # relative accuracy asked of a table (see _panel_quadrature)


def _windows(prior: SlabPrior, x: np.ndarray) -> list[tuple[float, float, tuple]]:
    """(lo, hi, points) of each entry of the 1-d array x: the integration
    window for t -> phi(x - t) g(t) and the knots the panel mesh must contain.

    g is symmetric and nonincreasing in |t|, so the maximum lies between 0
    and x: near x for a heavy slab, pulled toward 0 for a light one, where
    a window around x alone misses the mass.  It is found by zooming a
    65-point grid that contains both ends, one row per entry, all entries at
    once; an entry stops zooming when its grid spacing is within
    _PEAK_STEP * max(1, |x|).  The window reaches _QUAD_HALFWIDTH beyond the
    peak and beyond x.  The knots are the kinks at 0 and x, the peak, and
    the peak +/- _QUAD_HALFWIDTH.
    """
    x = np.asarray(x, dtype=float)
    a, b = np.minimum(x, 0.0), np.maximum(x, 0.0)
    tol = 64 * _PEAK_STEP * np.maximum(1.0, np.abs(x))
    peak = np.empty(x.shape)
    m = np.arange(x.size)  # the entries still zooming
    while m.size:
        grid = np.linspace(a[m], b[m], 65, axis=1)
        k = np.argmax(log_phi(x[m, None] - grid) + log_g(prior, grid), axis=1)
        rows = np.arange(m.size)
        peak[m] = grid[rows, k]
        done = b[m] - a[m] <= tol[m]
        a[m], b[m] = grid[rows, np.maximum(k - 1, 0)], grid[rows, np.minimum(k + 1, 64)]
        m = m[~done]
    lo = np.minimum(x, peak) - _QUAD_HALFWIDTH
    hi = np.maximum(x, peak) + _QUAD_HALFWIDTH
    return [(l, h, (p, p - _QUAD_HALFWIDTH, p + _QUAD_HALFWIDTH, 0.0, v))
            for l, h, p, v in zip(lo.tolist(), hi.tolist(), peak.tolist(), x.tolist())]


def _mesh(lo: float, hi: float, points) -> np.ndarray:
    """Knots on [lo, hi]: a uniform spacing of at most _QUAD_HALFWIDTH / 32,
    the given points, and knots at +/- 2^-k (k = 1..43), which resolve the
    kink of g at 0."""
    knots = np.concatenate([
        np.linspace(lo, hi, math.ceil(_PANELS_PER_HALFWIDTH * (hi - lo) / _QUAD_HALFWIDTH) + 1),
        np.asarray(points, dtype=float), -_GRADED, _GRADED])
    mesh = np.unique(knots)
    return mesh[(mesh >= lo) & (mesh <= hi)]


def _panel_rule(prior: SlabPrior, x, a, b):
    """Nodes t, log integrand log phi(x - t) + log g(t) and weights of the
    16-point Gauss-Legendre rule on each panel [a, b], one row per panel;
    x is one observation or one per panel."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    half = 0.5 * (b - a)
    t = 0.5 * (a + b)[:, None] + half[:, None] * _NODES
    return t, log_phi(np.reshape(x, (-1, 1)) - t) + log_g(prior, t), half[:, None] * _WEIGHTS


def _partial_mass(prior: SlabPrior, x, a, u, shift):
    """The rule for the integral of exp(-shift) phi(x - t) g(t) over each
    [a, u]; x and shift are scalars or one per interval."""
    _, log_f, w = _panel_rule(prior, x, a, u)
    return (np.exp(log_f - np.reshape(shift, (-1, 1))) * w).sum(axis=1)


def _panel_quadrature(prior: SlabPrior, x: float, mesh: np.ndarray):
    """(t, vals, shift, error): nodes, rule weights times the integrand
    scaled by exp(-shift), shift = the largest log integrand, and the
    relative change of the integral when every panel is halved.

    Raises QuadratureError when that change exceeds 10 * _QUAD_TOL plus
    the rounding floor of the log integrand (machine epsilon times its
    size at the peak).
    """
    a, b = mesh[:-1], mesh[1:]
    t, log_f, w = _panel_rule(prior, x, a, b)
    shift = float(log_f.max())
    vals = np.exp(log_f - shift) * w
    mid = 0.5 * (a + b)
    _, log_f2, w2 = _panel_rule(prior, x, np.concatenate([a, mid]), np.concatenate([mid, b]))
    error = abs(float((np.exp(log_f2 - shift) * w2).sum()) / float(vals.sum()) - 1.0)
    if error > 10.0 * _QUAD_TOL + np.finfo(float).eps * abs(shift):
        raise QuadratureError(
            f"panel quadrature at x = {x:g} on [{mesh[0]:g}, {mesh[-1]:g}] did not converge",
            error)
    return t, vals, shift, error


class SlabCdfTable:
    """Panel quadrature of t -> phi(x - t) g(t) for one observation x.

    window is x's (lo, hi, points) from _windows, which slab_tables finds
    for all its observations at once; without it the table finds its own.
    The mesh spans the window with panels no wider than
    _QUAD_HALFWIDTH / 32, plus the window's knots and knots graded
    geometrically toward the kink of g at t = 0; each panel gets the
    16-point Gauss-Legendre rule, and QuadratureError is raised when the
    rule has not converged (see _panel_quadrature).  Built once per
    observation, the table gives log psi(x), the slab-conditional mean
    zeta/psi and second moment, the slab conditional cdf
    H(u) = psi(x, u) / psi(x), its value `cdf_at_zero` at the knot 0, its
    exact inverse (table_quantiles), and `error`, the refinement estimate.
    The integrand is scaled by its largest value, so psi and the moments
    stay finite when psi underflows the linear domain.
    """

    def __init__(self, prior: SlabPrior, x: float, window: tuple | None = None):
        self.prior = prior
        self.x = float(x)
        if window is None:
            window = _windows(prior, np.array([self.x]))[0]
        self.mesh = _mesh(*window)
        t, vals, self._shift, self.error = _panel_quadrature(prior, self.x, self.mesh)
        self.cum = np.concatenate([[0.0], np.cumsum(vals.sum(axis=1))])
        self.total = float(self.cum[-1])
        self.log_psi = self._shift + math.log(self.total)
        self.mean = float((vals * t).sum()) / self.total
        self.second_moment = float((vals * t * t).sum()) / self.total
        # 0 is a knot whenever it lies in the window, so H(0) is a cumulative
        # sum: the last one at a knot <= 0, or 0 when the window is positive
        k = int(np.searchsorted(self.mesh, 0.0, side="right"))
        self.cdf_at_zero = float(self.cum[k - 1]) / self.total if k else 0.0

    def cdf(self, u: float) -> float:
        """H(u) = psi(x, u) / psi(x), clipped to [0, 1]."""
        u = float(u)
        if u <= self.mesh[0]:
            return 0.0
        if u >= self.mesh[-1]:
            return 1.0
        k = int(np.searchsorted(self.mesh, u)) - 1
        part = float(_partial_mass(self.prior, self.x, self.mesh[k], u, self._shift)[0])
        return min(max((self.cum[k] + part) / self.total, 0.0), 1.0)


def table_quantiles(tables, tau) -> np.ndarray:
    """Generalized inverse of H, inf {u : H(u) >= tau}, for each table of
    the sequence at its entry of tau in (0, 1), all tables at once.

    The level lies in the first panel whose cumulative sum reaches
    tau * total, found over the stacked sums of all the tables, so panels of
    zero mass are passed over.  Inside that panel, Newton steps solve
    "rule on [panel start, u] = tau * total - mass before the panel" with the
    integrand as the derivative; each step is one 16-point rule for every
    coordinate still moving, and a step that leaves the bracket of the root
    bisects it instead.  A coordinate stops when its step is within the
    float resolution of its panel, or its residual within the rounding of
    the log integrand and the cumulative sums.  All tables share one slab
    prior.
    """
    tau = np.asarray(tau, dtype=float)
    prior = tables[0].prior
    sizes = np.array([t.cum.size for t in tables])
    starts = np.cumsum(sizes) - sizes
    cum = np.concatenate([t.cum for t in tables])
    mesh = np.concatenate([t.mesh for t in tables])
    x = np.array([t.x for t in tables])
    shift = np.array([t._shift for t in tables])
    target = tau * np.array([t.total for t in tables])
    # knot k ends the panel: the first knot whose cumulative sum reaches the
    # target (cum starts at 0 < target and ends at total >= target)
    below = np.add.reduceat(cum < np.repeat(target, sizes), starts)
    k = starts + np.clip(below, 1, sizes - 1)
    start, hi = mesh[k - 1], mesh[k]
    lo = start.copy()
    need = target - cum[k - 1]
    u = start + (hi - start) * np.clip(need / (cum[k] - cum[k - 1]), 0.0, 1.0)
    eps = np.finfo(float).eps
    resolution = 4.0 * eps * np.maximum(np.abs(lo), np.abs(hi))
    # the integrand carries the rounding of its log, eps * |shift| relative
    slack = 4.0 * eps * (1.0 + np.abs(shift)) * target
    m = np.arange(tau.size)  # the coordinates still moving
    # bisection alone reaches the float resolution of a panel in 64 steps
    for _ in range(64):
        um = u[m]
        miss = _partial_mass(prior, x[m], start[m], um, shift[m]) - need[m]
        dens = np.exp(log_phi(x[m] - um) + log_g(prior, um) - shift[m])
        lo[m] = np.where(miss < 0.0, um, lo[m])
        hi[m] = np.where(miss < 0.0, hi[m], um)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = um - miss / dens
        step = np.where((step >= lo[m]) & (step <= hi[m]), step, 0.5 * (lo[m] + hi[m]))
        u[m] = step
        done = (np.abs(step - um) <= resolution[m]) | (np.abs(miss) <= slack[m])
        m = m[~done]
        if not m.size:
            break
    return u


def slab_tables(prior: SlabPrior, x: np.ndarray) -> list[SlabCdfTable]:
    """A SlabCdfTable for each entry of the 1-d array x, one per distinct
    value; one peak search finds the windows of all of them."""
    values, inverse = np.unique(x, return_inverse=True)
    tables = [SlabCdfTable(prior, v, w) for v, w in zip(values, _windows(prior, values))]
    return [tables[k] for k in inverse.ravel()]


def _gaussian_posterior(s: float, x):
    """Mean and standard deviation of the Gaussian slab posterior N(m, sd^2)."""
    tau2 = 1.0 + s * s
    return x * (s * s) / tau2, s / math.sqrt(tau2)


class SlabValues:
    """The slab functions of an observation array x of any shape, evaluated once.

    Holds log psi, the shrinkage zeta/psi and H(0) = psi(x, 0) / psi(x) of
    every entry and gives the second moment on first use.  quantile inverts
    the slab cdf H(u) = psi(x, u) / psi(x) and cdf evaluates it, both at
    entries named by their index into the flattened x.  This is the one
    place that decides how a slab family is evaluated: closed forms for the
    Laplace and Gaussian slabs, one SlabCdfTable per distinct observation
    for the Student and exponential-power slabs (and for the Laplace second
    moment).

    The Laplace slab posterior of x is N(x + a, 1) below 0 with log weight
    L- = a x + log Phi(-x - a) and N(x - a, 1) above 0 with log weight
    L+ = -a x + log Phi(x - a); psi, zeta and H(0) all come from those two
    log Phi arrays.  H and its inverse use L - a x and L + a x,
    L = logaddexp(L-, L+), formed without the large terms +/- a x, so no
    cancellation.  The Gaussian slab posterior is N(m, sd^2).
    """

    def __init__(self, prior: SlabPrior, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("slab functions require finite arguments")
        self.prior = prior
        self.x = x
        self._tables = None
        a = prior.scale
        if prior.family is SlabFamily.LAPLACE:
            neg, pos = log_ndtr(-x - a), log_ndtr(x - a)
            # psi(x) = (a/2) e^{a^2/2} [e^{-a x} Phi(x - a) + e^{a x} Phi(-x - a)]
            # zeta(x) = (a/2) e^{a^2/2} [(x-a) e^{-a x} Phi(x-a) + (x+a) e^{a x} Phi(-x-a)]
            u1, u2 = -a * x + pos, a * x + neg
            self.log_psi = math.log(a / 2.0) + 0.5 * a * a + np.logaddexp(u1, u2)
            m = np.maximum(u1, u2)
            w1, w2 = np.exp(u1 - m), np.exp(u2 - m)
            self.shrinkage = ((x - a) * w1 + (x + a) * w2) / (w1 + w2)
            self._l_minus = np.logaddexp(neg, pos - 2.0 * a * x)
            self._l_plus = np.logaddexp(neg + 2.0 * a * x, pos)
            self.cdf_at_zero = np.exp(neg - self._l_minus)
        elif prior.family is SlabFamily.GAUSSIAN:
            tau = math.hypot(1.0, a)
            self.log_psi = log_phi(x / tau) - math.log(tau)
            self.shrinkage, sd = _gaussian_posterior(a, x)
            self.cdf_at_zero = ndtr(-self.shrinkage / sd)
        else:
            self._tables = slab_tables(prior, x.ravel())
            self.log_psi = self._gather(self._tables, "log_psi")
            self.shrinkage = self._gather(self._tables, "mean")
            self.cdf_at_zero = self._gather(self._tables, "cdf_at_zero")

    def _gather(self, tables, attr: str) -> np.ndarray:
        return np.array([getattr(t, attr) for t in tables]).reshape(self.x.shape)

    @cached_property
    def second_moment(self) -> np.ndarray:
        """int t^2 phi(x - t) g(t) dt / psi(x), the slab-conditional second moment."""
        if self.prior.family is SlabFamily.GAUSSIAN:
            a = self.prior.scale
            m = self.shrinkage
            return m * m + (a * a) / (1.0 + a * a)
        tables = self._tables if self._tables is not None else slab_tables(self.prior, self.x.ravel())
        return self._gather(tables, "second_moment")

    def quantile(self, index: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Generalized inverse of H, inf {u : H(u) >= tau}, of the entries
        index of the flattened x at the levels tau; -inf where tau <= 0 and
        +inf where tau >= 1.

        The Gaussian slab posterior gives m + sd ndtri(tau).  The Laplace
        one gives u = x + a + ndtri_exp(log tau + L - a x) for tau <= H(0),
        else u = x - a - ndtri_exp(log(1 - tau) + L + a x).  A panel table
        is inverted by table_quantiles.
        """
        out = np.where(tau <= 0.0, -np.inf, np.inf)
        inside = (tau > 0.0) & (tau < 1.0)
        k, tau = index[inside], tau[inside]
        if not k.size:
            return out
        x, a = np.take(self.x, k), self.prior.scale
        if self._tables is not None:
            out[inside] = table_quantiles([self._tables[j] for j in k], tau)
        elif self.prior.family is SlabFamily.LAPLACE:
            below = tau <= np.take(self.cdf_at_zero, k)
            out[inside] = np.where(below, x + a + ndtri_exp(np.log(tau) + np.take(self._l_minus, k)),
                                   x - a - ndtri_exp(np.log1p(-tau) + np.take(self._l_plus, k)))
        else:
            m, sd = _gaussian_posterior(a, x)
            out[inside] = m + sd * ndtri(tau)
        return out

    def cdf(self, k: int, u: float) -> float:
        """H(u) = psi(x, u) / psi(x) of entry k of the flattened x, from the
        arrays quantile inverts.

        The Gaussian slab posterior gives Phi((u - m) / sd).  The Laplace one
        gives exp(log Phi(u - x - a) - (L - a x)) for u <= 0, else
        1 - exp(log Phi(x - a - u) - (L + a x)).  A panel table evaluates
        its own cdf.
        """
        if self._tables is not None:
            return self._tables[k].cdf(u)
        x, a = self.x.flat[k], self.prior.scale
        if self.prior.family is SlabFamily.LAPLACE:
            if u <= 0.0:
                return float(np.exp(log_ndtr(u - x - a) - self._l_minus.flat[k]))
            return float(-np.expm1(log_ndtr(x - a - u) - self._l_plus.flat[k]))
        m, sd = _gaussian_posterior(a, x)
        return float(ndtr((u - m) / sd))


# ---------------------------------------------------------------------------
# psi, zeta
# ---------------------------------------------------------------------------


def _value(a):
    """a, or a float when a is 0-d."""
    return a if np.ndim(a) else float(a)


def log_psi(prior: SlabPrior, x):
    """log psi(x) = log int phi(x - t) g(t) dt."""
    return _value(SlabValues(prior, x).log_psi)


def posterior_shrinkage(prior: SlabPrior, x):
    """zeta(x) / psi(x), the slab-conditional posterior mean of a coordinate,
    computed on the log scale so it stays finite far into the tails."""
    return _value(SlabValues(prior, x).shrinkage)


def zeta(prior: SlabPrior, x):
    """First-moment convolution int t phi(x - t) g(t) dt (linear domain)."""
    values = SlabValues(prior, x)
    return _value(values.shrinkage * np.exp(values.log_psi))


def second_moment_ratio(prior: SlabPrior, x):
    """int t^2 phi(x-t) g(t) dt / psi(x): slab-conditional second moment."""
    return _value(SlabValues(prior, x).second_moment)
