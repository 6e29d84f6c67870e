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
slabs share one closed form on the log scale, a normal law split at 0
(log-Phi via erfc keeps the e^{a x} Phi(-x - a) products finite for large
|x|), second moment included, from one pair of log-Phi arrays.  Student
and exponential-power slabs come from one stacked panel table with an
entry per observation (PanelTables), one 21-point Gauss-Kronrod rule a
panel (_panel_rule, the one kernel that every table quantity reads),
whose embedded 10-point Gauss rule gives the refinement estimate:
one peak search, zooming a grid for every observation at once (_windows),
places all their windows, trimmed to where the log integrand is within 750
of its peak, and gives each observation's scale, its log integrand at the
peak; one sort lays out all their meshes (_meshes); and every panel,
scaled by its observation's peak, is then independent, so the rule runs on
fixed slices of panels whatever observations they cut.  A mesh is graded
toward the origin only down to the length scale of g there
(_graded_knots): to 1e-13 where g has a kink, not at all for a unit-scale
Student slab; and toward a peak that those knots leave unresolved, at
multiples of its width (_peak_width).  Only the closed forms import
scipy.special, on first use.  Callers read the slab functions off one
SlabValues; posterior_shrinkage is its shrinkage.

The slab cdf H(u) = psi(x, u) / psi(x) is evaluated (SlabValues.cdf) and
inverted exactly, with no bisection (SlabValues.quantile), from the same
arrays: the split normal, with the log weights psi comes from, by one
ndtri_exp call on the piece that holds the level; the panel table
sums an observation's panels up to u, and is inverted inside the one panel
that holds the level by safeguarded Newton steps batched over every
coordinate of a call (table_quantiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

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
        elif self.shape is not None:
            raise ValueError(f"{self.family.value} slab takes no shape, got {self.shape}")


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
    return math.log(2.0) + math.lgamma(1.0 + 1.0 / alpha)


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
            math.lgamma((nu + 1.0) / 2.0)
            - math.lgamma(nu / 2.0)
            - 0.5 * math.log(nu * math.pi)
            - math.log(s)
            - 0.5 * (nu + 1.0) * np.log1p(z * z / nu)
        )
    else:
        alpha = prior.shape
        out = -np.abs(t / s) ** alpha - _exp_power_log_norm(alpha) - math.log(s)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# panel quadrature (Student, exponential-power)
# ---------------------------------------------------------------------------

_PANELS_PER_HALFWIDTH = 32  # panels across _QUAD_HALFWIDTH, at most
_GRADED = 2.0 ** -np.arange(1.0, 44.0)  # knot offsets 0.5 down to 1.1e-13
# knots at these multiples of the integrand's width at its peak (_peak_width)
_PEAK_KNOTS = np.array([-16.0, -8.0, -4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
# ... added only where the other knots at the peak are more than this many
# widths apart: on a Gaussian panel from its peak, |G10 - K21| / K21 is 1e-15
# at 2.26 widths (Student(3, 1e-3) near 0, between graded knots), 2.5e-14 at
# 2.5, 1.4e-10 at 4 and 1.3e-7 at 6; a Student mode at 0 away from the peak
# is left to the graded knots down to s (_graded_knots)
_PEAK_SPAN = 2.5
# a window ends where the log integrand is this far below its peak value:
# beyond, every node of a panel scaled at the peak underflows (e^-745 is the
# least double)
_TRIM = 750.0
_TRIM_STEPS = 2.0 ** -np.arange(48.0)  # distances tried, relative to the untrimmed one

# The 21-point Gauss-Kronrod rule and its embedded 10-point Gauss rule, as
# in QUADPACK's qk21 (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
# 1983): the 11 Kronrod nodes in [0, 1) and their weights, and the Gauss
# weights of the nodes 0.9739, 0.8651, 0.6794, 0.4334 and 0.1489.  _NODES
# ascend over (-1, 1), so the Gauss nodes are _NODES[1::2].
_KRONROD_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_KRONROD_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208802936000, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GAUSS_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_NODES = np.concatenate([-_KRONROD_X, _KRONROD_X[-2::-1]])
_KRONROD = np.concatenate([_KRONROD_W, _KRONROD_W[-2::-1]])
_GAUSS = np.concatenate([_GAUSS_W, _GAUSS_W[::-1]])
_QUAD_TOL = 1e-10  # relative accuracy asked of a table (see PanelTables)
# panels of one rule evaluation: a (panels, 21) array is 60 KB, and a fit at
# n = 20 peaks near 370 KB traced.  On a 2-core Xeon, slices of 240 and 731
# panels took 3% and 6% longer a round of three such fits
_RULE_ROWS = 365


def _log_integrand(prior: SlabPrior, x, t):
    """log phi(x - t) + log g(t), broadcast over x and t."""
    return log_phi(x - t) + log_g(prior, t)


def _windows(prior: SlabPrior, x: np.ndarray):
    """(lo, hi, peak, top) of each entry of the 1-d array x: the integration
    window for t -> phi(x - t) g(t), the integrand's maximum and the log
    integrand log phi(x - peak) + log g(peak) there.

    g is symmetric and nonincreasing in |t|, so the maximum lies between 0
    and x: near x for a heavy slab, pulled toward 0 for a light one, where
    a window around x alone misses the mass.  It is found by zooming a
    65-point grid that contains both ends, one row per entry, all entries at
    once; an entry stops zooming when its grid spacing is within
    _PEAK_STEP * max(1, |x|).

    The window reaches at most _QUAD_HALFWIDTH beyond the peak and beyond x,
    and is trimmed to where the log integrand lies within _TRIM of top.  It
    holds the peak, and 0 and x where the integrand there is within that
    range: a Student integrand can have a second mode near 0.  Past those
    anchors the integrand decreases, so an end out of range moves in to the
    first of the distances _TRIM_STEPS * (untrimmed end - anchor), tried
    from the longest down, whose successor is within range: at most twice
    the distance to where the log integrand crosses top - _TRIM.
    """
    x = np.asarray(x, dtype=float)
    a, b = np.minimum(x, 0.0), np.maximum(x, 0.0)
    tol = 64 * _PEAK_STEP * np.maximum(1.0, np.abs(x))
    peak, top = np.empty(x.shape), np.empty(x.shape)
    m = np.arange(x.size)  # the entries still zooming
    while m.size:
        grid = np.linspace(a[m], b[m], 65, axis=1)
        log_f = _log_integrand(prior, x[m, None], grid)
        k = np.argmax(log_f, axis=1)
        rows = np.arange(m.size)
        peak[m], top[m] = grid[rows, k], log_f[rows, k]
        done = b[m] - a[m] <= tol[m]
        a[m], b[m] = grid[rows, np.maximum(k - 1, 0)], grid[rows, np.minimum(k + 1, 64)]
        m = m[~done]
    lo, hi = np.minimum(x, peak) - _QUAD_HALFWIDTH, np.maximum(x, peak) + _QUAD_HALFWIDTH
    # the anchors peak, 0 and x, kept where inside [lo, hi] and within range,
    # and the untrimmed ends, moved in where out of range
    points = np.column_stack([peak, np.zeros(x.size), x, lo, hi])
    within = _log_integrand(prior, x[:, None], points) >= top[:, None] - _TRIM
    keep = within[:, :3] & (points[:, :3] >= lo[:, None]) & (points[:, :3] <= hi[:, None])
    # both sides of every entry at once, the left ones first
    anchor = np.concatenate([np.where(keep, points[:, :3], np.inf).min(axis=1),
                             np.where(keep, points[:, :3], -np.inf).max(axis=1)])
    end = np.concatenate([lo, hi])
    cut = np.flatnonzero(~within[:, 3:].T.ravel())
    if cut.size:
        j = cut % x.size
        t = anchor[cut, None] + (end - anchor)[cut, None] * _TRIM_STEPS
        inside = _log_integrand(prior, x[j, None], t) >= top[j, None] - _TRIM
        # the longest distance within range, and the trial end before it (the
        # untrimmed end itself should rounding put it back within range)
        k = np.where(inside.any(axis=1), np.argmax(inside, axis=1), _TRIM_STEPS.size)
        k = np.maximum(k - 1, 0)
        end[cut] = t[np.arange(cut.size), k]
    return end[:x.size], end[x.size:], peak, top


def _peak_width(prior: SlabPrior, t: np.ndarray) -> np.ndarray:
    """1 / sqrt(-(log f)'') of the log integrand log f = log phi(x - t) +
    log g(t), whatever x: the width of the integrand at its peak t; 0 at
    the kink of exp-power with 1 < alpha < 2, NaN where log f is not
    concave at t."""
    s, shape = prior.scale, prior.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        if prior.family is SlabFamily.STUDENT:
            v = s * s * shape
            curvature = 1.0 + (shape + 1.0) * (v - t * t) / (v + t * t) ** 2
        else:
            curvature = 1.0 + shape * (shape - 1.0) * np.abs(t) ** (shape - 2.0) / s ** shape
        return 1.0 / np.sqrt(np.where(curvature > 0.0, curvature, np.nan))


def _graded_knots(prior: SlabPrior) -> np.ndarray:
    """The knots +/- 2^-k toward the origin, down to the length scale of g
    near 0: all 43 levels (to 1.1e-13) where g has a kink at 0
    (exponential-power with alpha < 2), and down to s for the smooth slabs,
    Student and exponential-power with alpha = 2: a Student mode at 0 is
    s sqrt(nu / (nu + 1)) wide, within 2.5 widths of a knot for every nu > 2."""
    smooth = prior.family is SlabFamily.STUDENT or prior.shape == 2.0
    floor = prior.scale if smooth else 0.0
    graded = _GRADED[_GRADED >= floor]
    return np.concatenate([-graded, graded])


def _meshes(prior: SlabPrior, x: np.ndarray, lo, hi, peak):
    """(mesh, start): the knots of every entry of the 1-d array x, stacked;
    those of entry j are mesh[start[j]:start[j + 1]].

    The knots of an entry span its window [lo, hi] (_windows): a uniform
    spacing of at most _QUAD_HALFWIDTH / 32, the kinks at 0 and x, the
    peak, the peak +/- _QUAD_HALFWIDTH, the graded knots of the slab
    (_graded_knots) and, where the uniform and graded knots at the peak are
    more than _PEAK_SPAN times the integrand's width there (_peak_width)
    apart, the peak +/- _PEAK_KNOTS times that width.
    """
    n = x.size
    count = np.ceil(_PANELS_PER_HALFWIDTH * (hi - lo) / _QUAD_HALFWIDTH).astype(int) + 1
    ends = np.cumsum(count)
    owner = np.repeat(np.arange(n), count)
    # np.linspace(lo, hi, count) of each entry
    step = (hi - lo) / (count - 1)
    grid = (np.arange(ends[-1]) - (ends - count)[owner]) * step[owner] + lo[owner]
    grid[ends - 1] = hi
    graded = _graded_knots(prior)
    # the spacing of the uniform and graded knots at the peak
    levels = np.concatenate([[0.0], graded[graded > 0.0][::-1]])
    k = np.searchsorted(levels, np.abs(peak), side="right")
    gap = np.diff(levels, append=np.inf)[k - 1]
    width = _peak_width(prior, peak)
    width = np.where(_PEAK_SPAN * width < np.minimum(step, gap), width, 0.0)
    points = np.column_stack([peak, peak - _QUAD_HALFWIDTH, peak + _QUAD_HALFWIDTH, np.zeros(n), x,
                              np.broadcast_to(graded, (n, graded.size)),
                              peak[:, None] + width[:, None] * _PEAK_KNOTS])
    knots = np.concatenate([grid, points.ravel()])
    owner = np.concatenate([owner, np.repeat(np.arange(n), points.shape[1])])
    inside = (knots >= lo[owner]) & (knots <= hi[owner])
    knots, owner = knots[inside], owner[inside]
    order = np.lexsort((knots, owner))
    knots, owner = knots[order], owner[order]
    new = np.ones(knots.size, dtype=bool)
    new[1:] = (knots[1:] != knots[:-1]) | (owner[1:] != owner[:-1])
    return knots[new], np.searchsorted(owner[new], np.arange(n + 1))


def _panel_rule(prior: SlabPrior, x, shift, a, b):
    """(t, f, half): the nodes t of the 21-point Kronrod rule on each panel
    [a, b], one row per panel, the integrand f = exp(-shift) phi(x - t) g(t)
    there and the panel's half-width, by which the rule's weights scale; x
    and shift are scalars or one per panel."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    half = 0.5 * (b - a)
    t = 0.5 * (a + b)[:, None] + half[:, None] * _NODES
    f = _log_integrand(prior, np.reshape(x, (-1, 1)), t)
    f -= np.reshape(shift, (-1, 1))
    return t, np.exp(f, out=f), half


class PanelTables:
    """Panel quadrature of t -> phi(x - t) g(t) for every entry of a 1-d
    array x of observations, stacked: the knots and cumulative sums of
    entry j are mesh[start[j]:start[j + 1]] and cum[start[j]:start[j + 1]].

    The mesh of an entry (_meshes) spans its window; each panel gets the
    21-point Gauss-Kronrod rule (_panel_rule): the masses, both moments, the
    cdf and its inverse all read that one kernel.  The integrand of an
    entry is scaled by its value at the peak that places the window,
    exp(shift) (_windows), so psi and the moments stay finite when psi
    underflows the linear domain, and every panel is then independent of the
    others.  The rule runs on fixed slices of _RULE_ROWS panels (_slices),
    each taking its panels' observations and scales from the entry offsets;
    an entry may straddle two slices.  Every reduction is over one panel's
    nodes (a row) or one entry's own panels (np.add.reduceat, one cumsum per
    entry), so an entry reads the same, bit for bit, whatever else is
    stacked with it, repeats of its observation included.

    Per entry: log_psi, the slab-conditional mean zeta/psi, the slab cdf
    H(u) = psi(x, u) / psi(x) (cdf) and its value cdf_at_zero at the knot 0,
    its exact inverse (table_quantiles), the panel count (panels) and the
    refinement estimate (error): |G10 - K21| / K21 of psi, the embedded
    10-point Gauss rule against the Kronrod rule, summed over the panels.
    QuadratureError is raised when an error exceeds 10 * _QUAD_TOL plus the
    rounding floor of the log integrand (machine epsilon times its size at
    the peak).  The second moment is formed on first use (second_moment).
    """

    def __init__(self, prior: SlabPrior, x: np.ndarray):
        self.prior = prior
        self.x = x
        lo, hi, peak, self.shift = _windows(prior, x)
        self.mesh, self.start = _meshes(prior, x, lo, hi, peak)
        self.panels = np.diff(self.start) - 1
        self._first = self.start[:-1] - np.arange(x.size)  # of each entry's panels
        # Kronrod mass and first moment of each panel; Gauss mass for the error
        sums, moments, gauss = np.empty((3, self.mesh.size - x.size))
        for r, *args in self._slices():
            t, f, half = _panel_rule(prior, *args)
            gauss[r] = (f[:, 1::2] * _GAUSS).sum(axis=1) * half
            f *= _KRONROD
            sums[r], moments[r] = f.sum(axis=1) * half, (f * t).sum(axis=1) * half
        self.cum = np.zeros(self.mesh.size)
        for j, (k, m) in enumerate(zip(self._first, self.panels)):
            np.cumsum(sums[k:k + m], out=self.cum[self.start[j] + 1:self.start[j + 1]])
        self.total = self.cum[self.start[1:] - 1]
        self.log_psi = self.shift + np.log(self.total)
        self.mean = np.add.reduceat(moments, self._first) / self.total
        self.error = np.abs(np.add.reduceat(gauss, self._first) / self.total - 1.0)
        bad = self.error - (10.0 * _QUAD_TOL + np.finfo(float).eps * np.abs(self.shift))
        if np.any(bad > 0.0):
            j = int(np.argmax(bad))
            raise QuadratureError(
                f"panel quadrature at x = {x[j]:g} on [{self.mesh[self.start[j]]:g}, "
                f"{self.mesh[self.start[j + 1] - 1]:g}] did not converge", float(self.error[j]))
        # 0 is a knot whenever it lies in the window, so H(0) is a cumulative
        # sum: the last one at a knot <= 0, or 0 when the window is positive
        k = np.add.reduceat(self.mesh <= 0.0, self.start[:-1])
        self.cdf_at_zero = np.where(k > 0, self.cum[self.start[:-1] + k - 1], 0.0) / self.total

    def _slices(self):
        """(r, x, shift, a, b) of each slice r of _RULE_ROWS panels, in
        order: its panels' observations and scales, read through their
        entries, and their ends.  Panel p of entry j starts at knot p + j."""
        count = self.mesh.size - self.x.size
        for k in range(0, count, _RULE_ROWS):
            p = np.arange(k, min(k + _RULE_ROWS, count))
            j = np.searchsorted(self._first, p, side="right") - 1
            yield (slice(k, k + p.size), self.x[j], self.shift[j],
                   self.mesh[p + j], self.mesh[p + j + 1])

    def second_moment(self) -> np.ndarray:
        """int t^2 phi(x - t) g(t) dt / psi(x) of every entry, from the
        Kronrod rule on every panel once more, on the same slices."""
        sums = np.empty(self.mesh.size - self.x.size)
        for r, *args in self._slices():
            t, f, half = _panel_rule(self.prior, *args)
            sums[r] = (f * t * t * _KRONROD).sum(axis=1) * half
        return np.add.reduceat(sums, self._first) / self.total

    def cdf(self, j: int, u: float) -> float:
        """H(u) = psi(x, u) / psi(x) of entry j, clipped to [0, 1]."""
        u = float(u)
        mesh = self.mesh[self.start[j]:self.start[j + 1]]
        if u <= mesh[0]:
            return 0.0
        if u >= mesh[-1]:
            return 1.0
        k = int(np.searchsorted(mesh, u)) - 1
        _, f, half = _panel_rule(self.prior, self.x[j], self.shift[j], mesh[k], u)
        part = float((f * _KRONROD).sum(axis=1)[0] * half[0])
        cum = self.cum[self.start[j] + k]
        return min(max((cum + part) / self.total[j], 0.0), 1.0)


def table_quantiles(tables: PanelTables, j: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Generalized inverse of H, inf {u : H(u) >= tau}, of the entries j of
    the tables at the levels tau in (0, 1), all at once.

    The level lies in the first panel whose cumulative sum reaches
    tau * total, found for every coordinate by one search of the
    (entry, cumulative sum) keys, so panels of zero mass are passed over.
    Inside that panel, Newton steps solve "rule on [panel start, u] =
    tau * total - mass before the panel" with the integrand as the
    derivative; each step is one Kronrod rule for every coordinate still
    moving, and a step that leaves the bracket of the root bisects it
    instead.  A coordinate stops when its step is within the float
    resolution of its panel, or its residual within the rounding of the log
    integrand and the cumulative sums.
    """
    tau = np.asarray(tau, dtype=float)
    prior, cum, mesh = tables.prior, tables.cum, tables.mesh
    x, shift = tables.x[j], tables.shift[j]
    target = tau * tables.total[j]
    # knot k ends the panel: the first knot of entry j whose cumulative sum
    # reaches the target (cum starts at 0 < target and ends at total >= target);
    # numpy orders complex numbers lexicographically, so one searchsorted on
    # entry + i cum finds it for every coordinate, exactly
    key = np.repeat(np.arange(tables.x.size), tables.panels + 1) + 1j * cum
    k = np.searchsorted(key, j + 1j * target)
    k = np.clip(k, tables.start[j] + 1, tables.start[j + 1] - 1)
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
        _, f, half = _panel_rule(prior, x[m], shift[m], start[m], um)
        miss = (f * _KRONROD).sum(axis=1) * half - need[m]
        dens = np.exp(_log_integrand(prior, x[m], um) - shift[m])
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


_MILLS_TERMS = 100  # depth of the continued fraction: exact to rounding for y > 2.5


def _excess_second_moment(y, log_tail):
    """E[(Z - y)^2 | Z > y] for a standard normal Z, elementwise, given
    log_tail = log Phi(-y).

    It is 1 + y^2 - y lambda with lambda = phi(y) / Phi(-y), the inverse
    Mills ratio; for y > 2.5 those terms cancel (the value tends to 2 / y^2),
    and it is 2 / (y D + 2) with D = y + 3 / (y + 4 / (y + 5 / ...)), from
    Laplace's continued fraction lambda = y + 1 / (y + 2 / D).
    """
    tail = y > 2.5
    yt = np.where(tail, y, 3.0)
    d = yt
    for k in range(_MILLS_TERMS, 2, -1):
        d = yt + k / d
    return np.where(tail, 2.0 / (yt * d + 2.0), 1.0 + y * y - y * np.exp(log_phi(y) - log_tail))


def _split_normal(prior: SlabPrior, x: np.ndarray):
    """(m, a, sd, base): the closed-form slab posterior of x is N(m + a, sd^2)
    below 0 and N(m - a, sd^2) above it, with log weight factors a x and -a x,
    and base is the part of log psi that the pieces leave out.  Laplace (rate
    a): m = x, sd = 1, base = log(a / 2) + a^2 / 2.  Gaussian (std s): a = 0,
    sd = s / tau with tau = sqrt(1 + s^2), m = x sd^2 and base =
    log phi(x / tau) - log tau; sd, not s^2, so no s overflows."""
    s = prior.scale
    if prior.family is SlabFamily.LAPLACE:
        return x, s, 1.0, math.log(s / 2.0) + 0.5 * s * s
    tau = math.hypot(1.0, s)
    sd = s / tau
    return x * (sd * sd), 0.0, sd, log_phi(x / tau) - math.log(tau)


class SlabValues:
    """The slab functions of an observation array x of any shape, evaluated once.

    Holds log psi, the shrinkage zeta/psi and H(0) = psi(x, 0) / psi(x) of
    every entry and gives the second moment on first use.  quantile inverts
    the slab cdf H(u) = psi(x, u) / psi(x) and cdf evaluates it, both at
    entries named by their index into the flattened x.  This is the one
    place that decides how a slab family is evaluated: closed forms for the
    Laplace and Gaussian slabs, one PanelTables over the flattened x, one
    table entry per observation, for the Student and exponential-power
    slabs.  From the tables it keeps quadrature_error, the largest
    refinement estimate, and panels, the panel count of each entry (0.0 and
    zeros for the closed forms).

    A closed-form slab posterior is one normal law split at 0
    (_split_normal): N(m + a, sd^2) below 0 with log weight L- = a x +
    log Phi((-m - a) / sd) and N(m - a, sd^2) above 0 with log weight L+ =
    -a x + log Phi((m - a) / sd); the normal densities at 0 cancel, as the
    posterior density is continuous there.  psi, zeta, H(0) and the second
    moment all come from those two log Phi arrays, evaluated once and kept.
    H and its inverse use L - a x and L + a x, L = logaddexp(L-, L+), formed
    without the large terms +/- a x, so no cancellation.
    """

    def __init__(self, prior: SlabPrior, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("slab functions require finite arguments")
        self.prior = prior
        self.x = x
        self._tables = None
        self.quadrature_error = 0.0
        self.panels = np.zeros(x.shape, dtype=int)
        if prior.family in (SlabFamily.LAPLACE, SlabFamily.GAUSSIAN):
            from scipy.special import log_ndtr
            m, a, sd, base = _split_normal(prior, x)
            self._split = m, a, sd
            neg, pos = log_ndtr((-m - a) / sd), log_ndtr((m - a) / sd)
            self._log_ndtr = neg, pos
            u1, u2 = -a * x + pos, a * x + neg
            self.log_psi = base + np.logaddexp(u1, u2)
            top = np.maximum(u1, u2)
            w1, w2 = np.exp(u1 - top), np.exp(u2 - top)
            self.shrinkage = ((m - a) * w1 + (m + a) * w2) / (w1 + w2)
            self._l_minus = np.logaddexp(neg, pos - 2.0 * a * x)
            self._l_plus = np.logaddexp(neg + 2.0 * a * x, pos)
            self.cdf_at_zero = np.exp(neg - self._l_minus)
        else:
            self._tables = PanelTables(prior, x.ravel())
            self.log_psi = self._tables.log_psi.reshape(x.shape)
            self.shrinkage = self._tables.mean.reshape(x.shape)
            self.cdf_at_zero = self._tables.cdf_at_zero.reshape(x.shape)
            self.quadrature_error = float(self._tables.error.max())
            self.panels = self._tables.panels.reshape(x.shape)

    @cached_property
    def second_moment(self) -> np.ndarray:
        """int t^2 phi(x - t) g(t) dt / psi(x), the slab-conditional second moment.

        In closed form it is sd^2 [(1 - H(0)) E((a - m) / sd) + H(0)
        E((a + m) / sd)]: the weight of each piece times its second moment,
        that of a normal truncated at 0 (_excess_second_moment), whose log
        Phi((m - a) / sd) and log Phi((-m - a) / sd) are the two arrays psi
        came from (fl(a - m) = -fl(m - a)), so no log Phi is evaluated again.
        1 - H(0) rounds to eps absolute; where that is large against it,
        m < 0 and E((a - m) / sd) < E((a + m) / sd).
        """
        if self._tables is not None:
            return self._tables.second_moment().reshape(self.x.shape)
        (m, a, sd), (neg, pos), h0 = self._split, self._log_ndtr, self.cdf_at_zero
        return sd * sd * ((1.0 - h0) * _excess_second_moment((a - m) / sd, pos)
                          + h0 * _excess_second_moment((a + m) / sd, neg))

    def quantile(self, index: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Generalized inverse of H, inf {u : H(u) >= tau}, of the entries
        index of the flattened x at the levels tau; -inf where tau <= 0 and
        +inf where tau >= 1.

        In closed form u = m + a + sd ndtri_exp(log tau + L - a x) for
        tau <= H(0), else u = m - a - sd ndtri_exp(log(1 - tau) + L + a x).
        The panel tables are inverted by table_quantiles.
        """
        out = np.where(tau <= 0.0, -np.inf, np.inf)
        inside = (tau > 0.0) & (tau < 1.0)
        k, tau = index[inside], tau[inside]
        if not k.size:
            return out
        if self._tables is not None:
            out[inside] = table_quantiles(self._tables, k, tau)
            return out
        from scipy.special import ndtri_exp
        m, a, sd = self._split
        m, below = np.take(m, k), tau <= np.take(self.cdf_at_zero, k)
        lo = m + a + sd * ndtri_exp(np.log(tau) + np.take(self._l_minus, k))
        hi = m - a - sd * ndtri_exp(np.log1p(-tau) + np.take(self._l_plus, k))
        out[inside] = np.where(below, lo, hi)
        return out

    def cdf(self, k: int, u: float) -> float:
        """H(u) = psi(x, u) / psi(x) of entry k of the flattened x, from the
        arrays quantile inverts.

        In closed form it is exp(log Phi((u - m - a) / sd) - (L - a x)) for
        u <= 0, else 1 - exp(log Phi((m - a - u) / sd) - (L + a x)).  The
        panel tables sum the entry's panels up to u.
        """
        if self._tables is not None:
            return self._tables.cdf(int(k), u)
        from scipy.special import log_ndtr
        m, a, sd = self._split
        m = m.flat[k]
        if u <= 0.0:
            return float(np.exp(log_ndtr((u - m - a) / sd) - self._l_minus.flat[k]))
        return float(-np.expm1(log_ndtr((m - a - u) / sd) - self._l_plus.flat[k]))


def posterior_shrinkage(prior: SlabPrior, x):
    """zeta(x) / psi(x), the slab-conditional posterior mean of a coordinate,
    computed on the log scale so it stays finite far into the tails; a
    scalar for a scalar x."""
    return SlabValues(prior, x).shrinkage[()]
