"""Slab densities on the nonzero coordinates and their Gaussian convolutions.

A slab prior is a symmetric density g on the real line.  The posterior
engine only ever touches g through three scalar functions:

    psi(x)      = int phi(x - t) g(t) dt          (marginal density of a
                                                   slab coordinate)
    psi(x, u)   = int_{-inf}^{u} phi(x - t) g(t) dt
    zeta(x)     = int t phi(x - t) g(t) dt        (first-moment convolution)

phi is the standard normal density.  Laplace and Gaussian slabs use closed
forms evaluated on the log scale (log-Phi via erfc keeps the e^{a x} *
Phi(-x - a) products finite for large |x|); Student and exponential-power
slabs fall back to adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import gammaln, log_ndtr

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# margin of the quadrature window beyond the observation and the integrand's
# peak; the normal factor makes the truncated tail < Phi(-13) ~ 6e-39 of the
# total mass
_QUAD_HALFWIDTH = 13.0
_PEAK_STEP = 1e-6  # grid spacing, relative to max(1, |x|), that ends the peak search


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

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
    quadrature_tol: float = 1e-10

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.family is SlabFamily.STUDENT:
            if self.shape is None or not self.shape > 2:
                raise ValueError("Student slab needs degrees of freedom > 2")
        elif self.family is SlabFamily.EXP_POWER:
            if self.shape is None or not (0 < self.shape <= 2):
                raise ValueError("exponential-power exponent must lie in (0, 2]")
        if not (0 < self.quadrature_tol < 1e-2):
            raise ValueError("quadrature_tol out of range")


def laplace_slab(rate: float = 1.0, **kw) -> SlabPrior:
    return SlabPrior(SlabFamily.LAPLACE, scale=rate, **kw)


def gaussian_slab(std: float = 1.0, **kw) -> SlabPrior:
    return SlabPrior(SlabFamily.GAUSSIAN, scale=std, **kw)


def student_slab(df: float, scale: float = 1.0, **kw) -> SlabPrior:
    return SlabPrior(SlabFamily.STUDENT, scale=scale, shape=df, **kw)


def exp_power_slab(alpha: float, scale: float = 1.0, **kw) -> SlabPrior:
    return SlabPrior(SlabFamily.EXP_POWER, scale=scale, shape=alpha, **kw)


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


def _log_diff_exp(log_a, log_b):
    """log(e^a - e^b) for a >= b elementwise, -inf when equal."""
    log_a = np.asarray(log_a, dtype=float)
    log_b = np.asarray(log_b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = -np.expm1(np.minimum(log_b - log_a, 0.0))
        out = np.where(d > 0.0, log_a + np.log(np.where(d > 0.0, d, 1.0)), -np.inf)
    return out


# ---------------------------------------------------------------------------
# quadrature backend (Student, exponential-power, and oracle checks)
# ---------------------------------------------------------------------------


def _window(prior: SlabPrior, x: float) -> tuple[float, float, tuple]:
    """(lo, hi, points): integration window for t -> phi(x - t) g(t) and
    the breakpoints for adaptive quadrature inside it.

    g is symmetric and nonincreasing in |t|, so the maximum lies between 0
    and x: near x for a heavy slab, pulled toward 0 for a light one, where
    a window around x alone misses the mass.  It is found by zooming a grid
    that contains both ends.  The window reaches _QUAD_HALFWIDTH beyond the
    peak and beyond x.  The breakpoints are the kinks at 0 and x, the peak,
    and the peak +/- _QUAD_HALFWIDTH, which keep a narrow peak inside a
    short piece when the window is long.
    """
    a, b = min(x, 0.0), max(x, 0.0)
    while True:
        grid = np.linspace(a, b, 65)
        k = int(np.argmax(log_phi(x - grid) + log_g(prior, grid)))
        if b - a <= 64 * _PEAK_STEP * max(1.0, abs(x)):
            break
        a, b = grid[max(k - 1, 0)], grid[min(k + 1, 64)]
    peak = float(grid[k])
    lo, hi = min(x, peak) - _QUAD_HALFWIDTH, max(x, peak) + _QUAD_HALFWIDTH
    points = (peak, peak - _QUAD_HALFWIDTH, peak + _QUAD_HALFWIDTH, 0.0, x)
    return lo, hi, points


def _quad_log(log_f, lo: float, hi: float, tol: float, points=()) -> float:
    """log of int_lo^hi exp(log_f(t)) dt, with the max factored out.

    points are breakpoints for the adaptive rule; they should include the
    integrand's peak, which also enters the max.
    """
    if hi <= lo:
        return -np.inf
    pts = [p for p in points if lo < p < hi]
    shift = float(np.max(log_f(np.concatenate([np.linspace(lo, hi, 257), pts]))))
    if not np.isfinite(shift):
        return -np.inf
    val, err = integrate.quad(
        lambda t: math.exp(float(log_f(t)) - shift),
        lo,
        hi,
        epsabs=0.0,
        epsrel=tol,
        limit=200,
        points=pts or None,
    )
    if val <= 0.0:
        return -np.inf
    if err > 10.0 * tol * val:
        raise QuadratureError("convolution quadrature did not converge", err / val)
    return shift + math.log(val)


def _quad_moment(prior: SlabPrior, x: float, power: int, log_scale: float = 0.0) -> float:
    """int t^power phi(x-t) g(t) dt / exp(log_scale) by quadrature.

    The division happens inside the shifted domain, so a ratio such as
    zeta / psi stays finite when both factors underflow.
    """
    lo, hi, points = _window(prior, x)

    def log_h(t):
        return log_phi(x - np.asarray(t, dtype=float)) + log_g(prior, t)

    pts = [p for p in points if lo < p < hi]
    shift = float(np.max(log_h(np.concatenate([np.linspace(lo, hi, 257), pts]))))
    val, err = integrate.quad(
        lambda t: t**power * math.exp(float(log_h(t)) - shift),
        lo,
        hi,
        epsabs=1e-14,
        epsrel=prior.quadrature_tol,
        limit=200,
        points=pts or None,
    )
    return val * math.exp(shift - log_scale)


def _scalar_map(fn, x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(fn(float(x)))
    return np.array([fn(float(v)) for v in x.ravel()]).reshape(x.shape)


# ---------------------------------------------------------------------------
# psi, partial psi, zeta
# ---------------------------------------------------------------------------


def log_psi(prior: SlabPrior, x):
    """log psi(x) = log int phi(x - t) g(t) dt."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("log_psi requires finite arguments")
    a = prior.scale
    if prior.family is SlabFamily.LAPLACE:
        # psi(x) = (a/2) e^{a^2/2} [e^{-a x} Phi(x - a) + e^{a x} Phi(-x - a)]
        c = math.log(a / 2.0) + 0.5 * a * a
        out = c + np.logaddexp(-a * x + log_ndtr(x - a), a * x + log_ndtr(-x - a))
    elif prior.family is SlabFamily.GAUSSIAN:
        tau = math.hypot(1.0, a)
        out = log_phi(x / tau) - math.log(tau)
    else:
        tol = prior.quadrature_tol

        def one(xx):
            lo, hi, points = _window(prior, xx)
            return _quad_log(
                lambda t: log_phi(xx - np.asarray(t, dtype=float)) + log_g(prior, t),
                lo,
                hi,
                tol,
                points=points,
            )

        return _scalar_map(one, x)
    return out if out.ndim else float(out)


def log_psi_partial(prior: SlabPrior, x, u):
    """log psi(x, u) = log int_{-inf}^{u} phi(x - t) g(t) dt."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
        raise ValueError("log_psi_partial requires finite arguments")
    x, u = np.broadcast_arrays(x, u)
    a = prior.scale
    if prior.family is SlabFamily.LAPLACE:
        c = math.log(a / 2.0) + 0.5 * a * a
        # mass of the negative half-line up to min(u, 0)
        neg = c + a * x + log_ndtr(np.minimum(u, 0.0) - x - a)
        # mass of (0, u] for u > 0
        pos = c - a * x + _log_diff_exp(log_ndtr(np.maximum(u, 0.0) - x + a), log_ndtr(a - x))
        out = np.where(u > 0.0, np.logaddexp(neg, pos), neg)
    elif prior.family is SlabFamily.GAUSSIAN:
        tau2 = 1.0 + a * a
        m = x * (a * a) / tau2
        sd = a / math.sqrt(tau2)
        out = log_psi(prior, x) + log_ndtr((u - m) / sd)
    else:
        tol = prior.quadrature_tol

        def one(pair):
            xx, uu = pair
            lo, hi, points = _window(prior, xx)
            return _quad_log(
                lambda t: log_phi(xx - np.asarray(t, dtype=float)) + log_g(prior, t),
                min(lo, uu - _QUAD_HALFWIDTH),
                min(uu, hi),
                tol,
                points=points,
            )

        flat = np.stack([x.ravel(), u.ravel()], axis=1)
        out = np.array([one(p) for p in flat]).reshape(x.shape)
    return out if np.ndim(out) else float(out)


class SlabCdfTable:
    """Cached cumulative integral of t -> phi(x - t) g(t) for one observation.

    Built once per coordinate from panel Gauss-Legendre rules on a mesh that
    is geometrically refined toward the density kink at t = 0, so the slab
    conditional cdf H(u) and its inverse can be evaluated thousands of times
    (quantile bisection) without re-running adaptive quadrature.  Used for
    the families without closed-form partial convolutions.
    """

    _NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)

    def __init__(self, prior: SlabPrior, x: float):
        self.prior = prior
        self.x = float(x)
        lo, hi, points = _window(prior, self.x)
        # 64 panels across the window at x = 0, at most that spacing elsewhere
        knots = [np.linspace(lo, hi, math.ceil(32.0 * (hi - lo) / _QUAD_HALFWIDTH) + 1),
                 np.asarray(points)]
        if lo < 0.0 < hi:
            graded = 10.0 ** -np.arange(1.0, 14.0)
            knots.append(np.concatenate([-graded, graded]))
        mesh = np.unique(np.concatenate(knots))
        mesh = mesh[(mesh >= lo) & (mesh <= hi)]
        a, b = mesh[:-1], mesh[1:]
        half = 0.5 * (b - a)
        t = 0.5 * (a + b)[:, None] + half[:, None] * self._NODES[None, :]
        log_vals = log_phi(self.x - t) + log_g(self.prior, t)
        # H is a ratio, so the integrand is scaled by its max: no underflow
        self._shift = float(log_vals.max())
        vals = np.exp(log_vals - self._shift)
        self.mesh = mesh
        self.cum = np.concatenate([[0.0], np.cumsum((vals * self._WEIGHTS).sum(axis=1) * half)])
        self.total = float(self.cum[-1])

    def cdf(self, u: float) -> float:
        """H(u) = psi(x, u) / psi(x), clipped to [0, 1]."""
        u = float(u)
        if u <= self.mesh[0]:
            return 0.0
        if u >= self.mesh[-1]:
            return 1.0
        k = int(np.searchsorted(self.mesh, u)) - 1
        a = self.mesh[k]
        half = 0.5 * (u - a)
        t = 0.5 * (u + a) + half * self._NODES
        part = float((np.exp(log_phi(self.x - t) + log_g(self.prior, t) - self._shift)
                      * self._WEIGHTS).sum()) * half
        return min(max((self.cum[k] + part) / self.total, 0.0), 1.0)

    def quantile(self, tau: float, iters: int = 60) -> float:
        """Generalized inverse of H by monotone bisection."""
        lo, hi = float(self.mesh[0]), float(self.mesh[-1])
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) >= tau:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


def _quad_moment_ratio(prior: SlabPrior, x: np.ndarray, power: int):
    """int t^power phi(x-t) g(t) dt / psi(x) by quadrature, elementwise."""
    lpsi = np.broadcast_to(log_psi(prior, x), x.shape)
    out = [_quad_moment(prior, float(xx), power, float(lp))
           for xx, lp in zip(x.ravel(), lpsi.ravel())]
    return np.array(out).reshape(x.shape)


def posterior_shrinkage(prior: SlabPrior, x):
    """zeta(x) / psi(x), the slab-conditional posterior mean of a coordinate.

    Computed on the log scale so it stays finite far into the tails.
    """
    x = np.asarray(x, dtype=float)
    a = prior.scale
    if prior.family is SlabFamily.LAPLACE:
        # zeta(x) = (a/2) e^{a^2/2} [(x-a) e^{-a x} Phi(x-a) + (x+a) e^{a x} Phi(-x-a)]
        u1 = -a * x + log_ndtr(x - a)
        u2 = a * x + log_ndtr(-x - a)
        m = np.maximum(u1, u2)
        w1 = np.exp(u1 - m)
        w2 = np.exp(u2 - m)
        out = ((x - a) * w1 + (x + a) * w2) / (w1 + w2)
    elif prior.family is SlabFamily.GAUSSIAN:
        out = x * (a * a) / (1.0 + a * a)
    else:
        out = _quad_moment_ratio(prior, x, 1)
    return out if np.ndim(out) else float(out)


def zeta(prior: SlabPrior, x):
    """First-moment convolution int t phi(x - t) g(t) dt (linear domain)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("zeta requires finite arguments")
    if prior.family in (SlabFamily.LAPLACE, SlabFamily.GAUSSIAN):
        out = posterior_shrinkage(prior, x) * np.exp(log_psi(prior, x))
    else:
        out = _scalar_map(lambda xx: _quad_moment(prior, xx, 1), x)
    return out if np.ndim(out) else float(out)


def second_moment_ratio(prior: SlabPrior, x):
    """int t^2 phi(x-t) g(t) dt / psi(x): slab-conditional second moment."""
    x = np.asarray(x, dtype=float)
    if prior.family is SlabFamily.GAUSSIAN:
        a = prior.scale
        tau2 = 1.0 + a * a
        m = x * (a * a) / tau2
        out = m * m + (a * a) / tau2
    else:
        out = _quad_moment_ratio(prior, x, 2)
    return out if np.ndim(out) else float(out)
