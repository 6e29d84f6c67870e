"""Independent brute-force oracles used to certify the engine.

Everything here is deliberately written from first principles with its own
quadrature and 2^n subset enumeration; none of it shares code paths with the
package under test beyond numpy/scipy primitives.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize
from scipy.special import gammaln, logsumexp
from scipy.stats import norm

WINDOW = 13.0  # normal factor makes the truncated tails < 6e-39 of the mass


# ---------------------------------------------------------------------------
# slab densities, written out independently
# ---------------------------------------------------------------------------


def make_log_density(family: str, scale: float, shape: float | None = None):
    """Return an independent log-density callable for the given family.

    The callables accept scalars or numpy arrays.
    """
    if family == "laplace":
        return lambda t: math.log(scale / 2.0) - scale * np.abs(t)
    if family == "gaussian":
        c = -math.log(scale) - 0.5 * math.log(2.0 * math.pi)
        return lambda t: c - 0.5 * (np.asarray(t) / scale) ** 2
    if family == "student":
        df = shape
        c = (gammaln((df + 1) / 2.0) - gammaln(df / 2.0)
             - 0.5 * math.log(df * math.pi) - math.log(scale))
        return lambda t: c - 0.5 * (df + 1) * np.log1p((t / scale) ** 2 / df)
    if family == "exppower":
        alpha = shape
        # normalizer by quadrature, on purpose (independent of any closed form)
        norm_const, _ = integrate.quad(
            lambda t: math.exp(-abs(t) ** alpha), -np.inf, np.inf, limit=400
        )
        return lambda t: (-np.abs(t / scale) ** alpha - math.log(norm_const)
                          - math.log(scale))
    raise ValueError(family)


_LOG_ROOT_2PI = 0.5 * math.log(2.0 * math.pi)


def peak(log_density, x: float) -> float:
    """The maximum of t -> phi(x - t) g(t), which lies between 0 and x: the
    best point of a 4001-point grid, refined by a bounded scalar search
    between its neighbours."""
    if x == 0.0:
        return 0.0
    t = np.linspace(min(0.0, x), max(0.0, x), 4001)
    k = int(np.argmax(log_density(t) - 0.5 * (x - t) ** 2))
    res = optimize.minimize_scalar(
        lambda v: 0.5 * (x - v) ** 2 - float(log_density(v)),
        bounds=(t[max(k - 1, 0)], t[min(k + 1, t.size - 1)]), method="bounded",
        options={"xatol": 1e-12 * max(1.0, abs(x))},
    )
    return float(res.x)


def _integral(log_density, x: float, upper: float = np.inf, moment: int = 0) -> float:
    """int_{-inf}^{upper} t^moment phi(x - t) g(t) dt by adaptive quadrature.

    The window reaches WINDOW beyond x and beyond the integrand's peak,
    which a light slab pulls toward 0; 0, x and the peak are breakpoints.
    The integrand is scaled by its value at the peak, so the tolerances
    are relative to it however small psi is.
    """
    p = peak(log_density, x)
    lo, hi = min(x, p) - WINDOW, min(upper, max(x, p) + WINDOW)
    if hi <= lo:
        return 0.0
    shift = float(log_density(p)) - 0.5 * (x - p) ** 2
    val, _ = integrate.quad(
        lambda t: t**moment * math.exp(float(log_density(t)) - 0.5 * (x - t) ** 2 - shift),
        lo, hi, points=sorted({v for v in (0.0, x, p) if lo < v < hi}),
        limit=400, epsabs=1e-15, epsrel=1e-11,
    )
    return val * math.exp(shift - _LOG_ROOT_2PI)


def quad_psi(log_density, x: float) -> float:
    """int phi(x - t) g(t) dt by adaptive quadrature."""
    return _integral(log_density, x)


def quad_psi_partial(log_density, x: float, u: float) -> float:
    """int_{-inf}^{u} phi(x - t) g(t) dt by adaptive quadrature."""
    return _integral(log_density, x, upper=u)


def quad_zeta(log_density, x: float) -> float:
    """int t phi(x - t) g(t) dt by adaptive quadrature."""
    return _integral(log_density, x, moment=1)


def tweedie_shrinkage(log_psi, x, h: float = 3e-3) -> np.ndarray:
    """The slab-conditional posterior mean by Tweedie's formula (Robbins,
    1956; Efron, 2011), x + d log psi(x) / dx, from any log_psi mapping an
    array of observations to log psi.  The derivative is the Richardson
    central difference (4 D(h) - D(2h)) / 3, D(h) = (log psi(x + h) -
    log psi(x - h)) / 2h.  The rounding of log psi, divided by h, bounds its
    accuracy, so x should stay moderate: log psi is near -x^2/2 for large |x|.
    """
    x = np.asarray(x, dtype=float)
    up, down, up2, down2 = log_psi(np.add.outer([h, -h, 2.0 * h, -2.0 * h], x))
    d_h, d_2h = (up - down) / (2.0 * h), (up2 - down2) / (4.0 * h)
    return x + (4.0 * d_h - d_2h) / 3.0


# ---------------------------------------------------------------------------
# brute-force posterior by 2^n subset enumeration
# ---------------------------------------------------------------------------


class BruteForcePosterior:
    """Posterior computed by enumerating every support S of {0, ..., n-1}.

    The model weight of a support of size p is pi(p) / C(n, p); the evidence
    of a support is  prod_{i in S} psi(x_i) * prod_{i not in S} phi(x_i).
    All reported quantities factor out prod_i phi(x_i), matching the engine's
    convention for the log partition function.
    """

    def __init__(self, x, dim_log_pmf, log_density):
        x = np.asarray(x, dtype=float)
        n = x.size
        self.x = x
        self.n = n
        self.log_density = log_density
        self.psi = np.array([quad_psi(log_density, float(v)) for v in x])
        self.phi = norm.pdf(x)
        log_r = np.log(self.psi) - norm.logpdf(x)

        lam = np.array(
            [dim_log_pmf[p] - math.log(math.comb(n, p)) for p in range(n + 1)]
        )
        masks = np.arange(2**n)
        member = (masks[:, None] >> np.arange(n)) & 1  # (2^n, n) in {0, 1}
        sizes = member.sum(axis=1)
        log_w = member @ log_r + lam[sizes]

        self.log_partition = float(logsumexp(log_w))
        self.dim_log_pmf = np.array(
            [logsumexp(log_w[sizes == p]) if np.any(sizes == p) else -np.inf
             for p in range(n + 1)]
        ) - self.log_partition
        self.inclusion_prob = np.array(
            [math.exp(logsumexp(log_w[member[:, i] == 1]) - self.log_partition)
             for i in range(n)]
        )
        zeta_vals = np.array([quad_zeta(log_density, float(v)) for v in x])
        self.mean = self.inclusion_prob * zeta_vals / self.psi
        self._grids = {}

    def marginal_cdf(self, i: int, u: float) -> float:
        q = self.inclusion_prob[i]
        val = (1.0 - q) * (u >= 0.0)
        val += q * quad_psi_partial(self.log_density, float(self.x[i]), u) / self.psi[i]
        return float(min(max(val, 0.0), 1.0))

    def _slab_cdf_grid(self, i: int):
        """Dense-grid cumulative integral of t -> phi(x_i - t) g(t), with a
        node placed exactly on the kink at t = 0."""
        if i not in self._grids:
            xi = float(self.x[i])
            lo, hi = xi - 14.0, xi + 14.0
            if lo < 0.0 < hi:
                t = np.unique(np.concatenate([
                    np.linspace(lo, 0.0, 24001), np.linspace(0.0, hi, 24001)
                ]))
            else:
                t = np.linspace(lo, hi, 48001)
            pdf = np.exp(norm.logpdf(xi - t) + self.log_density(t))
            cdf = integrate.cumulative_trapezoid(pdf, t, initial=0.0)
            self._grids[i] = (t, cdf / self.psi[i])
        return self._grids[i]

    def median(self, i: int) -> float:
        """Generalized inverse of the marginal cdf at 1/2: the point mass
        1 - q_i at zero plus q_i times the slab cdf H.  The dense-grid median
        is a first guess; the trapezoid rule is O(h^1.5) at the cusp of
        exp(-|t|^alpha) for alpha < 1, so the median returned is the root of
        marginal_cdf(i, .) - 1/2 in a bracket of a few grid steps around the
        guess, cut at 0 (where the atom makes the cdf jump) on its side."""
        q = self.inclusion_prob[i]
        t, H = self._slab_cdf_grid(i)
        if t[0] < 0.0 < t[-1]:
            h0 = float(np.interp(0.0, t, H))
        else:
            h0 = 0.0 if t[0] >= 0.0 else 1.0  # slab mass entirely one-sided
        atom_lo = q * h0
        atom_hi = atom_lo + (1.0 - q)
        if atom_lo < 0.5 <= atom_hi:
            return 0.0
        negative = 0.5 <= atom_lo
        target = 0.5 / q if negative else (0.5 - (1.0 - q)) / q
        guess = float(np.interp(target, H, t))
        step = 4.0 * (t[1] - t[0])
        lo, hi = (guess - step, min(guess + step, 0.0)) if negative else (
            max(guess - step, 0.0), guess + step)
        return float(optimize.brentq(lambda u: self.marginal_cdf(i, u) - 0.5, lo, hi))
