import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeslab import (
    QuadratureError,
    SlabFamily,
    SlabPrior,
    exp_power_slab,
    gaussian_slab,
    laplace_slab,
    log_g,
    posterior_shrinkage,
    student_slab,
)

from spikeslab import slabs
from spikeslab.slabs import _QUAD_TOL, SlabValues, log_phi

from _oracle import (make_log_density, peak, quad_psi, quad_psi_partial, quad_zeta,
                     tweedie_shrinkage)

ALL_SLABS = [
    laplace_slab(),
    laplace_slab(0.7),
    gaussian_slab(),
    gaussian_slab(1.8),
    student_slab(4.0),
    student_slab(3.0, scale=1.4),
    exp_power_slab(1.5),
    exp_power_slab(0.8, scale=0.9),
]


TAIL_GRID = np.array([0.0, 1e-3, 1.3, 30.0, 1e3, 1e4])
TAIL_GRID = np.concatenate([TAIL_GRID, -TAIL_GRID[1:]])


def _oracle_density(prior: SlabPrior):
    return make_log_density(prior.family.value, prior.scale, prior.shape)


# -- construction and validation --------------------------------------------


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        laplace_slab(0.0)
    with pytest.raises(ValueError):
        laplace_slab(-1.0)
    with pytest.raises(ValueError):
        student_slab(2.0)  # second moment must be finite
    with pytest.raises(ValueError):
        SlabPrior(SlabFamily.STUDENT, shape=None)
    with pytest.raises(ValueError):
        exp_power_slab(0.0)
    with pytest.raises(ValueError):
        exp_power_slab(2.5)


@pytest.mark.parametrize("prior", ALL_SLABS, ids=str)
def test_density_integrates_to_one(prior):
    from scipy import integrate

    # split at the mode; infinite limits capture polynomial Student tails
    left, _ = integrate.quad(lambda t: math.exp(log_g(prior, t)), -np.inf, 0,
                             limit=400)
    right, _ = integrate.quad(lambda t: math.exp(log_g(prior, t)), 0, np.inf,
                              limit=400)
    assert left + right == pytest.approx(1.0, rel=1e-8)


# -- log_g pinned values ------------------------------------------------------


def test_log_g_laplace_values():
    prior = laplace_slab()
    assert log_g(prior, 0.0) == pytest.approx(math.log(0.5), abs=1e-12)
    assert log_g(prior, 2.0) == pytest.approx(math.log(0.5) - 2.0, abs=1e-12)
    assert log_g(prior, -2.0) == pytest.approx(log_g(prior, 2.0), abs=1e-15)


def test_log_g_gaussian_mode():
    assert log_g(gaussian_slab(), 0.0) == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-12
    )


def test_log_g_rejects_nonfinite():
    with pytest.raises(ValueError):
        log_g(laplace_slab(), np.inf)
    with pytest.raises(ValueError):
        SlabValues(laplace_slab(), np.nan)
    with pytest.raises(ValueError):
        SlabValues(laplace_slab(), np.inf)


def test_log_g_vectorized():
    prior = laplace_slab()
    t = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(log_g(prior, t), [log_g(prior, v) for v in t])


# -- psi -----------------------------------------------------------------------


def test_log_psi_laplace_at_zero():
    # psi(0) = e^{1/2} Phi(-1) for a unit-rate symmetric double exponential
    from scipy.stats import norm

    expected = math.exp(0.5) * norm.cdf(-1.0)
    assert SlabValues(laplace_slab(), 0.0).log_psi == pytest.approx(math.log(expected), rel=1e-12)
    assert expected == pytest.approx(0.26158, rel=1e-4)


def test_log_psi_gaussian_closed_form():
    from scipy.stats import norm

    prior = gaussian_slab(1.7)
    tau = math.hypot(1.0, 1.7)
    for x in (-3.0, 0.0, 0.4, 6.0):
        assert SlabValues(prior, x).log_psi == pytest.approx(
            norm.logpdf(x, scale=tau), abs=1e-12
        )


@pytest.mark.parametrize("prior", ALL_SLABS, ids=str)
def test_log_psi_matches_quadrature_oracle(prior):
    density = _oracle_density(prior)
    for x in np.arange(-10.0, 10.5, 0.5):
        assert SlabValues(prior, x).log_psi == pytest.approx(
            math.log(quad_psi(density, float(x))), rel=1e-8
        )


def test_log_psi_symmetry_far_tails():
    prior = laplace_slab()
    for x in (10.0, 25.0, 100.0, 700.0):
        assert SlabValues(prior, x).log_psi == pytest.approx(SlabValues(prior, -x).log_psi,
                                                             rel=1e-13)
        assert np.isfinite(SlabValues(prior, x).log_psi)


# -- the slab cdf H(u) = psi(x, u) / psi(x) -------------------------------------------


def _cdf(prior: SlabPrior, x: float, u):
    values = SlabValues(prior, x)
    return np.array([values.cdf(0, v) for v in np.atleast_1d(u)])


@pytest.mark.parametrize("prior", ALL_SLABS, ids=str)
def test_slab_cdf_total_mass(prior):
    for x in (-2.5, 0.0, 1.3):
        assert SlabValues(prior, x).cdf(0, 50.0) == pytest.approx(1.0, rel=1e-9)


def test_slab_cdf_symmetry_split():
    assert SlabValues(laplace_slab(), 0.0).cdf(0, 0.0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("prior", ALL_SLABS, ids=str)
def test_slab_cdf_matches_quadrature_oracle(prior):
    density = _oracle_density(prior)
    for x, u in [(1.5, 0.7), (-2.0, -0.5), (0.0, 2.0), (3.0, -1.0), (2.0, 2.0)]:
        expected = quad_psi_partial(density, x, u) / quad_psi(density, x)
        assert SlabValues(prior, x).cdf(0, u) == pytest.approx(expected, rel=1e-7)


@pytest.mark.parametrize("u", [1e-3, 1e-2, 5e-2, 1.0])
def test_laplace_slab_cdf_above_zero_at_large_rate(u):
    # a - x = 45.6: the mass of (0, u] is a difference of two normal upper
    # tails, taken as 1 - H(u) from the tail above u
    prior = laplace_slab(50.0)
    density = _oracle_density(prior)
    expected = quad_psi_partial(density, 4.4, u) / quad_psi(density, 4.4)
    assert SlabValues(prior, 4.4).cdf(0, u) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize(
    "prior,x,u",
    [(laplace_slab(1.0), 30.0, 28.5), (laplace_slab(1.0), -7.0, -12.0),
     (laplace_slab(1e3), 1e3, 0.0), (laplace_slab(1e3), 1e4, 9.0e3 - 3.0),
     (laplace_slab(1e-3), -1e3, -1e3 + 2.0), (gaussian_slab(1e-3), 1e2, 0.0),
     (gaussian_slab(1e-3), -1e4, -1e-2), (gaussian_slab(1e3), 1e4, 1e4 + 1.0)],
    ids=str,
)
def test_closed_form_slab_cdf_far_tails_match_high_precision(prior, x, u):
    # the two-piece normal mixture (Laplace) and the normal posterior
    # (Gaussian) in 60-digit arithmetic, far in the tails and at extreme
    # scales; at rate 1e3 the log-Phi terms reach 2e6, whose rounding,
    # eps * 2e6 = 4e-10, bounds the relative accuracy of H
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        a, xm, um = mp.mpf(prior.scale), mp.mpf(x), mp.mpf(u)
        if prior.family is SlabFamily.LAPLACE:
            lower = mp.exp(a * xm) * mp.ncdf(min(um, 0) - xm - a)
            upper = mp.exp(-a * xm) * (mp.ncdf(xm - a) - mp.ncdf(xm - a - max(um, 0)))
            total = mp.exp(a * xm) * mp.ncdf(-xm - a) + mp.exp(-a * xm) * mp.ncdf(xm - a)
            expected = float((lower + upper) / total)
        else:
            tau2 = 1 + a * a
            expected = float(mp.ncdf((um - xm * a * a / tau2) / (a / mp.sqrt(tau2))))
    assert SlabValues(prior, x).cdf(0, u) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("prior", ALL_SLABS, ids=str)
def test_slab_cdf_nondecreasing_in_u(prior):
    vals = _cdf(prior, 1.2, np.linspace(-6, 6, 41))
    assert np.all(np.diff(vals) >= -1e-12)


# -- zeta and shrinkage ----------------------------------------------------------


def zeta(prior: SlabPrior, x):
    """The first-moment convolution int t phi(x - t) g(t) dt, in the linear
    domain: the shrinkage zeta/psi times psi of one SlabValues."""
    values = SlabValues(prior, x)
    return values.shrinkage * np.exp(values.log_psi)


@pytest.mark.parametrize("prior", ALL_SLABS, ids=str)
def test_zeta_zero_at_origin(prior):
    assert zeta(prior, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_zeta_gaussian_exact():
    # N(0,1) slab under unit normal noise shrinks the observation by half
    for x in (-4.0, -0.3, 2.2, 9.0):
        assert zeta(gaussian_slab(), x) == pytest.approx(
            0.5 * x * math.exp(SlabValues(gaussian_slab(), x).log_psi), rel=1e-12
        )
        assert posterior_shrinkage(gaussian_slab(), x) == pytest.approx(0.5 * x)


@pytest.mark.parametrize("prior", ALL_SLABS, ids=str)
def test_zeta_matches_quadrature_oracle(prior):
    density = _oracle_density(prior)
    for x in (-6.0, -1.1, 0.7, 3.0, 8.0):
        assert zeta(prior, x) == pytest.approx(
            quad_zeta(density, x), rel=1e-8, abs=1e-14
        )


@pytest.mark.parametrize("prior", ALL_SLABS, ids=str)
def test_zeta_odd_psi_even(prior):
    for x in (0.3, 1.7, 4.0):
        assert zeta(prior, x) == pytest.approx(-zeta(prior, -x), rel=1e-9, abs=1e-13)
        assert SlabValues(prior, x).log_psi == pytest.approx(SlabValues(prior, -x).log_psi,
                                                             rel=1e-10)


def test_laplace_shrinkage_between_zero_and_x():
    prior = laplace_slab()
    for x in (0.5, 2.0, 5.0, 12.0, 40.0):
        s = posterior_shrinkage(prior, x)
        assert 0.0 < s < x


def test_shrinkage_consistent_with_zeta_over_psi():
    for prior in ALL_SLABS:
        for x in (-3.0, 0.4, 2.5):
            expected = zeta(prior, x) / math.exp(SlabValues(prior, x).log_psi)
            assert posterior_shrinkage(prior, x) == pytest.approx(
                expected, rel=1e-8, abs=1e-12
            )


def _criterion_5_observations():
    # the n = 2000 observations of acceptance criterion 5
    rng = np.random.default_rng(77)
    theta = np.where(np.arange(2000) >= 1900, 5.0, 0.0)
    return theta + rng.standard_normal(2000)


@pytest.mark.parametrize("prior", [laplace_slab(), gaussian_slab(), student_slab(3.0),
                                   exp_power_slab(0.5), exp_power_slab(1.5)], ids=str)
def test_shrinkage_matches_tweedie_formula(prior):
    # shrinkage = x + d log psi / dx, with log psi differentiated numerically:
    # the shrinkage and log psi are separate formulas, or separate sums of a
    # table; every 20th observation for the table slabs
    x = _criterion_5_observations()
    if prior.family in (SlabFamily.STUDENT, SlabFamily.EXP_POWER):
        x = x[::20]
    reference = tweedie_shrinkage(lambda v: SlabValues(prior, v).log_psi, x)
    assert np.max(np.abs(SlabValues(prior, x).shrinkage - reference)) <= 1e-10


def test_second_moment_ratio_against_quadrature():
    from scipy import integrate
    from scipy.stats import norm

    for prior in (laplace_slab(), gaussian_slab(1.3), student_slab(5.0)):
        density = _oracle_density(prior)
        for x in (-2.0, 0.5, 3.5):
            num, _ = integrate.quad(
                lambda t: t * t * norm.pdf(x - t) * math.exp(density(t)),
                x - 13, x + 13, points=[0.0, x], limit=400,
            )
            expected = num / quad_psi(density, x)
            assert SlabValues(prior, x).second_moment == pytest.approx(expected, rel=1e-7)


@pytest.mark.parametrize("rate", [1e-3, 1.0, 1e3])
def test_laplace_second_moment_matches_high_precision(rate):
    # the two pieces N(x -/+ a, 1), truncated at 0, in 60-digit arithmetic;
    # at rate 1e3 the weight H(0) carries the rounding of log-Phi terms of
    # size (x + a)^2 / 2 (1e-12 relative at x = 30)
    mp = pytest.importorskip("mpmath")
    expected = []
    with mp.workdps(60):
        a = mp.mpf(rate)
        for x in TAIL_GRID:
            x = mp.mpf(x)
            hi, lo = x - a, x + a
            mass = mp.exp(-a * x) * mp.ncdf(hi) + mp.exp(a * x) * mp.ncdf(-lo)
            second = (mp.exp(-a * x) * ((1 + hi**2) * mp.ncdf(hi) + hi * mp.npdf(hi))
                      + mp.exp(a * x) * ((1 + lo**2) * mp.ncdf(-lo) - lo * mp.npdf(lo)))
            expected.append(float(second / mass))
    assert SlabValues(laplace_slab(rate), TAIL_GRID).second_moment == pytest.approx(expected,
                                                                                  rel=1e-11)


@pytest.mark.parametrize("x", [-40.0, 3.0, 40.0, 1e3])
def test_exp_power_two_matches_gaussian_closed_form(x):
    # exp(-(t/s)^2) is a Gaussian slab with std s / sqrt(2); at |x| >= 40 the
    # slab posterior sits near the origin, far from x, and psi underflows
    s = 0.3
    prior = exp_power_slab(2.0, scale=s)
    a2 = s * s / 2.0
    m = x * a2 / (1.0 + a2)
    assert SlabValues(prior, x).log_psi == pytest.approx(
        SlabValues(gaussian_slab(math.sqrt(a2)), x).log_psi, rel=1e-10)
    assert posterior_shrinkage(prior, x) == pytest.approx(m, rel=1e-9)
    assert SlabValues(prior, x).second_moment == pytest.approx(m * m + a2 / (1.0 + a2), rel=1e-9)


@pytest.mark.parametrize("prior", [student_slab(3.0), exp_power_slab(0.5)], ids=str)
def test_heavy_slab_far_tails_match_quadrature_oracle(prior):
    # the slab posterior sits within a unit or so of x; the integration
    # window must still resolve that peak when it also reaches the origin
    density = _oracle_density(prior)
    for x in (100.0, 1e4):
        assert SlabValues(prior, x).log_psi == pytest.approx(
            math.log(quad_psi(density, x)), rel=1e-8
        )
        assert 0.0 < posterior_shrinkage(prior, x) < x


def _mp_log_psi_and_shrinkage(prior: SlabPrior, x: float):
    """log psi(x) and zeta(x) / psi(x) by 60-digit tanh-sinh quadrature,
    split at 0, x and the integrand's peak."""
    mp = pytest.importorskip("mpmath")
    top = peak(_oracle_density(prior), x)
    with mp.workdps(60):
        xm, s, shape = mp.mpf(x), mp.mpf(prior.scale), mp.mpf(prior.shape)
        if prior.family is SlabFamily.STUDENT:
            c = (mp.loggamma((shape + 1) / 2) - mp.loggamma(shape / 2)
                 - mp.log(shape * mp.pi) / 2 - mp.log(s))

            def log_density(t):
                return c - (shape + 1) / 2 * mp.log1p((t / s) ** 2 / shape)
        else:
            c = -mp.log(2) - mp.loggamma(1 + 1 / shape) - mp.log(s)

            def log_density(t):
                return c - abs(t / s) ** shape

        def log_f(t):
            return log_density(t) - (xm - t) ** 2 / 2

        top_log_f = log_f(mp.mpf(top))
        # the normal factor is below e^-800 beyond 40 of x and of the peak
        ends = sorted({min(0.0, x, top) - 40.0, 0.0, top, x, max(0.0, x, top) + 40.0})
        # psi and zeta, scaled by exp(-top_log_f), as one complex integral
        z = mp.quad(lambda t: mp.exp(log_f(t) - top_log_f) * mp.mpc(1, t),
                    [mp.mpf(v) for v in ends])
        return (float(top_log_f + mp.log(z.real) - mp.log(2 * mp.pi) / 2),
                float(z.imag / z.real))


@pytest.mark.parametrize(
    "prior",
    [student_slab(3.0, s) for s in (1e-3, 1.0, 1e3)]
    + [exp_power_slab(a, s) for a in (0.5, 1.5) for s in (1e-3, 1.0, 1e3)],
    ids=str,
)
def test_panel_tables_match_high_precision_on_the_tail_grid(prior):
    # independent of the mesh: a Student slab is graded toward 0 only down
    # to s; psi is even and zeta / psi odd in x
    values = SlabValues(prior, TAIL_GRID)
    refs = {x: _mp_log_psi_and_shrinkage(prior, x) for x in TAIL_GRID[TAIL_GRID >= 0].tolist()}
    for k, x in enumerate(TAIL_GRID):
        log_psi_ref, shrinkage_ref = refs[abs(x)]
        assert values.log_psi[k] == pytest.approx(log_psi_ref, rel=1e-9), x
        assert values.shrinkage[k] == pytest.approx(math.copysign(shrinkage_ref, x),
                                                    rel=1e-9, abs=1e-15), x


def test_tables_report_their_error_and_panel_counts():
    values = SlabValues(student_slab(3.0), TAIL_GRID)
    assert 0.0 <= values.quadrature_error <= 10.0 * _QUAD_TOL
    assert values.panels.shape == TAIL_GRID.shape
    # windows that hold 0: the smooth Student slab takes no knots finer than
    # s toward 0, the kink of exp-power(0.5) all 43 levels
    x = np.array([0.0, 1.3, -4.0])
    assert np.all(SlabValues(student_slab(3.0), x).panels < 100)
    assert np.all(SlabValues(exp_power_slab(0.5), x).panels >= 150)
    closed = SlabValues(laplace_slab(), x)
    assert closed.quadrature_error == 0.0 and not closed.panels.any()


def test_kronrod_rule_constants():
    # the embedded rule is 10-point Gauss-Legendre, and the 21-point Kronrod
    # rule integrates t^k exactly on [-1, 1] up to degree 3 * 10 + 1 = 31
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.allclose(slabs._NODES[1::2], nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(slabs._GAUSS, weights, rtol=0.0, atol=1e-15)
    assert np.all(np.diff(slabs._NODES) > 0.0)
    k = np.arange(32)
    exact = np.where(k % 2 == 0, 2.0 / (k + 1.0), 0.0)
    moments = (slabs._NODES[None, :] ** k[:, None] * slabs._KRONROD).sum(axis=1)
    assert np.allclose(moments, exact, rtol=0.0, atol=1e-15)


# -- quadrature failure surfacing -------------------------------------------------


def test_quadrature_error_carries_estimate():
    err = QuadratureError("failed", 0.125)
    assert err.achieved_error == 0.125
    assert "0.125" in str(err) or "1.250e-01" in str(err)


def test_unresolved_panel_table_raises_quadrature_error():
    # a Student slab of scale 1e-15 is narrower than the finest knots at 0
    with pytest.raises(QuadratureError) as info:
        SlabValues(student_slab(3.0, scale=1e-15), 0.0)
    assert info.value.achieved_error > 0.0


@pytest.mark.parametrize(
    "prior",
    [student_slab(3.0, s) for s in (1e-3, 1.0, 1e3)]
    + [exp_power_slab(a, s) for a in (0.5, 1.5, 2.0) for s in (1e-3, 1.0, 1e3)],
    ids=str,
)
def test_panel_tables_resolve_far_tails_at_extreme_scales(prior):
    # no QuadratureError and finite, correctly signed answers for |x| up to 1e4
    x = np.array([1e2, -1e2, 1e3, -1e3, 1e4])
    assert np.all(np.isfinite(SlabValues(prior, x).log_psi))
    m = posterior_shrinkage(prior, x)
    assert np.all(np.sign(m) == np.sign(x)) and np.all(np.abs(m) < np.abs(x))
    assert np.all(SlabValues(prior, x).second_moment >= m * m)


# -- table inversion ---------------------------------------------------------------

TABLE_SLABS = [student_slab(3.0), exp_power_slab(0.5), exp_power_slab(1.5)]
LEVELS = np.array([1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-6])


@pytest.mark.parametrize("x", [0.0, 1.3, -4.0, 1e2, -1e3, 1e4])
@pytest.mark.parametrize("prior", TABLE_SLABS, ids=str)
def test_table_quantile_inverts_cdf(prior, x):
    values = SlabValues(prior, np.array([x]))
    for tau, u in zip(LEVELS, values.quantile(np.zeros(LEVELS.size, dtype=int), LEVELS)):
        assert values.cdf(0, u) == pytest.approx(tau, rel=1e-11, abs=1e-16)
    assert values.cdf_at_zero[0] == pytest.approx(values.cdf(0, 0.0), abs=1e-15)


@pytest.mark.parametrize("prior", TABLE_SLABS, ids=str)
def test_table_quantiles_batch_matches_single_tables(prior):
    # one batched inversion over entries of different meshes gives each
    # entry's own answer
    x = np.array([0.0, 1.3, -4.0, 1e2, -1e3, 1.3])
    tau = np.array([0.5, 1e-6, 0.975, 0.025, 1.0 - 1e-6, 0.3])
    batch = SlabValues(prior, x).quantile(np.arange(x.size), tau)
    alone = [SlabValues(prior, np.array([v])).quantile(np.array([0]), np.array([s]))[0]
             for v, s in zip(x, tau)]
    assert batch.tolist() == alone


# -- one peak search for every table of a SlabValues ---------------------------------

@pytest.mark.parametrize(
    "prior",
    [student_slab(3.0, s) for s in (1e-3, 1.0, 1e3)]
    + [exp_power_slab(a, s) for a in (0.5, 1.5, 2.0) for s in (1e-3, 1.0, 1e3)]
    + [laplace_slab(s) for s in (1e-3, 1.0, 1e3)],
    ids=str,
)
def test_table_layer_is_batch_invariant(prior, monkeypatch):
    # one stacked table holds every distinct entry of a SlabValues; each
    # entry's mesh, and every value read from it, is the one the entry
    # builds alone, bit for bit (a Laplace slab builds no table), also where
    # its panels straddle two slices of the rule.  Slices of 20 panels, fewer
    # than any entry's, so entries straddle them under every slab; the
    # masses and the second moment run on the same slices
    monkeypatch.setattr(slabs, "_RULE_ROWS", 20)
    values = SlabValues(prior, TAIL_GRID)
    if values._tables is not None:
        first = values._tables.start[:-1] - np.arange(values._tables.x.size)
        last = first + values._tables.panels - 1
        assert np.any(first // slabs._RULE_ROWS != last // slabs._RULE_ROWS)
    tau = np.array([1e-6, 0.3, 1.0 - 1e-6])
    for k, x in enumerate(TAIL_GRID):
        one = SlabValues(prior, TAIL_GRID[[k]])
        if one._tables is not None:
            tables, j = values._tables, values._entry[k]
            mesh = tables.mesh[tables.start[j]:tables.start[j + 1]]
            assert np.array_equal(mesh, one._tables.mesh), x
        for name in ("log_psi", "shrinkage", "second_moment", "cdf_at_zero", "panels"):
            assert getattr(values, name)[k] == getattr(one, name)[0], (name, x)
        assert (values.quantile(np.full(3, k), tau).tolist()
                == one.quantile(np.zeros(3, int), tau).tolist())
        assert values.cdf(k, x + 0.5) == one.cdf(0, x + 0.5), x


@pytest.mark.parametrize("prior", TABLE_SLABS + [exp_power_slab(1.5, 1e-3)], ids=str)
def test_window_peak_is_the_integrand_maximum(prior):
    # the zoomed peak is within the search's resolution of the maximum of
    # log phi(x - t) + log g(t) on a dense grid between 0 and x, and top is
    # the log integrand at the peak, bit for bit.  The window lies within 13
    # of the peak and x, holds the peak, ends where the log integrand is
    # more than 750 below top wherever it is trimmed, and holds 0 and x
    # wherever the integrand there is within that range
    x = np.array([0.0, 1.3, -4.0, 30.0, -1e3])
    lo, hi, peak, top = slabs._windows(prior, x)

    def log_f(v, t):
        return log_phi(v - t) + log_g(prior, t)

    for v, left, right, p, m in zip(x, lo, hi, peak, top):
        t = np.linspace(min(v, 0.0), max(v, 0.0), 200_001)
        dense = t[np.argmax(log_f(v, t))]
        assert abs(p - dense) <= 1e-4 * max(1.0, abs(v)), v
        outer = (min(v, p) - 13.0, max(v, p) + 13.0)
        assert outer[0] <= left <= p <= right <= outer[1], v
        for end, bound in ((left, outer[0]), (right, outer[1])):
            assert end == bound or log_f(v, end) < m - 750.0, v
        for anchor in (0.0, v):
            if outer[0] <= anchor <= outer[1] and log_f(v, anchor) >= m - 750.0:
                assert left <= anchor <= right, (v, anchor)
    assert np.array_equal(top, log_phi(x - peak) + log_g(prior, peak))


def test_light_slab_far_from_zero_meshes_only_its_mass():
    # the window of exp-power(2, 1e-3) at x = 1e4 ends where the integrand
    # underflows, near its peak at 0.005, not at x
    values = SlabValues(exp_power_slab(2.0, 1e-3), np.array([1e4]))
    assert values.panels[0] < 200


def test_narrow_peak_far_from_zero_builds_without_quadrature_error():
    # exp-power(1.5, 1e-3) at |x| = 1e4 peaks 0.044 from 0 with width 0.003:
    # the knots at multiples of that width resolve it
    x = np.array([1e4, -1e4])
    values = SlabValues(exp_power_slab(1.5, 1e-3), x)
    assert values.quadrature_error <= 10.0 * _QUAD_TOL + np.finfo(float).eps * 5e7
    assert np.all(np.isfinite(values.log_psi)) and np.all(np.sign(values.shrinkage) == np.sign(x))


def test_student_mode_at_zero_is_resolved_far_from_it():
    # Student(10, 0.01) at |x| near 11.4: the global peak lies near x, and
    # the second mode at 0, s sqrt(nu / (nu + 1)) = 0.0095 wide, is resolved
    # only by the knots graded toward 0 down to s
    prior = student_slab(10.0, 0.01)
    x = np.array([-11.33, 11.33, 11.4, 11.45, 11.53])
    values = SlabValues(prior, x)
    refs = {v: _mp_log_psi_and_shrinkage(prior, v) for v in set(np.abs(x).tolist())}
    for k, xk in enumerate(x):
        log_psi_ref, shrinkage_ref = refs[abs(xk)]
        assert values.log_psi[k] == pytest.approx(log_psi_ref, rel=1e-9), xk
        assert values.shrinkage[k] == pytest.approx(math.copysign(shrinkage_ref, xk),
                                                    rel=1e-9), xk


# -- the slab functions of a block ---------------------------------------------------

VALUE_SLABS = [laplace_slab(), laplace_slab(50.0), gaussian_slab(), gaussian_slab(2.0),
               student_slab(3.0), exp_power_slab(0.5), exp_power_slab(1.5)]
BLOCK = np.array([[0.3, -1.2, 1e2], [-1e2, -1e3, 1e4]])


@pytest.mark.parametrize("prior", VALUE_SLABS, ids=str)
def test_slab_values_of_a_block_equal_the_entrywise_functions(prior):
    values = SlabValues(prior, BLOCK)
    for name in ("log_psi", "shrinkage", "second_moment"):
        block = getattr(values, name)
        assert block.shape == BLOCK.shape
        assert block.tolist() == [[float(getattr(SlabValues(prior, x), name)) for x in row]
                                  for row in BLOCK], name
    assert posterior_shrinkage(prior, BLOCK).tolist() == values.shrinkage.tolist()
    # H(u) and its inverse of an entry are those of the entry alone
    tau = np.linspace(0.1, 0.9, BLOCK.size)
    for j, x in enumerate(BLOCK.ravel()):
        alone = SlabValues(prior, x)
        assert values.cdf(j, x - 0.5) == alone.cdf(0, x - 0.5)
        assert values.quantile(np.array([j]), tau[[j]]) == alone.quantile(np.array([0]), tau[[j]])
        if prior.family in (SlabFamily.LAPLACE, SlabFamily.GAUSSIAN):
            # H(0) is the closed-form cdf at 0, bit for bit
            assert values.cdf(j, 0.0) == values.cdf_at_zero.flat[j]


@pytest.mark.parametrize("prior", VALUE_SLABS, ids=str)
def test_slab_values_quantile_inverts_cdf(prior):
    values = SlabValues(prior, BLOCK)
    k = np.repeat(np.arange(BLOCK.size), LEVELS.size)
    tau = np.tile(LEVELS, BLOCK.size)
    u = values.quantile(k, tau)
    for j, level, v in zip(k, tau, u):
        assert values.cdf(j, v) == pytest.approx(level, rel=1e-11)
    # levels outside (0, 1) give the ends of the real line
    assert values.quantile(np.array([0, 1]), np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]


# -- property tests ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-15, 15), rate=st.floats(0.4, 3.0))
def test_laplace_psi_symmetric_property(x, rate):
    prior = laplace_slab(rate)
    assert SlabValues(prior, x).log_psi == pytest.approx(SlabValues(prior, -x).log_psi, rel=1e-11)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(-8, 8),
    u1=st.floats(-8, 8),
    u2=st.floats(-8, 8),
)
def test_slab_cdf_monotone_property(x, u1, u2):
    lo, hi = _cdf(laplace_slab(), x, [min(u1, u2), max(u1, u2)])
    assert lo <= hi + 1e-12
