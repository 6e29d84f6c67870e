import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

from spikeslab import (
    betabin_power_prior,
    binomial_prior,
    complexity_prior,
    custom_prior,
    eb_binomial_weight,
    exp_power_slab,
    fit,
    gaussian_slab,
    generate_data,
    geometric_prior,
    laplace_slab,
    poisson_prior,
    posterior_shrinkage,
    SignalSpec,
    student_slab,
)
from spikeslab.posterior import Fits, SlabLayer, validate_observations
from spikeslab.slabs import SlabFamily, SlabValues

from _oracle import BruteForcePosterior, make_log_density


_EVERY_SLAB = [laplace_slab(), laplace_slab(50.0), gaussian_slab(), student_slab(3.0),
               exp_power_slab(0.5), exp_power_slab(1.5)]


def brute(x, dim_prior, slab):
    density = make_log_density(slab.family.value, slab.scale, slab.shape)
    return BruteForcePosterior(x, dim_prior.log_pmf, density)


# -- input validation -----------------------------------------------------------


def test_validate_observations():
    with pytest.raises(ValueError):
        validate_observations([])
    with pytest.raises(ValueError):
        validate_observations([1.0, np.nan])
    with pytest.raises(ValueError):
        validate_observations(np.zeros((2, 2)))
    assert validate_observations(0.5).shape == (1,)


def test_dimension_prior_length_mismatch():
    with pytest.raises(ValueError):
        fit(np.zeros(4), complexity_prior(5, 0.1), laplace_slab())


# -- single-coordinate sanity ------------------------------------------------------


def test_single_coordinate_at_zero():
    # uniform dimension prior on {0, 1}: P(p=1 | X=0) = psi(0)/(phi(0)+psi(0))
    prior = custom_prior(1, [0.0, 0.0])
    post = fit(np.array([0.0]), prior, laplace_slab())
    psi0 = math.exp(SlabValues(laplace_slab(), 0.0).log_psi)
    phi0 = norm.pdf(0.0)
    assert post.inclusion_prob[0] == pytest.approx(psi0 / (phi0 + psi0), rel=1e-12)
    assert post.inclusion_prob[0] == pytest.approx(0.3960, abs=5e-5)
    assert post.mean[0] == pytest.approx(0.0, abs=1e-12)
    assert post.median[0] == pytest.approx(0.0, abs=1e-12)


# -- brute-force agreement on small problems ----------------------------------------


@pytest.mark.parametrize(
    "prior_factory,slab",
    [
        (lambda n: complexity_prior(n, 0.1), laplace_slab()),
        (lambda n: betabin_power_prior(n, 0.1), laplace_slab()),
        (lambda n: binomial_prior(n, 0.2), gaussian_slab(1.5)),
        (lambda n: complexity_prior(n, 0.8, 2.0), student_slab(4.0)),
    ],
)
def test_fit_matches_brute_force(prior_factory, slab):
    rng = np.random.default_rng(101)
    n = 8
    x = rng.normal(scale=2.0, size=n)
    prior = prior_factory(n)
    post = fit(x, prior, slab)
    oracle = brute(x, prior, slab)

    assert post.log_partition == pytest.approx(oracle.log_partition, abs=1e-9)
    assert np.allclose(post.dim_log_pmf, oracle.dim_log_pmf, atol=1e-8)
    assert np.allclose(post.inclusion_prob, oracle.inclusion_prob, rtol=1e-9, atol=1e-12)
    assert np.allclose(post.mean, oracle.mean, rtol=1e-7, atol=1e-10)
    for i in range(n):
        for u in (-1.0, 0.0, 0.5, 2.0):
            assert post.marginal_cdf(i, u) == pytest.approx(
                oracle.marginal_cdf(i, u), abs=1e-8
            )
        assert post.median[i] == pytest.approx(oracle.median(i), abs=1e-6)


def _point_mass_prior(n, p):
    log_w = np.full(n + 1, -np.inf)
    log_w[p] = 0.0
    return custom_prior(n, log_w)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize(
    "prior_factory",
    [
        lambda n: poisson_prior(n, 1.5),
        lambda n: geometric_prior(n, 0.4),
        # -inf mass everywhere but p = 3 (p = n when n < 3)
        lambda n: _point_mass_prior(n, min(3, n)),
    ],
    ids=["poisson", "geometric", "point-mass"],
)
def test_inclusion_pass_matches_brute_force(prior_factory, n):
    rng = np.random.default_rng(200 + n)
    x = rng.normal(scale=2.0, size=n)
    prior = prior_factory(n)
    slab = laplace_slab()
    post = fit(x, prior, slab)
    oracle = brute(x, prior, slab)

    assert post.log_partition == pytest.approx(oracle.log_partition, abs=1e-9)
    assert np.allclose(post.dim_log_pmf, oracle.dim_log_pmf, atol=1e-8)
    assert np.allclose(post.inclusion_prob, oracle.inclusion_prob, rtol=1e-9, atol=1e-12)
    assert np.allclose(post.mean, oracle.mean, rtol=1e-7, atol=1e-10)
    for i in range(n):
        assert post.median[i] == pytest.approx(oracle.median(i), abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 16, 17, 60, 2000, "tail"])
def test_binomial_fast_path_matches_general_path(n):
    # the inclusion sweep takes the factors in blocks of B = ceil(sqrt(n)):
    # n = B^2 fills its last block and n = B^2 + 1 starts one more; the tail
    # row has log r_i up to about 5e5
    if n == "tail":
        n, x = 2000, _tail_observations(2000, 0, 1e3)
    else:
        rng = np.random.default_rng(5)
        x = rng.normal(size=n) + np.where(np.arange(n) < max(1, n // 10), 4.0, 0.0)
    alpha = 0.1
    fast = fit(x, binomial_prior(n, alpha), laplace_slab())
    # the same pmf fed through the custom family takes the general
    # leave-one-out route
    slow = fit(x, custom_prior(n, binomial_prior(n, alpha).log_pmf), laplace_slab())
    assert np.allclose(fast.inclusion_prob, slow.inclusion_prob, rtol=0.0, atol=1e-12)
    # the mean is q times the shrinkage, about x in the tails
    assert np.allclose(fast.mean, slow.mean, rtol=1e-12, atol=1e-12)
    assert fast.log_partition == pytest.approx(slow.log_partition, abs=1e-12)


# -- structural identities -------------------------------------------------------------


def test_expected_dimension_identity():
    rng = np.random.default_rng(13)
    x = rng.normal(scale=1.5, size=40)
    post = fit(x, complexity_prior(40, 0.2), laplace_slab(), quantiles=False)
    expected_dim = float(
        np.sum(np.arange(41) * np.exp(post.dim_log_pmf))
    )
    assert post.inclusion_prob.sum() == pytest.approx(expected_dim, abs=1e-10)


def test_expected_dimension_identity_large_n():
    rng = np.random.default_rng(47)
    n = 2000
    x = rng.normal(size=n) + np.where(np.arange(n) < 100, 4.0, 0.0)
    post = fit(x, betabin_power_prior(n, 1.0), laplace_slab(), quantiles=False)
    expected_dim = float(np.sum(np.arange(n + 1) * np.exp(post.dim_log_pmf)))
    assert abs(post.inclusion_prob.sum() - expected_dim) <= 1e-8


def _tail_observations(n, op, top):
    """The fit-tails-large draw of perfbench/workloads.py (seed 1): n // 20
    signals at random places with random signs and log-uniform amplitudes on
    [3, top], plus standard normal noise."""
    support, x0 = generate_data(SignalSpec(n, n // 20, 1.0, "random"), 1, op, stream_key=(4,))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([1, 4, op, 1])))
    idx = np.flatnonzero(support)
    theta0 = np.zeros(n)
    theta0[idx] = (rng.choice([-1.0, 1.0], size=idx.size)
                   * np.exp(rng.uniform(np.log(3.0), np.log(top), idx.size)))
    return theta0 + (x0 - support)


def _dimension_gap(post):
    p = np.arange(post.dim_log_pmf.size)
    return abs(post.inclusion_prob.sum() - float(np.sum(p * np.exp(post.dim_log_pmf))))


@pytest.mark.parametrize("top", [1e3, 1e4])
@pytest.mark.parametrize("slab", [laplace_slab(), gaussian_slab()], ids=["laplace", "gaussian"])
@pytest.mark.parametrize("prior", ["binomial(EB)", "complexity", "betabin"])
def test_expected_dimension_identity_in_the_far_tails(prior, slab, top):
    # log r_i reaches about x^2 / 2 = 5e7: the product of the factors 1 + r_i Z
    # has log coefficients near 1e8, its normalised form none above 0
    n = 2000
    x = _tail_observations(n, 0, top)
    dim_prior = {"binomial(EB)": binomial_prior(n, eb_binomial_weight(x, slab)),
                 "complexity": complexity_prior(n, 0.1),
                 "betabin": betabin_power_prior(n, 0.1)}[prior]
    assert _dimension_gap(fit(x, dim_prior, slab, quantiles=False)) <= 1e-8


def test_expected_dimension_identity_in_the_far_tails_at_n_10000():
    n = 10000
    x = _tail_observations(n, 0, 1e4)
    post = fit(x, complexity_prior(n, 0.1), laplace_slab(), quantiles=False)
    assert _dimension_gap(post) <= 1e-8


@pytest.mark.parametrize("slab", [laplace_slab(), student_slab(3.0), exp_power_slab(0.5)],
                         ids=str)
def test_mean_identity(slab):
    rng = np.random.default_rng(17)
    x = rng.normal(scale=2.0, size=30)
    post = fit(x, betabin_power_prior(30, 0.5), slab, quantiles=False)
    assert np.allclose(
        post.mean, post.inclusion_prob * posterior_shrinkage(slab, x), atol=1e-12
    )


def test_degenerate_point_mass_priors():
    rng = np.random.default_rng(19)
    n = 10
    x = rng.normal(size=n)
    slab = laplace_slab()

    at_zero = np.full(n + 1, -np.inf)
    at_zero[0] = 0.0
    post0 = fit(x, custom_prior(n, at_zero), slab)
    assert np.all(post0.inclusion_prob == 0.0)
    assert np.all(post0.mean == 0.0)
    assert np.all(post0.median == 0.0)

    at_n = np.full(n + 1, -np.inf)
    at_n[n] = 0.0
    postn = fit(x, custom_prior(n, at_n), slab)
    assert np.allclose(postn.inclusion_prob, 1.0, atol=1e-12)
    assert np.allclose(postn.mean, posterior_shrinkage(slab, x), atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(23)
    n = 25
    x = rng.normal(scale=2.0, size=n)
    perm = rng.permutation(n)
    prior = complexity_prior(n, 0.1)
    a = fit(x, prior, laplace_slab())
    b = fit(x[perm], prior, laplace_slab())
    assert np.allclose(a.dim_log_pmf, b.dim_log_pmf, atol=1e-10)
    assert np.allclose(a.inclusion_prob[perm], b.inclusion_prob, atol=1e-10)
    assert np.allclose(a.mean[perm], b.mean, atol=1e-10)
    assert np.allclose(a.median[perm], b.median, atol=1e-10)


def test_large_signal_saturation():
    x = np.array([12.0, -11.0, 10.5, 13.0, -10.0, 11.5])
    post = fit(x, complexity_prior(6, 0.1), laplace_slab())
    assert post.inclusion_prob.sum() >= 0.99 * 6


# -- marginal cdf / quantiles ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_fit():
    rng = np.random.default_rng(31)
    x = rng.normal(scale=2.0, size=8)
    return fit(x, complexity_prior(8, 0.3), laplace_slab())


def test_cdf_limits_and_monotonicity(small_fit):
    assert small_fit.marginal_cdf(0, -np.inf) == 0.0
    assert small_fit.marginal_cdf(0, np.inf) == 1.0
    u = np.linspace(-10, 10, 81)
    vals = [small_fit.marginal_cdf(3, float(v)) for v in u]
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("slab", _EVERY_SLAB, ids=str)
def test_cdf_rejects_nan(slab):
    post = fit(np.array([-1.5, 0.3, 2.8]), complexity_prior(3, 0.3), slab)
    with pytest.raises(ValueError, match="u must not be NaN"):
        post.marginal_cdf(1, np.nan)
    assert post.marginal_cdf(1, -np.inf) == 0.0
    assert post.marginal_cdf(1, np.inf) == 1.0


def test_cdf_jump_at_zero(small_fit):
    for i in range(8):
        q = small_fit.inclusion_prob[i]
        jump = small_fit.marginal_cdf(i, 0.0) - small_fit.marginal_cdf(i, -1e-9)
        assert jump == pytest.approx(1.0 - q, abs=1e-6)


def test_cdf_at_zero_observation_symmetric_slab():
    post = fit(np.array([0.0, 1.0]), custom_prior(2, [0.0, 0.0, 0.0]), laplace_slab())
    q = post.inclusion_prob[0]
    assert post.marginal_cdf(0, 0.0) == pytest.approx(1.0 - q / 2.0, abs=1e-10)


def test_quantile_level_validation(small_fit):
    with pytest.raises(ValueError):
        small_fit.marginal_quantile(0, 0.0)
    with pytest.raises(ValueError):
        small_fit.marginal_quantile(0, 1.0)
    with pytest.raises(IndexError):
        small_fit.marginal_quantile(99, 0.5)


def test_quantile_inverts_cdf(small_fit):
    for i in range(8):
        for level in (0.025, 0.3, 0.5, 0.7, 0.975):
            v = small_fit.marginal_quantile(i, level)
            assert small_fit.marginal_cdf(i, v) >= level - 1e-7
            if v != 0.0:
                assert small_fit.marginal_cdf(i, v - 1e-6) <= level + 1e-6


def test_quantile_atom_span_returns_exact_zero():
    # weak observation, sparse prior: inclusion probability < 1/2, so the
    # atom at zero spans the median level
    post = fit(np.array([0.4, 0.1, -0.2]), complexity_prior(3, 1.0), laplace_slab())
    assert np.all(post.inclusion_prob < 0.5)
    for i in range(3):
        assert post.marginal_quantile(i, 0.5) == 0.0
        assert post.coordinatewise_median(i) == 0.0


def test_median_equals_half_quantile(small_fit):
    for i in range(8):
        assert small_fit.coordinatewise_median(i) == pytest.approx(
            small_fit.marginal_quantile(i, 0.5), abs=1e-9
        )
        assert small_fit.median[i] == pytest.approx(
            small_fit.coordinatewise_median(i), abs=1e-12
        )


def test_interval_ordering(small_fit):
    assert np.all(small_fit.credible_lo <= small_fit.median + 1e-12)
    assert np.all(small_fit.median <= small_fit.credible_hi + 1e-12)


@pytest.mark.parametrize("xv", [1e2, 1e3, 1e4])
def test_gaussian_slab_quantiles_far_tails(xv):
    # the slab posterior is N(x a^2 / (1 + a^2), a^2 / (1 + a^2)); a fixed
    # bisection bracket around x cannot reach its median once x >> 1
    a = 1.0
    x = np.array([xv, 0.3])
    post = fit(x, complexity_prior(2, 0.1), gaussian_slab(a))
    m = xv * a * a / (1.0 + a * a)
    assert post.median[0] == pytest.approx(m, rel=1e-12)
    d = 1e-6 * m
    for level, v in ((0.5, post.median[0]), (0.025, post.credible_lo[0]),
                     (0.975, post.credible_hi[0])):
        assert post.marginal_cdf(0, v - d) <= level <= post.marginal_cdf(0, v + d)


@pytest.mark.parametrize("rate", [1e-3, 1e-1, 1.0, 10.0, 1e2])
@pytest.mark.parametrize("xv", [1e2, -1e2, 1e3, -1e3, 1e4])
def test_laplace_slab_quantiles_far_tails(xv, rate):
    # the slab posterior is N(x + a, 1) below 0 and N(x - a, 1) above it; a
    # fixed bracket around x cannot reach x - a once the rate a is large
    post = fit(np.array([xv, 0.3]), complexity_prior(2, 0.1), laplace_slab(rate))
    for field in ("median", "credible_lo", "credible_hi"):
        assert not np.any(np.isnan(getattr(post, field)))
    for level, v in ((0.5, post.median[0]), (0.025, post.credible_lo[0]),
                     (0.975, post.credible_hi[0])):
        d = 1e-6 * max(1.0, abs(v))
        assert post.marginal_cdf(0, v - d) <= level <= post.marginal_cdf(0, v + d)


def test_laplace_median_far_below_the_observation():
    # at rate 50 the slab posterior of x = 100 is N(50, 1) on the positive side
    post = fit(np.array([100.0, 0.3]), complexity_prior(2, 0.1), laplace_slab(50.0))
    assert post.median[0] == pytest.approx(50.0, abs=1e-9)


def _table_fit_and_oracle(slab):
    rng = np.random.default_rng(107)
    n = 8
    x = np.concatenate([rng.normal(scale=2.0, size=n - 2), [12.0, -30.0]])
    prior = complexity_prior(n, 0.8, 2.0)
    return fit(x, prior, slab), brute(x, prior, slab)


@pytest.mark.parametrize("slab", [student_slab(3.0), exp_power_slab(0.5), exp_power_slab(1.5)],
                         ids=str)
def test_table_median_inverts_brute_force_cdf(slab):
    # the oracle's cdf is adaptive quadrature at relative tolerance 1e-11 over
    # a window 13 beyond x and beyond the integrand's peak
    post, oracle = _table_fit_and_oracle(slab)
    for i in range(post.x.size):
        if post.median[i] != 0.0:
            assert oracle.marginal_cdf(i, post.median[i]) == pytest.approx(0.5, abs=1e-9)


def test_brute_force_cdf_holds_a_light_slab_pulled_toward_zero():
    # at x = -30 the exp-power(1.5) slab posterior peaks near -22.8, so a
    # window of x +/- 13 alone cuts its upper tail
    post, oracle = _table_fit_and_oracle(exp_power_slab(1.5))
    i = int(np.flatnonzero(post.x == -30.0)[0])
    assert post.median[i] < -20.0
    assert oracle.marginal_cdf(i, post.median[i]) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("slab", [student_slab(3.0), exp_power_slab(0.5), exp_power_slab(1.5)],
                         ids=str)
def test_table_median_matches_brute_force(slab):
    post, oracle = _table_fit_and_oracle(slab)
    for i in range(post.x.size):
        assert post.median[i] == pytest.approx(oracle.median(i), abs=1e-6)


def test_light_quadrature_slab_matches_gaussian_far_from_zero():
    # exp-power with alpha = 2 and scale s is the Gaussian slab with std
    # s / sqrt(2); at |x| >= 40 its slab posterior sits near the origin and
    # psi(x) underflows in the linear domain
    x = np.array([-40.0, 0.5, 3.0, 1e3])
    prior = complexity_prior(4, 0.1)
    quad = fit(x, prior, exp_power_slab(2.0, scale=0.3))
    exact = fit(x, prior, gaussian_slab(0.3 / math.sqrt(2.0)))
    assert np.allclose(quad.inclusion_prob, exact.inclusion_prob, rtol=1e-9, atol=1e-12)
    assert np.allclose(quad.mean, exact.mean, rtol=1e-9, atol=1e-12)
    for field in ("median", "credible_lo", "credible_hi"):
        assert np.allclose(getattr(quad, field), getattr(exact, field), rtol=0.0, atol=1e-8)


def test_quantiles_false_skips_summary():
    post = fit(np.zeros(3), complexity_prior(3, 0.1), laplace_slab(), quantiles=False)
    assert post.median is None


def test_summary_fields_roundtrip(small_fit):
    assert small_fit.levels == (0.025, 0.975)
    assert small_fit.expected_dimension == pytest.approx(
        small_fit.inclusion_prob.sum(), abs=1e-8
    )
    assert np.all((small_fit.inclusion_prob >= 0) & (small_fit.inclusion_prob <= 1))


@pytest.mark.parametrize("levels", [(0.0, 1.5), (0.9, 0.1), (0.5, 0.5), (0.1,),
                                    (0.1, 0.5, 0.9), (0.1, float("nan"))])
def test_fit_rejects_invalid_levels(levels):
    x = np.array([4.0, 0.2])
    with pytest.raises(ValueError, match="credible levels"):
        fit(x, complexity_prior(2, 0.1), laplace_slab(), levels=levels)
    with pytest.raises(ValueError, match="credible levels"):
        fit(x, complexity_prior(2, 0.1), laplace_slab(), levels=levels, quantiles=False)


def test_custom_levels():
    post = fit(np.array([4.0, 0.2]), complexity_prior(2, 0.1), laplace_slab(),
               levels=(0.1, 0.9))
    assert post.levels == (0.1, 0.9)
    assert post.credible_lo[0] == pytest.approx(post.marginal_quantile(0, 0.1), abs=1e-9)


# -- empirical-Bayes weight --------------------------------------------------------------


def test_eb_weight_all_zero_observations():
    # a score negative throughout gives the lower end exactly
    x = np.zeros(50)
    assert eb_binomial_weight(x, laplace_slab()) == 1 / 50


def test_eb_weight_all_large_observations():
    x = np.full(50, 10.0)
    assert eb_binomial_weight(x, laplace_slab()) == 1 - 1e-6


def test_eb_weight_mixed_sample_stays_in_bounds():
    # with a unit-rate heavy-tailed slab the unconstrained marginal MLE is
    # pulled far up by strong signals; it must stay inside [1/n, 1 - 1e-6]
    rng = np.random.default_rng(41)
    n = 50
    theta = np.where(np.arange(n) < 10, 5.0, 0.0)
    x = theta + rng.normal(size=n)
    alpha = eb_binomial_weight(x, laplace_slab())
    assert 1 / n <= alpha <= 1 - 1e-6 + 1e-12
    assert alpha > 0.5


def test_eb_weight_maximizes_marginal_likelihood():
    rng = np.random.default_rng(43)
    x = rng.normal(size=30) + np.where(np.arange(30) < 5, 4.0, 0.0)
    slab = laplace_slab()
    lphi = norm.logpdf(x)
    lpsi = SlabValues(slab, x).log_psi

    def loglik(a):
        return float(np.logaddexp(np.log1p(-a) + lphi, np.log(a) + lpsi).sum())

    best = eb_binomial_weight(x, slab)
    grid = np.linspace(1 / 30, 1 - 1e-6, 400)
    assert loglik(best) >= max(loglik(a) for a in grid) - 1e-7


def _mp_eb_weight(slab, x):
    """The EB weight in 50-digit arithmetic: the root of the score
    sum_i (r_i - 1) / (1 + alpha (r_i - 1)) on [min(1/n, 1 - 1e-6), 1 - 1e-6],
    or the endpoint where the score keeps its sign."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a = mp.mpf(slab.scale)
        r = []
        for xi in map(mp.mpf, x):
            if slab.family is SlabFamily.LAPLACE:
                psi = a / 2 * mp.exp(a * a / 2) * (mp.exp(-a * xi) * mp.ncdf(xi - a)
                                                   + mp.exp(a * xi) * mp.ncdf(-xi - a))
            else:
                psi = mp.npdf(xi, 0, mp.sqrt(1 + a * a))
            r.append(psi / mp.npdf(xi))

        def score(alpha):
            return mp.fsum((ri - 1) / (1 + alpha * (ri - 1)) for ri in r)

        hi = mp.mpf(1.0 - 1e-6)
        lo = mp.mpf(min(1.0 / len(x), 1.0 - 1e-6))
        if score(lo) <= 0:
            return float(lo)
        if score(hi) >= 0:
            return float(hi)
        return float(mp.findroot(score, (lo, hi), solver="anderson"))


def _with_signals(x, k, value):
    x = np.array(x, dtype=float)
    x[:k] = value
    return x


_NOISE = np.random.default_rng(47).normal(size=40)


@pytest.mark.parametrize("slab,x", [
    (laplace_slab(), _with_signals(_NOISE, 3, 3.0)),
    (laplace_slab(), _with_signals(_NOISE, 3, 1e4)),
    (laplace_slab(), _with_signals(np.zeros(40), 6, -1e4)),
    (laplace_slab(), np.zeros(40)),
    (laplace_slab(), np.array([1e4])),
    (laplace_slab(1e3), _with_signals(_NOISE, 10, 1e4)),
    (laplace_slab(1e3), np.zeros(40)),
    (gaussian_slab(), _with_signals(np.zeros(40), 9, 1e4)),
    (gaussian_slab(), _with_signals(_NOISE, 2, 1e4)),
    (gaussian_slab(), np.array([0.5])),
], ids=lambda v: getattr(v, "family", None) and f"{v.family.value}-{v.scale:g}")
def test_eb_weight_is_the_high_precision_root_of_the_score(slab, x):
    # a 1e4 signal makes log r about 5e7, where the log-likelihood's rounding
    # swamps its curvature but its score stays exact to rounding
    assert eb_binomial_weight(x, slab) == pytest.approx(_mp_eb_weight(slab, x), rel=1e-12)


def test_eb_weight_single_observation():
    # the search interval [min(1/n, 1 - 1e-6), 1 - 1e-6] collapses to its top
    x = np.array([3.0])
    alpha = eb_binomial_weight(x, laplace_slab())
    assert alpha == 1.0 - 1e-6
    post = fit(x, binomial_prior(1, alpha), laplace_slab())
    assert np.all(np.isfinite(post.inclusion_prob)) and np.isfinite(post.median[0])


# -- slab tables ----------------------------------------------------------------------


def test_quadrature_fit_evaluates_the_rule_once_per_slab_values(monkeypatch):
    # no adaptive quadrature: one stacked table over the distinct
    # observations, whose panels go through one Kronrod rule evaluation
    # (they fit one slice of _RULE_ROWS panels), with no halved panels
    import scipy.integrate

    from spikeslab import slabs

    def no_quad(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(scipy.integrate, "quad", no_quad)
    built, rows = [], []  # (observations, rows of each rule evaluation) of each table
    init, rule = slabs.PanelTables.__init__, slabs._panel_rule

    def counting_init(self, prior, x):
        rows.clear()
        init(self, prior, x)
        built.append((x.tolist(), list(rows)))

    def counting_rule(prior, x, a, b):
        rows.append(np.size(a))
        return rule(prior, x, a, b)

    monkeypatch.setattr(slabs.PanelTables, "__init__", counting_init)
    monkeypatch.setattr(slabs, "_panel_rule", counting_rule)
    x = np.array([[0.3, -1.2, 0.3, 0.3, -1.2, -1.2]])
    layer = SlabLayer(student_slab(3.0), x)
    panels = int(layer.values._tables.panels.sum())
    assert built == [(sorted(set(x.ravel().tolist())), [panels])]
    post = layer.fit(complexity_prior(6, 0.1))[0]
    assert len(built) == 1 and np.all(np.isfinite(post.credible_hi))
    # a block whose panels pass _RULE_ROWS takes one evaluation per slice of
    # at most _RULE_ROWS panels, whatever observations the slice cuts
    built.clear()
    values = slabs.SlabValues(exp_power_slab(0.5), np.linspace(-5.0, 5.0, 40))
    (_, evaluations), = built
    assert sum(evaluations) == values.panels.sum() and len(evaluations) > 1
    assert max(evaluations) <= slabs._RULE_ROWS


def test_quadrature_slabs_load_no_scipy_special():
    # in a fresh interpreter: importing the package, complexity-prior fits
    # with quantiles under Student(3), exp-power(0.5) and exp-power(1.5) and
    # a marginal cdf leave scipy.special unimported; a Laplace fit loads it
    script = """
import sys
import numpy as np
import spikeslab
loaded = ["scipy.special" in sys.modules]
from spikeslab import complexity_prior, exp_power_slab, fit, laplace_slab, student_slab
x = np.array([0.3, -1.2, 4.5, 0.0, 30.0, -6.0])
for slab in (student_slab(3.0), exp_power_slab(0.5), exp_power_slab(1.5)):
    post = fit(x, complexity_prior(x.size, 0.1), slab, quantiles=True)
    assert np.all(np.isfinite(post.credible_hi))
    assert 0.0 < post.marginal_cdf(2, 4.0) < 1.0
loaded.append("scipy.special" in sys.modules)
fit(x, complexity_prior(x.size, 0.1), laplace_slab(), quantiles=True)
loaded.append("scipy.special" in sys.modules)
print(loaded)
"""
    src = os.path.dirname(os.path.dirname(validate_observations.__code__.co_filename))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[False, False, True]"


@pytest.mark.parametrize(
    "slab",
    [laplace_slab(), gaussian_slab(), student_slab(3.0), exp_power_slab(0.5),
     exp_power_slab(1.5)],
    ids=str,
)
def test_fit_quantiles_evaluate_no_slab_cdf(monkeypatch, slab):
    # the quantile phase inverts the slab cdf exactly: no slab cdf, of a
    # table or of the closed forms, is evaluated during a fit
    from spikeslab import slabs

    calls = []
    table_cdf, values_cdf = slabs.PanelTables.cdf, slabs.SlabValues.cdf

    def counting_table_cdf(self, j, u):
        calls.append("PanelTables.cdf")
        return table_cdf(self, j, u)

    def counting_values_cdf(self, k, u):
        calls.append("SlabValues.cdf")
        return values_cdf(self, k, u)

    monkeypatch.setattr(slabs.PanelTables, "cdf", counting_table_cdf)
    monkeypatch.setattr(slabs.SlabValues, "cdf", counting_values_cdf)
    x = np.array([0.3, -1.2, 4.5, 0.3, 2.0, -1.2, 0.0, 30.0])
    post = fit(x, complexity_prior(8, 0.1), slab, quantiles=True)
    assert calls == []
    for field in ("median", "credible_lo", "credible_hi"):
        assert np.all(np.isfinite(getattr(post, field)))
    post.marginal_cdf(0, 0.5)  # the spies do see a cdf evaluation
    assert "SlabValues.cdf" in calls

def test_laplace_fit_evaluates_log_ndtr_once_per_sign(monkeypatch):
    # psi, zeta/psi, H(0) and the quantile halves of the Laplace slab all
    # come from log Phi(x - a) and log Phi(-x - a), evaluated once per fit;
    # the Laplace branches import log_ndtr from scipy.special when called
    import scipy.special

    sizes = []
    log_ndtr = scipy.special.log_ndtr

    def counting_log_ndtr(z):
        sizes.append(np.size(z))
        return log_ndtr(z)

    monkeypatch.setattr(scipy.special, "log_ndtr", counting_log_ndtr)
    x = np.array([0.3, -1.2, 4.5, 0.3, 2.0, -1.2, 0.0, 30.0])
    post = fit(x, complexity_prior(8, 0.1), laplace_slab(), quantiles=True)
    assert sizes == [8, 8]
    assert np.all(np.isfinite(post.credible_hi))


# -- blocks of fits ---------------------------------------------------------------------


def _point_mass(n, p):
    w = np.full(n + 1, -np.inf)
    w[p] = 0.0
    return custom_prior(n, w)


_BLOCK_PRIORS = {
    "complexity": lambda n: complexity_prior(n, 0.1),
    "betabin": lambda n: betabin_power_prior(n, 0.1),
    "binomial": lambda n: binomial_prior(n, 0.05),
    "poisson": lambda n: poisson_prior(n, 3.0),
    "geometric": lambda n: geometric_prior(n, 0.3),
    "point-mass": lambda n: _point_mass(n, 2),
}

_FIELDS = ("dim_log_pmf", "inclusion_prob", "mean", "median", "credible_lo", "credible_hi")


def _assert_same_posterior(a, b, tol=1e-12):
    assert a.log_partition == pytest.approx(b.log_partition, rel=tol, abs=tol)
    for field in _FIELDS:
        u, v = getattr(a, field), getattr(b, field)
        assert np.array_equal(np.isfinite(u), np.isfinite(v)), field
        fin = np.isfinite(u)
        assert np.all(np.abs(u[fin] - v[fin]) <= tol * np.maximum(1.0, np.abs(v[fin]))), field
        assert np.array_equal(u[~fin], v[~fin]), field


@pytest.mark.parametrize("n", [6, 300])
@pytest.mark.parametrize("prior", sorted(_BLOCK_PRIORS), ids=str)
def test_slab_layer_fit_equals_row_by_row_fit(prior, n):
    rng = np.random.default_rng(53)
    X = rng.normal(scale=2.0, size=(3, n))
    X[0, :3] = [1e4, -1e4, 40.0]
    X[2, -2:] = [-3e3, 7.0]
    dim_prior = _BLOCK_PRIORS[prior](n)
    for post, x in zip(SlabLayer(laplace_slab(), X).fit(dim_prior), X):
        _assert_same_posterior(post, fit(x, dim_prior, laplace_slab()))


def test_slab_layer_fit_takes_one_prior_per_row():
    # coupled and binomial priors mixed in one block, under a table slab
    rng = np.random.default_rng(59)
    n = 7
    X = rng.normal(scale=2.0, size=(4, n))
    priors = [complexity_prior(n, 0.3), binomial_prior(n, 0.2), _point_mass(n, 0),
              poisson_prior(n, 1.0)]
    for post, x, prior in zip(SlabLayer(student_slab(3.0), X).fit(priors), X, priors):
        assert post.dim_prior is prior
        _assert_same_posterior(post, fit(x, prior, student_slab(3.0)))


def test_slab_layer_fit_validation():
    X = np.zeros((2, 4))
    with pytest.raises(ValueError, match="one dimension prior per row"):
        SlabLayer(laplace_slab(), X).fit([complexity_prior(4, 0.1)] * 3)
    with pytest.raises(ValueError, match="n = 4"):
        SlabLayer(laplace_slab(), X).fit(complexity_prior(5, 0.1))
    with pytest.raises(ValueError, match="block"):
        SlabLayer(laplace_slab(), np.zeros(4)).fit(complexity_prior(4, 0.1))
    with pytest.raises(ValueError, match="finite"):
        SlabLayer(laplace_slab(), np.array([[0.0, np.inf]])).fit(complexity_prior(2, 0.1))


def test_slab_layer_eb_weights_match_eb_binomial_weight():
    # one block whose rows have their roots at lo (all nulls), at hi (all
    # large), inside, and with |x| = 1e4; each row's weight is the one-row call's
    rng = np.random.default_rng(61)
    far = rng.normal(size=40)
    far[:6] = [1e4, -1e4, 1e4, 5.0, -1e4, 1e4]
    X = np.vstack([rng.normal(scale=3.0, size=(3, 40)), np.zeros(40), np.full(40, 10.0),
                   rng.normal(size=40) + np.where(np.arange(40) < 8, 4.0, 0.0), far])
    weights = SlabLayer(laplace_slab(), X).eb_binomial_weights()
    assert weights.tolist() == [eb_binomial_weight(x, laplace_slab()) for x in X]
    assert weights[3] == 1.0 / 40 and weights[4] == 1.0 - 1e-6
    assert 1.0 / 40 < weights[5] < 1.0 - 1e-6 and 1.0 / 40 < weights[6] < 1.0 - 1e-6


def _assert_identical_posterior(a, b):
    assert a.log_partition == b.log_partition
    assert a.dim_prior is b.dim_prior
    for field in ("x",) + _FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.mark.parametrize("slab", [laplace_slab(), student_slab(3.0)], ids=["laplace", "student"])
@pytest.mark.parametrize("n", [7, 150])
def test_fit_each_equals_one_fit_per_set(slab, n):
    # coupled and binomial sets, and a set mixing both, share one sweep; each
    # set's posteriors are bit for bit those of its own fit on a fresh layer
    rng = np.random.default_rng(73)
    X = rng.normal(scale=2.0, size=(4, n))
    X[0, :2] = [40.0, -25.0]
    sets = [complexity_prior(n, 0.3),
            [binomial_prior(n, a) for a in (0.2, 0.5, 0.01, 0.9)],
            [complexity_prior(n, 0.3), binomial_prior(n, 0.2), _point_mass(n, 0),
             poisson_prior(n, 1.0)],
            betabin_power_prior(n, 0.1)]
    layer = SlabLayer(slab, X)
    assert layer.fit_each([]) == []
    each = layer.fit_each(sets)
    assert len(each) == len(sets)
    for posts, priors in zip(each, sets):
        for a, b in zip(posts, SlabLayer(slab, X).fit(priors)):
            _assert_identical_posterior(a, b)
    # the medians of every set from one quantile pass
    q = [[post.inclusion_prob for post in posts] for posts in each]
    assert np.array_equal(layer.medians(q), [[post.median for post in posts] for posts in each])


def test_fit_each_of_binomial_sets_reads_the_product(monkeypatch):
    # sets under binomial priors run no inclusion sweep: one product of the
    # factors serves every binomial set of a call
    from spikeslab import posterior

    calls = []
    product = posterior._forward

    def spy_product(log_r):
        calls.append(np.shape(log_r))
        return product(log_r)

    monkeypatch.setattr(posterior, "_forward", spy_product)
    monkeypatch.setattr(posterior, "inclusion_log_numerators", None)
    X = np.random.default_rng(79).normal(scale=2.0, size=(3, 12))
    layer = SlabLayer(laplace_slab(), X)
    layer.fit_each([binomial_prior(12, 0.1), binomial_prior(12, 0.4)], quantiles=False)
    assert calls == [(3, 12)]


def test_fit_each_sweeps_each_coupled_set_over_every_row(monkeypatch):
    # a set that holds a coupled prior is swept over all the rows, even those
    # whose prior is binomial; an all-binomial set joins no sweep, and the
    # sweep's product serves it
    from spikeslab import posterior

    calls = []
    sweep = posterior.inclusion_log_numerators

    def spy_sweep(log_r, log_w):
        calls.append((np.shape(log_r), np.shape(log_w)))
        return sweep(log_r, log_w)

    monkeypatch.setattr(posterior, "inclusion_log_numerators", spy_sweep)
    monkeypatch.setattr(posterior, "_forward", None)
    X = np.random.default_rng(83).normal(scale=2.0, size=(3, 12))
    layer = SlabLayer(laplace_slab(), X)
    coupled = [complexity_prior(12, 0.3), binomial_prior(12, 0.2), poisson_prior(12, 1.0)]
    layer.fit_each([coupled, binomial_prior(12, 0.4)], quantiles=False)
    assert calls == [((3, 12), (3, 1, 13))]


# -- one quantile pass per fit ---------------------------------------------------------


def _two_sided_quantiles(values, q, levels):
    """Medians and credible bounds of the coordinates at inclusion
    probabilities q (cycling over values.x) by the two-sided formulas: both
    median levels, 1/(2q) and (1/2 - (1 - q)) / q, inverted for every
    coordinate, and each bound inverted below or above the atom at zero."""
    k = np.arange(q.size) % values.x.size
    cdf_at_zero = np.take(values.cdf_at_zero, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2q = np.where(q > 0.0, 1.0 / (2.0 * np.maximum(q, 1e-300)), np.inf)
        upper = np.where(q > 0.0, (0.5 - (1.0 - q)) / np.maximum(q, 1e-300), -np.inf)
        median = (np.maximum(values.quantile(k, upper), 0.0)
                  + np.minimum(values.quantile(k, inv2q), 0.0))
        bounds = []
        for level in levels:
            atom_lo = q * np.where(q > 0.0, cdf_at_zero, 0.5)
            below, above = level < atom_lo, level > atom_lo + (1.0 - q)
            tau = np.where(below, level / q, np.where(above, (level - (1.0 - q)) / q, 0.5))
            bounds.append(np.where(below | above, values.quantile(k, tau), 0.0))
    return median, bounds


_SIGNED_X = np.array([-6.0, -3.1, -2.2, -0.7, 0.0, 0.4, 1.1, 2.4, 3.3, 7.5])


@pytest.mark.parametrize("slab", _EVERY_SLAB, ids=str)
def test_one_pass_quantiles_equal_the_two_sided_formulas(slab):
    n = _SIGNED_X.size
    layer = SlabLayer(slab, _SIGNED_X[None])
    r = np.exp(layer.log_r[0])
    # binomial weights that put one coordinate's q at or just above 1/2,
    # a point mass at n (q = 1) and the complexity prior (q <= 1/2 on nulls)
    sets = [complexity_prior(n, 0.1), _point_mass(n, n), binomial_prior(n, 0.3)]
    sets += [binomial_prior(n, 1.0 / (1.0 + r[j]) * (1.0 + 1e-9)) for j in (1, 3, 7)]
    levels = (0.05, 0.9)
    posts = [p[0] for p in layer.fit_each(sets, levels=levels)]
    for post in posts:
        median, (lo, hi) = _two_sided_quantiles(layer.values, post.inclusion_prob, levels)
        assert np.array_equal(post.median, median)
        assert np.array_equal(post.credible_lo, lo)
        assert np.array_equal(post.credible_hi, hi)
        for i in range(n):
            assert post.coordinatewise_median(i) == median[i]
            assert post.marginal_quantile(i, 0.9) == hi[i]
    q = np.concatenate([post.inclusion_prob for post in posts])
    assert np.any(q == 1.0) and np.any(q <= 0.5)
    assert np.any((q > 0.5) & (q < 0.5 + 1e-6))
    medians = np.concatenate([post.median for post in posts])
    assert np.any(medians < 0.0) and np.any(medians > 0.0)
    # any q, including 0, exactly 1/2, the next float above it and 1
    q = np.array([0.0, 0.2, 0.5, np.nextafter(0.5, 1.0), 0.5 + 1e-12, 0.6, 0.8, 0.95,
                  1.0 - 1e-15, 1.0])
    q = np.stack([q, q[::-1]])[:, None]  # two fits of the one-row block
    median, _ = _two_sided_quantiles(layer.values, q.ravel(), ())
    assert np.array_equal(layer.medians(q), median.reshape(q.shape))


def test_median_is_the_quantile_at_one_half_near_q_one_half():
    mp = pytest.importorskip("mpmath")
    from spikeslab.posterior import _marginal_quantiles

    # Laplace(1) at x = 10 has H(0) = 9.3e-20, so a q just above 1/2 puts the
    # median above the atom at the slab level (q - 1/2) / q, which the level
    # formula (1/2 - (1 - q)) / q gives exactly
    layer = SlabLayer(laplace_slab(1.0), np.array([[10.0]]))
    assert layer.values.cdf_at_zero[0, 0] < 1e-19
    for q in (0.5 + 1e-12, 0.5 + 1e-9, 0.5 + 1e-6):
        with mp.workdps(50):
            level = float((mp.mpf(q) - mp.mpf(0.5)) / mp.mpf(q))
        expected = layer.values.quantile(np.array([0]), np.array([level]))
        assert np.array_equal(layer.medians([[q]]), expected[None])
    # Student(3) at x = -1e4 has H(0) exactly 1: a level at the atom's lower
    # edge, level == q H(0), is not below it, so the quantile is 0
    layer = SlabLayer(student_slab(3.0), np.array([[-1e4]]))
    assert layer.values.cdf_at_zero[0, 0] == 1.0
    assert layer.medians([[0.5]])[0, 0] == 0.0
    assert _marginal_quantiles(layer.values, np.array([0.025]), (0.025,))[0, 0] == 0.0


def test_medians_reject_q_of_another_block_shape():
    layer = SlabLayer(laplace_slab(), np.arange(6.0).reshape(2, 3))
    assert layer.medians(np.full((4, 2, 3), 0.7)).shape == (4, 2, 3)
    for shape in [(3, 2), (3,), (6,), (2, 3, 1)]:
        with pytest.raises(ValueError, match="block"):
            layer.medians(np.full(shape, 0.7))


def test_student_fit_makes_one_peak_search_and_one_quantile_pass(monkeypatch):
    from spikeslab import slabs

    calls = []

    def spy(name):
        fn = getattr(slabs, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(slabs, "_windows", spy("_windows"))
    monkeypatch.setattr(slabs, "table_quantiles", spy("table_quantiles"))
    post = fit(_SIGNED_X, complexity_prior(_SIGNED_X.size, 0.1), student_slab(3.0))
    assert sorted(calls) == ["_windows", "table_quantiles"]
    assert np.all(np.isfinite(post.credible_lo)) and np.all(np.isfinite(post.median))


def test_coordinate_accessors_build_one_table(monkeypatch):
    # marginal_cdf, marginal_quantile and coordinatewise_median of one
    # coordinate share its cached slab values: one table for all the calls
    from spikeslab import posterior, slabs

    built = []
    init = slabs.PanelTables.__init__

    def counting_init(self, prior, x):
        built.append(x.tolist())
        init(self, prior, x)

    post = fit(_SIGNED_X, complexity_prior(_SIGNED_X.size, 0.1), exp_power_slab(0.5))
    posterior._coordinate_values.cache_clear()
    monkeypatch.setattr(slabs.PanelTables, "__init__", counting_init)
    v = post.marginal_quantile(8, 0.3)
    for u in (v - 1e-6, v + 1e-6, 0.0, 1.0, -1.0, 5.0):
        post.marginal_cdf(8, u)
    assert post.coordinatewise_median(8) == post.median[8]
    assert built == [[_SIGNED_X[8]]]
    assert posterior._coordinate_values.cache_info().maxsize <= 64


def test_kept_fit_is_two_arrays():
    # the per-coordinate fields are rows of one array, so a fit kept by the
    # caller costs two allocations and one slotted object; fields read the
    # same with and without quantiles, a fit survives pickling, and a field
    # set on a copy changes the copy alone
    import copy
    import pickle

    x = np.array([0.3, -1.2, 4.5, 2.0])
    post = fit(x, complexity_prior(4, 0.1), student_slab(3.0))
    assert not hasattr(post, "__dict__")
    assert post.coords.shape == (6, 4)
    for field in ("x", "inclusion_prob", "mean", "median", "credible_lo", "credible_hi"):
        assert getattr(post, field).base is post.coords, field
    assert np.array_equal(post.x, x)
    bare = fit(x, complexity_prior(4, 0.1), student_slab(3.0), quantiles=False)
    assert bare.coords.shape == (3, 4) and bare.median is None
    assert np.array_equal(bare.mean, post.mean)
    again = pickle.loads(pickle.dumps(post))
    assert np.array_equal(again.coords, post.coords) and again.log_partition == post.log_partition
    moved = copy.copy(post)
    moved.median = post.median + 1.0
    moved.mean[0] = 7.0
    assert np.array_equal(moved.median, post.median + 1.0) and moved.mean[0] == 7.0
    assert np.array_equal(post.coords, again.coords)


@pytest.mark.parametrize("quantiles", [True, False])
def test_fits_is_one_set_of_arrays_of_its_rows(quantiles):
    # a fitted block holds each field as one array with a leading row axis;
    # fits[r] and iteration build row r's Posterior, with copies of its rows
    rng = np.random.default_rng(89)
    X = rng.normal(scale=2.0, size=(3, 8))
    priors = [complexity_prior(8, 0.3), binomial_prior(8, 0.2), betabin_power_prior(8, 0.1)]
    fits = SlabLayer(laplace_slab(), X).fit(priors, quantiles=quantiles)
    assert isinstance(fits, Fits) and not hasattr(fits, "__dict__")
    assert len(fits) == 3 and fits.dim_prior == priors
    assert fits.log_partition.shape == (3,) and fits.dim_log_pmf.shape == (3, 9)
    assert fits.coords.shape == (3, 6 if quantiles else 3, 8)
    assert np.array_equal(fits.x, X)
    rows = list(fits)
    assert len(rows) == 3
    for r, post in enumerate(rows):
        _assert_identical_posterior(post, fits[r])
        assert post.coords.base is None and post.dim_log_pmf.base is None
        assert post.log_partition == fits.log_partition[r]
        assert post.expected_dimension == fits.expected_dimension[r]
        for field in ("x",) + _FIELDS:
            block, row = getattr(fits, field), getattr(post, field)
            assert (block is None and row is None) or np.array_equal(block[r], row), field
