import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from spikeslab import (
    betabin_power_prior,
    binomial_prior,
    complexity_prior,
    custom_prior,
    geometric_prior,
    poisson_prior,
)
from spikeslab.dimension import DimensionFamily, DimensionPrior


def pmf(prior):
    return np.exp(prior.log_pmf)


# -- constructor validation ---------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError):
        complexity_prior(0, 0.1)
    with pytest.raises(ValueError):
        complexity_prior(10, 0.0)
    with pytest.raises(ValueError):
        complexity_prior(10, 0.1, b=0.0)
    with pytest.raises(ValueError):
        betabin_power_prior(10, -1.0)
    with pytest.raises(ValueError):
        binomial_prior(10, 0.0)
    with pytest.raises(ValueError):
        binomial_prior(10, 1.0)
    with pytest.raises(ValueError):
        poisson_prior(10, 0.0)
    with pytest.raises(ValueError):
        geometric_prior(10, 1.0)
    # a size below 1 is named before any array is built
    for make, args in [(binomial_prior, (-1, 0.5)), (poisson_prior, (-2, 1.0)),
                       (geometric_prior, (-2, 0.5)), (custom_prior, (-1, [])),
                       (binomial_prior, (0, 0.5)), (betabin_power_prior, (0, 1.0))]:
        with pytest.raises(ValueError, match="n must be at least 1"):
            make(*args)


def test_unnormalized_log_pmf_rejected():
    with pytest.raises(ValueError):
        DimensionPrior(2, np.log([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        DimensionPrior(2, np.array([0.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        DimensionPrior(2, np.array([0.0, np.nan, 0.0]))


# -- pinned pmf values ---------------------------------------------------------


def test_complexity_prior_small_case():
    # n=3, kappa=1, b=3: weights (1, 1/9, 1/4.5^2, 1/27)
    raw = np.array([1.0, 1.0 / 9.0, 1.0 / 4.5**2, 1.0 / 27.0])
    expected = raw / raw.sum()
    assert np.allclose(pmf(complexity_prior(3, 1.0, 3.0)), expected, rtol=1e-12)


def test_complexity_prior_flat_limit():
    assert np.allclose(pmf(complexity_prior(1, 1e-12, 3.0)), [0.5, 0.5], atol=1e-9)


def test_complexity_prior_strictly_decreasing_pmf():
    # each step multiplies by e^{-kappa (p log(bn/p) - (p-1) log(bn/(p-1)))};
    # the exponent increment shrinks with p, so the successive ratios increase
    # toward 1 while the pmf itself stays strictly decreasing
    prior = complexity_prior(100, 0.1, 3.0)
    ratios = np.diff(prior.log_pmf)  # log pi(p) - log pi(p-1)
    assert np.all(ratios < 0)
    assert np.all(np.diff(ratios) > 0)


def test_betabin_power_small_cases():
    assert np.allclose(pmf(betabin_power_prior(2, 1.0)), [0.6, 0.3, 0.1], rtol=1e-12)
    assert np.allclose(pmf(betabin_power_prior(1, 1.0)), [2 / 3, 1 / 3], rtol=1e-12)


def test_betabin_power_ratio_identity():
    n = 40
    prior = betabin_power_prior(n, 1.0)
    p = np.arange(1, n + 1)
    expected = (n - p + 1) / (2 * n - p + 1)
    assert np.allclose(np.exp(np.diff(prior.log_pmf)), expected, rtol=1e-10)
    assert np.all(expected <= 0.5)


def test_binomial_prior_values():
    assert np.allclose(pmf(binomial_prior(2, 0.5)), [0.25, 0.5, 0.25], rtol=1e-12)


def test_binomial_prior_mean():
    prior = binomial_prior(500, 25 / 500)
    mean = float(np.sum(np.arange(501) * pmf(prior)))
    assert mean == pytest.approx(25.0, abs=1e-9)


def test_poisson_prior_values():
    assert np.allclose(pmf(poisson_prior(2, 1.0)), [0.4, 0.4, 0.2], rtol=1e-12)


def test_geometric_prior_values():
    assert np.allclose(pmf(geometric_prior(2, 0.5)), [4 / 7, 2 / 7, 1 / 7], rtol=1e-12)


def test_poisson_small_rate_concentrates_at_zero():
    prior = poisson_prior(5, 1e-8)
    assert pmf(prior)[0] == pytest.approx(1.0, abs=1e-7)


def test_custom_prior_allows_zero_mass():
    prior = custom_prior(3, [-np.inf, 0.0, 0.0, -np.inf])
    assert np.allclose(pmf(prior), [0.0, 0.5, 0.5, 0.0])


# -- normalization and decrease audits -----------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 13, 20])
def test_all_constructors_normalized(n):
    priors = [
        complexity_prior(n, 0.1),
        complexity_prior(n, 1.3, 4.0),
        betabin_power_prior(n, 0.1),
        betabin_power_prior(n, 1.0),
        binomial_prior(n, 0.3),
        poisson_prior(n, 1.7),
        geometric_prior(n, 0.4),
    ]
    for prior in priors:
        assert pmf(prior).sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf(prior) > 0)


def test_exponential_decrease_audit():
    # complexity prior with b > 1 + e and the betabin power prior at kappa=1
    # must satisfy pi(p) <= D pi(p-1) for some D < 1
    for prior in (complexity_prior(200, 1.0, 4.0), betabin_power_prior(200, 1.0)):
        ratios = np.exp(np.diff(prior.log_pmf))
        assert ratios.max() < 1.0


# -- per-model weights ----------------------------------------------------------


def test_log_model_weights_p0_is_log_pmf0():
    prior = complexity_prior(10, 0.1)
    assert prior.log_model_weights()[0] == pytest.approx(prior.log_pmf[0], abs=1e-12)


def test_binomial_cancellation_identity():
    n = 500
    alpha = 0.07
    prior = binomial_prior(n, alpha)
    weights = prior.log_model_weights()
    rng = np.random.default_rng(7)
    for p in rng.integers(0, n + 1, size=20):
        expected = p * math.log(alpha) + (n - p) * math.log1p(-alpha)
        assert weights[p] == pytest.approx(expected, abs=1e-12)


def test_log_model_weights_finite_at_large_n():
    prior = complexity_prior(500, 0.1)
    w = prior.log_model_weights()
    assert np.all(np.isfinite(w))


# -- property tests ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 30),
    kappa=st.floats(0.01, 3.0),
    b=st.floats(1.0, 10.0),
)
def test_complexity_prior_normalized_property(n, kappa, b):
    prior = complexity_prior(n, kappa, b)
    assert abs(logsumexp(prior.log_pmf)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 30), alpha=st.floats(0.01, 0.99))
def test_binomial_prior_family_tag_property(n, alpha):
    prior = binomial_prior(n, alpha)
    assert prior.family is DimensionFamily.BINOMIAL
    assert abs(logsumexp(prior.log_pmf)) < 1e-10
