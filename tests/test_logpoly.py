import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeslab import LogPoly, product_of_linear_factors
from spikeslab.logpoly import inclusion_log_numerators


def coeffs(poly: LogPoly) -> np.ndarray:
    return np.exp(poly.log_coeffs)


def elementary_symmetric(r: np.ndarray) -> np.ndarray:
    """e_p by explicit subset enumeration (oracle)."""
    n = r.size
    out = np.zeros(n + 1)
    out[0] = 1.0
    for p in range(1, n + 1):
        out[p] = sum(
            math.prod(r[list(S)]) for S in itertools.combinations(range(n), p)
        )
    return out


# -- LogPoly container ---------------------------------------------------------


def test_logpoly_validation():
    with pytest.raises(ValueError):
        LogPoly(np.array([]))
    with pytest.raises(ValueError):
        LogPoly(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        LogPoly(np.array([0.0, np.inf]))
    assert LogPoly(np.array([0.0, -np.inf])).degree == 1


def test_logpoly_one():
    one = LogPoly.one()
    assert one.degree == 0
    assert one.log_eval_at_one() == 0.0


# -- product of linear factors -----------------------------------------------------


def test_product_pinned_small():
    out = product_of_linear_factors(np.log([2.0, 1.0 / 3.0]))
    assert np.allclose(coeffs(out), [1.0, 7.0 / 3.0, 2.0 / 3.0], rtol=1e-12)


def test_product_binomial_expansion():
    out = product_of_linear_factors(np.zeros(3))
    assert np.allclose(coeffs(out), [1.0, 3.0, 3.0, 1.0], rtol=1e-12)


def test_product_matches_subset_enumeration():
    rng = np.random.default_rng(5)
    r = rng.uniform(0.05, 4.0, size=12)
    out = product_of_linear_factors(np.log(r))
    expected = elementary_symmetric(r)
    assert np.allclose(out.log_coeffs, np.log(expected), atol=1e-12)


def test_product_rejects_plus_inf():
    with pytest.raises(ValueError):
        product_of_linear_factors(np.array([0.0, np.inf]))


def test_product_eval_at_one_identity():
    # sum_p e_p(r) = prod_i (1 + r_i), checked entirely on the log scale
    rng = np.random.default_rng(17)
    log_r = rng.normal(scale=4.0, size=500)
    poly = product_of_linear_factors(log_r)
    assert poly.log_eval_at_one() == pytest.approx(
        float(np.sum(np.logaddexp(0.0, log_r))), abs=1e-12 * 500
    )


def test_product_permutation_invariance():
    rng = np.random.default_rng(23)
    log_r = rng.normal(size=40)
    a = product_of_linear_factors(log_r)
    b = product_of_linear_factors(log_r[::-1])
    assert np.allclose(a.log_coeffs, b.log_coeffs, atol=1e-12)


def test_product_monotone_in_each_factor():
    rng = np.random.default_rng(29)
    log_r = rng.normal(size=10)
    base = product_of_linear_factors(log_r).log_coeffs
    bumped = log_r.copy()
    bumped[4] += 0.3
    out = product_of_linear_factors(bumped).log_coeffs
    assert np.all(out[1:] > base[1:])
    assert out[0] == base[0] == 0.0


def test_product_survives_extreme_magnitudes():
    # the linear-domain coefficients here overflow 1e300 by a wide margin
    log_r = np.full(2000, 5.0)
    poly = product_of_linear_factors(log_r)
    assert np.all(np.isfinite(poly.log_coeffs))
    assert poly.log_coeffs[2000] == pytest.approx(10000.0, abs=1e-9)


# -- forward-backward pass ------------------------------------------------------------


def test_inclusion_pass_product_is_the_schoolbook_product():
    rng = np.random.default_rng(31)
    log_r = rng.normal(scale=4.0, size=300)
    log_r[7] = -np.inf
    F, _ = inclusion_log_numerators(log_r, rng.normal(size=301))
    assert np.array_equal(F.log_coeffs, product_of_linear_factors(log_r).log_coeffs)


def test_inclusion_numerators_match_subset_oracle():
    # num[i] = log sum over subsets S without i of w[|S| + 1] prod_{j in S} r_j
    rng = np.random.default_rng(37)
    r = rng.uniform(0.1, 3.0, size=9)
    w = rng.uniform(0.1, 2.0, size=10)
    _, num = inclusion_log_numerators(np.log(r), np.log(w))
    for i in range(9):
        rest = [j for j in range(9) if j != i]
        brute = sum(
            w[len(S) + 1] * math.prod(r[list(S)])
            for p in range(9)
            for S in itertools.combinations(rest, p)
        )
        assert num[i] == pytest.approx(math.log(brute), abs=1e-12)


def test_inclusion_numerators_with_zero_weights():
    # w vanishes off p = 2, so num[i] = log sum_{j != i} r_j
    r = np.array([1.0, 2.0, 3.0])
    w = np.array([-np.inf, -np.inf, 0.0, -np.inf])
    _, num = inclusion_log_numerators(np.log(r), w)
    assert np.allclose(np.exp(num), [5.0, 4.0, 3.0], rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(-20, 20), min_size=2, max_size=10),
)
def test_eval_at_one_equals_sum_of_logaddexp_property(data):
    log_r = np.asarray(data)
    poly = product_of_linear_factors(log_r)
    expected = float(np.sum(np.logaddexp(0.0, log_r)))
    assert poly.log_eval_at_one() == pytest.approx(expected, abs=1e-9)
