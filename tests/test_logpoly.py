import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from spikeslab import (
    LogPoly,
    leave_one_out_table,
    logsumexp_convolve,
    product_of_linear_factors,
    weighted_coeff_sum,
)


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


# -- convolution -----------------------------------------------------------------


def test_convolve_pinned():
    a = LogPoly(np.log([1.0, 2.0]))
    b = LogPoly(np.log([3.0, 1.0]))
    assert np.allclose(coeffs(logsumexp_convolve(a, b)), [3.0, 7.0, 2.0], rtol=1e-12)


def test_convolve_identity():
    a = LogPoly(np.log([0.4, 1.1, 2.5]))
    out = logsumexp_convolve(a, LogPoly.one())
    assert np.allclose(out.log_coeffs, a.log_coeffs, atol=1e-12)


def test_convolve_matches_linear_domain():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.1, 2.0, size=7)
    b = rng.uniform(0.1, 2.0, size=7)
    out = logsumexp_convolve(LogPoly(np.log(a)), LogPoly(np.log(b)))
    assert np.allclose(coeffs(out), np.convolve(a, b), rtol=1e-12)


def test_convolve_with_zero_coefficients():
    a = LogPoly(np.array([0.0, -np.inf, 0.0]))  # 1 + Z^2
    out = logsumexp_convolve(a, a)  # (1 + Z^2)^2 = 1 + 2Z^2 + Z^4
    assert np.allclose(coeffs(out), [1.0, 0.0, 2.0, 0.0, 1.0], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
    b=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
)
def test_convolve_commutative_property(a, b):
    pa = LogPoly(np.log(np.asarray(a)))
    pb = LogPoly(np.log(np.asarray(b)))
    left = logsumexp_convolve(pa, pb).log_coeffs
    right = logsumexp_convolve(pb, pa).log_coeffs
    assert np.allclose(left, right, atol=1e-12)


def test_convolve_associative():
    rng = np.random.default_rng(3)
    ps = [LogPoly(np.log(rng.uniform(0.1, 3.0, size=k))) for k in (3, 4, 5)]
    left = logsumexp_convolve(logsumexp_convolve(ps[0], ps[1]), ps[2])
    right = logsumexp_convolve(ps[0], logsumexp_convolve(ps[1], ps[2]))
    assert np.allclose(left.log_coeffs, right.log_coeffs, atol=1e-12)


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


def test_product_strategies_agree():
    rng = np.random.default_rng(11)
    log_r = rng.normal(scale=6.0, size=500)
    a = product_of_linear_factors(log_r, "schoolbook")
    b = product_of_linear_factors(log_r, "divide-and-conquer")
    assert np.allclose(a.log_coeffs, b.log_coeffs, atol=1e-10)


def test_product_unknown_strategy():
    with pytest.raises(ValueError):
        product_of_linear_factors(np.zeros(3), "fft")


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


# -- leave-one-out ------------------------------------------------------------------


def test_leave_one_out_two_factors():
    prefix, suffix = leave_one_out_table(np.log([1.0, 1.0]))
    g0 = logsumexp_convolve(prefix[0], suffix[1])
    assert np.allclose(coeffs(g0), [1.0, 1.0], rtol=1e-12)


def test_leave_one_out_pinned():
    # F = (1+Z)(1+2Z)(1+3Z); dropping the middle factor leaves (1+Z)(1+3Z)
    prefix, suffix = leave_one_out_table(np.log([1.0, 2.0, 3.0]))
    g1 = logsumexp_convolve(prefix[1], suffix[2])
    assert np.allclose(coeffs(g1), [1.0, 4.0, 3.0], rtol=1e-12)


def test_leave_one_out_reconstruction():
    rng = np.random.default_rng(31)
    log_r = rng.normal(size=10)
    full = product_of_linear_factors(log_r).log_coeffs
    prefix, suffix = leave_one_out_table(log_r)
    for i in range(10):
        g_i = logsumexp_convolve(prefix[i], suffix[i + 1])
        rebuilt = logsumexp_convolve(
            g_i, product_of_linear_factors(log_r[i : i + 1])
        ).log_coeffs
        assert np.allclose(rebuilt, full, atol=1e-11)


# -- weighted contractions ------------------------------------------------------------


def test_weighted_coeff_sum_pinned():
    poly = LogPoly(np.log([1.0, 1.0, 1.0]))
    assert weighted_coeff_sum(poly, np.log([1.0, 1.0, 1.0])) == pytest.approx(
        math.log(3.0), abs=1e-12
    )


def test_weighted_coeff_sum_selector():
    poly = LogPoly(np.log([2.0, 5.0, 11.0]))
    w = np.full(3, -np.inf)
    w[1] = 0.0
    assert weighted_coeff_sum(poly, w) == pytest.approx(math.log(5.0), abs=1e-12)


def test_weighted_coeff_sum_length_mismatch():
    with pytest.raises(ValueError):
        weighted_coeff_sum(LogPoly(np.zeros(3)), np.zeros(2))


def test_weighted_coeff_sum_matches_subset_oracle():
    rng = np.random.default_rng(37)
    r = rng.uniform(0.1, 3.0, size=12)
    w = rng.uniform(0.1, 2.0, size=13)
    poly = product_of_linear_factors(np.log(r))
    got = weighted_coeff_sum(poly, np.log(w))
    brute = sum(
        w[len(S)] * math.prod(r[list(S)])
        for p in range(13)
        for S in itertools.combinations(range(12), p)
    )
    assert got == pytest.approx(math.log(brute), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(-20, 20), min_size=2, max_size=10),
)
def test_eval_at_one_equals_sum_of_logaddexp_property(data):
    log_r = np.asarray(data)
    poly = product_of_linear_factors(log_r)
    expected = float(np.sum(np.logaddexp(0.0, log_r)))
    assert poly.log_eval_at_one() == pytest.approx(expected, abs=1e-9)
