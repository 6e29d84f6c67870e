import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from spikeslab import logpoly
from spikeslab.logpoly import inclusion_log_numerators


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


def unnormalised_product(log_r) -> np.ndarray:
    """prod_i (1 + r_i Z): the normalised product prod_i ((1 - s_i) + s_i Z)
    with the normaliser prod_i (1 + r_i) added back, as minus its constant
    coefficient log prod_i (1 - s_i)."""
    F = logpoly._forward(np.asarray(log_r, dtype=float))
    return F - F[..., :1]


def uncentred_numerators(log_r, log_w):
    """The numerators of inclusion_log_numerators with the normalisers added
    back: log sum_{S not containing i} w[|S| + 1] prod_{j in S} r_j."""
    _, log_Z, num = inclusion_log_numerators(log_r, log_w)
    log1p_r = np.logaddexp(0.0, log_r)[:, None]
    return num + log_Z[..., None] + np.sum(log1p_r, axis=-1, keepdims=True) - log1p_r


# -- product of linear factors -----------------------------------------------------


def test_product_pinned_small():
    out = unnormalised_product(np.log([2.0, 1.0 / 3.0]))
    assert np.allclose(np.exp(out), [1.0, 7.0 / 3.0, 2.0 / 3.0], rtol=1e-12)


def test_product_binomial_expansion():
    out = unnormalised_product(np.zeros(3))
    assert np.allclose(np.exp(out), [1.0, 3.0, 3.0, 1.0], rtol=1e-12)


def test_product_matches_subset_enumeration():
    rng = np.random.default_rng(5)
    r = rng.uniform(0.05, 4.0, size=12)
    out = unnormalised_product(np.log(r))
    expected = elementary_symmetric(r)
    assert np.allclose(out, np.log(expected), atol=1e-12)


def test_product_rejects_plus_inf():
    with pytest.raises(ValueError):
        inclusion_log_numerators(np.array([[0.0, np.inf]]), np.zeros((1, 1, 3)))


def test_product_eval_at_one_identity():
    # sum_p e_p(r) = prod_i (1 + r_i), checked entirely on the log scale
    rng = np.random.default_rng(17)
    log_r = rng.normal(scale=4.0, size=500)
    poly = unnormalised_product(log_r)
    assert logsumexp(poly) == pytest.approx(
        float(np.sum(np.logaddexp(0.0, log_r))), abs=1e-12 * 500
    )


def test_product_permutation_invariance():
    rng = np.random.default_rng(23)
    log_r = rng.normal(size=40)
    a = unnormalised_product(log_r)
    b = unnormalised_product(log_r[::-1])
    assert np.allclose(a, b, atol=1e-12)


def test_product_monotone_in_each_factor():
    rng = np.random.default_rng(29)
    log_r = rng.normal(size=10)
    base = unnormalised_product(log_r)
    bumped = log_r.copy()
    bumped[4] += 0.3
    out = unnormalised_product(bumped)
    assert np.all(out[1:] > base[1:])
    assert out[0] == base[0] == 0.0


def test_product_survives_extreme_magnitudes():
    # the linear-domain coefficients here overflow 1e300 by a wide margin
    log_r = np.full(2000, 5.0)
    poly = unnormalised_product(log_r)
    assert np.all(np.isfinite(poly))
    assert poly[2000] == pytest.approx(10000.0, abs=1e-9)


def test_normalised_product_is_a_pmf_at_extreme_ratios():
    # the Poisson-binomial pmf of s_i = r_i / (1 + r_i): no coefficient above
    # 1, total 1 and mean sum_i s_i, with |log r_i| up to about 3e6
    rng = np.random.default_rng(19)
    log_r = np.concatenate([rng.normal(scale=1e6, size=300), rng.normal(scale=3.0, size=20)])
    F = logpoly._forward(log_r)
    assert np.all(F <= 0.0)
    assert logsumexp(F) == pytest.approx(0.0, abs=1e-12)
    s = np.exp(-np.logaddexp(0.0, -log_r))
    assert np.sum(np.arange(F.size) * np.exp(F)) == pytest.approx(np.sum(s), abs=1e-10)


# -- forward-backward pass ------------------------------------------------------------


def test_inclusion_pass_product_is_the_schoolbook_product():
    rng = np.random.default_rng(31)
    log_r = rng.normal(scale=4.0, size=300)
    log_r[7] = -np.inf
    F, _, _ = inclusion_log_numerators(log_r[None], rng.normal(size=(1, 1, 301)))
    assert np.array_equal(F[0], logpoly._forward(log_r))


def test_inclusion_numerators_match_subset_oracle():
    # num[i] = log sum over subsets S without i of w[|S| + 1] prod_{j in S} r_j
    rng = np.random.default_rng(37)
    r = rng.uniform(0.1, 3.0, size=9)
    w = rng.uniform(0.1, 2.0, size=10)
    num = uncentred_numerators(np.log(r)[None], np.log(w)[None, None])
    num = num[0, 0]
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
    num = uncentred_numerators(np.log(r)[None], w[None, None])
    assert np.allclose(np.exp(num[0, 0]), [5.0, 4.0, 3.0], rtol=1e-12)


def test_inclusion_pass_rejects_misshapen_weights():
    # one row of weights a prior: (R, P, n + 1), whatever P
    log_r = np.zeros((2, 3))
    for shape in [(2, 4), (2, 1, 3), (1, 1, 4)]:
        with pytest.raises(ValueError, match="does not hold"):
            inclusion_log_numerators(log_r, np.zeros(shape))


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(-20, 20), min_size=2, max_size=10),
)
def test_eval_at_one_equals_sum_of_logaddexp_property(data):
    log_r = np.asarray(data)
    poly = unnormalised_product(log_r)
    expected = float(np.sum(np.logaddexp(0.0, log_r)))
    assert logsumexp(poly) == pytest.approx(expected, abs=1e-9)


# -- batches and the log-sum-exp kernel -----------------------------------------------


def _ulps(a, b):
    """|a - b| in units of the last place of the larger magnitude; 0 where
    a and b are equal, infinities included."""
    same = a == b
    a, b = np.where(same, 1.0, a), np.where(same, 1.0, b)
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


@pytest.mark.parametrize("axis", [0, -1])
@pytest.mark.parametrize("width", [2, 3, 24])
def test_logsumexp_into_matches_scipy(width, axis):
    # the one log-sum-exp of both product levels, over the leading shift axis
    # and along a row: an all -inf window stays -inf, a lone finite term
    # comes back exactly, and the rest agrees with scipy to a few ulp
    rng = np.random.default_rng(41)
    t = rng.normal(scale=50.0, size=(40, width))
    t[1:] += rng.normal(scale=50.0, size=(39, 1))
    t[0] = -np.inf
    t[1, 1:] = -np.inf
    t[2, 1:] = t[2, 0]
    t[3, 0], t[3, 1:] = 1e300, -1e300
    want = logsumexp(t, axis=1)
    lone = t[1, 0]
    if axis == 0:
        t = np.ascontiguousarray(t.T)
    with np.errstate(divide="ignore"):
        got = logpoly._logsumexp_into(t, axis=axis)
    assert got.shape == (40,)
    assert got[0] == -np.inf
    assert got[1] == lone and got[3] == 1e300
    assert np.max(_ulps(got, want)) <= 8.0


def test_shifts_are_views_of_every_offset():
    # the windows of the product steps, the shift axis leading:
    # shifts[e, ...] is a[..., e : e + length]
    a = np.arange(12.0).reshape(2, 6)
    shifts = logpoly._shifts(a, 3, 4)
    assert shifts.shape == (3, 2, 4)
    assert np.array_equal(shifts, [a[:, e : e + 4] for e in range(3)])
    assert np.shares_memory(shifts, a) and not shifts.flags.writeable
    with pytest.raises(ValueError, match="overrun"):
        logpoly._shifts(a, 3, 5)
    with pytest.raises(ValueError, match="not contiguous"):
        logpoly._shifts(a[:, ::2], 2, 2)


@pytest.mark.parametrize("n", [5, 300])
def test_batched_sweeps_equal_row_by_row(n):
    # each row of a batch gets the answer it gets alone, bit for bit, and the
    # sweep's product is the product's
    rng = np.random.default_rng(43)
    log_r = rng.normal(scale=6.0, size=(4, n))
    log_r[1, 2] = -np.inf
    log_w = rng.normal(size=(4, n + 1))
    log_w[2, 3:] = -np.inf
    log_w = log_w[:, None]  # one prior
    F, log_Z, num = inclusion_log_numerators(log_r, log_w)
    prod = logpoly._forward(log_r)
    for r in range(4):
        F_r, log_Z_r, num_r = inclusion_log_numerators(log_r[r : r + 1], log_w[r : r + 1])
        assert np.array_equal(F[r], F_r[0]) and np.array_equal(num[r], num_r[0])
        assert np.array_equal(log_Z[r], log_Z_r[0])
        assert np.array_equal(prod[r], logpoly._forward(log_r[r]))
    assert np.array_equal(F, prod)


def test_row_chunks_are_bit_identical(monkeypatch):
    rng = np.random.default_rng(47)
    n = 300
    log_r = rng.normal(scale=6.0, size=(5, n))
    log_w = rng.normal(size=(5, n + 1))[:, None]
    whole = inclusion_log_numerators(log_r, log_w)
    # room for two rows: chunks of 2, 2 and 1
    monkeypatch.setattr(logpoly, "_SWEEP_BYTES", 2 * logpoly._row_bytes(n, 1))
    chunks = []
    sweep = logpoly._sweep

    def spy_sweep(log_r, log_w):
        chunks.append(len(log_r))
        return sweep(log_r, log_w)

    monkeypatch.setattr(logpoly, "_sweep", spy_sweep)
    chunked = inclusion_log_numerators(log_r, log_w)
    assert chunks == [2, 2, 1] and len(chunked) == len(whole) == 3
    for a, b in zip(whole, chunked):
        assert np.array_equal(a, b)
    # the product takes its rows in chunks of the same budget
    product_chunks = []
    factors = logpoly._factors

    def spy_factors(log_r):
        product_chunks.append(len(log_r))
        return factors(log_r)

    monkeypatch.setattr(logpoly, "_factors", spy_factors)
    assert np.array_equal(logpoly._forward(log_r), whole[0])
    assert product_chunks == [2, 2, 1]


def test_sweep_is_independent_of_the_weights_layout():
    # a transposed view of the weights, as fit_each passes them, gives the
    # bits of a C-contiguous copy
    rng = np.random.default_rng(53)
    n = 200
    log_r = rng.normal(scale=6.0, size=(5, n))
    by_prior = rng.normal(size=(2, 5, n + 1))
    view = by_prior.transpose(1, 0, 2)
    assert not view.flags.c_contiguous
    for a, b in zip(inclusion_log_numerators(log_r, view),
                    inclusion_log_numerators(log_r, np.ascontiguousarray(view))):
        assert np.array_equal(a, b)


# -- one sweep for several priors ---------------------------------------------------


@pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
@pytest.mark.parametrize("P", [2, 3])
@pytest.mark.parametrize("n", [5, 300])
def test_shared_sweep_equals_one_sweep_per_prior(monkeypatch, n, P, chunked):
    # the prefix products are shared by the priors; each prior's numerators
    # are bit for bit those of its own sweep
    rng = np.random.default_rng(67)
    log_r = rng.normal(scale=6.0, size=(4, n))
    log_r[1, 2] = -np.inf
    log_w = rng.normal(size=(4, P, n + 1))
    log_w[2, 1, 3:] = -np.inf
    log_w[3, P - 1, :] = -np.inf
    log_w[3, P - 1, 2] = 0.0  # all mass on dimension 2
    alone = [inclusion_log_numerators(log_r, log_w[:, p : p + 1]) for p in range(P)]
    if chunked:  # one row a chunk
        monkeypatch.setattr(logpoly, "_SWEEP_BYTES", logpoly._row_bytes(n, P))
    F, log_Z, num = inclusion_log_numerators(log_r, log_w)
    assert num.shape == (4, P, n) and log_Z.shape == (4, P)
    for p, (F_p, log_Z_p, num_p) in enumerate(alone):
        assert np.array_equal(F, F_p)
        assert np.array_equal(log_Z[:, p], log_Z_p[:, 0])
        assert np.array_equal(num[:, p], num_p[:, 0])
    # one row alone, with its row of weights a prior
    F_0, log_Z_0, num_0 = inclusion_log_numerators(log_r[1:2], log_w[1:2])
    assert np.array_equal(F_0[0], F[1]) and np.array_equal(num_0[0], num[1])
    assert np.array_equal(log_Z_0[0], log_Z[1])


def _sweep_peak(R, n, P):
    """Traced peak bytes of a sweep of R rows of n factors under P priors."""
    rng = np.random.default_rng(71)
    log_r, log_w = rng.normal(scale=3.0, size=(R, n)), rng.normal(size=(R, P, n + 1))
    tracemalloc.start()
    try:
        inclusion_log_numerators(log_r, log_w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_peak_is_a_fraction_of_a_full_prefix_table():
    # a table of every prefix would take n (n + 1) / 2 floats a row, 48 MB
    # here; the blocked sweep keeps about n sqrt(n) floats a row and one
    # window of B + 1 shifts of each prior's backward vector in flight
    R, n = 3, 2000
    assert _sweep_peak(R, n, 2) < 8 * R * n * (n + 1) // 2 / 4


def test_sweep_peak_grows_as_n_to_the_three_halves():
    # four times the factors: at most 4^1.5 = 8 times the memory, with some
    # room for the rounding of B = ceil(sqrt(n)); n^2 growth would give 16
    assert _sweep_peak(3, 1600, 2) <= 10 * _sweep_peak(3, 400, 2)
