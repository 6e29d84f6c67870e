import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeslab import LossSpec, dq_loss, hard_threshold, hard_threshold_oracle


# -- LossSpec ------------------------------------------------------------------


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(0.0)
    with pytest.raises(ValueError):
        LossSpec(2.5)
    with pytest.raises(ValueError):
        LossSpec(-1.0)
    assert LossSpec(2.0).q == 2.0
    assert LossSpec(0.5).q == 0.5


# -- hard thresholding ------------------------------------------------------------


def test_hard_threshold_pinned():
    out = hard_threshold(np.array([3.0, 0.5]))
    assert np.array_equal(out, [3.0, 0.0])  # threshold sqrt(2 log 2) ~ 1.1774


def test_hard_threshold_zero_vector():
    assert np.array_equal(hard_threshold(np.zeros(10)), np.zeros(10))


def test_hard_threshold_boundary_is_zeroed():
    n = 4
    thr = math.sqrt(2 * math.log(n))
    out = hard_threshold(np.array([thr, -thr, thr + 1e-9, 0.0]))
    assert out[0] == 0.0 and out[1] == 0.0  # strict inequality at the boundary
    assert out[2] == pytest.approx(thr + 1e-9)


def test_hard_threshold_needs_two_entries():
    with pytest.raises(ValueError):
        hard_threshold(np.array([1.0]))


def test_hard_threshold_oracle_pinned():
    x = np.array([2.0, 1.5, -1.9, 0.0, 1.7941])
    n = 5
    out = hard_threshold_oracle(np.concatenate([x, np.zeros(495)]), 100)
    thr = math.sqrt(2 * math.log(5.0))  # n=500, p_n=100
    expected = np.where(np.abs(x) > thr, x, 0.0)
    assert np.array_equal(out[:n], expected)


def test_hard_threshold_oracle_validation():
    with pytest.raises(ValueError):
        hard_threshold_oracle(np.zeros(5), 0)
    with pytest.raises(ValueError):
        hard_threshold_oracle(np.zeros(5), 5)


def test_oracle_threshold_never_larger():
    n = 200
    for p_n in (1, 10, 100, 199):
        assert math.sqrt(2 * math.log(n / p_n)) <= math.sqrt(2 * math.log(n)) + 1e-12


def test_oracle_near_identity_at_dense_sparsity():
    x = np.array([0.5, -0.4, 0.9, 0.3, 0.2, -0.6, 0.35, 0.1, 0.8, -0.25])
    out = hard_threshold_oracle(x, 9)  # threshold sqrt(2 log(10/9)) ~ 0.459
    kept = np.abs(x) > math.sqrt(2 * math.log(10 / 9))
    assert np.array_equal(out, np.where(kept, x, 0.0))
    assert kept.sum() >= 4  # the low threshold keeps a large share of entries


def test_preserves_large_entry():
    x = np.zeros(50)
    x[0] = 5.0
    out = hard_threshold_oracle(x, 10)
    assert np.array_equal(out, x)


# -- d_q loss -----------------------------------------------------------------------


def test_dq_loss_pinned():
    a = np.array([1.0, 2.0])
    b = np.zeros(2)
    assert dq_loss(a, b, LossSpec(1.0)) == pytest.approx(3.0)
    assert dq_loss(a, b, LossSpec(2.0)) == pytest.approx(5.0)
    assert dq_loss(a, a, LossSpec(2.0)) == 0.0


def test_dq_loss_length_mismatch():
    with pytest.raises(ValueError):
        dq_loss(np.zeros(3), np.zeros(4), LossSpec(1.0))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_dq_loss_batched_over_leading_axes(q):
    # one call on an (E, C, n) pair gives the (E, C) losses of its rows, bit
    # for bit those of one call per row
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4, 500))
    b = rng.normal(size=(4, 500))
    spec = LossSpec(q)
    batched = dq_loss(a, np.broadcast_to(b, a.shape), spec)
    assert batched.shape == (3, 4)
    for e, c in np.ndindex(3, 4):
        assert batched[e, c] == dq_loss(a[e, c], b[c], spec)
    assert type(dq_loss(a[0, 0], b[0], spec)) is float
    with pytest.raises(ValueError):
        dq_loss(a, b, spec)  # the truth must be broadcast to the estimates' shape


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    q=st.floats(0.1, 2.0),
)
def test_dq_loss_symmetric_property(a, q):
    a = np.asarray(a)
    b = a[::-1].copy()
    assert dq_loss(a, b, LossSpec(q)) == pytest.approx(
        dq_loss(b, a, LossSpec(q)), rel=1e-12, abs=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(
    triple=st.lists(
        st.tuples(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20)),
        min_size=1,
        max_size=8,
    ),
    q=st.floats(0.1, 1.0),
)
def test_dq_loss_triangle_inequality_for_small_q(triple, q):
    a = np.array([t[0] for t in triple])
    b = np.array([t[1] for t in triple])
    c = np.array([t[2] for t in triple])
    spec = LossSpec(q)
    assert dq_loss(a, c, spec) <= dq_loss(a, b, spec) + dq_loss(b, c, spec) + 1e-9


def test_dq_loss_joint_permutation_invariant():
    rng = np.random.default_rng(3)
    a = rng.normal(size=20)
    b = rng.normal(size=20)
    perm = rng.permutation(20)
    assert dq_loss(a, b, LossSpec(1.3)) == pytest.approx(
        dq_loss(a[perm], b[perm], LossSpec(1.3)), rel=1e-12
    )
