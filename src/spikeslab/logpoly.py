"""Log-domain polynomials with nonnegative coefficients, in batches.

A polynomial is a plain array of log-coefficients, lowest degree first
(-inf encodes an exact zero), so products of linear factors
prod_i (1 + r_i Z) stay representable far beyond the linear domain's
(1e-300, 1e300) window.  Every function takes the factors of one product
per row of a 2-d log_r, or of a single product as a 1-d log_r, and runs
each step of its sweep as one array operation over all the rows.  All
operations combine nonnegative terms only; no subtraction ever happens,
hence no cancellation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "product_of_linear_factors",
    "inclusion_log_numerators",
]

_NEG_INF = -np.inf
# Row width from which _logaddexp takes the composite form.  np.logaddexp
# is a scalar libm loop of 17-35 ns an element; the composite's seven
# vectorised ufuncs take 1-2 ns an element each but about 0.6 us a call
# more, so it wins from about 300 elements: on a 2-core AVX-512 Xeon with
# numpy 2.4 it is 0.6x as fast at one row of 128 and 2.2x at one of 1024,
# and 2.8x at nine rows of 128.  The choice goes by the width of a row
# alone, so a row's result does not depend on how many rows share its
# sweep.  At 128 a study-table replication (nine rows, n = 500) took
# 104 ms, against 120 ms at 256 and 156 ms with np.logaddexp alone; a
# single fit at n = 500 took 12.5, 12.7 and 15.8 ms.
_LOGADDEXP_MIN_WIDTH = 128
# Bytes the backward sweep's G table may take, n (n + 1) / 2 floats a row;
# a larger block is swept in chunks of rows.
_G_TABLE_BYTES = 64 << 20


def _logaddexp(a, b):
    """log(e^a + e^b) elementwise: m + log1p(exp(-|a - b|)) with m the
    larger argument, clamped below by m so that -inf + -inf, whose
    difference is NaN, stays -inf.  -|a - b| is taken as min(a, b) - m,
    which rounds to the same value.  Rows narrower than
    _LOGADDEXP_MIN_WIDTH go to np.logaddexp.  Callers silence the invalid
    warning of -inf - -inf."""
    if np.shape(a)[-1] < _LOGADDEXP_MIN_WIDTH:
        return np.logaddexp(a, b)
    m = np.maximum(a, b)
    d = np.minimum(a, b)
    d -= m
    np.exp(d, out=d)
    np.log1p(d, out=d)
    d += m
    return np.fmax(d, m, out=d)


def _validated_log_r(log_r) -> np.ndarray:
    log_r = np.atleast_1d(np.asarray(log_r, dtype=float))
    if np.any(np.isnan(log_r)) or np.any(log_r == np.inf):
        raise ValueError("log_r entries must be finite or -inf")
    return log_r


def _schoolbook_step(c: np.ndarray, i: int, lr: np.ndarray):
    """Multiply the polynomials c[..., :i + 1] by (1 + e^lr Z) in place;
    c[..., i + 1] must hold -inf.  lr has one entry per row."""
    c[..., 1 : i + 2] = _logaddexp(c[..., 1 : i + 2], c[..., : i + 1] + lr[..., None])


def _empty_products(log_r: np.ndarray) -> np.ndarray:
    """The constant polynomial 1, with room for degree n, for every row."""
    c = np.full(log_r.shape[:-1] + (log_r.shape[-1] + 1,), _NEG_INF)
    c[..., 0] = 0.0
    return c


def product_of_linear_factors(log_r) -> np.ndarray:
    """prod_i (1 + r_i Z) with r_i = exp(log_r[..., i]), one product per row;
    coefficient p is the p-th elementary symmetric polynomial of the r_i,
    built by one incremental sweep over the factors."""
    log_r = _validated_log_r(log_r)
    c = _empty_products(log_r)
    with np.errstate(invalid="ignore"):
        for i in range(log_r.shape[-1]):
            _schoolbook_step(c, i, log_r[..., i])
    return c


def inclusion_log_numerators(log_r, log_w) -> tuple[np.ndarray, np.ndarray]:
    """Product F = prod_i (1 + r_i Z) and the numerators of q_i = d log Z / d log r_i.

    With Z = sum_p w[p] F[p] (log_w has n + 1 entries a row), returns F and
    num[i] = log sum_{S not containing i} w[|S| + 1] prod_{j in S} r_j, so
    that q_i = exp(log_r[i] + num[i] - log Z); both with the rows of log_r.
    O(n^2) a row: a backward sweep builds G[i][a] = log sum_b s_i[b] w[a + b + 1],
    s_i being the coefficients of prod_{j > i} (1 + r_j Z); a forward sweep
    contracts G[i] with the prefix product prod_{j < i}, whose last value
    is F.  Every step is a log-sum-exp of nonnegative terms.  Rows are swept
    in chunks whose G tables fit in _G_TABLE_BYTES.
    """
    log_r = _validated_log_r(log_r)
    log_w = np.asarray(log_w, dtype=float)
    if log_r.ndim == 1:
        F, num = inclusion_log_numerators(log_r[None], log_w[None])
        return F[0], num[0]
    n = log_r.shape[1]
    rows = max(1, _G_TABLE_BYTES // (4 * n * (n + 1)))
    if log_r.shape[0] > rows:
        parts = [inclusion_log_numerators(log_r[k : k + rows], log_w[k : k + rows])
                 for k in range(0, log_r.shape[0], rows)]
        return (np.concatenate([F for F, _ in parts]),
                np.concatenate([num for _, num in parts]))
    with np.errstate(invalid="ignore"):
        G = [log_w[:, 1:]]
        for i in range(n - 1, 0, -1):
            g = G[-1]
            G.append(_logaddexp(g[:, :i], log_r[:, i, None] + g[:, 1:]))
        G.reverse()  # G[i] has i + 1 entries a row, one per prefix coefficient
        # num[i] = log sum_a e^{t[a]} with t = prefix + G[i], kept as the
        # largest t and the sum scaled by it; the logs are taken at the end
        top = np.empty(log_r.shape)
        scaled = np.empty(log_r.shape)
        pref = _empty_products(log_r)
        for i in range(n):
            t = pref[:, : i + 1] + G[i]
            top[:, i] = t.max(axis=1)
            t -= top[:, i, None]
            np.exp(t, out=t)
            scaled[:, i] = t.sum(axis=1)
            _schoolbook_step(pref, i, log_r[:, i])
        # a row of t that is all -inf has top -inf and a NaN sum
        log_num = np.where(top > _NEG_INF, top + np.log(scaled), _NEG_INF)
    return pref, log_num
