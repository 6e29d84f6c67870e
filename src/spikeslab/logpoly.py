"""Log-domain polynomials with nonnegative coefficients, in batches.

A polynomial is a plain array of log-coefficients, lowest degree first
(-inf encodes an exact zero), so products of linear factors
prod_i (1 + r_i Z) stay representable far beyond the linear domain's
(1e-300, 1e300) window.  Both functions take the factors of one product
per row of a 2-d log_r (product_of_linear_factors also a single product as
a 1-d log_r), and run each step of a sweep as one array operation over all
the rows.  There is one forward recursion (_forward), which both the
product and the inclusion pass run, and one log-add form (_logaddexp).
The inclusion pass also takes the weights of several priors a row: its
stored table, the prefix products, depends on the factors alone, so the
priors share it and only their backward vectors are carried apiece.
All operations combine nonnegative terms only; no subtraction ever
happens, hence no cancellation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "product_of_linear_factors",
    "inclusion_log_numerators",
]

_NEG_INF = -np.inf
# Bytes the stored prefix table may take, n (n + 1) / 2 floats a row
# whatever the number of priors; a larger block is swept in chunks of rows.
_PREFIX_TABLE_BYTES = 64 << 20


def _logaddexp(a, b, out=None):
    """log(e^a + e^b) elementwise, written to out when given:
    m + log1p(exp(-|a - b|)) with m the larger argument, clamped below by m
    so that -inf + -inf, whose difference is NaN, stays -inf.  -|a - b| is
    taken as min(a, b) - m, which rounds to the same value.  The one form
    at every width: seven vectorised elementwise ufuncs, so a row gets the
    same bits in a block as alone.  Callers silence the invalid warning of
    -inf - -inf."""
    m = np.maximum(a, b)
    d = np.minimum(a, b)
    d -= m
    np.exp(d, out=d)
    np.log1p(d, out=d)
    d += m
    return np.fmax(d, m, out=d if out is None else out)


def _validated_log_r(log_r) -> np.ndarray:
    log_r = np.atleast_1d(np.asarray(log_r, dtype=float))
    if np.any(np.isnan(log_r)) or np.any(log_r == np.inf):
        raise ValueError("log_r entries must be finite or -inf")
    return log_r


def _forward(log_r: np.ndarray, prefix: np.ndarray | None = None) -> np.ndarray:
    """prod_i (1 + r_i Z) of every row of log_r, built in place one factor at
    a time.  When prefix is given, the prefix prod_{j < i} (1 + r_j Z), i + 1
    coefficients, is copied into its columns i (i + 1) / 2 .. (i + 1) (i + 2) / 2 - 1
    before factor i is applied."""
    n = log_r.shape[-1]
    c = np.full(log_r.shape[:-1] + (n + 1,), _NEG_INF)
    c[..., 0] = 0.0
    with np.errstate(invalid="ignore"):
        for i in range(n):
            if prefix is not None:
                prefix[..., i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] = c[..., : i + 1]
            # c[..., i + 1] holds -inf until this step
            _logaddexp(c[..., 1 : i + 2], c[..., : i + 1] + log_r[..., i, None],
                       out=c[..., 1 : i + 2])
    return c


def product_of_linear_factors(log_r) -> np.ndarray:
    """prod_i (1 + r_i Z) with r_i = exp(log_r[..., i]), one product per row;
    coefficient p is the p-th elementary symmetric polynomial of the r_i,
    built by one incremental sweep over the factors."""
    return _forward(_validated_log_r(log_r))


def inclusion_log_numerators(log_r, log_w) -> tuple[np.ndarray, np.ndarray]:
    """Product F = prod_i (1 + r_i Z) and the numerators of q_i = d log Z / d log r_i
    under each of P priors, from one sweep over the factors.

    log_r is (R, n) and log_w is (R, P, n + 1), the log weights w of P
    priors for each row, in any memory layout; with Z = sum_p w[p] F[p],
    returns F, (R, n + 1), and log_num, (R, P, n), with
    log_num[i] = log sum_{S not containing i} w[|S| + 1] prod_{j in S} r_j,
    so that q_i = exp(log_r[i] + log_num[i] - log Z).  O(n^2) a row and
    prior: the forward sweep of product_of_linear_factors stores the prefix
    products prod_{j < i} (1 + r_j Z), n (n + 1) / 2 floats a row, which
    depend on log_r alone, and ends at F; a backward sweep carries
    G_i[a] = log sum_b s_i[b] w[a + b + 1] of every prior, s_i being the
    coefficients of prod_{j > i} (1 + r_j Z), and contracts it with the
    stored prefix of each i.  Every step is a log-sum-exp of nonnegative
    terms.  Rows are swept in chunks whose prefix tables fit in
    _PREFIX_TABLE_BYTES.
    """
    log_r = _validated_log_r(log_r)
    log_w = np.ascontiguousarray(log_w, dtype=float)
    R, n = log_r.shape
    if log_w.ndim != 3 or log_w.shape[::2] != (R, n + 1):
        raise ValueError(f"log_w of shape {log_w.shape} does not hold n + 1 = {n + 1} "
                         f"weights for each of the {R} rows")
    chunk = max(1, _PREFIX_TABLE_BYTES // (4 * n * (n + 1)))
    parts = [_sweep(log_r[k : k + chunk], log_w[k : k + chunk]) for k in range(0, R, chunk)]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _sweep(log_r: np.ndarray, log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """inclusion_log_numerators of an (R, n) log_r and a C-contiguous
    (R, P, n + 1) log_w."""
    R, n = log_r.shape
    prefix = np.empty((R, n * (n + 1) // 2))
    F = _forward(log_r, prefix)
    with np.errstate(invalid="ignore"):
        # num[i] = log sum_a e^{t[a]} with t = prefix_i + G_i, kept as the
        # largest t and the sum scaled by it, one (R, P) slab a step; the
        # logs are taken at the end
        top = np.empty((n,) + log_w.shape[:2] + (1,))
        scaled = np.empty(top.shape)
        g = log_w[..., 1:]  # G_{n-1}: n entries a prior, one per prefix coefficient
        prefix = prefix[:, None]  # broadcast over priors
        lr = log_r.T[:, :, None, None]  # lr[i]: the i-th factor of every row and prior
        for i in range(n - 1, -1, -1):
            t = prefix[..., i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] + g
            top[i] = t.max(axis=-1, keepdims=True)
            t -= top[i]
            np.exp(t, out=t)
            scaled[i] = t.sum(axis=-1, keepdims=True)
            if i:
                g = _logaddexp(g[..., :i], lr[i] + g[..., 1:])
        # a row of t that is all -inf has top -inf and a NaN sum
        log_num = np.where(top > _NEG_INF, top + np.log(scaled), _NEG_INF)
    return F, np.moveaxis(log_num[..., 0], 0, -1)
