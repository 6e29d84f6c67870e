"""Log-domain polynomials with nonnegative coefficients, in batches.

A polynomial is a plain array of log-coefficients, lowest degree first
(-inf encodes an exact zero).  Each factor 1 + r_i Z is taken in the
normalised form (1 - s_i) + s_i Z, s_i = r_i / (1 + r_i), so the product
F' and each of its prefixes is a Poisson-binomial pmf (Chen and Liu, 1997),
whose coefficients lie in [0, 1] however large |log r_i| is; the constant
prod_i (1 + r_i) is left to the caller's log partition function.  One
forward recursion (_forward) builds the product and the inclusion pass's
prefix table with one log-add form (_logaddexp), each step one array
operation over the rows of a 2-d log_r.  The priors of a row share that
table, which depends on the factors alone; only their backward vectors are
carried apiece.  Every step combines nonnegative terms, so nothing cancels.
"""

from __future__ import annotations

import numpy as np

__all__ = ["inclusion_log_numerators"]

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


def log_expit(x):
    """log(1 / (1 + e^-x)) elementwise, as -logaddexp(0, -x): the formula of
    scipy.special.log_expit on either sign, with no scipy import."""
    return -np.logaddexp(0.0, -x)


def _logsumexp(a) -> np.ndarray:
    """log sum_k e^a[..., k], shifted by each row's largest entry (by 0 where
    that is infinite); plain numpy, as scipy's logsumexp costs 50 us a call."""
    m = np.max(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - m), axis=-1)) + m[..., 0]


def _forward(log_r: np.ndarray, prefix: np.ndarray | None = None) -> np.ndarray:
    """F' = prod_i ((1 - s_i) + s_i Z) of every row of log_r, built in place
    one factor at a time.  When prefix is given, the normalised prefix
    prod_{j < i}, i + 1 coefficients, is copied into its columns
    i (i + 1) / 2 .. (i + 1) (i + 2) / 2 - 1 before factor i is applied."""
    n = log_r.shape[-1]
    kept, shifted = log_expit(-log_r), log_expit(log_r)  # log(1 - s), log s
    # column 0 is a -inf sentinel: one log-add a step also scales column 1
    c = np.full(log_r.shape[:-1] + (n + 2,), -np.inf)
    c[..., 1] = 0.0
    with np.errstate(invalid="ignore"):
        for i in range(n):
            if prefix is not None:
                prefix[..., i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] = c[..., 1 : i + 2]
            # c[..., i + 2] holds -inf until this step
            _logaddexp(c[..., 1 : i + 3] + kept[..., i, None],
                       c[..., : i + 2] + shifted[..., i, None], out=c[..., 1 : i + 3])
    return c[..., 1:]


def inclusion_log_numerators(log_r, log_w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised product F' = prod_i ((1 - s_i) + s_i Z), s_i = r_i / (1 + r_i),
    and, under each of P priors, log Z' and the centred numerators of
    q_i = d log Z / d log r_i, from one sweep over the factors.

    log_r is (R, n) and log_w is (R, P, n + 1), the log weights w of P
    priors for each row, in any memory layout.  Returns F', (R, n + 1);
    log Z', (R, P), with Z' = sum_p w[p] F'[p]; and log_num, (R, P, n), with
    q_i = exp(log s_i + log_num[i]).  With L = sum_j log1p(r_j), F' + L is
    prod_i (1 + r_i Z), log Z' + L is log Z, and log_num[i] + log Z' + L -
    log1p(r_i) is log sum_{S not containing i} w[|S| + 1] prod_{j in S} r_j.
    O(n^2) a row and prior: the forward sweep stores the normalised prefix
    products, n (n + 1) / 2 floats a row, and ends at F'; a backward sweep,
    started at w / Z', carries G_i[a] = log sum_b t_i[b] w[a + b + 1] / Z'
    of every prior, t_i being the normalised prod_{j > i}, and contracts it
    with the stored prefix of each i.  Rows are swept in chunks whose prefix
    tables fit in _PREFIX_TABLE_BYTES.
    """
    log_r = np.asarray(log_r, dtype=float)
    if np.any(np.isnan(log_r)) or np.any(log_r == np.inf):
        raise ValueError("log_r entries must be finite or -inf")
    log_w = np.ascontiguousarray(log_w, dtype=float)
    R, n = log_r.shape
    if log_w.ndim != 3 or log_w.shape[::2] != (R, n + 1):
        raise ValueError(f"log_w of shape {log_w.shape} does not hold n + 1 = {n + 1} "
                         f"weights for each of the {R} rows")
    chunk = max(1, _PREFIX_TABLE_BYTES // (4 * n * (n + 1)))
    parts = [_sweep(log_r[k : k + chunk], log_w[k : k + chunk]) for k in range(0, R, chunk)]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _sweep(log_r: np.ndarray, log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """inclusion_log_numerators of an (R, n) log_r and a C-contiguous
    (R, P, n + 1) log_w."""
    R, n = log_r.shape
    prefix = np.empty((R, n * (n + 1) // 2))
    F = _forward(log_r, prefix)
    log_Z = _logsumexp(log_w + F[:, None])
    with np.errstate(invalid="ignore"):
        # num[i] = log sum_a e^{t[a]} with t = prefix_i + G_i, kept as the
        # largest t and the sum scaled by it, one (R, P) slab a step; the
        # logs are taken at the end
        top = np.empty((n,) + log_w.shape[:2] + (1,))
        scaled = np.empty(top.shape)
        # G_{n-1}: n entries a prior, one per prefix coefficient
        g = log_w[..., 1:] - log_Z[..., None]
        prefix = prefix[:, None]  # broadcast over priors
        # the i-th factor of every row and prior, kept and shifted branch
        kept = log_expit(-log_r).T[:, :, None, None]
        shifted = log_expit(log_r).T[:, :, None, None]
        for i in range(n - 1, -1, -1):
            t = prefix[..., i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] + g
            top[i] = t.max(axis=-1, keepdims=True)
            t -= top[i]
            np.exp(t, out=t)
            scaled[i] = t.sum(axis=-1, keepdims=True)
            if i:
                g = _logaddexp(g[..., :i] + kept[i], g[..., 1:] + shifted[i])
        # a row of t that is all -inf has top -inf and a NaN sum
        log_num = np.where(top > -np.inf, top + np.log(scaled), -np.inf)
    return F, log_Z, np.moveaxis(log_num[..., 0], 0, -1)
