"""Log-domain polynomials with nonnegative coefficients, in batches.

A polynomial is a plain array of log-coefficients, lowest degree first
(-inf encodes an exact zero).  Each factor 1 + r_i Z is taken in the
normalised form (1 - s_i) + s_i Z, s_i = r_i / (1 + r_i), so the product
F' and each of its prefixes is a Poisson-binomial pmf (Chen and Liu, 1997),
whose coefficients lie in [0, 1] however large |log r_i| is; the constant
prod_i (1 + r_i) is left to the caller's log partition function.

The factors of a row are taken in nb blocks of B = ceil(sqrt(n)), the last
padded with identity factors (log r = -inf), and every recursion runs over
all the blocks of all the rows at once.  The forward pass (_forward) has two
levels: one factor a step within the blocks (_factor_forward, one log-add
form _logaddexp), then one block a step across them (_block_forward), each
step a (B + 1)-term log-sum-exp over a window.  The inclusion pass (_sweep)
keeps the prefixes of both levels, about n sqrt(n) floats a row, and runs
the two levels back.  The priors of a row share those tables, which depend
on the factors alone; only their backward vectors are carried apiece.
Every step combines nonnegative terms, so nothing cancels.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["inclusion_log_numerators"]

# Bytes a sweep may hold, _row_bytes a row; a larger block is swept in
# chunks of rows.
_SWEEP_BYTES = 64 << 20

# the shift of an all -inf log-sum-exp, so that it stays -inf and not NaN
_FLOOR = -np.finfo(float).max


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
    """log sum_k e^a[..., k], with a left as it is.  Plain numpy, as scipy's
    logsumexp costs 50 us a call."""
    with np.errstate(divide="ignore"):
        return _logsumexp_into(np.array(a, dtype=float))


def _logsumexp_into(t: np.ndarray, axis=-1) -> np.ndarray:
    """_logsumexp of a temporary t, computed in t, which it overwrites: the
    terms are shifted by their largest, clamped below at _FLOOR, so that a
    sum of -inf terms stays -inf.  Callers silence the divide warning of
    its log 0."""
    m = t.max(axis=axis, keepdims=True)
    np.maximum(m, _FLOOR, out=m)
    t -= m
    np.exp(t, out=t)
    s = t.sum(axis=axis, keepdims=True)
    np.log(s, out=s)
    s += m
    return s.squeeze(axis)


def _shifts(a: np.ndarray, k: int, length: int) -> np.ndarray:
    """a[..., e : e + length] for e = 0..k - 1 as one read-only
    (..., k, length) view of a, without a copy."""
    if a.shape[-1] < k + length - 1:
        raise ValueError(f"{k} shifts of {length} entries overrun an axis of {a.shape[-1]}")
    step = a.strides[-1]
    return as_strided(a, a.shape[:-1] + (k, length), a.strides[:-1] + (step, step),
                      writeable=False)


def _block_shape(n: int) -> tuple[int, int]:
    """B = ceil(sqrt(n)) factors a block and the nb = ceil(n / B) blocks."""
    B = math.isqrt(max(n - 1, 0)) + 1
    return B, -(-n // B)


def _blocks(log_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 - s_i) and log s_i of the factors of every row of log_r, padded
    with identity factors to nb blocks of B: each of shape (..., nb, B)."""
    n = log_r.shape[-1]
    B, nb = _block_shape(n)
    padded = np.full(log_r.shape[:-1] + (nb * B,), -np.inf)
    padded[..., :n] = log_r
    padded = padded.reshape(log_r.shape[:-1] + (nb, B))
    return log_expit(-padded), log_expit(padded)


def _factor_forward(kept, shifted, prefix: np.ndarray | None = None) -> np.ndarray:
    """prod_i (e^kept_i + e^shifted_i Z) over the last axis, built in place
    one factor at a time.  When prefix is given, the prefix prod_{j < i},
    i + 1 coefficients, is copied into its columns
    i (i + 1) / 2 .. (i + 1) (i + 2) / 2 - 1 before factor i is applied."""
    n = kept.shape[-1]
    # column 0 is a -inf sentinel: one log-add a step also scales column 1
    c = np.full(kept.shape[:-1] + (n + 2,), -np.inf)
    c[..., 1] = 0.0
    with np.errstate(invalid="ignore"):
        for i in range(n):
            if prefix is not None:
                prefix[..., i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] = c[..., 1 : i + 2]
            # c[..., i + 2] holds -inf until this step
            _logaddexp(c[..., 1 : i + 3] + kept[..., i, None],
                       c[..., : i + 2] + shifted[..., i, None], out=c[..., 1 : i + 3])
    return c[..., 1:]


def _block_forward(P: np.ndarray, f: list | None = None) -> np.ndarray:
    """The product of the block products P, (..., nb, B + 1), one block a
    step: f_{b+1}[a] = log sum_j e^{f_b[a - j] + P_b[j]}, j = 0..B, from
    f_0 = [0].  Returns f_nb; f_0 .. f_{nb - 1} are appended to f when
    given, b B + 1 coefficients each."""
    nb, B = P.shape[-2], P.shape[-1] - 1
    # f_b between B -inf entries on either side, so that column a of its
    # B + 1 shifts holds f_b[a - B .. a], against P_b reversed
    padded = np.full(P.shape[:-2] + (nb * B + 1 + 2 * B,), -np.inf)
    c = np.zeros(P.shape[:-2] + (1,))
    with np.errstate(divide="ignore"):
        for b in range(nb):
            if f is not None:
                f.append(c)
            padded[..., B : B + b * B + 1] = c
            c = _logsumexp_into(_shifts(padded, B + 1, (b + 1) * B + 1) + P[..., b, ::-1, None],
                                axis=-2)
    return c


def _forward(log_r: np.ndarray) -> np.ndarray:
    """F' = prod_i ((1 - s_i) + s_i Z) of every row of log_r: the product of
    each block's factors, then of the blocks.  Rows are taken in the chunks
    of a one-prior sweep, whose forward windows are the product's."""
    n = log_r.shape[-1]
    rows = log_r.reshape(-1, n)
    F = [_block_forward(_factor_forward(*_blocks(rows[k]))) for k in _row_chunks(len(rows), n, 1)]
    return np.concatenate(F)[:, : n + 1].reshape(log_r.shape[:-1] + (n + 1,))


def _row_bytes(n: int, priors: int) -> int:
    """Bytes a row of a sweep of n factors under the given number of priors
    holds: the prefixes within the blocks, n sqrt(n) / 2 floats, those across
    them, as many, and one window of B + 1 shifts of a backward vector,
    about n sqrt(n) floats, for each prior."""
    B, nb = _block_shape(n)
    tables = nb * B * (B + 1) // 2 + nb * (nb - 1) // 2 * B + nb
    return 8 * (tables + priors * (B + 1) * (nb * B + 1))


def _row_chunks(R: int, n: int, priors: int) -> list[slice]:
    """Consecutive slices of R rows, each of as many rows as fit in
    _SWEEP_BYTES at _row_bytes(n, priors) a row, and at least one."""
    step = max(1, _SWEEP_BYTES // _row_bytes(n, priors))
    return [slice(k, k + step) for k in range(0, R, step)]


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
    O(n^2) time a row and prior and O(n sqrt(n)) memory a row (_sweep).
    Rows are swept in chunks that fit in _SWEEP_BYTES.
    """
    log_r = np.asarray(log_r, dtype=float)
    if np.any(np.isnan(log_r)) or np.any(log_r == np.inf):
        raise ValueError("log_r entries must be finite or -inf")
    log_w = np.ascontiguousarray(log_w, dtype=float)
    R, n = log_r.shape
    if log_w.ndim != 3 or log_w.shape[::2] != (R, n + 1):
        raise ValueError(f"log_w of shape {log_w.shape} does not hold n + 1 = {n + 1} "
                         f"weights for each of the {R} rows")
    parts = [_sweep(log_r[k], log_w[k]) for k in _row_chunks(R, n, log_w.shape[1])]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _sweep(log_r: np.ndarray, log_w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """inclusion_log_numerators of an (R, n) log_r and a C-contiguous
    (R, P, n + 1) log_w.

    The forward pass keeps the prefixes within each block b and the
    products f_b of the blocks before it.  The backward pass starts at
    h_nb = w / Z' and steps back a block at a time: h_b[m] = log sum_e
    e^{P_b[e] + h_{b+1}[m + e]} weighs the blocks from b on, and
    M_b[e] = log sum_m e^{f_b[m] + h_{b+1}[m + e]}, e = 0..B, is the weight
    of degree e within block b given everything outside it.  Each block is
    then swept back one factor at a time under its weights M_b
    (_factor_backward)."""
    R, n = log_r.shape
    kept, shifted = _blocks(log_r)
    nb, B = kept.shape[-2:]
    prefix = np.empty((R, nb, B * (B + 1) // 2))
    P = _factor_forward(kept, shifted, prefix)
    f = []
    F = _block_forward(P, f)[:, : n + 1]
    M = np.empty(log_w.shape[:2] + (nb, B + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_Z = _logsumexp_into(log_w + F[:, None])
        h = np.full(log_w.shape[:2] + (nb * B + 1,), -np.inf)
        h[..., : n + 1] = log_w - log_Z[..., None]
        for b in range(nb - 1, -1, -1):
            # H[e, m] = h_{b+1}[m + e], e = 0..B, m = 0..bB
            H = _shifts(h, B + 1, b * B + 1)
            M[:, :, b] = _logsumexp_into(H + f[b][:, None, None])
            if b:
                h = _logsumexp_into(H + P[:, None, b, :, None], axis=-2)
        # broadcast the tables over the priors
        num = _factor_backward(prefix[:, None], kept[:, None], shifted[:, None], M[..., 1:])
    return F, log_Z, num.reshape(log_w.shape[:2] + (nb * B,))[..., :n]


def _factor_backward(prefix, kept, shifted, g) -> np.ndarray:
    """The numerators num[..., i] = log sum_a e^{prefix_i[a] + G_i[a]} of
    the factors of a block, prefix_i being the prefix table of
    _factor_forward and G_i[a] the weight of degree a + 1 summed over the
    factors after i: G_{B-1} = g, the weights of degrees 1..B, and
    G_{i-1}[a] = log(e^{kept_i + G_i[a]} + e^{shifted_i + G_i[a + 1]}).
    Callers silence the warnings of -inf - -inf and log 0."""
    B = g.shape[-1]
    num = np.empty(g.shape)
    for i in range(B - 1, -1, -1):
        num[..., i] = _logsumexp_into(prefix[..., i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] + g)
        if i:
            g = _logaddexp(g[..., :i] + kept[..., i, None], g[..., 1:] + shifted[..., i, None])
    return num
