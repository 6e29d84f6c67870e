"""Log-domain polynomials with nonnegative coefficients, in batches.

A polynomial is a plain array of log-coefficients, lowest degree first
(-inf encodes an exact zero).  Each factor 1 + r_i Z is taken in the
normalised form (1 - s_i) + s_i Z, s_i = r_i / (1 + r_i), so the product
F' and each of its prefixes is a Poisson-binomial pmf (Chen and Liu, 1997),
whose coefficients lie in [0, 1] however large |log r_i| is; the constant
prod_i (1 + r_i) is left to the caller's log partition function.

The factors of a row are taken in nb blocks of B = ceil(sqrt(n)), the last
padded with identity factors (log r = -inf).  One step, _product, multiplies
polynomials of degree D one at a time, and its transpose, _weights, steps
back to the weight on each degree of every polynomial given the others.
Each runs at two levels, over all the blocks of all the rows at once: the
factors, of degree 1, make the block products, and these, of degree B, make
F' (_forward).  The inclusion pass (_sweep) keeps the partial products of
both levels, about n sqrt(n) floats a row, which the priors of a row share.
Every step combines nonnegative terms, so nothing cancels.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["inclusion_log_numerators"]

# Bytes a sweep may hold, _row_bytes a row; a larger block is swept in
# chunks of rows.
_SWEEP_BYTES = 64 << 20

# the shift of an all -inf log-sum-exp, so that it stays -inf and not NaN
_FLOOR = -np.finfo(float).max


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
    m = np.maximum.reduce(t, axis=axis, keepdims=True)
    np.maximum(m, _FLOOR, out=m)
    t -= m
    np.exp(t, out=t)
    s = np.add.reduce(t, axis=axis, keepdims=True)
    np.log(s, out=s)
    s += m
    return s.squeeze(axis)


def _shifts(a: np.ndarray, k: int, length: int) -> np.ndarray:
    """a[..., e : e + length] for e = 0..k - 1 as one read-only
    (k, ..., length) view of a contiguous a, built by the ndarray constructor
    in a quarter of the time of as_strided.  The shift axis leads, so that a
    log-sum-exp over it runs along whole rows."""
    if a.shape[-1] < k + length - 1:
        raise ValueError(f"{k} shifts of {length} entries overrun an axis of {a.shape[-1]}")
    view = np.ndarray((k,) + a.shape[:-1] + (length,), a.dtype, a,
                      strides=a.strides[-1:] + a.strides)
    view.flags.writeable = False
    return view


def _block_shape(n: int) -> tuple[int, int]:
    """B = ceil(sqrt(n)) factors a block and the nb = ceil(n / B) blocks."""
    B = math.isqrt(max(n - 1, 0)) + 1
    return B, -(-n // B)


def _factors(log_r: np.ndarray) -> np.ndarray:
    """The factors (1 - s_i) + s_i Z of every row of log_r as polynomials
    (log(1 - s_i), log s_i), padded with identity factors to nb blocks of B:
    shape (..., nb, B, 2)."""
    n = log_r.shape[-1]
    B, nb = _block_shape(n)
    padded = np.full(log_r.shape[:-1] + (nb * B,), -np.inf)
    padded[..., :n] = log_r
    padded = padded.reshape(log_r.shape[:-1] + (nb, B, 1))
    return log_expit(np.concatenate([-padded, padded], axis=-1))


def _product(P: np.ndarray, f: list | None = None) -> np.ndarray:
    """The product of the polynomials P, (..., K, D + 1), one a step:
    c_{k+1}[a] = log sum_j e^{c_k[a - j] + P_k[j]}, j = 0..D, from c_0 = [0].
    Returns c_K; c_0 .. c_{K-1} are appended to f when given, k D + 1
    coefficients each."""
    K, D = P.shape[-2], P.shape[-1] - 1
    # c_k between D -inf entries on either side, so that column a of its
    # D + 1 shifts holds c_k[a - D .. a], against P_k reversed
    padded = np.full(P.shape[:-2] + (K * D + 1 + 2 * D,), -np.inf)
    # P reversed, its degree axis first to meet the shift axis, copied so
    # that the sums with the windows come out in C order
    reversed_P = np.ascontiguousarray(np.rollaxis(P[..., ::-1], -1))[..., None]
    c = np.zeros(P.shape[:-2] + (1,))
    with np.errstate(divide="ignore"):
        for k in range(K):
            if f is not None:
                f.append(c)
            padded[..., D : D + k * D + 1] = c
            c = _logsumexp_into(_shifts(padded, D + 1, (k + 1) * D + 1) + reversed_P[..., k, :],
                                axis=0)
    return c


def _weights(P: np.ndarray, f: list, h: np.ndarray) -> np.ndarray:
    """The transpose of _product(P, f): from h_K, a weight on each degree of
    the product c_K, step back h_k[m] = log sum_e e^{P_k[e] + h_{k+1}[m + e]},
    e = 0..D, the weight on degree m of c_k given P_k .. P_{K-1}.  Returns
    M, (..., K, D + 1), M_k[e] = log sum_m e^{c_k[m] + h_{k+1}[m + e]}, the
    weight on degree e of P_k given the other polynomials.  M_k[0] is left
    -inf, as no M_k[e], e >= 1, depends on a degree-0 weight.  P and f
    broadcast against h.  Callers silence the warnings of -inf - -inf and
    log 0."""
    K, D = P.shape[-2], P.shape[-1] - 1
    M = np.full(h.shape[:-1] + (K, D + 1), -np.inf)
    # the degree axis first, as in _product
    M_e, P_e = np.rollaxis(M, -1), np.ascontiguousarray(np.rollaxis(P, -1))[..., None]
    for k in range(K - 1, -1, -1):
        # H[e, ..., m] = h_{k+1}[m + e], e = 0..D, m = 0..kD
        H = _shifts(h, D + 1, k * D + 1)
        M_e[1:, ..., k] = _logsumexp_into(H[1:] + f[k])
        if k:
            h = _logsumexp_into(H + P_e[..., k, :], axis=0)
    return M


def _forward(log_r: np.ndarray) -> np.ndarray:
    """F' = prod_i ((1 - s_i) + s_i Z) of every row of log_r: the product of
    each block's factors, then of the blocks.  Rows are taken in the chunks
    of a one-prior sweep, whose forward windows are the product's."""
    n = log_r.shape[-1]
    rows = log_r.reshape(-1, n)
    F = [_product(_product(_factors(rows[k]))) for k in _row_chunks(len(rows), n, 1)]
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

    The forward pass keeps the prefixes c_i within each block and the
    products f_b of the blocks before each block.  The transpose starts from
    the weights w / Z' on the degrees of F' and gives M_b[e], the weight on
    degree e of block b given the other blocks; from M_b it gives the weight
    on degree 1 of each factor given the others, the numerator of q_i."""
    n = log_r.shape[-1]
    factors, prefix, f = _factors(log_r), [], []
    blocks = _product(factors, prefix)
    F = _product(blocks, f)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_Z = _logsumexp_into(log_w + F[:, None, : n + 1])
        h = np.full(log_w.shape[:2] + F.shape[-1:], -np.inf)
        h[..., : n + 1] = log_w - log_Z[..., None]
        # the tables broadcast over the priors
        M = _weights(blocks[:, None], [c[:, None] for c in f], h)
        num = _weights(factors[:, None], [c[:, None] for c in prefix], M)[..., 1]
    return F[:, : n + 1], log_Z, num.reshape(log_w.shape[:2] + (-1,))[..., :n]
