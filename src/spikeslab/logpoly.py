"""Log-domain polynomials with nonnegative coefficients.

Coefficients are stored as logs (-inf encodes an exact zero), so products of
linear factors prod_i (1 + r_i Z) stay representable far beyond the linear
domain's (1e-300, 1e300) window.  All operations combine nonnegative terms
only; no subtraction ever happens, hence no cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "LogPoly",
    "logsumexp_convolve",
    "product_of_linear_factors",
    "leave_one_out_table",
    "weighted_coeff_sum",
]

_NEG_INF = -np.inf


@dataclass(frozen=True)
class LogPoly:
    """Polynomial with nonnegative coefficients, stored as log-values."""

    log_coeffs: np.ndarray

    def __post_init__(self):
        lc = np.atleast_1d(np.asarray(self.log_coeffs, dtype=float))
        if lc.ndim != 1 or lc.size == 0:
            raise ValueError("log_coeffs must be a nonempty 1-d array")
        if np.any(np.isnan(lc)) or np.any(lc == np.inf):
            raise ValueError("log_coeffs entries must be finite or -inf")
        object.__setattr__(self, "log_coeffs", lc)

    @property
    def degree(self) -> int:
        return self.log_coeffs.size - 1

    @classmethod
    def one(cls) -> "LogPoly":
        return cls(np.zeros(1))

    def log_eval_at_one(self) -> float:
        """log P(1) = log of the sum of all coefficients."""
        return float(logsumexp(self.log_coeffs))


def logsumexp_convolve(a: LogPoly, b: LogPoly) -> LogPoly:
    """Product of two nonnegative polynomials on the log scale."""
    ac, bc = a.log_coeffs, b.log_coeffs
    if bc.size > ac.size:
        ac, bc = bc, ac
    p, q = ac.size, bc.size
    rows = np.full((q, p + q - 1), _NEG_INF)
    for j in range(q):
        rows[j, j : j + p] = bc[j] + ac
    return LogPoly(logsumexp(rows, axis=0))


def _schoolbook(log_r: np.ndarray) -> np.ndarray:
    c = np.zeros(1)
    for lr in log_r:
        nxt = np.full(c.size + 1, _NEG_INF)
        nxt[:-1] = c
        nxt[1:] = np.logaddexp(nxt[1:], c + lr)
        c = nxt
    return c


def _product_tree(log_r: np.ndarray) -> LogPoly:
    if log_r.size <= 32:
        return LogPoly(_schoolbook(log_r))
    mid = log_r.size // 2
    return logsumexp_convolve(_product_tree(log_r[:mid]), _product_tree(log_r[mid:]))


def product_of_linear_factors(log_r, strategy: str = "schoolbook") -> LogPoly:
    """prod_i (1 + r_i Z) with r_i = exp(log_r[i]); coefficient p is the
    p-th elementary symmetric polynomial of the r_i.

    strategy "schoolbook" multiplies the factors in one incremental sweep;
    "divide-and-conquer" uses a balanced product tree (same asymptotic cost
    with log-sum-exp merges, different reduction order).
    """
    log_r = np.atleast_1d(np.asarray(log_r, dtype=float))
    if np.any(np.isnan(log_r)) or np.any(log_r == np.inf):
        raise ValueError("log_r entries must be finite or -inf")
    if strategy == "schoolbook":
        return LogPoly(_schoolbook(log_r))
    if strategy == "divide-and-conquer":
        return _product_tree(log_r)
    raise ValueError(f"unknown strategy {strategy!r}")


def leave_one_out_table(log_r):
    """Prefix and suffix partial products of the linear factors.

    Returns (prefix, suffix), each a list of n + 1 LogPoly values with
    prefix[i] = prod_{j < i} (1 + r_j Z) and suffix[i] = prod_{j >= i}.
    The leave-one-out polynomial for coordinate i is
    prefix[i] * suffix[i + 1], formed by log-sum-exp convolution only.
    """
    log_r = np.atleast_1d(np.asarray(log_r, dtype=float))
    n = log_r.size
    prefix = [LogPoly.one()]
    for i in range(n):
        prefix.append(LogPoly(_schoolbook_step(prefix[-1].log_coeffs, log_r[i])))
    suffix = [None] * (n + 1)
    suffix[n] = LogPoly.one()
    for i in range(n - 1, -1, -1):
        suffix[i] = LogPoly(_schoolbook_step(suffix[i + 1].log_coeffs, log_r[i]))
    return prefix, suffix


def _schoolbook_step(c: np.ndarray, lr: float) -> np.ndarray:
    nxt = np.full(c.size + 1, _NEG_INF)
    nxt[:-1] = c
    nxt[1:] = np.logaddexp(nxt[1:], c + lr)
    return nxt


def weighted_coeff_sum(poly: LogPoly, log_w) -> float:
    """log sum_p exp(log_w[p] + log_coeffs[p])."""
    log_w = np.asarray(log_w, dtype=float)
    if log_w.shape != poly.log_coeffs.shape:
        raise ValueError("weight vector length must match the coefficient count")
    return float(logsumexp(poly.log_coeffs + log_w))

