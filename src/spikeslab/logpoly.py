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
    "product_of_linear_factors",
    "inclusion_log_numerators",
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


def _validated_log_r(log_r) -> np.ndarray:
    log_r = np.atleast_1d(np.asarray(log_r, dtype=float))
    if np.any(np.isnan(log_r)) or np.any(log_r == np.inf):
        raise ValueError("log_r entries must be finite or -inf")
    return log_r


def _schoolbook_step(c: np.ndarray, lr: float) -> np.ndarray:
    """Coefficients of (1 + e^lr Z) times the polynomial with log-coefficients c."""
    nxt = np.full(c.size + 1, _NEG_INF)
    nxt[:-1] = c
    nxt[1:] = np.logaddexp(nxt[1:], c + lr)
    return nxt


def product_of_linear_factors(log_r) -> LogPoly:
    """prod_i (1 + r_i Z) with r_i = exp(log_r[i]); coefficient p is the
    p-th elementary symmetric polynomial of the r_i, built by one
    incremental sweep over the factors."""
    c = np.zeros(1)
    for lr in _validated_log_r(log_r):
        c = _schoolbook_step(c, lr)
    return LogPoly(c)


def inclusion_log_numerators(log_r, log_w) -> tuple[LogPoly, np.ndarray]:
    """Product F = prod_i (1 + r_i Z) and the numerators of q_i = d log Z / d log r_i.

    With Z = sum_p w[p] F[p] (log_w has n + 1 entries), returns F and
    num[i] = log sum_{S not containing i} w[|S| + 1] prod_{j in S} r_j, so
    that q_i = exp(log_r[i] + num[i] - log Z).  O(n^2): a backward sweep
    builds G[i][a] = log sum_b s_i[b] w[a + b + 1], s_i being the
    coefficients of prod_{j > i} (1 + r_j Z); a forward sweep contracts G[i]
    with the prefix product prod_{j < i}, whose last value is F.  Every step
    is a log-sum-exp of nonnegative terms.
    """
    log_r = _validated_log_r(log_r)
    n = log_r.size
    G = [np.asarray(log_w, dtype=float)[1:]]
    for i in range(n - 1, 0, -1):
        g = G[-1]
        G.append(np.logaddexp(g[:i], log_r[i] + g[1:]))
    G.reverse()  # G[i] has i + 1 entries, one per prefix coefficient
    log_num = np.empty(n)
    pref = np.zeros(1)
    for i in range(n):
        t = pref + G[i]
        top = t.max()
        log_num[i] = top + np.log(np.exp(t - top).sum()) if top > -np.inf else top
        pref = _schoolbook_step(pref, log_r[i])
    return LogPoly(pref), log_num
