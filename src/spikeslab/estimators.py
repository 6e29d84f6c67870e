"""Thresholding comparison estimators and the d_q loss family."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .posterior import validate_observations


@dataclass(frozen=True)
class LossSpec:
    """d_q(a, b) = sum_i |a_i - b_i|^q, without the q-th root; q in (0, 2]."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q <= 2.0:
            raise ValueError("loss exponent q must lie in (0, 2]")


def hard_threshold(x) -> np.ndarray:
    """Keep entries with |x_i| strictly above sqrt(2 log n), zero the rest."""
    x = validate_observations(x)
    n = x.size
    if n < 2:
        raise ValueError("hard thresholding needs n >= 2")
    thr = math.sqrt(2.0 * math.log(n))
    return np.where(np.abs(x) > thr, x, 0.0)


def hard_threshold_oracle(x, p_n: int) -> np.ndarray:
    """Hard thresholding at sqrt(2 log(n / p_n)) using the true sparsity."""
    x = validate_observations(x)
    n = x.size
    if not 1 <= p_n < n:
        raise ValueError("oracle sparsity must satisfy 1 <= p_n < n")
    thr = math.sqrt(2.0 * math.log(n / p_n))
    return np.where(np.abs(x) > thr, x, 0.0)


def dq_loss(a, b, spec: LossSpec):
    """d_q over the last axis of arrays a and b of equal shape: a float for
    vectors, one loss per leading index otherwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dq_loss needs arrays of equal shape")
    loss = np.sum(np.abs(a - b) ** spec.q, axis=-1)
    return float(loss) if loss.ndim == 0 else loss
