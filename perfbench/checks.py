"""Output checks for benchmark ops, run outside the timed region.

Every check returns a list of problem tags (empty when the output is
correct), so a failed op can be reported by cause.  Tolerances are the test
suite's: 1e-8 on the expected-dimension identity, 1e-10 on the mean
identity.
"""

from __future__ import annotations

import math

import numpy as np

DIM_TOL = 1e-8  # |sum_i q_i - E[dim | X]|, as in tests/test_acceptance.py
MEAN_TOL = 1e-10  # |mean_i - q_i shrinkage_i|, the mean-identity tolerance of tests/test_acceptance.py
PMF_TOL = 1e-8  # |sum_p pi(p | X) - 1|
NULL_SAMPLE = 16  # null coordinates checked per op, evenly spaced


def checked_coords(theta0: np.ndarray, null_sample: int = NULL_SAMPLE) -> np.ndarray:
    """Every signal coordinate plus a fixed, evenly spaced sample of nulls."""
    signals = np.flatnonzero(theta0 != 0.0)
    nulls = np.flatnonzero(theta0 == 0.0)
    if nulls.size > null_sample:
        nulls = nulls[np.linspace(0, nulls.size - 1, null_sample).astype(int)]
    return np.union1d(signals, nulls)


def bracket_ok(post, i: int, value: float, level: float) -> bool:
    """The posterior cdf brackets `level` at `value`: F(v + d) >= level and
    F(v - d) <= level, with d far above the bisection tolerance."""
    d = 1e-6 * max(1.0, abs(value))
    return (post.marginal_cdf(i, value + d) >= level
            and post.marginal_cdf(i, value - d) <= level)


def empty_stats() -> dict:
    return {"dim_gap": 0.0, "mean_gap": 0.0, "quantile_points": 0, "quantile_bad": 0}


def merge_stats(totals: dict, stats: dict) -> None:
    """Fold one check's stats into totals: the largest identity gaps and the
    summed quantile-point counts."""
    for key in ("dim_gap", "mean_gap"):
        totals[key] = max(totals[key], stats[key])
    for key in ("quantile_points", "quantile_bad"):
        totals[key] += stats[key]


def check_fit(post, theta0: np.ndarray, shrinkage_fn, null_sample: int = NULL_SAMPLE):
    """Check one fitted posterior; returns (problems, stats).

    shrinkage_fn(slab, x) recomputes the slab-conditional posterior mean
    (spikeslab.posterior_shrinkage) on the checked coordinates.  stats holds
    the identity gaps and the count of quantile points checked and failed.
    """
    problems = []
    stats = {"dim_gap": math.nan, "mean_gap": math.nan,
             "quantile_points": 0, "quantile_bad": 0}
    arrays = {"inclusion_prob": post.inclusion_prob, "mean": post.mean,
              "median": post.median, "credible_lo": post.credible_lo,
              "credible_hi": post.credible_hi, "dim_log_pmf": post.dim_log_pmf}
    for name, arr in arrays.items():
        if arr is None or not np.all(np.isfinite(arr)):
            problems.append(f"nonfinite:{name}")
    if not math.isfinite(post.log_partition):
        problems.append("nonfinite:log_partition")
    if problems:
        return problems, stats

    q = post.inclusion_prob
    if np.any(q < 0.0) or np.any(q > 1.0):
        problems.append("q_out_of_range")
    pmf = np.exp(post.dim_log_pmf)
    if abs(pmf.sum() - 1.0) > PMF_TOL:
        problems.append("pmf_sum")
    expected_dim = float(np.sum(np.arange(pmf.size) * pmf))
    stats["dim_gap"] = abs(float(q.sum()) - expected_dim)
    if not stats["dim_gap"] <= DIM_TOL:
        problems.append("dim_identity")
    if np.any(post.median[q <= 0.5] != 0.0):
        problems.append("median_not_zero")

    idx = checked_coords(theta0, null_sample)
    ratio = np.asarray(shrinkage_fn(post.slab, post.x[idx]), dtype=float)
    gap = np.abs(post.mean[idx] - q[idx] * ratio)
    stats["mean_gap"] = float(np.max(gap)) if gap.size else 0.0
    if not stats["mean_gap"] <= MEAN_TOL:
        problems.append("mean_identity")

    lo_level, hi_level = post.levels
    bad_tags = set()
    for i in idx:
        i = int(i)
        for tag, value, level in (("median", post.median[i], 0.5),
                                  ("credible_lo", post.credible_lo[i], lo_level),
                                  ("credible_hi", post.credible_hi[i], hi_level)):
            stats["quantile_points"] += 1
            if not bracket_ok(post, i, float(value), level):
                stats["quantile_bad"] += 1
                bad_tags.add(f"bracket:{tag}")
    problems.extend(sorted(bad_tags))
    return problems, stats


def check_table(table, expected_cells: int):
    """Check one run_table result; returns (problems, stats)."""
    problems = []
    if table.failures:
        problems.append("table_failures")
    if len(table.cells) != expected_cells:
        problems.append("table_cells_missing")
    if not all(math.isfinite(c.mean_loss) and c.complete for c in table.cells.values()):
        problems.append("table_nonfinite_loss")
    stats = {"dim_gap": table.identity_dim_err, "mean_gap": table.identity_mean_err,
             "quantile_points": 0, "quantile_bad": 0}
    if not table.identity_dim_err < DIM_TOL:
        problems.append("dim_identity")
    if not table.identity_mean_err < MEAN_TOL:
        problems.append("mean_identity")
    return problems, stats
