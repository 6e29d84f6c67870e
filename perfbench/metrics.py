"""Metric names and units, read from BENCHMARK.json, and shared statistics."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

_SLABS = ("spikeslab.slabs.log_psi", "spikeslab.posterior.log_psi")
_CONTRACTION = ("spikeslab.logpoly.weighted_pair_contraction",
                "spikeslab.posterior.weighted_pair_contraction")
_PRODUCT = ("spikeslab.logpoly.product_of_linear_factors",
            "spikeslab.posterior.product_of_linear_factors")
_HARNESS_FIT = ("spikeslab.harness.fit",)

# per-layer metric -> wrapped names it is measured from; the metric is
# absent when none of them exists any more
REQUIRES = {
    "slabs.busy_s": _SLABS,
    "slabs.calls": _SLABS,
    "slabs.evals_per_coord": _SLABS,
    "slabs.cdf_tables": ("spikeslab.slabs.SlabCdfTable.__init__",),
    "logpoly.contraction_s": _CONTRACTION,
    "logpoly.contraction_calls": _CONTRACTION,
    "logpoly.product_s": _PRODUCT,
    "dimension.build_s": ("spikeslab.complexity_prior", "spikeslab.binomial_prior"),
    "harness.fit_s": _HARNESS_FIT,
    "harness.fits_per_rep": _HARNESS_FIT,
    "harness.eb_s": ("spikeslab.harness.eb_binomial_weight",),
    "harness.identity_s": ("spikeslab.harness.zeta", "spikeslab.harness.log_psi"),
    "estimators.busy_s": ("spikeslab.estimators.hard_threshold",
                          "spikeslab.estimators.dq_loss"),
}


TAIL_PERCENTILE = 90.0


def tail_percentile(samples):
    """The 90th percentile, interpolated between order statistics, as
    (value, percentile, samples beyond).  A run holds tens of ops, so a
    percentile with ten samples beyond it would sit near the median and
    jump with the op count; p90 keeps its meaning at every count."""
    s = sorted(samples)
    value = s[0] if len(s) == 1 else statistics.quantiles(s, n=10, method="inclusive")[-1]
    return value, TAIL_PERCENTILE, sum(1 for v in s if v > value)
