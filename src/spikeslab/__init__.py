"""Exact Bayesian inference for the sparse normal-means model with
spike-and-slab priors, plus a Monte Carlo experiment harness."""

from .dimension import (
    DimensionFamily,
    DimensionPrior,
    betabin_power_prior,
    binomial_prior,
    complexity_prior,
    custom_prior,
    geometric_prior,
    poisson_prior,
)
from .estimators import LossSpec, dq_loss, hard_threshold, hard_threshold_oracle
from .harness import (
    ExperimentConfig,
    ResultTable,
    SignalSpec,
    emit_interval_data,
    generate_data,
    read_observations,
    run_contraction_check,
    run_dimension_check,
    run_shrinkage_demo,
    run_table,
)
from .posterior import (
    Fits,
    Posterior,
    SlabLayer,
    eb_binomial_weight,
    fit,
)
from .slabs import (
    QuadratureError,
    SlabFamily,
    SlabPrior,
    exp_power_slab,
    gaussian_slab,
    laplace_slab,
    log_g,
    posterior_shrinkage,
    student_slab,
)

__version__ = "0.1.0"
