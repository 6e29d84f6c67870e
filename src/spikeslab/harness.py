"""Simulation harness: data generation, the estimator-comparison table,
desk-scale theory checks, and credible-interval data emission."""

from __future__ import annotations

import csv
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import estimators as est
from .dimension import DimensionPrior, betabin_power_prior, binomial_prior, complexity_prior
from .posterior import DEFAULT_LEVELS, Fits, Posterior, SlabLayer, fit
from .slabs import SlabPrior, gaussian_slab, laplace_slab

TABLE_ESTIMATORS = ("PM1", "PM2", "EBM", "PMed1", "PMed2", "EBMed", "HT", "HTO")


@dataclass(frozen=True)
class SignalSpec:
    """Sparse signal with p_n coordinates equal to the amplitude."""

    n: int
    p_n: int
    amplitude: float
    placement: str = "tail"  # "tail" or "random"

    def __post_init__(self):
        if not 0 <= self.p_n <= self.n:
            raise ValueError("need 0 <= p_n <= n")
        if self.placement not in ("tail", "random"):
            raise ValueError("placement must be 'tail' or 'random'")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 500
    pn_grid: tuple = (25, 50, 100)
    amplitudes: tuple = (3.0, 4.0, 5.0)
    replications: int = 100
    estimators: tuple = TABLE_ESTIMATORS
    kappa: float = 0.1
    b: float = 3.0
    slab: SlabPrior = field(default_factory=laplace_slab)
    qs: tuple = (2.0, 1.0)
    seed: int = 0
    placement: str = "tail"
    # worker processes for run_table: the pool maps replications, each one
    # block of every grid cell, and runs only for more than one replication
    threads: int | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        for name in ("pn_grid", "amplitudes", "estimators", "qs"):
            values = getattr(self, name)
            if not len(values):
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):  # a cell key would fold the repeats
                raise ValueError(f"{name} must not repeat an entry, got {tuple(values)}")
        unknown = sorted(set(self.estimators) - set(TABLE_ESTIMATORS))
        if unknown:
            raise ValueError(f"unknown estimators {unknown}; choose from {TABLE_ESTIMATORS}")
        for q in self.qs:
            est.LossSpec(q)  # raises for a loss exponent outside (0, 2]
        for p_n in self.pn_grid:
            if not 0 <= p_n < self.n:
                raise ValueError(f"grid sparsity {p_n} invalid for n = {self.n}")
        if self.n < 2 and {"HT", "HTO"} & set(self.estimators):
            raise ValueError(f"hard thresholding (HT, HTO) needs n >= 2, got n = {self.n}")
        if not (self.kappa > 0 and self.b > 0):
            raise ValueError("kappa and b must be positive")
        if self.threads is not None and not (isinstance(self.threads, (int, np.integer))
                                             and self.threads >= 1):
            raise ValueError(f"threads must be None or an int >= 1, got {self.threads!r}")


@dataclass(frozen=True, slots=True)
class CellStats:
    mean_loss: float
    se: float
    reps: int
    complete: bool = True


@dataclass(eq=False)
class ResultTable:
    """Mean losses and Monte Carlo standard errors per (estimator, p_n, A, q),
    kept as arrays of shape (estimators, cells, exponents) in the order of
    config.estimators, the (p_n, A) grid and config.qs."""

    mean_loss: np.ndarray
    se: np.ndarray
    reps: int  # replications in every cell, 0 when every one failed
    failures: list
    identity_dim_err: float  # max |sum_i q_i - E[dim | X]| over all fits
    identity_mean_err: float  # max |mean_i - q_i zeta/psi| over all fits
    config: ExperimentConfig

    @property
    def cells(self) -> dict:
        """{(estimator, p_n, A, q): CellStats}, built on each call; empty when
        no replication ran, and incomplete wherever one failed."""
        if not self.reps:
            return {}
        keys = itertools.product(self.config.estimators, _grid(self.config), self.config.qs)
        return {(name, p_n, amp, float(q)): CellStats(float(m), float(s), self.reps,
                                                      not self.failures)
                for (name, (p_n, amp), q), m, s in zip(keys, self.mean_loss.flat, self.se.flat)}

    def cell(self, estimator: str, p_n: int, amplitude: float, q: float) -> CellStats:
        return self.cells[(estimator, p_n, float(amplitude), float(q))]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["estimator", "p_n", "A", "q", "mean_loss", "se", "reps"])
            for (name, p_n, amp, q), c in sorted(self.cells.items()):
                w.writerow([name, p_n, amp, q, f"{c.mean_loss:.6g}", f"{c.se:.6g}", c.reps])

    def to_json(self, path):
        rows = [
            {"estimator": name, "p_n": p_n, "A": amp, "q": q,
             "mean_loss": c.mean_loss, "se": c.se, "reps": c.reps,
             "complete": c.complete}
            for (name, p_n, amp, q), c in sorted(self.cells.items())
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)


def generate_data(spec: SignalSpec, seed: int, rep: int = 0, stream_key=()):
    """Simulate (theta0, x) with unit normal noise from a counter-based
    generator keyed by (seed, stream, replication)."""
    ss = np.random.SeedSequence([int(seed), *map(int, stream_key), int(rep)])
    rng = np.random.Generator(np.random.Philox(ss))
    theta0 = np.zeros(spec.n)
    if spec.p_n > 0:
        if spec.placement == "tail":
            theta0[spec.n - spec.p_n :] = spec.amplitude
        else:
            support = rng.choice(spec.n, size=spec.p_n, replace=False)
            theta0[support] = spec.amplitude
    x = theta0 + rng.standard_normal(spec.n)
    return theta0, x


def _replication_block(spec: SignalSpec, seed: int, reps: int, stream_key=()):
    """theta0 and x of replications 0, ..., reps - 1 of spec, one row each."""
    if reps < 1:
        raise ValueError(f"need at least one replication, got {reps}")
    data = [generate_data(spec, seed, rep, stream_key) for rep in range(reps)]
    return tuple(map(np.array, zip(*data)))


def _identity_errors(fits: Fits, shrinkage: np.ndarray) -> tuple[float, float]:
    """Largest dual-path identity gaps over the fits of one block: sum of
    inclusion probabilities against the expected dimension from the pmf,
    and the mean against q times the block's shrinkage zeta/psi, which is 0
    by construction (the fit forms its mean so) and guards the assembly of
    the fields.  A NaN gap propagates."""
    q = fits.inclusion_prob
    dim_err = np.max(np.abs(q.sum(axis=1) - fits.expected_dimension))
    return float(dim_err), float(np.max(np.abs(fits.mean - q * shrinkage)))


def _grid(config: ExperimentConfig) -> list[tuple[int, float]]:
    return [(p_n, float(a)) for p_n in config.pn_grid for a in config.amplitudes]


# (mean, median) estimator pairs read off one posterior fit
_POSTERIOR_ESTIMATORS = (("PM1", "PMed1"), ("PM2", "PMed2"), ("EBM", "EBMed"))


def _table_block(config: ExperimentConfig, priors: dict, rep: int):
    """One replication of every grid cell, fitted as one (cells x n) block:
    the losses of shape (estimators, cells, exponents), in the order of
    config.estimators, _grid and config.qs, and the identity gaps of each
    set of posterior fits (_identity_errors).  priors maps PM1 and PM2 to
    their dimension priors; EBM fits each row under the binomial prior at
    the row's EB weight."""
    grid = _grid(config)
    data = [generate_data(SignalSpec(config.n, p_n, amplitude, config.placement),
                          config.seed, rep, stream_key=(ci,))
            for ci, (p_n, amplitude) in enumerate(grid)]
    theta0, X = map(np.array, zip(*data))
    wanted = set(config.estimators)
    layer = SlabLayer(config.slab, X)
    kinds = [names for names in _POSTERIOR_ESTIMATORS if wanted & set(names)]
    prior_sets = [priors.get(mean_name) for mean_name, _ in kinds]
    if None in prior_sets:
        eb = [binomial_prior(config.n, a) for a in layer.eb_binomial_weights()]
        prior_sets = [eb if prior is None else prior for prior in prior_sets]
    # one inclusion sweep for every coupled set of priors
    fits = layer.fit_each(prior_sets, quantiles=False)
    gaps = [_identity_errors(block, layer.values.shrinkage) for block in fits]
    estimates = {mean_name: block.mean for (mean_name, _), block in zip(kinds, fits)}
    # the medians of every set from one quantile pass; the table reads no bounds
    medians = [(median_name, block.inclusion_prob)
               for (_, median_name), block in zip(kinds, fits) if median_name in wanted]
    if medians:
        names, q = zip(*medians)
        estimates.update(zip(names, layer.medians(q)))
    if "HT" in wanted:
        estimates["HT"] = [est.hard_threshold(x) for x in X]
    if "HTO" in wanted:
        estimates["HTO"] = [est.hard_threshold_oracle(x, max(p_n, 1))
                            for x, (p_n, _) in zip(X, grid)]
    theta_hat = np.array([estimates[name] for name in config.estimators])
    theta0 = np.broadcast_to(theta0, theta_hat.shape)
    losses = np.stack([est.dq_loss(theta_hat, theta0, est.LossSpec(q)) for q in config.qs],
                      axis=-1)
    return losses, gaps


def _table_task(args):
    config, priors, rep = args
    try:
        return (rep, _table_block(config, priors, rep), None)
    except Exception as exc:  # surfaced per replication, never averaged over
        return (rep, None, f"{type(exc).__name__}: {exc}")


def run_table(config: ExperimentConfig) -> ResultTable:
    """Monte Carlo estimator-comparison table over the signal grid, one
    task per replication covering every cell."""
    grid = _grid(config)
    # one prior of each kind for the whole table, shared by every block
    priors = {"PM1": complexity_prior(config.n, config.kappa, config.b),
              "PM2": betabin_power_prior(config.n, config.kappa)}
    tasks = [(config, priors, rep) for rep in range(config.replications)]
    if config.threads and config.threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            raw = list(pool.map(_table_task, tasks))
    else:
        raw = [_table_task(t) for t in tasks]

    # deterministic ordered reduction, independent of worker scheduling
    failures = [{"p_n": p_n, "A": amp, "rep": rep, "error": error}
                for rep, _, error in raw if error is not None for p_n, amp in grid]
    blocks = [payload for _, payload, error in raw if error is None]
    # the largest gaps of every fit, 0 without one; a NaN gap propagates
    dim_err, mean_err = np.max([(0.0, 0.0)] + [g for _, gaps in blocks for g in gaps],
                               axis=0).tolist()
    reps = len(blocks)
    mean_loss = se = np.full((len(config.estimators), len(grid), len(config.qs)), np.nan)
    if reps:
        # (estimators, cells, exponents, replications): each cell reduces
        # over one contiguous row, as the vector of its losses would
        losses = np.stack([losses for losses, _ in blocks], axis=-1)
        mean_loss = losses.mean(axis=-1)
        # one replication has no standard error
        se = (losses.std(axis=-1, ddof=1) / math.sqrt(reps) if reps > 1
              else np.zeros(mean_loss.shape))
    return ResultTable(mean_loss=mean_loss, se=se, reps=reps, failures=failures,
                       identity_dim_err=dim_err, identity_mean_err=mean_err, config=config)


# ---------------------------------------------------------------------------
# desk-scale theory checks
# ---------------------------------------------------------------------------


@dataclass
class DimensionCheckReport:
    rows: list  # (M, average tail mass P(|S| > M p_n | X))
    smallest_passing_M: float | None  # first grid M with average mass < 0.01
    n: int
    p_n: int


def run_dimension_check(n: int, p_n: int, amplitude: float, M_grid, reps: int,
                        dim_prior: DimensionPrior | None = None,
                        slab: SlabPrior | None = None, seed: int = 0) -> DimensionCheckReport:
    """Average posterior tail mass beyond M * p_n nonzero coordinates, for
    finite M >= 0."""
    dim_prior = dim_prior if dim_prior is not None else complexity_prior(n, 0.1)
    slab = slab if slab is not None else laplace_slab()
    M_grid = sorted(float(M) for M in M_grid)
    if not all(0.0 <= M < math.inf for M in M_grid):
        raise ValueError(f"M grid {M_grid} needs finite M >= 0")
    _, X = _replication_block(SignalSpec(n, p_n, amplitude), seed, reps)
    pmf = np.exp(SlabLayer(slab, X).fit(dim_prior, quantiles=False).dim_log_pmf)
    tails = [float(pmf[:, math.floor(M * p_n) + 1:].sum(axis=1).mean()) for M in M_grid]
    passing = [M for M, t in zip(M_grid, tails) if t < 0.01]
    return DimensionCheckReport(rows=list(zip(M_grid, tails)),
                                smallest_passing_M=passing[0] if passing else None,
                                n=n, p_n=p_n)


@dataclass
class ContractionCheckReport:
    rows: list  # (p_n, average posterior risk, risk / (p_n log(n / p_n)))
    ratio_spread: float  # max ratio / min ratio across the sparsity grid


def run_contraction_check(n: int, pn_grid, amplitude: float, reps: int,
                          dim_prior: DimensionPrior | None = None,
                          slab: SlabPrior | None = None, seed: int = 0) -> ContractionCheckReport:
    """Average posterior risk  E[ ||theta - theta0||^2 | X ]  against the
    p_n log(n / p_n) recovery-rate scale."""
    dim_prior = dim_prior if dim_prior is not None else complexity_prior(n, 0.1)
    slab = slab if slab is not None else laplace_slab()
    pn_grid = list(pn_grid)
    if not all(0 < p_n < n / 2 for p_n in pn_grid):
        raise ValueError(f"contraction grid {pn_grid} requires 0 < p_n < n/2 = {n / 2:g}")
    rows = []
    for p_n in pn_grid:
        theta0, X = _replication_block(SignalSpec(n, p_n, amplitude), seed, reps,
                                       stream_key=(p_n,))
        layer = SlabLayer(slab, X)
        fits = layer.fit(dim_prior, quantiles=False)
        avg = float(np.mean(np.sum(fits.inclusion_prob * layer.values.second_moment
                                   - 2.0 * theta0 * fits.mean + theta0**2, axis=1)))
        rows.append((p_n, avg, avg / (p_n * math.log(n / p_n))))
    ratios = [r[2] for r in rows]
    return ContractionCheckReport(rows=rows, ratio_spread=max(ratios) / min(ratios))


@dataclass
class ShrinkageDemoReport:
    rows: list  # (A, laplace risk, gaussian risk, gaussian / laplace ratio)


def run_shrinkage_demo(n: int, p_n: int, A_grid, reps: int, seed: int = 0,
                       kappa: float = 1.0) -> ShrinkageDemoReport:
    """Paired mean-square risk of the posterior mean under a Laplace slab
    versus a standard Gaussian slab, across signal strengths."""
    A_grid = list(A_grid)
    if any(a2 <= a1 for a1, a2 in zip(A_grid, A_grid[1:])):
        raise ValueError("A_grid must be strictly increasing")
    dim_prior = complexity_prior(n, kappa)
    slabs = (laplace_slab(), gaussian_slab())
    loss2 = est.LossSpec(2.0)
    rows = []
    for ai, A in enumerate(A_grid):
        theta0, X = _replication_block(SignalSpec(n, p_n, A), seed, reps, stream_key=(ai,))
        means = [SlabLayer(slab, X).fit(dim_prior, quantiles=False).mean for slab in slabs]
        lap, gau = (float(est.dq_loss(mean, theta0, loss2).mean()) for mean in means)
        rows.append((A, lap, gau, gau / lap))
    return ShrinkageDemoReport(rows=rows)


# ---------------------------------------------------------------------------
# credible-interval data emission and observation files
# ---------------------------------------------------------------------------


def read_observations(path) -> np.ndarray:
    """One finite real per line, or a single-column CSV with header 'x'."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip().split(",")[0].strip()
            if not token:
                continue
            if lineno == 1 and token.lower() == "x":
                continue
            try:
                value = float(token)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: not a number: {token!r}") from exc
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: not a finite number: {token!r}")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no observations found")
    return np.asarray(values)


def emit_interval_data(x, dim_prior: DimensionPrior, slab: SlabPrior, out_path,
                       levels=DEFAULT_LEVELS, fmt: str = "csv") -> Posterior:
    """Fit the posterior and write one record per coordinate:
    index, x, median, lo, hi, inclusion_prob.  The format is checked before
    the fit."""
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    post = fit(x, dim_prior, slab, levels=levels)
    records = [
        {"index": i, "x": float(post.x[i]), "median": float(post.median[i]),
         "lo": float(post.credible_lo[i]), "hi": float(post.credible_hi[i]),
         "inclusion_prob": float(post.inclusion_prob[i])}
        for i in range(post.x.size)
    ]
    if fmt == "csv":
        with open(out_path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(records[0].keys()))
            w.writeheader()
            w.writerows(records)
    else:
        with open(out_path, "w") as fh:
            json.dump(records, fh, indent=1)
    return post
