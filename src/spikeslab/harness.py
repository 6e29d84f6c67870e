"""Simulation harness: data generation, the estimator-comparison table,
desk-scale theory checks, and credible-interval data emission."""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import estimators as est
from .dimension import DimensionPrior, betabin_power_prior, binomial_prior, complexity_prior
from .posterior import Posterior, eb_binomial_weight, fit
from .slabs import (
    SlabPrior,
    gaussian_slab,
    laplace_slab,
    posterior_shrinkage,
    second_moment_ratio,
)

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
    threads: int | None = None
    noise_scale: float = 1.0  # test hook; 0 gives noiseless observations

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")
        for p_n in self.pn_grid:
            if not 0 <= p_n < self.n:
                raise ValueError(f"grid sparsity {p_n} invalid for n = {self.n}")


@dataclass(frozen=True)
class CellStats:
    mean_loss: float
    se: float
    reps: int
    complete: bool = True


@dataclass
class ResultTable:
    """Mean losses and Monte Carlo standard errors per (estimator, p_n, A, q)."""

    cells: dict
    failures: list
    identity_dim_err: float  # max |sum_i q_i - E[dim | X]| over all fits
    identity_mean_err: float  # max |mean_i - q_i zeta/psi| over all fits
    config: ExperimentConfig

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


def generate_data(spec: SignalSpec, seed: int, rep: int = 0, stream_key=(),
                  noise_scale: float = 1.0):
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
    x = theta0 + noise_scale * rng.standard_normal(spec.n)
    return theta0, x


def _identity_errors(post: Posterior) -> tuple[float, float]:
    """Dual-path identity checks: sum of inclusion probabilities against the
    expected dimension from the pmf, and the mean against q * zeta / psi,
    the ratio taken from posterior_shrinkage so it stays finite where psi
    underflows."""
    expected_dim = float(
        np.sum(np.arange(post.dim_log_pmf.size) * np.exp(post.dim_log_pmf))
    )
    dim_err = abs(float(post.inclusion_prob.sum()) - expected_dim)
    ratio = posterior_shrinkage(post.slab, post.x)
    mean_err = float(np.max(np.abs(post.mean - post.inclusion_prob * ratio)))
    return dim_err, mean_err


def _table_rep(config: ExperimentConfig, cell_index: int, p_n: int,
               amplitude: float, rep: int):
    """One replication of one grid cell: losses for every estimator."""
    spec = SignalSpec(config.n, p_n, amplitude, config.placement)
    theta0, x = generate_data(spec, config.seed, rep, stream_key=(cell_index,),
                              noise_scale=config.noise_scale)
    wanted = set(config.estimators)
    estimates = {}
    dim_err = mean_err = 0.0

    def track(post):
        nonlocal dim_err, mean_err
        d, m = _identity_errors(post)
        dim_err = float(np.maximum(dim_err, d))  # NaN propagates
        mean_err = float(np.maximum(mean_err, m))

    if wanted & {"PM1", "PMed1"}:
        post = fit(x, complexity_prior(config.n, config.kappa, config.b),
                   config.slab, quantiles="PMed1" in wanted)
        track(post)
        if "PM1" in wanted:
            estimates["PM1"] = post.mean
        if "PMed1" in wanted:
            estimates["PMed1"] = post.median
    if wanted & {"PM2", "PMed2"}:
        post = fit(x, betabin_power_prior(config.n, config.kappa),
                   config.slab, quantiles="PMed2" in wanted)
        track(post)
        if "PM2" in wanted:
            estimates["PM2"] = post.mean
        if "PMed2" in wanted:
            estimates["PMed2"] = post.median
    if wanted & {"EBM", "EBMed"}:
        alpha = eb_binomial_weight(x, config.slab)
        post = fit(x, binomial_prior(config.n, alpha), config.slab,
                   quantiles="EBMed" in wanted)
        track(post)
        if "EBM" in wanted:
            estimates["EBM"] = post.mean
        if "EBMed" in wanted:
            estimates["EBMed"] = post.median
    if "HT" in wanted:
        estimates["HT"] = est.hard_threshold(x)
    if "HTO" in wanted:
        estimates["HTO"] = est.hard_threshold_oracle(x, max(p_n, 1))

    losses = {}
    for name, theta_hat in estimates.items():
        for q in config.qs:
            losses[(name, q)] = est.dq_loss(theta_hat, theta0, est.LossSpec(q))
    return losses, dim_err, mean_err


def _table_task(args):
    config, cell_index, p_n, amplitude, rep = args
    try:
        return (cell_index, rep, _table_rep(config, cell_index, p_n, amplitude, rep), None)
    except Exception as exc:  # surfaced per replication, never averaged over
        return (cell_index, rep, None, f"{type(exc).__name__}: {exc}")


def run_table(config: ExperimentConfig) -> ResultTable:
    """Monte Carlo estimator-comparison table over the signal grid."""
    grid = [(p_n, float(a)) for p_n in config.pn_grid for a in config.amplitudes]
    tasks = [
        (config, ci, p_n, amp, rep)
        for ci, (p_n, amp) in enumerate(grid)
        for rep in range(config.replications)
    ]
    if config.threads and config.threads > 1:
        # the pool forks its workers from this process: import the EB
        # optimiser's scipy.optimize here once, not in every worker of every
        # table (eb_binomial_weight imports it on first use)
        import scipy.optimize  # noqa: F401

        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            raw = list(pool.map(_table_task, tasks, chunksize=4))
    else:
        raw = [_table_task(t) for t in tasks]
    # deterministic ordered reduction, independent of worker scheduling
    raw.sort(key=lambda r: (r[0], r[1]))

    failures = []
    per_cell = {ci: {} for ci in range(len(grid))}
    dim_err = mean_err = 0.0
    for ci, rep, payload, error in raw:
        if error is not None:
            failures.append({"p_n": grid[ci][0], "A": grid[ci][1], "rep": rep,
                             "error": error})
            continue
        losses, d_err, m_err = payload
        dim_err = float(np.maximum(dim_err, d_err))  # NaN propagates
        mean_err = float(np.maximum(mean_err, m_err))
        for key, val in losses.items():
            per_cell[ci].setdefault(key, []).append(val)

    cells = {}
    for ci, (p_n, amp) in enumerate(grid):
        failed = any(f["p_n"] == p_n and f["A"] == amp for f in failures)
        for (name, q), vals in per_cell[ci].items():
            vals = np.asarray(vals)
            se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            cells[(name, p_n, amp, float(q))] = CellStats(
                mean_loss=float(vals.mean()), se=se, reps=vals.size,
                complete=not failed,
            )
    return ResultTable(cells=cells, failures=failures, identity_dim_err=dim_err,
                       identity_mean_err=mean_err, config=config)


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
                        slab: SlabPrior | None = None, seed: int = 0,
                        placement: str = "tail") -> DimensionCheckReport:
    """Average posterior tail mass beyond M * p_n nonzero coordinates."""
    dim_prior = dim_prior if dim_prior is not None else complexity_prior(n, 0.1)
    slab = slab if slab is not None else laplace_slab()
    M_grid = sorted(float(M) for M in M_grid)
    spec = SignalSpec(n, p_n, amplitude, placement)
    tails = np.zeros(len(M_grid))
    for rep in range(reps):
        _, x = generate_data(spec, seed, rep)
        post = fit(x, dim_prior, slab, quantiles=False)
        pmf = np.exp(post.dim_log_pmf)
        for j, M in enumerate(M_grid):
            tails[j] += pmf[int(math.floor(M * p_n)) + 1 :].sum()
    tails /= reps
    passing = [M for M, t in zip(M_grid, tails) if t < 0.01]
    return DimensionCheckReport(rows=list(zip(M_grid, tails.tolist())),
                                smallest_passing_M=passing[0] if passing else None,
                                n=n, p_n=p_n)


@dataclass
class ContractionCheckReport:
    rows: list  # (p_n, average posterior risk, risk / (p_n log(n / p_n)))
    ratio_spread: float  # max ratio / min ratio across the sparsity grid


def run_contraction_check(n: int, pn_grid, amplitude: float, reps: int,
                          dim_prior_factory=None, slab: SlabPrior | None = None,
                          seed: int = 0, placement: str = "tail") -> ContractionCheckReport:
    """Average posterior risk  E[ ||theta - theta0||^2 | X ]  against the
    p_n log(n / p_n) recovery-rate scale."""
    if dim_prior_factory is None:
        dim_prior_factory = lambda m: complexity_prior(m, 0.1)
    slab = slab if slab is not None else laplace_slab()
    dim_prior = dim_prior_factory(n)
    rows = []
    for p_n in pn_grid:
        if not 0 < p_n < n / 2:
            raise ValueError("contraction grid requires 0 < p_n < n/2")
        spec = SignalSpec(n, p_n, amplitude, placement)
        risks = []
        for rep in range(reps):
            theta0, x = generate_data(spec, seed, rep, stream_key=(p_n,))
            post = fit(x, dim_prior, slab, quantiles=False)
            m2 = post.inclusion_prob * second_moment_ratio(slab, x)
            risk = float(np.sum(m2 - 2.0 * theta0 * post.mean + theta0**2))
            risks.append(risk)
        avg = float(np.mean(risks))
        rows.append((p_n, avg, avg / (p_n * math.log(n / p_n))))
    ratios = [r[2] for r in rows]
    return ContractionCheckReport(rows=rows, ratio_spread=max(ratios) / min(ratios))


@dataclass
class ShrinkageDemoReport:
    rows: list  # (A, laplace risk, gaussian risk, gaussian / laplace ratio)


def run_shrinkage_demo(n: int, p_n: int, A_grid, reps: int, seed: int = 0,
                       kappa: float = 1.0, placement: str = "tail") -> ShrinkageDemoReport:
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
        risk = [0.0, 0.0]
        for rep in range(reps):
            spec = SignalSpec(n, p_n, A, placement)
            theta0, x = generate_data(spec, seed, rep, stream_key=(ai,))
            for k, slab in enumerate(slabs):
                post = fit(x, dim_prior, slab, quantiles=False)
                risk[k] += est.dq_loss(post.mean, theta0, loss2)
        lap, gau = risk[0] / reps, risk[1] / reps
        rows.append((A, lap, gau, gau / lap))
    return ShrinkageDemoReport(rows=rows)


# ---------------------------------------------------------------------------
# credible-interval data emission and observation files
# ---------------------------------------------------------------------------


def read_observations(path) -> np.ndarray:
    """One real per line, or a single-column CSV with header 'x'."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip().split(",")[0].strip()
            if not token:
                continue
            if lineno == 1 and token.lower() == "x":
                continue
            try:
                values.append(float(token))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: not a number: {token!r}") from exc
    if not values:
        raise ValueError(f"{path}: no observations found")
    return np.asarray(values)


def emit_interval_data(x, dim_prior: DimensionPrior, slab: SlabPrior, out_path,
                       levels=(0.025, 0.975), fmt: str = "csv") -> Posterior:
    """Fit the posterior and write one record per coordinate:
    index, x, median, lo, hi, inclusion_prob."""
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
    elif fmt == "json":
        with open(out_path, "w") as fh:
            json.dump(records, fh, indent=1)
    else:
        raise ValueError("format must be 'csv' or 'json'")
    return post
