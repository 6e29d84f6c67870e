"""Acceptance gate: eight criteria, each reported with one PASS/FAIL line.

The Monte Carlo reference values are the published simulation-study numbers
for n=500 with 100 replications; a cell matches when it lands within +/-15%
of the published value or within 3 Monte Carlo standard errors, whichever is
looser.
"""

import math
import time

import numpy as np
import pytest

from spikeslab import (
    ExperimentConfig,
    betabin_power_prior,
    binomial_prior,
    complexity_prior,
    custom_prior,
    emit_interval_data,
    exp_power_slab,
    fit,
    gaussian_slab,
    generate_data,
    geometric_prior,
    laplace_slab,
    poisson_prior,
    posterior_shrinkage,
    run_dimension_check,
    run_shrinkage_demo,
    run_table,
    student_slab,
)
from spikeslab.harness import SignalSpec
from spikeslab.slabs import SlabValues

from _oracle import BruteForcePosterior, make_log_density, tweedie_shrinkage

GATED_ESTIMATORS = ("PM1", "PM2", "PMed1", "PMed2", "HT", "HTO")

# published mean-square errors (n=500, 100 replications), keyed (p_n, A)
TABLE1 = {
    "PM1":   {(25, 3): 111, (25, 4): 96, (25, 5): 94,
              (50, 3): 176, (50, 4): 165, (50, 5): 154,
              (100, 3): 267, (100, 4): 302, (100, 5): 307},
    "PM2":   {(25, 3): 106, (25, 4): 92, (25, 5): 82,
              (50, 3): 169, (50, 4): 165, (50, 5): 152,
              (100, 3): 269, (100, 4): 280, (100, 5): 274},
    "PMed1": {(25, 3): 129, (25, 4): 83, (25, 5): 73,
              (50, 3): 205, (50, 4): 149, (50, 5): 130,
              (100, 3): 255, (100, 4): 279, (100, 5): 283},
    "PMed2": {(25, 3): 125, (25, 4): 86, (25, 5): 68,
              (50, 3): 187, (50, 4): 148, (50, 5): 129,
              (100, 3): 273, (100, 4): 254, (100, 5): 245},
    "HT":    {(25, 3): 175, (25, 4): 142, (25, 5): 70,
              (50, 3): 339, (50, 4): 284, (50, 5): 135,
              (100, 3): 676, (100, 4): 564, (100, 5): 252},
    "HTO":   {(25, 3): 136, (25, 4): 92, (25, 5): 84,
              (50, 3): 206, (50, 4): 159, (50, 5): 139,
              (100, 3): 306, (100, 4): 261, (100, 5): 245},
}

# published mean absolute deviation errors, same layout
TABLE2 = {
    "PM1":   {(25, 3): 80, (25, 4): 101, (25, 5): 110,
              (50, 3): 127, (50, 4): 145, (50, 5): 147,
              (100, 3): 240, (100, 4): 268, (100, 5): 270},
    "PM2":   {(25, 3): 79, (25, 4): 85, (25, 5): 87,
              (50, 3): 135, (50, 4): 145, (50, 5): 144,
              (100, 3): 219, (100, 4): 232, (100, 5): 232},
    "PMed1": {(25, 3): 51, (25, 4): 43, (25, 5): 45,
              (50, 3): 86, (50, 4): 80, (50, 5): 78,
              (100, 3): 178, (100, 4): 225, (100, 5): 230},
    "PMed2": {(25, 3): 50, (25, 4): 40, (25, 5): 37,
              (50, 3): 86, (50, 4): 79, (50, 5): 76,
              (100, 3): 156, (100, 4): 162, (100, 5): 163},
    "HT":    {(25, 3): 63, (25, 4): 44, (25, 5): 27,
              (50, 3): 122, (50, 4): 86, (50, 5): 53,
              (100, 3): 244, (100, 4): 173, (100, 5): 102},
    "HTO":   {(25, 3): 53, (25, 4): 41, (25, 5): 40,
              (50, 3): 91, (50, 4): 79, (50, 5): 74,
              (100, 3): 157, (100, 4): 148, (100, 5): 144},
}


def _report(capsys, num: int, label: str, ok: bool, detail: str = ""):
    line = f"CRITERION {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence on 50 random small configurations
# ---------------------------------------------------------------------------


def _random_config(rng):
    n = int(rng.integers(1, 13))
    slab_kind = rng.choice(["laplace", "gaussian", "student", "exppower"])
    if slab_kind == "laplace":
        slab = laplace_slab(float(rng.uniform(0.5, 2.0)))
    elif slab_kind == "gaussian":
        slab = gaussian_slab(float(rng.uniform(0.5, 2.0)))
    elif slab_kind == "student":
        slab = student_slab(float(rng.uniform(2.5, 8.0)), float(rng.uniform(0.6, 1.6)))
    else:
        slab = exp_power_slab(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.6, 1.6)))
    prior_kind = rng.choice(["complexity", "betabin", "binomial", "poisson",
                             "geometric", "custom"])
    if prior_kind == "complexity":
        prior = complexity_prior(n, float(rng.uniform(0.05, 1.5)), float(rng.uniform(1.5, 5.0)))
    elif prior_kind == "betabin":
        prior = betabin_power_prior(n, float(rng.uniform(0.05, 1.5)))
    elif prior_kind == "binomial":
        prior = binomial_prior(n, float(rng.uniform(0.05, 0.9)))
    elif prior_kind == "poisson":
        prior = poisson_prior(n, float(rng.uniform(0.3, 3.0)))
    elif prior_kind == "geometric":
        prior = geometric_prior(n, float(rng.uniform(0.1, 0.8)))
    else:
        prior = custom_prior(n, rng.normal(size=n + 1))
    x = rng.normal(scale=2.0, size=n)
    return x, prior, slab


def test_criterion_1_oracle_equivalence(capsys):
    rng = np.random.default_rng(20260824)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        x, prior, slab = _random_config(rng)
        n = x.size
        post = fit(x, prior, slab)
        oracle = BruteForcePosterior(
            x, prior.log_pmf, make_log_density(slab.family.value, slab.scale, slab.shape)
        )

        def log_gap(a, b):
            return abs(a - b) / max(1.0, abs(b))

        worst = max(worst, log_gap(post.log_partition, oracle.log_partition))
        finite = np.isfinite(oracle.dim_log_pmf)
        worst = max(worst, float(np.max(np.abs(
            post.dim_log_pmf[finite] - oracle.dim_log_pmf[finite]
        ) / np.maximum(1.0, np.abs(oracle.dim_log_pmf[finite])))))
        worst = max(worst, float(np.max(
            np.abs(post.inclusion_prob - oracle.inclusion_prob)
        )))
        worst = max(worst, float(np.max(np.abs(post.mean - oracle.mean))))
        for i in range(n):
            for u in (-1.5, 0.0, 1.0):
                worst = max(worst, abs(post.marginal_cdf(i, u)
                                       - oracle.marginal_cdf(i, u)))
            med_gap = abs(post.median[i] - oracle.median(i))
            assert med_gap < 5e-7, f"median mismatch {med_gap:.2e} at n={n}"
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _report(capsys, 1, "oracle equivalence, 50 random configs n<=12", ok,
            f"worst deviation {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2-4: simulation-study reproduction and the identity suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def study_table():
    config = ExperimentConfig(
        n=500, pn_grid=(25, 50, 100), amplitudes=(3.0, 4.0, 5.0),
        replications=100, estimators=GATED_ESTIMATORS, kappa=0.1, b=3.0,
        qs=(2.0, 1.0), seed=1,
    )
    return run_table(config)


def _check_cells(table, paper, q):
    failures = []
    for name, grid in paper.items():
        for (p_n, amp), ref in grid.items():
            cell = table.cell(name, p_n, amp, q)
            tol = max(0.15 * ref, 3.0 * cell.se)
            if not cell.complete or abs(cell.mean_loss - ref) > tol:
                failures.append(
                    f"{name} p_n={p_n} A={amp:g}: got {cell.mean_loss:.1f}, "
                    f"published {ref}, tolerance {tol:.1f}"
                )
    return failures


def test_criterion_2_table1_reproduction(capsys, study_table):
    failures = _check_cells(study_table, TABLE1, q=2.0)
    detail = f"{54 - len(failures)}/54 cells in tolerance"
    if failures:
        detail += "; out of tolerance: " + "; ".join(failures)
    _report(capsys, 2, "mean-square-error table reproduction", not failures, detail)


def test_criterion_3_table2_reproduction(capsys, study_table):
    failures = _check_cells(study_table, TABLE2, q=1.0)
    detail = f"{54 - len(failures)}/54 cells in tolerance"
    if failures:
        detail += "; out of tolerance: " + "; ".join(failures)
    _report(capsys, 3, "absolute-deviation table reproduction", not failures, detail)


def test_criterion_4_identity_suite(capsys, study_table):
    dim_err = study_table.identity_dim_err
    mean_err = study_table.identity_mean_err
    ok = dim_err < 1e-8 and mean_err < 1e-10
    _report(capsys, 4, "identity suite over every table fit", ok,
            f"max expected-dimension gap {dim_err:.2e}, max mean-identity gap {mean_err:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: stability at n=2000
# ---------------------------------------------------------------------------


def test_criterion_5_stability_n2000(capsys):
    rng = np.random.default_rng(77)
    n = 2000
    theta = np.where(np.arange(n) >= n - 100, 5.0, 0.0)
    x = theta + rng.standard_normal(n)
    slab = laplace_slab()
    start = time.perf_counter()
    post = fit(x, complexity_prior(n, 0.1), slab)
    elapsed = time.perf_counter() - start

    finite = all(
        np.all(np.isfinite(arr))
        for arr in (post.mean, post.median, post.credible_lo, post.credible_hi,
                    post.inclusion_prob)
    ) and np.isfinite(post.log_partition)
    expected_dim = float(np.sum(np.arange(n + 1) * np.exp(post.dim_log_pmf)))
    dim_err = abs(post.inclusion_prob.sum() - expected_dim)
    # the shrinkage by Tweedie's formula, from log psi alone
    ratio = tweedie_shrinkage(lambda v: SlabValues(slab, v).log_psi, x)
    mean_err = float(np.max(np.abs(post.mean - post.inclusion_prob * ratio)))
    ok = finite and dim_err < 1e-8 and mean_err < 1e-10 and elapsed < 1800.0
    _report(capsys, 5, "n=2000 stability", ok,
            f"{elapsed:.1f}s, identity gaps {dim_err:.2e} / {mean_err:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: posterior dimension tail mass
# ---------------------------------------------------------------------------


def test_criterion_6_dimension_tail_mass(capsys):
    report = run_dimension_check(
        500, 25, 5.0, M_grid=[5.0], reps=50,
        dim_prior=complexity_prior(500, 0.1), slab=laplace_slab(), seed=6,
    )
    mass = report.rows[0][1]
    ok = mass < 0.01
    _report(capsys, 6, "dimension tail mass beyond 5 p_n", ok,
            f"average tail mass {mass:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: Gaussian-slab over-shrinkage at strong signals
# ---------------------------------------------------------------------------


def test_criterion_7_gaussian_slab_pathology(capsys):
    report = run_shrinkage_demo(500, 25, [3.0, 7.0], reps=50, seed=7)
    ratios = {A: ratio for A, _, _, ratio in report.rows}
    ok = ratios[7.0] > 1.5 and ratios[3.0] <= 1.2
    _report(capsys, 7, "Gaussian/Laplace slab risk ratios", ok,
            f"ratio at A=3: {ratios[3.0]:.3f} (need <= 1.2), "
            f"at A=7: {ratios[7.0]:.3f} (need > 1.5)")


# ---------------------------------------------------------------------------
# criterion 8: credible-interval behavior
# ---------------------------------------------------------------------------


def test_criterion_8_interval_data(capsys, tmp_path):
    spec = SignalSpec(500, 100, 5.0)
    theta0, x = generate_data(spec, seed=8)
    posts = {}
    for kappa in (0.1, 1.0):
        posts[kappa] = emit_interval_data(
            x, betabin_power_prior(500, kappa), laplace_slab(),
            tmp_path / f"intervals_k{kappa}.csv",
        )

    post = posts[0.1]
    zero = theta0 == 0.0
    covered = (post.credible_lo[zero] <= 0.0) & (post.credible_hi[zero] >= 0.0)
    coverage = float(covered.mean())

    widths = {k: np.median(p.credible_hi - p.credible_lo) for k, p in posts.items()}
    ok = coverage >= 0.95 and widths[1.0] < widths[0.1]
    _report(capsys, 8, "credible intervals", ok,
            f"zero-coordinate coverage {coverage:.3f} (need >= 0.95), "
            f"median widths {widths[0.1]:.3f} (weak shrinkage) vs "
            f"{widths[1.0]:.3f} (strong shrinkage, must be smaller)")
