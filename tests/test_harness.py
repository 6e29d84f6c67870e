import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spikeslab import (
    ExperimentConfig,
    SignalSpec,
    betabin_power_prior,
    complexity_prior,
    custom_prior,
    emit_interval_data,
    fit,
    generate_data,
    laplace_slab,
    read_observations,
    run_contraction_check,
    run_dimension_check,
    run_shrinkage_demo,
    run_table,
)
from spikeslab import harness


# -- data generation ---------------------------------------------------------


def test_signal_spec_validation():
    with pytest.raises(ValueError):
        SignalSpec(10, 11, 3.0)
    with pytest.raises(ValueError):
        SignalSpec(10, -1, 3.0)
    with pytest.raises(ValueError):
        SignalSpec(10, 2, 3.0, placement="middle")


def test_generate_data_deterministic():
    spec = SignalSpec(100, 10, 4.0)
    _, x1 = generate_data(spec, seed=7, rep=3)
    _, x2 = generate_data(spec, seed=7, rep=3)
    assert np.array_equal(x1, x2)
    _, x3 = generate_data(spec, seed=7, rep=4)
    assert not np.array_equal(x1, x3)


def test_generate_data_signal_placement():
    theta, x = generate_data(SignalSpec(50, 5, 3.0), seed=0)
    assert np.array_equal(theta[:45], np.zeros(45))
    assert np.array_equal(theta[45:], np.full(5, 3.0))

    theta_r, _ = generate_data(SignalSpec(50, 5, 3.0, placement="random"), seed=0)
    assert (theta_r == 3.0).sum() == 5
    assert (theta_r == 0.0).sum() == 45


def test_generate_data_pure_noise():
    theta, x = generate_data(SignalSpec(500, 0, 3.0), seed=1)
    assert np.all(theta == 0.0)
    assert 0.8 <= np.var(x - theta, ddof=1) <= 1.2


# -- run_table ------------------------------------------------------------------


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(replications=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, pn_grid=(10,))
    with pytest.raises(ValueError, match="estimator"):
        ExperimentConfig(estimators=("PM3",))
    with pytest.raises(ValueError, match="loss exponent"):
        ExperimentConfig(qs=(3.0,))
    with pytest.raises(ValueError, match="kappa"):
        ExperimentConfig(kappa=0.0)
    with pytest.raises(ValueError, match="n >= 2"):
        ExperimentConfig(n=1, pn_grid=(0,))
    with pytest.raises(ValueError, match="n >= 2"):
        ExperimentConfig(n=1, pn_grid=(0,), estimators=("PM1", "HTO"))
    ExperimentConfig(n=1, pn_grid=(0,), estimators=("PM1", "EBMed"))  # no thresholding


@pytest.fixture(scope="module")
def tiny_table():
    config = ExperimentConfig(
        n=40, pn_grid=(4,), amplitudes=(5.0,), replications=3, seed=11
    )
    return config, run_table(config)


def test_run_table_cell_structure(tiny_table):
    config, table = tiny_table
    assert len(table.cells) == len(config.estimators) * 1 * 1 * 2
    for (name, p_n, amp, q), cell in table.cells.items():
        assert name in config.estimators
        assert cell.reps == 3
        assert cell.se >= 0.0
        assert cell.mean_loss >= 0.0
        assert cell.complete
    assert table.failures == []


def test_run_table_keeps_arrays_in_grid_order(tiny_table):
    # a kept table is two (estimators, cells, exponents) arrays; its cells
    # are read off them in the order of the estimators, the grid and the qs
    config, table = tiny_table
    assert table.mean_loss.shape == table.se.shape == (len(config.estimators), 1, 2)
    for e, name in enumerate(config.estimators):
        for k, q in enumerate(config.qs):
            cell = table.cell(name, 4, 5.0, q)
            assert (cell.mean_loss, cell.se) == (table.mean_loss[e, 0, k], table.se[e, 0, k])


def test_run_table_identity_errors_small(tiny_table):
    _, table = tiny_table
    assert table.identity_dim_err < 1e-8
    assert table.identity_mean_err < 1e-10


def test_identity_errors_finite_where_psi_underflows():
    # psi(1000) underflows the linear domain for the Laplace slab, so the
    # ratio zeta / exp(log psi) would be 0 / 0
    x = np.array([1000.0, 0.4, -2.0, 3.5])
    layer = harness.SlabLayer(laplace_slab(), x[None])
    posts = layer.fit(complexity_prior(4, 0.1), quantiles=False)
    dim_err, mean_err = harness._identity_errors(posts, layer.values.shrinkage)
    assert math.isfinite(dim_err) and dim_err <= 1e-10
    assert math.isfinite(mean_err) and mean_err <= 1e-10


def test_run_table_propagates_nan_identity_gap(monkeypatch):
    monkeypatch.setattr(harness, "_identity_errors",
                        lambda posts, shrinkage: (0.0, math.nan))
    config = ExperimentConfig(n=20, pn_grid=(2,), amplitudes=(3.0,), replications=2,
                              estimators=("PM1", "EBM"), seed=3)
    table = run_table(config)
    assert table.identity_dim_err == 0.0
    assert math.isnan(table.identity_mean_err)


def test_run_table_deterministic_across_workers(tiny_table):
    config, serial = tiny_table
    import dataclasses

    parallel = run_table(dataclasses.replace(config, threads=2))
    for key, cell in serial.cells.items():
        assert parallel.cells[key].mean_loss == cell.mean_loss  # bit-identical
        assert parallel.cells[key].se == cell.se


def test_empirical_bayes_loads_no_scipy_optimize():
    # in a fresh interpreter: an EB weight and a two-worker table with the EB
    # estimators leave scipy.optimize unimported
    script = """
import sys
import numpy as np
from spikeslab import ExperimentConfig, eb_binomial_weight, laplace_slab, run_table
eb_binomial_weight(np.array([0.5, 3.0, -4.0]), laplace_slab())
table = run_table(ExperimentConfig(n=20, pn_grid=(2,), amplitudes=(3.0,), replications=2,
                                   threads=2, estimators=("PM1", "EBM", "EBMed"), seed=3))
assert not table.failures and table.cells
print("scipy.optimize" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_run_table_serialization(tiny_table, tmp_path):
    _, table = tiny_table
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    table.to_csv(csv_path)
    table.to_json(json_path)

    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(table.cells)
    assert set(rows[0]) == {"estimator", "p_n", "A", "q", "mean_loss", "se", "reps"}

    with open(json_path) as fh:
        jrows = json.load(fh)
    assert len(jrows) == len(table.cells)
    assert all(r["complete"] for r in jrows)


def test_run_table_noiseless_thresholding(monkeypatch):
    # amplitude above the threshold and no noise: hard thresholding is exact
    def noiseless(spec, seed, rep=0, stream_key=()):
        theta0, _ = generate_data(spec, seed, rep, stream_key)
        return theta0, theta0.copy()

    monkeypatch.setattr(harness, "generate_data", noiseless)
    config = ExperimentConfig(
        n=100, pn_grid=(5,), amplitudes=(5.0,), replications=1,
        estimators=("HT",),
    )
    table = run_table(config)
    assert table.cell("HT", 5, 5.0, 2.0).mean_loss == 0.0
    assert table.cell("HT", 5, 5.0, 1.0).mean_loss == 0.0


def test_run_table_cells_match_per_replication_losses():
    # every (estimator, p_n, A, q) cell holds the mean and standard error of
    # its own losses, one d_q per replication, computed here one at a time
    from spikeslab import LossSpec, dq_loss, hard_threshold, hard_threshold_oracle

    config = ExperimentConfig(n=60, pn_grid=(3, 6), amplitudes=(3.0, 5.0), replications=3,
                              estimators=("HTO", "HT"), qs=(2.0, 0.5), seed=8)
    table = run_table(config)
    for ci, (p_n, amp) in enumerate(harness._grid(config)):
        data = [generate_data(SignalSpec(60, p_n, amp), 8, rep, stream_key=(ci,))
                for rep in range(3)]
        for name, rule in (("HT", hard_threshold),
                           ("HTO", lambda x: hard_threshold_oracle(x, p_n))):
            for q in config.qs:
                losses = np.array([dq_loss(rule(x), theta0, LossSpec(q)) for theta0, x in data])
                cell = table.cell(name, p_n, amp, q)
                assert cell.mean_loss == losses.mean()
                assert cell.se == losses.std(ddof=1) / math.sqrt(3)


def test_run_table_se_shrinks_with_reps():
    def se_at(reps):
        config = ExperimentConfig(
            n=200, pn_grid=(10,), amplitudes=(3.0,), replications=reps,
            estimators=("HT",), qs=(2.0,), seed=5,
        )
        return run_table(config).cell("HT", 10, 3.0, 2.0).se

    ratio = se_at(25) / se_at(100)
    assert 1.2 <= ratio <= 3.4  # expected value 2 = sqrt(100 / 25)


def test_run_table_oracle_threshold_helps_at_small_signals():
    # A below sqrt(2 log n): the lower oracle threshold catches real signals
    config = ExperimentConfig(
        n=500, pn_grid=(50,), amplitudes=(3.0,), replications=40,
        estimators=("HT", "HTO"), qs=(2.0,), seed=2,
    )
    table = run_table(config)
    ht = table.cell("HT", 50, 3.0, 2.0)
    hto = table.cell("HTO", 50, 3.0, 2.0)
    slack = 3.0 * math.hypot(ht.se, hto.se)
    assert hto.mean_loss <= ht.mean_loss + slack


def test_run_table_surfaces_failures(monkeypatch):
    calls = {"count": 0}
    real_fit = harness.SlabLayer.fit_each

    def flaky_fit(self, *args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 2:
            raise RuntimeError("injected failure")
        return real_fit(self, *args, **kwargs)

    monkeypatch.setattr(harness.SlabLayer, "fit_each", flaky_fit)
    config = ExperimentConfig(
        n=20, pn_grid=(2,), amplitudes=(4.0,), replications=2,
        estimators=("PM2",),
    )
    table = run_table(config)
    assert len(table.failures) == 1
    assert "injected failure" in table.failures[0]["error"]
    cell = table.cell("PM2", 2, 4.0, 2.0)
    assert cell.reps == 1
    assert not cell.complete


def test_run_table_sweeps_each_replication_block_once(monkeypatch):
    # a replication covers every cell of the grid: one inclusion sweep over
    # the whole block serves the complexity and the beta-binomial prior; the
    # binomial EB fits need only the product of the factors, which that
    # sweep already computed
    from spikeslab import posterior

    calls = []
    sweep = posterior.inclusion_log_numerators
    product = posterior._forward

    def spy_sweep(log_r, log_w):
        calls.append(("sweep", np.shape(log_r), np.shape(log_w)))
        return sweep(log_r, log_w)

    def spy_product(log_r):
        calls.append(("product", np.shape(log_r)))
        return product(log_r)

    monkeypatch.setattr(posterior, "inclusion_log_numerators", spy_sweep)
    monkeypatch.setattr(posterior, "_forward", spy_product)
    config = ExperimentConfig(n=30, pn_grid=(2, 4), amplitudes=(3.0, 5.0),
                              replications=3, seed=1)
    table = run_table(config)
    assert calls == [("sweep", (4, 30), (4, 2, 31))] * 3
    assert table.failures == []


# -- theory checks ------------------------------------------------------------------


def test_dimension_check_point_mass_prior():
    n, p_n = 30, 2
    at_zero = np.full(n + 1, -np.inf)
    at_zero[0] = 0.0
    report = run_dimension_check(
        n, p_n, 5.0, M_grid=[1, 2], reps=2, dim_prior=custom_prior(n, at_zero)
    )
    assert all(mass == 0.0 for _, mass in report.rows)
    assert report.smallest_passing_M == 1.0


def test_dimension_check_baseline_row():
    n, p_n = 25, 3
    report = run_dimension_check(n, p_n, 5.0, M_grid=[0.0], reps=1, seed=4)
    # M=0 row is 1 - P(|S| = 0 | X), recomputed directly
    _, x = generate_data(SignalSpec(n, p_n, 5.0), seed=4, rep=0)
    post = fit(x, complexity_prior(n, 0.1), laplace_slab(), quantiles=False)
    expected = 1.0 - float(np.exp(post.dim_log_pmf[0]))
    assert report.rows[0][1] == pytest.approx(expected, abs=1e-12)


def test_dimension_check_sorts_grid():
    report = run_dimension_check(25, 2, 5.0, M_grid=[5, 1, 3], reps=1)
    assert [m for m, _ in report.rows] == [1.0, 3.0, 5.0]
    masses = [mass for _, mass in report.rows]
    assert masses == sorted(masses, reverse=True)


@pytest.mark.parametrize("M", [-1.0, -1e-9, math.nan, math.inf, -math.inf])
def test_dimension_check_rejects_negative_or_nonfinite_M(M, monkeypatch):
    # a negative M would slice the pmf from its end; refused before any fit
    monkeypatch.setattr(harness, "SlabLayer", None)
    with pytest.raises(ValueError, match="M >= 0"):
        run_dimension_check(60, 5, 5.0, M_grid=[M, 0.0, 1.0], reps=2)


@pytest.mark.parametrize("check", [
    lambda: run_dimension_check(30, 2, 5.0, M_grid=[1.0], reps=0),
    lambda: run_contraction_check(30, [2], 5.0, reps=0),
    lambda: run_shrinkage_demo(30, 2, [3.0], reps=0),
], ids=["dimension", "contraction", "shrinkage"])
def test_theory_checks_need_a_replication(check, monkeypatch):
    monkeypatch.setattr(harness, "SlabLayer", None)
    with pytest.raises(ValueError, match="at least one replication"):
        check()


def test_contraction_check_validates_its_grid_before_any_fit(monkeypatch):
    # p_n = 40 is out of range for n = 60; p_n = 5, first in the grid, is not
    layers = []
    monkeypatch.setattr(harness, "SlabLayer", lambda *args: layers.append(args))
    with pytest.raises(ValueError, match="0 < p_n < n/2"):
        run_contraction_check(60, [5, 40], 5.0, reps=2)
    assert layers == []


def test_contraction_check_grid_validation():
    with pytest.raises(ValueError):
        run_contraction_check(100, [60], 5.0, reps=1)
    with pytest.raises(ValueError):
        run_contraction_check(100, [0], 5.0, reps=1)


def test_contraction_check_bounded_ratio(monkeypatch):
    # the Laplace second moment is a closed form: no panel table is built
    from spikeslab import slabs

    def no_table(*args):
        raise AssertionError("panel table built")

    monkeypatch.setattr(slabs.PanelTables, "__init__", no_table)
    report = run_contraction_check(200, [10, 25, 50], 5.0, reps=5, seed=3)
    for p_n, risk, ratio in report.rows:
        assert risk >= 0.0
        assert ratio == pytest.approx(risk / (p_n * math.log(200 / p_n)), rel=1e-12)
    assert report.ratio_spread < 3.0


def test_pure_noise_posterior_risk_is_small():
    # with no signal at all, the posterior risk sits far below even the
    # single-signal recovery budget log(n)
    rng_spec = SignalSpec(200, 0, 5.0)
    _, x = generate_data(rng_spec, seed=9)
    post = fit(x, complexity_prior(200, 0.1), laplace_slab(), quantiles=False)
    from spikeslab.slabs import SlabValues

    risk = float(np.sum(post.inclusion_prob * SlabValues(laplace_slab(), x).second_moment))
    assert 0.0 <= risk < 3.0 * math.log(200)


def test_shrinkage_demo_requires_increasing_grid():
    with pytest.raises(ValueError):
        run_shrinkage_demo(40, 3, [5.0, 3.0], reps=1)


def test_shrinkage_demo_structure():
    report = run_shrinkage_demo(60, 3, [3.0, 7.0], reps=2, seed=1)
    assert len(report.rows) == 2
    for A, lap, gau, ratio in report.rows:
        assert lap > 0 and gau > 0
        assert ratio == pytest.approx(gau / lap, rel=1e-12)


# -- observation files and interval emission -------------------------------------------


def test_read_observations_plain(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("1.5\n-2.0\n\n0.25\n")
    assert np.array_equal(read_observations(path), [1.5, -2.0, 0.25])


def test_read_observations_csv_header(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("x\n0.5\n1.5\n")
    assert np.array_equal(read_observations(path), [0.5, 1.5])


@pytest.mark.parametrize("token,problem", [("bogus", "not a number"),
                                           ("nan", "not a finite number"),
                                           ("inf", "not a finite number"),
                                           ("-Infinity", "not a finite number")])
def test_read_observations_parse_error_has_line_number(tmp_path, token, problem):
    path = tmp_path / "bad.txt"
    path.write_text(f"1.0\n{token}\n2.0\n")
    with pytest.raises(ValueError, match=f"line 2: {problem}: '{token}'"):
        read_observations(path)


def test_read_observations_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="no observations"):
        read_observations(path)


def test_emit_interval_data_csv(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.normal(size=12)
    out = tmp_path / "intervals.csv"
    post = emit_interval_data(x, betabin_power_prior(12, 0.1), laplace_slab(), out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert set(rows[0]) == {"index", "x", "median", "lo", "hi", "inclusion_prob"}
    assert [int(r["index"]) for r in rows] == list(range(12))
    assert float(rows[3]["median"]) == pytest.approx(post.median[3], abs=1e-12)


def test_emit_interval_data_json_and_bad_format(tmp_path, monkeypatch):
    x = np.array([0.5, 4.0])
    out = tmp_path / "intervals.json"
    emit_interval_data(x, betabin_power_prior(2, 0.1), laplace_slab(), out, fmt="json")
    with open(out) as fh:
        rows = json.load(fh)
    assert len(rows) == 2
    # a bad format is refused before any fit
    monkeypatch.setattr(harness, "fit", None)
    with pytest.raises(ValueError, match="format"):
        emit_interval_data(x, betabin_power_prior(2, 0.1), laplace_slab(),
                           tmp_path / "nope.xml", fmt="xml")
    assert not (tmp_path / "nope.xml").exists()
