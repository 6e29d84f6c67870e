import csv
import json

import numpy as np
import pytest

from spikeslab.cli import main, make_parser


@pytest.fixture()
def obs_file(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=15)
    x[:3] += 5.0
    path = tmp_path / "obs.txt"
    path.write_text("\n".join(f"{v:.10f}" for v in x) + "\n")
    return path


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        make_parser().parse_args([])


def test_fit_stdout(obs_file, capsys):
    assert main(["fit", str(obs_file), "--prior", "betabin", "--kappa", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 15
    assert len(payload["mean"]) == 15
    assert len(payload["dim_log_pmf"]) == 16
    assert payload["levels"] == [0.025, 0.975]


def test_fit_to_file(obs_file, tmp_path):
    out = tmp_path / "summary.json"
    assert main(["fit", str(obs_file), "--prior", "binomial", "--alpha", "0.2",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["inclusion_prob"]) == 15


def test_simulate_to_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["simulate", "--n", "30", "--pn", "3", "--amp", "5",
                 "--reps", "2", "--estimators", "HT", "HTO", "PM2",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2  # three estimators, two losses
    assert {r["estimator"] for r in rows} == {"HT", "HTO", "PM2"}


def test_simulate_stdout(capsys):
    assert main(["simulate", "--n", "25", "--pn", "2", "--amp", "4",
                 "--reps", "1", "--estimators", "HT", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "HT" in out and "loss=" in out


def test_simulate_exits_1_when_a_replication_fails(capsys):
    # a slab scale of 1e-15 defeats the Student panel quadrature
    assert main(["simulate", "--n", "5", "--pn", "1", "--amp", "3", "--reps", "1",
                 "--slab", "student", "--scale", "1e-15", "--estimators", "PM1"]) == 1
    err = capsys.readouterr().err
    assert "FAILED rep:" in err and "QuadratureError" in err


def test_dim_check(capsys):
    assert main(["dim-check", "--n", "30", "--pn", "2", "--amp", "5",
                 "--M", "0", "2", "5", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "tail mass" in out
    assert "smallest M" in out


def test_contract_check(capsys):
    assert main(["contract-check", "--n", "40", "--pn", "3", "5",
                 "--amp", "5", "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "ratio spread" in out


def test_shrink_demo(capsys):
    assert main(["shrink-demo", "--n", "40", "--pn", "3", "--amp", "3", "7",
                 "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "laplace=" in out and "gaussian=" in out


def test_intervals_csv(obs_file, tmp_path, capsys):
    out = tmp_path / "iv.csv"
    assert main(["intervals", str(obs_file), "--prior", "betabin",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    assert "wrote 15 rows" in capsys.readouterr().out


def test_intervals_empty_input_errors(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "iv.csv"
    with pytest.raises(SystemExit) as info:
        main(["intervals", str(empty), "--out", str(out)])
    assert info.value.code == 2
    assert "no observations found" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "intervals"])
@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_nonfinite_observation_is_a_usage_error(tmp_path, capsys, command, token):
    data = tmp_path / "obs.txt"
    data.write_text(f"1.0\n{token}\n2.0\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([command, str(data), "--out", str(out)])
    assert info.value.code == 2
    assert f"{data}: line 2: not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_fit_student_slab(obs_file, capsys):
    assert main(["fit", str(obs_file), "--slab", "student", "--df", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(np.isfinite(payload["median"]))


@pytest.mark.parametrize("argv,flag", [
    (["fit", "--slab", "exppower"], "--df 3"),  # the shared --df default is no exponent
    (["fit", "--slab", "student", "--df", "2"], "--df 2"),
    (["fit", "--scale", "-1"], "--scale -1"),
    (["fit", "--prior", "binomial", "--alpha", "1.5"], "--alpha 1.5"),
    (["fit", "--prior", "complexity", "--kappa", "0"], "--kappa 0"),
    (["simulate", "--estimators", "PM3"], "--estimators"),
    (["simulate", "--q", "3"], "--q"),
    (["simulate", "--kappa", "-1"], "--kappa"),
    (["simulate", "--n", "1", "--pn", "0"], "--n"),  # hard thresholding needs n >= 2
    (["simulate", "--pn", "2", "2"], "pn_grid must not repeat"),
    (["simulate", "--amp", "5", "5"], "amplitudes must not repeat"),
    (["simulate", "--threads", "0"], "--threads"),
    (["intervals", "--levels", "0", "1.5"], "--levels 0 1.5"),
    (["intervals", "--levels", "0.9", "0.1"], "--levels 0.9 0.1"),
    (["dim-check", "--M", "-1", "0", "1"], "--M"),
    (["dim-check", "--M", "nan"], "--M"),
    (["dim-check", "--pn", "70"], "--pn"),
    (["dim-check", "--reps", "0"], "--reps"),
    (["contract-check", "--pn", "5", "40"], "--pn"),
    (["contract-check", "--reps", "0"], "--reps"),
    (["shrink-demo", "--amp", "5", "3"], "--amp"),
    (["shrink-demo", "--reps", "0"], "--reps"),
])
def test_invalid_flags_are_usage_errors(obs_file, tmp_path, capsys, argv, flag):
    command, *flags = argv
    data = {"fit": [str(obs_file)],
            "intervals": [str(obs_file), "--out", str(tmp_path / "iv.csv")],
            "simulate": ["--n", "25", "--pn", "2", "--reps", "1"],
            "dim-check": ["--n", "60", "--pn", "5", "--reps", "2"],
            "contract-check": ["--n", "60", "--pn", "5", "--reps", "2"],
            "shrink-demo": ["--n", "60", "--pn", "5", "--reps", "2"]}[command]
    with pytest.raises(SystemExit) as info:
        main([command, *data, *flags])
    assert info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "iv.csv").exists()
