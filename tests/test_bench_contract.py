"""The package API that the benchmark under perfbench/ calls, read from its
files and run through its own output checks: a change that made every
benchmark op fail fails here.  Nothing under perfbench/ is edited."""

import copy
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import spikeslab as ss

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_calls_exists():
    names = {name for script in ("workloads.py", "selftest.py", "worker.py")
             for name in re.findall(r"\bss\.(\w+)", (BENCH / script).read_text())}
    assert "fit" in names and "posterior_shrinkage" in names
    assert sorted(name for name in names if not hasattr(ss, name)) == []


@pytest.mark.parametrize("n,slab", [(40, ss.laplace_slab()), (20, ss.student_slab(3.0))],
                         ids=["laplace", "student"])
def test_a_fit_passes_the_benchmark_checks(checks, n, slab):
    theta0, x = ss.generate_data(ss.SignalSpec(n, 4, 5.0, "random"), seed=11)
    post = ss.fit(x, ss.complexity_prior(n, 0.1), slab)
    problems, stats = checks.check_fit(post, theta0, ss.posterior_shrinkage)
    assert problems == []
    assert stats["quantile_points"] > 0


def test_a_table_passes_the_benchmark_checks(checks):
    table = ss.run_table(ss.ExperimentConfig(n=20, pn_grid=(2,), amplitudes=(4.0,),
                                             replications=2, threads=1))
    cells = len(ss.harness.TABLE_ESTIMATORS) * 2
    problems, _ = checks.check_table(table, cells)
    assert problems == []
    # the self-test's corruption check: a copy given a failure is flagged,
    # and the table it was copied from is not
    broken = copy.copy(table)
    broken.failures = [{"p_n": 2, "A": 4.0, "rep": 0, "error": "injected"}]
    assert "table_failures" in checks.check_table(broken, cells)[0]
    assert checks.check_table(table, cells)[0] == []
