"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks that
every metric named in BENCHMARK.json prints with its unit; checks that the
output checks reject a deliberately corrupted posterior; that a layer whose
wrapped function is gone is reported as absent; and that the benchmark
fails without printing a result when the package sources are missing.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_fit, check_table  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fit-tails-large fails its checks by known defects of the engine
KNOWN_FAILING = {"fit-tails-large"}


def expect(cond, message):
    if not cond:
        raise SystemExit(f"FAIL: {message}")


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_output(workload: str, trace: int):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace), "--tiny")
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
           f"{proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
    names = PER_LAYER if trace else END_TO_END
    expect(set(result["metrics"]) == set(names),
           f"{workload} trace={trace}: metrics {sorted(result['metrics'])}")
    for name, unit in names.items():
        m = result["metrics"][name]
        expect(m["unit"] == unit and math.isfinite(m["value"]),
               f"{workload}: {name} = {m}")
        expect(any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines),
               f"{workload}: {name} not printed with its unit")
    if workload not in KNOWN_FAILING:
        expect(result["correct"] and result["failed"] == 0,
               f"{workload} trace={trace}: output checks failed: "
               + "; ".join(ln for ln in lines if ln.startswith("# failure")))
    print(f"ok  {workload} trace={trace}: {len(names)} metrics, "
          f"{result['attempted']} ops, {result['failed']} failed")


def check_corruption():
    import numpy as np
    import spikeslab as ss

    n = 40
    theta0 = np.where(np.arange(n) < 4, 5.0, 0.0)
    x = theta0 + np.random.default_rng(0).standard_normal(n)
    post = ss.fit(x, ss.complexity_prior(n, 0.1), ss.laplace_slab())
    problems, _ = check_fit(post, theta0, ss.posterior_shrinkage)
    expect(not problems, f"clean posterior rejected: {problems}")

    scaled = copy.copy(post)
    scaled.inclusion_prob = post.inclusion_prob * 1.01
    problems, _ = check_fit(scaled, theta0, ss.posterior_shrinkage)
    expect("dim_identity" in problems, f"q scaled by 1.01 accepted: {problems}")

    moved = copy.copy(post)
    moved.median = post.median.copy()
    signal = int(np.argmax(post.inclusion_prob))
    moved.median[signal] += 0.05
    problems, _ = check_fit(moved, theta0, ss.posterior_shrinkage)
    expect("bracket:median" in problems, f"median moved off its level accepted: {problems}")

    table = ss.run_table(ss.ExperimentConfig(n=20, pn_grid=(2,), amplitudes=(4.0,),
                                             replications=2, threads=1))
    cells = len(table.cells)
    expect(not check_table(table, cells)[0], "clean table rejected")
    broken = copy.copy(table)
    broken.failures = [{"p_n": 2, "A": 4.0, "rep": 0, "error": "injected"}]
    expect("table_failures" in check_table(broken, cells)[0], "table failure accepted")
    print("ok  output checks reject q * 1.01, a moved median and a failed table")


def check_absent_layer():
    import spikeslab.logpoly as logpoly
    import spikeslab.posterior as posterior
    from tracing import Tracer
    from worker import absent_metrics

    saved = {m: m.weighted_pair_contraction for m in (logpoly, posterior)}
    try:
        for m in saved:
            del m.weighted_pair_contraction
        tracer = Tracer().install()
        tracer.uninstall()
    finally:
        for m, fn in saved.items():
            m.weighted_pair_contraction = fn
    absent = absent_metrics(tracer)
    expect(set(absent) == {"logpoly.contraction_s", "logpoly.contraction_calls"},
           f"absent layers {sorted(absent)}")
    print("ok  a deleted weighted_pair_contraction is reported as absent")


def check_missing_sources():
    bare = ROOT / ".bench_build" / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "fit-coupled", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"run without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print("ok  without package sources the benchmark exits non-zero and prints no result")


def main() -> int:
    for name in WORKLOADS:
        for trace in (0, 1):
            check_metric_output(name, trace)
    check_corruption()
    check_absent_layer()
    check_missing_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
