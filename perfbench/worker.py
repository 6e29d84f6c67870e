"""Benchmark worker: set-up, then a timed closed loop (--trace 0) or a traced
run (--trace 1), then the output checks.  Started by run.py, which pins the
BLAS/OpenMP pools before this process imports numpy.

The last line of standard output is a JSON object for run.py; the lines
before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from metrics import END_TO_END, PER_LAYER, REQUIRES, tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402
from checks import empty_stats, merge_stats  # noqa: E402
from workloads import WORKLOADS, fit_case, fits_in, nproc  # noqa: E402


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def run_op(workload, case):
    """One op: (output or None, seconds, problem tags when it raised)."""
    t = time.perf_counter()
    try:
        out = workload.op(case)
    except Exception as exc:  # a failed op is counted, never fatal
        return None, time.perf_counter() - t, [f"raised:{type(exc).__name__}: {exc}"]
    return out, time.perf_counter() - t, []


def closed_loop(workload, first, seconds: float, next_case, before=None, after=None):
    """Run ops back to back until `seconds` of op time have elapsed and the
    last round of the workload's input cycle is complete, so every run sees
    the same mix of inputs.  The hooks run outside the op's timing.
    Returns a list of (case, output, seconds, problems)."""
    records = []
    busy = 0.0
    case = first
    while True:
        i = len(records)
        if before:
            before(i)
        out, dt, problems = run_op(workload, case)
        records.append((case, out, dt, problems))
        busy += dt
        if after:
            after(i, case)
        if busy >= seconds and len(records) % workload.round_len == 0:
            return records
        case = next_case(i + 1)


def check_records(workload, records):
    """Output checks, outside any timed region; returns per-op problems and
    the merged check statistics."""
    totals = empty_stats()
    all_problems = []
    for case, out, _, problems in records:
        problems = list(problems)
        if out is not None:
            found, stats = workload.check(case, out)
            problems += found
            merge_stats(totals, stats)
        all_problems.append(problems)
    return all_problems, totals


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped
    children (the harness's pool workers); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def failure_lines(records, problems):
    causes = {}
    for (case, *_), probs in zip(records, problems):
        for p in probs:
            label = getattr(case, "label", "table replication")
            causes.setdefault(p, {}).setdefault(label, 0)
            causes[p][label] += 1
    return [f"# failure {cause}: " + ", ".join(f"{n}x [{lab}]" for lab, n in labels.items())
            for cause, labels in sorted(causes.items())]


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def timed_run(workload, first, args):
    # one untimed op first, so lazy imports, caches and the first pool
    # start-up stay out of the timed ops
    _, t_warm = run_op(workload, first)[:2]
    records = closed_loop(workload, first, args.seconds, workload.case)
    durations = [r[2] for r in records]
    (problems, _), t_check = timed(check_records, workload, records)
    failed = sum(1 for p in problems if p)
    tail, pct, beyond = tail_percentile(durations)
    values = {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = [f"# ops {len(durations)}, failed {failed}, failed_frac "
             f"{failed / len(durations):.4f} fraction",
             f"# op_tail_s is p{pct:g} of {len(durations)} ops ({beyond} beyond it)",
             f"# op seconds " + " ".join(f"{d:.3f}" for d in durations),
             f"# warm-up op took {t_warm:.3f} s, untimed",
             f"# output checks took {t_check:.2f} s, outside the timed region"]
    lines += failure_lines(records, problems)
    return values, len(records), failed, lines


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def scaling_exponent(workload) -> float:
    """Log-log slope of fit(quantiles=False) time from n/2 to n, untraced,
    best of two runs each."""
    half, full = workload.scaling_cases()
    t_half = min(timed(fit_case, workload.ss, half, False)[1] for _ in range(2))
    t_full = min(timed(fit_case, workload.ss, full, False)[1] for _ in range(2))
    return math.log(t_full / t_half) / math.log(full.x.size / half.x.size)


def traced_run(workload, first, tracer, args):
    table = workload.kind == "table"
    if table:
        first = workload.case(0, threads=1)  # traced ops stay in this process

    def before(i):
        tracer.op = f"op{i}"

    def after(i, case):
        # inclusion and quantile probes: fit(quantiles=False) on each of the
        # op's inputs (the table's first-cell PM1 fit, with its full fit
        # alongside)
        tracer.op = f"probe{i}"
        if table:
            probe = workload.probe_case(case)
            fit_case(workload.ss, probe, quantiles=True)
            fit_case(workload.ss, probe, quantiles=False)
        else:
            for probe in fits_in(case):
                fit_case(workload.ss, probe, quantiles=False)

    next_case = (lambda i: workload.case(i, threads=1)) if table else workload.case
    records = closed_loop(workload, first, args.seconds, next_case, before, after)
    tracer.uninstall()

    # untraced, warm: the last op again, for the tracing overhead
    last_case, _, last_traced, _ = records[-1]
    _, t_untraced = timed(workload.op, last_case)
    extra = {"overhead": last_traced / t_untraced - 1.0,
             "scaling_exponent": scaling_exponent(workload)}
    if table:
        # pool speed-up: the same replication serially (just timed) and on the pool
        pooled = replace(last_case, threads=workload.base.threads)
        cpu0 = os.times()
        _, t_pool = timed(workload.op, pooled)
        cpu1 = os.times()
        extra["pool_speedup"] = t_untraced / t_pool
        extra["cpu_per_wall"] = sum(b - a for a, b in zip(cpu0[:4], cpu1[:4])) / t_pool

    problems, totals = check_records(workload, records)
    values = layer_metrics(workload, tracer, len(records), totals, extra)
    path = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    failed = sum(1 for p in problems if p)
    lines = [f"# traced ops {len(records)}, failed {failed}; spans written to "
             f"{path.relative_to(ROOT)} ({len(tracer.spans)} spans)",
             "# traced op seconds " + " ".join(f"{r[2]:.3f}" for r in records)]
    lines += failure_lines(records, problems)
    return values, len(records), failed, lines


def layer_metrics(workload, tracer, ops, totals, extra):
    spans = tracer.spans
    self_t = tracer.self_times()
    table = workload.kind == "table"

    def per_op(value, pred, phase="op"):
        """Sum of value(span, self time) over the spans of one phase
        ("op", "probe" or "setup") that match pred, divided by the ops."""
        total = sum(value(s, st) for s, st in zip(spans, self_t)
                    if s.op.startswith(phase) and pred(s))
        return total if phase == "setup" else total / ops

    def self_s(s, st):
        return st

    def dur_s(s, st):
        return s.end - s.start

    def count(s, st):
        return 1

    def named(*names):
        return lambda s: s.name in names

    def layer(name):
        return lambda s: s.layer == name

    # inclusion: self time of the probe fit(quantiles=False).  quantiles: the
    # full fit minus the probe on the same input, each without its logpoly
    # time; both fits do the same logpoly work, and leaving it out keeps its
    # run-to-run noise out of the difference
    top = {}  # span id -> id of its outermost ancestor
    logpoly_in = {}  # outermost span id -> logpoly self time below it
    top_fits = {}
    for s, st in zip(spans, self_t):
        top[s.sid] = s.sid if s.parent is None else top[s.parent]
        if s.layer == "logpoly":
            logpoly_in[top[s.sid]] = logpoly_in.get(top[s.sid], 0.0) + st
        if s.name == "bench:fit" and s.parent is None:
            top_fits.setdefault(s.op, []).append((s, st))

    def without_logpoly(fit):
        return dur_s(fit, 0) - logpoly_in.get(fit.sid, 0.0)

    inclusion, quantile = [], []
    for i in range(ops):
        probe_fits = top_fits[f"probe{i}"]
        # (full fit, probe fit) on the same input, in call order
        pairs = [probe_fits] if table else zip(top_fits[f"op{i}"], probe_fits)
        for (full, _), (noq, noq_self) in pairs:
            inclusion.append(noq_self)
            quantile.append(without_logpoly(full) - without_logpoly(noq))

    contraction = named("posterior:weighted_pair_contraction",
                        "logpoly:weighted_pair_contraction")
    product = named("posterior:product_of_linear_factors",
                    "logpoly:product_of_linear_factors")
    return {
        "slabs.busy_s": per_op(self_s, layer("slabs")),
        "slabs.calls": per_op(count, layer("slabs")),
        "slabs.evals_per_coord": per_op(lambda s, st: s.size,
                                        lambda s: s.name.endswith(":log_psi")) / workload.n,
        "slabs.cdf_tables": per_op(count, named("SlabCdfTable.__init__")),
        "logpoly.contraction_s": per_op(self_s, contraction),
        "logpoly.contraction_calls": per_op(count, contraction),
        "logpoly.product_s": per_op(self_s, product),
        "posterior.inclusion_s": statistics.mean(inclusion),
        "posterior.quantile_s": statistics.mean(quantile),
        "posterior.quantile_bad_frac": (totals["quantile_bad"] / totals["quantile_points"]
                                        if totals["quantile_points"] else 0.0),
        "posterior.identity_dim_gap": totals["dim_gap"],
        "posterior.identity_mean_gap": totals["mean_gap"],
        "posterior.scaling_exponent": extra["scaling_exponent"],
        "dimension.build_s": (per_op(self_s, layer("dimension"), "setup")
                              + per_op(self_s, layer("dimension"))),
        "harness.fit_s": per_op(dur_s, named("harness:fit")),
        "harness.fits_per_rep": (per_op(count, named("harness:fit")) / workload.cells
                                 if table else 0.0),
        "harness.eb_s": per_op(dur_s, named("harness:eb_binomial_weight")),
        "harness.identity_s": per_op(dur_s, named("harness:zeta", "harness:log_psi")),
        "harness.pool_speedup": extra.get("pool_speedup", 0.0),
        "harness.cpu_per_wall": extra.get("cpu_per_wall", 0.0),
        "estimators.busy_s": per_op(self_s, layer("estimators")),
        "trace.overhead_frac": extra["overhead"],
    }


def absent_metrics(tracer) -> dict:
    return {m: need for m, need in REQUIRES.items()
            if not any(tracer.has(q) for q in need)}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import spikeslab as ss

    tracer = Tracer().install() if args.trace else None
    workload = WORKLOADS[args.workload](ss, args.seed, args.tiny)
    first = workload.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args)
    if args.trace:
        values, attempted, failed, lines = traced_run(workload, first, tracer, args)
        names = PER_LAYER
        lines += [f"# absent {m}: the package no longer has {', '.join(need)}"
                  for m, need in absent_metrics(tracer).items()]
    else:
        values, attempted, failed, lines = timed_run(workload, first, args)
        values["setup_s"] = setup_s
        names = END_TO_END
    print("# env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
