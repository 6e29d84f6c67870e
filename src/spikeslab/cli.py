"""Command-line interface: fit, simulate, dim-check, contract-check,
shrink-demo, intervals."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness
from .dimension import (
    betabin_power_prior,
    binomial_prior,
    complexity_prior,
    geometric_prior,
    poisson_prior,
)
from .posterior import DEFAULT_LEVELS, fit
from .slabs import SlabFamily, SlabPrior


# each --prior: its constructor and the flags it reads after n, in order
_DIM_PRIORS = {
    "complexity": (complexity_prior, ("kappa", "b")),
    "betabin": (betabin_power_prior, ("kappa",)),
    "binomial": (binomial_prior, ("alpha",)),
    "poisson": (poisson_prior, ("alpha",)),
    "geometric": (geometric_prior, ("alpha",)),
}


def _add_prior_flags(p: argparse.ArgumentParser):
    p.add_argument("--prior", default="complexity", choices=list(_DIM_PRIORS))
    p.add_argument("--kappa", type=float, default=0.1)
    p.add_argument("--b", type=float, default=3.0)
    p.add_argument("--alpha", type=float, default=0.05,
                   help="binomial/poisson rate or geometric success probability")


def _add_slab_flags(p: argparse.ArgumentParser):
    p.add_argument("--slab", default="laplace",
                   choices=["laplace", "gaussian", "student", "exppower"])
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--df", type=float, default=3.0,
                   help="Student degrees of freedom or exponential-power exponent")


def _has_shape(args) -> bool:
    return SlabFamily(args.slab) in (SlabFamily.STUDENT, SlabFamily.EXP_POWER)


def build_slab(args) -> SlabPrior:
    return SlabPrior(SlabFamily(args.slab), scale=args.scale,
                     shape=args.df if _has_shape(args) else None)


def _slab_flags(args) -> str:
    """The slab flags build_slab reads, with their values."""
    shape = f" --df {args.df:g}" if _has_shape(args) else ""
    return f"--slab {args.slab} --scale {args.scale:g}{shape}"


def make_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="spikeslab",
                                   description="Exact spike-and-slab inference "
                                               "for the sparse normal-means model")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="posterior summary for a data file")
    p.add_argument("data", help="one observation per line, or CSV with header x")
    _add_prior_flags(p)
    _add_slab_flags(p)
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("simulate", help="estimator-comparison table",
                       description="estimator-comparison table; exits with status 1, "
                                   "after the table, when a replication failed")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--pn", type=int, nargs="+", default=[25, 50, 100])
    p.add_argument("--amp", type=float, nargs="+", default=[3.0, 4.0, 5.0])
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kappa", type=float, default=0.1)
    p.add_argument("--b", type=float, default=3.0)
    _add_slab_flags(p)
    p.add_argument("--q", type=float, nargs="+", default=[2.0, 1.0])
    p.add_argument("--estimators", nargs="+", default=list(harness.TABLE_ESTIMATORS),
                   choices=harness.TABLE_ESTIMATORS)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes; the pool runs over replications, each "
                        "one block of every grid cell, so a one-replication table "
                        "stays in-process")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("dim-check", help="posterior dimension tail-mass check")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--pn", type=int, default=25)
    p.add_argument("--amp", type=float, default=5.0)
    p.add_argument("--M", type=float, nargs="+", default=[0, 1, 2, 3, 5, 10])
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_prior_flags(p)
    _add_slab_flags(p)

    p = sub.add_parser("contract-check", help="posterior risk vs p log(n/p) scale")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--pn", type=int, nargs="+", default=[10, 25, 50, 100])
    p.add_argument("--amp", type=float, default=5.0)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_prior_flags(p)
    _add_slab_flags(p)

    p = sub.add_parser("shrink-demo", help="Laplace vs Gaussian slab risk")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--pn", type=int, default=25)
    p.add_argument("--amp", type=float, nargs="+", default=[3.0, 5.0, 7.0])
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kappa", type=float, default=1.0)

    p = sub.add_parser("intervals", help="credible-interval dataset for plotting")
    p.add_argument("data")
    _add_prior_flags(p)
    _add_slab_flags(p)
    p.add_argument("--levels", type=float, nargs=2, default=list(DEFAULT_LEVELS))
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    return root


def _summary_json(post) -> dict:
    return {
        "n": int(post.x.size),
        "log_partition": post.log_partition,
        "dim_log_pmf": post.dim_log_pmf.tolist(),
        "inclusion_prob": post.inclusion_prob.tolist(),
        "mean": post.mean.tolist(),
        "median": post.median.tolist(),
        "credible_lo": post.credible_lo.tolist(),
        "credible_hi": post.credible_hi.tolist(),
        "levels": list(post.levels),
    }


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)

    def usage(build, flags: str):
        """build(), with the ValueError of an invalid flag value reported as
        a usage error (exit status 2) that names the flags."""
        try:
            return build()
        except ValueError as exc:
            parser.error(f"{flags}: {exc}")

    slab = usage(lambda: build_slab(args), _slab_flags(args)) if hasattr(args, "slab") else None

    def dim_prior(n: int):
        build, names = _DIM_PRIORS[args.prior]
        flags = " ".join([f"--prior {args.prior}"] + [f"--{k} {getattr(args, k):g}" for k in names])
        return usage(lambda: build(n, *(getattr(args, k) for k in names)), flags)

    def observations():
        return usage(lambda: harness.read_observations(args.data), "data file")

    if args.command == "fit":
        x = observations()
        post = fit(x, dim_prior(x.size), slab)
        payload = json.dumps(_summary_json(post), indent=1)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)

    elif args.command == "simulate":
        config = usage(lambda: harness.ExperimentConfig(
            n=args.n, pn_grid=tuple(args.pn), amplitudes=tuple(args.amp),
            replications=args.reps, estimators=tuple(args.estimators),
            kappa=args.kappa, b=args.b, slab=slab,
            qs=tuple(args.q), seed=args.seed, threads=args.threads,
        ), "--n, --pn, --amp, --reps, --estimators, --kappa, --b, --q or --threads")
        table = harness.run_table(config)
        if args.out:
            (table.to_json if args.format == "json" else table.to_csv)(args.out)
        else:
            for (name, p_n, amp, q), c in sorted(table.cells.items()):
                print(f"{name:6s} p_n={p_n:4d} A={amp:g} q={q:g} "
                      f"loss={c.mean_loss:9.2f} se={c.se:.2f} reps={c.reps}")
        for f in table.failures:
            print(f"FAILED rep: {f}", file=sys.stderr)
        if table.failures:
            return 1

    elif args.command == "dim-check":
        rep = usage(lambda: harness.run_dimension_check(
            args.n, args.pn, args.amp, args.M, args.reps,
            dim_prior=dim_prior(args.n), slab=slab, seed=args.seed,
        ), "--n, --pn, --M or --reps")
        for M, mass in rep.rows:
            print(f"M={M:6.2f}  avg tail mass P(|S| > M p_n | X) = {mass:.6f}")
        print(f"smallest M with mass < 0.01: {rep.smallest_passing_M}")

    elif args.command == "contract-check":
        rep = usage(lambda: harness.run_contraction_check(
            args.n, args.pn, args.amp, args.reps,
            dim_prior=dim_prior(args.n), slab=slab, seed=args.seed,
        ), "--n, --pn or --reps")
        for p_n, risk, ratio in rep.rows:
            print(f"p_n={p_n:4d}  avg posterior risk={risk:10.2f}  "
                  f"risk / (p_n log(n/p_n)) = {ratio:.3f}")
        print(f"ratio spread (max/min): {rep.ratio_spread:.3f}")

    elif args.command == "shrink-demo":
        rep = usage(lambda: harness.run_shrinkage_demo(args.n, args.pn, args.amp, args.reps,
                                                       seed=args.seed, kappa=args.kappa),
                    "--n, --pn, --amp, --reps or --kappa")
        for A, lap, gau, ratio in rep.rows:
            print(f"A={A:5.2f}  laplace={lap:9.2f}  gaussian={gau:9.2f}  "
                  f"ratio={ratio:.3f}")

    elif args.command == "intervals":
        x = observations()
        usage(lambda: harness.emit_interval_data(x, dim_prior(x.size), slab, args.out,
                                                 levels=tuple(args.levels), fmt=args.format),
              "--levels " + " ".join(f"{v:g}" for v in args.levels))
        print(f"wrote {x.size} rows to {args.out}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
