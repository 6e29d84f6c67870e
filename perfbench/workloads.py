"""The benchmark's four workloads.

Each workload is a closed loop with one client: op i starts when op i - 1
has returned.  Inputs are generated from the benchmark seed through
`generate_data` / `SignalSpec`; the program receives only the generated
vectors.  The spikeslab module is passed in rather than imported here, so
the worker can time its import as part of set-up.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from checks import NULL_SAMPLE, check_fit, check_table, empty_stats, merge_stats


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class FitCase:
    x: np.ndarray
    theta0: np.ndarray
    slab: object
    prior: object | None  # None: binomial prior at the EB weight, built in the op
    label: str


@dataclass
class RoundCase:
    """Several fits timed as one op."""

    fits: tuple[FitCase, ...]
    label: str


def fits_in(case) -> tuple[FitCase, ...]:
    """The fits one op of a fit workload runs."""
    return case.fits if isinstance(case, RoundCase) else (case,)


def fit_case(ss, case: FitCase, quantiles: bool):
    prior = case.prior
    if prior is None:
        prior = ss.binomial_prior(case.x.size, ss.eb_binomial_weight(case.x, case.slab))
    return ss.fit(case.x, prior, case.slab, quantiles=quantiles)


class FitWorkload:
    """Base for workloads whose op is one fit(..., quantiles=True)."""

    kind = "fit"
    stream = 0  # generate_data stream key, distinct per workload
    round_len = 1  # ops per round; a run measures whole rounds
    null_sample = NULL_SAMPLE  # null coordinates whose quantiles are checked

    def __init__(self, ss, seed: int, tiny: bool):
        self.ss = ss
        self.seed = seed
        self.tiny = tiny

    def setup(self):
        """Build priors and slabs; returns the first op's input."""
        raise NotImplementedError

    def case(self, i: int, n: int | None = None) -> FitCase:
        raise NotImplementedError

    def op(self, case: FitCase):
        return fit_case(self.ss, case, quantiles=True)

    def check(self, case: FitCase, post):
        return check_fit(post, case.theta0, self.ss.posterior_shrinkage, self.null_sample)

    def scaling_cases(self):
        """The first configuration at n / 2 and at n."""
        return self.case(0, self.n // 2), self.case(0, self.n)


class FitCoupled(FitWorkload):
    """fit at n = 1000 under the priors that couple the coordinates."""

    name = "fit-coupled"
    stream = 1
    round_len = 4  # every prior x slab pair once

    def setup(self):
        ss = self.ss
        self.n = 60 if self.tiny else 1000
        self._priors = {}
        self.slabs = (ss.laplace_slab(1.0), ss.gaussian_slab(1.0))
        grid = [(10, 3.0), (10, 5.0), (50, 3.0), (50, 5.0), (200, 3.0), (200, 5.0)]
        configs = list(itertools.product(grid, range(2), range(2)))
        # stride 7 is coprime to the 24 configurations, so consecutive ops
        # vary p_n, amplitude, prior and slab together, and each round of
        # four ops has every prior x slab pair once (7 = 3 mod 4)
        self.configs = [configs[(7 * i) % len(configs)] for i in range(len(configs))]
        self.priors(self.n)
        return self.case(0)

    def priors(self, n):
        if n not in self._priors:
            self._priors[n] = (self.ss.complexity_prior(n, 0.1, 3.0),
                               self.ss.betabin_power_prior(n, 0.1))
        return self._priors[n]

    def case(self, i, n=None):
        ss = self.ss
        n = n or self.n
        (p_n, amp), pi, si = self.configs[i % len(self.configs)]
        p_n = max(1, p_n * n // 1000)
        theta0, x = ss.generate_data(ss.SignalSpec(n, p_n, amp, "random"),
                                     self.seed, i, stream_key=(self.stream,))
        prior = self.priors(n)[pi]
        return FitCase(x, theta0, self.slabs[si], prior,
                       f"p_n={p_n} A={amp:g} prior={prior.family.value} "
                       f"slab={self.slabs[si].family.value}")


class FitQuadrature(FitWorkload):
    """Rounds of fits at n = 20 under the slabs without closed forms."""

    name = "fit-quadrature"
    stream = 2
    # one op is a round: three fresh draws, each fitted under one of the
    # three slabs.  A fit under exp-power(1.5) costs about twice one under
    # Student-t, so with one fit per op the median op was always an
    # exp-power(1.5) fit and moved with those draws alone
    round_len = 1
    # each checked quantile costs two cdf quadratures, about as much as the
    # fit itself would with the default sample; three nulls keep the checks
    # to a third of the op time
    null_sample = 3

    def setup(self):
        ss = self.ss
        self.n = 8 if self.tiny else 20
        self.slabs = (ss.student_slab(3.0), ss.exp_power_slab(0.5), ss.exp_power_slab(1.5))
        self._priors = {}
        self.prior(self.n)
        return self.case(0)

    def prior(self, n):
        if n not in self._priors:
            self._priors[n] = self.ss.complexity_prior(n, 0.1)
        return self._priors[n]

    def draw(self, j, n=None) -> FitCase:
        """Fit j of the run: draw j under slab j mod 3."""
        ss = self.ss
        n = n or self.n
        p_n = max(1, n // 20)
        theta0, x = ss.generate_data(ss.SignalSpec(n, p_n, 4.0, "random"),
                                     self.seed, j, stream_key=(self.stream,))
        slab = self.slabs[j % len(self.slabs)]
        return FitCase(x, theta0, slab, self.prior(n),
                       f"slab={slab.family.value}(shape={slab.shape:g})")

    def case(self, i, n=None) -> RoundCase:
        k = len(self.slabs)
        return RoundCase(tuple(self.draw(k * i + s, n) for s in range(k)),
                         "round of Student-t(3), exp-power(0.5), exp-power(1.5)")

    def op(self, case: RoundCase):
        return [fit_case(self.ss, c, quantiles=True) for c in case.fits]

    def check(self, case: RoundCase, posts):
        problems, totals = set(), empty_stats()
        for c, post in zip(case.fits, posts):
            found, stats = super().check(c, post)
            problems.update(found)
            merge_stats(totals, stats)
        return sorted(problems), totals

    def scaling_cases(self):
        return self.draw(0, self.n // 2), self.draw(0, self.n)


class FitTailsLarge(FitWorkload):
    """fit at n = 10000 with signals far into the tails, binomial EB prior."""

    name = "fit-tails-large"
    stream = 4
    round_len = 2  # every slab once

    def setup(self):
        ss = self.ss
        self.n = 400 if self.tiny else 10000
        self.slabs = (ss.laplace_slab(1.0), ss.gaussian_slab(1.0))
        return self.case(0)

    def case(self, i, n=None):
        ss = self.ss
        n = n or self.n
        p_n = n // 20
        # generate_data places the support and draws the noise; the signal
        # signs and log-uniform amplitudes on [3, 1000] come from a
        # generator keyed by the same seed, stream and op
        support, x0 = ss.generate_data(ss.SignalSpec(n, p_n, 1.0, "random"),
                                       self.seed, i, stream_key=(self.stream,))
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence([self.seed, self.stream, i, 1])))
        idx = np.flatnonzero(support)
        theta0 = np.zeros(n)
        theta0[idx] = (rng.choice([-1.0, 1.0], size=idx.size)
                       * np.exp(rng.uniform(np.log(3.0), np.log(1000.0), idx.size)))
        x = theta0 + (x0 - support)
        slab = self.slabs[i % len(self.slabs)]
        return FitCase(x, theta0, slab, None, f"slab={slab.family.value} prior=binomial(EB)")


class StudyTable:
    """One replication of the simulation-study table per op."""

    name = "study-table"
    kind = "table"
    round_len = 1

    def __init__(self, ss, seed: int, tiny: bool):
        self.ss = ss
        self.seed = seed
        self.tiny = tiny

    def setup(self):
        ss = self.ss
        n, grid = (40, (2, 4, 8)) if self.tiny else (500, (25, 50, 100))
        self.base = ss.ExperimentConfig(
            n=n, pn_grid=grid, amplitudes=(3.0, 4.0, 5.0), replications=1,
            estimators=ss.harness.TABLE_ESTIMATORS, kappa=0.1, b=3.0,
            slab=ss.laplace_slab(), qs=(2.0, 1.0), seed=self.seed, threads=nproc())
        self.n = n
        self.cells = len(grid) * len(self.base.amplitudes)
        self.expected_cells = (self.cells * len(self.base.estimators)
                               * len(self.base.qs))
        return self.case(0)

    def case(self, i, threads=None):
        """Replication i: a fresh table seed per op."""
        return replace(self.base, seed=self.seed * 100_000 + i,
                       threads=self.base.threads if threads is None else threads)

    def op(self, config):
        return self.ss.run_table(config)

    def check(self, config, table):
        return check_table(table, self.expected_cells)

    def probe_case(self, config, n=None) -> FitCase:
        """The PM1 fit of the table's first cell (at n observations), for
        the inclusion, quantile and scaling probes."""
        ss = self.ss
        n = n or config.n
        spec = ss.SignalSpec(n, config.pn_grid[0], config.amplitudes[0],
                             config.placement)
        theta0, x = ss.generate_data(spec, config.seed, 0, stream_key=(0,))
        prior = ss.complexity_prior(n, config.kappa, config.b)
        return FitCase(x, theta0, config.slab, prior, "first cell, PM1 prior")

    def scaling_cases(self):
        config = self.case(0)
        return self.probe_case(config, self.n // 2), self.probe_case(config)


WORKLOADS = {w.name: w for w in (FitCoupled, FitQuadrature, StudyTable, FitTailsLarge)}
