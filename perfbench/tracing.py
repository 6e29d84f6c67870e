"""Spans at the spikeslab layer boundaries, recorded from outside the package.

`Tracer.install()` replaces the public functions at each layer boundary, in
every module that looks them up, with wrappers that record a span: name,
layer, start, end, parent span and op id.  Spans stay in memory until
`write()`.  A name a later version of the package no longer has is recorded
as missing, and the metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

import numpy as np

# (module, names, layer): the module is where the name is looked up at call
# time; "spikeslab" is the package namespace the benchmark itself calls
BOUNDARIES = (
    ("spikeslab.slabs", ("log_psi", "log_psi_partial", "posterior_shrinkage",
                         "zeta", "second_moment_ratio"), "slabs"),
    ("spikeslab.posterior", ("log_psi", "log_psi_partial", "posterior_shrinkage"), "slabs"),
    ("spikeslab.harness", ("log_psi", "zeta", "second_moment_ratio"), "slabs"),
    ("spikeslab.logpoly", ("product_of_linear_factors", "weighted_pair_contraction"), "logpoly"),
    ("spikeslab.posterior", ("product_of_linear_factors", "weighted_pair_contraction"), "logpoly"),
    ("spikeslab", ("fit", "eb_binomial_weight"), "posterior"),
    ("spikeslab.harness", ("fit", "eb_binomial_weight"), "posterior"),
    ("spikeslab", ("complexity_prior", "betabin_power_prior", "binomial_prior"), "dimension"),
    ("spikeslab.harness", ("complexity_prior", "betabin_power_prior", "binomial_prior"),
     "dimension"),
    ("spikeslab", ("run_table",), "harness"),
    ("spikeslab.estimators", ("hard_threshold", "hard_threshold_oracle", "dq_loss"),
     "estimators"),
)
# methods wrapped on the class object itself, shared by every importer
CLASS_METHODS = (("spikeslab.slabs", "SlabCdfTable", ("__init__", "quantile"), "slabs"),)


@dataclass
class Span:
    sid: int
    name: str  # "<caller>:<function>", caller being the module that looked it up
    layer: str
    start: float
    end: float
    parent: int | None
    op: str
    size: int = 0  # coordinates passed (first array argument), where relevant


def _short(module: str) -> str:
    return "bench" if module == "spikeslab" else module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()  # "<module>.<name>" not found
        self.op = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, size_arg: int | None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            span = Span(sid, name, layer, clock(), 0.0, parent, self.op)
            if size_arg is not None and len(args) > size_arg:
                span.size = int(np.size(args[size_arg]))
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()

        return wrapper

    def install(self):
        for module_name, names, layer in BOUNDARIES:
            module = self._import(module_name)
            for name in names:
                fn = getattr(module, name, None) if module else None
                if fn is None:
                    self.missing.add(f"{module_name}.{name}")
                    continue
                # log_psi(prior, x): record how many coordinates go through
                size_arg = 1 if name == "log_psi" else None
                wrapped = self._wrap(fn, f"{_short(module_name)}:{name}", layer, size_arg)
                self._restore.append((module, name, fn))
                setattr(module, name, wrapped)
        for module_name, cls_name, methods, layer in CLASS_METHODS:
            module = self._import(module_name)
            cls = getattr(module, cls_name, None) if module else None
            for method in methods:
                fn = getattr(cls, method, None) if cls else None
                if fn is None:
                    self.missing.add(f"{module_name}.{cls_name}.{method}")
                    continue
                wrapped = self._wrap(fn, f"{cls_name}.{method}", layer, None)
                self._restore.append((cls, method, fn))
                setattr(cls, method, wrapped)
        return self

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    def _import(self, module_name):
        try:
            return importlib.import_module(module_name)
        except ImportError:
            return None

    def has(self, qualified: str) -> bool:
        """Whether a wrapped name ("spikeslab.logpoly.weighted_pair_contraction")
        was found in its module."""
        return qualified not in self.missing

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part covered by its child spans."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
