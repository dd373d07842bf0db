"""Spans around the engine's public functions, recorded from outside.

`Tracer.install()` replaces each function named in `SPANS` with a wrapper
that records a span (name, parent span, operation, start, end) and puts the
original back on `uninstall()`.  A function is replaced under every name a
`lostchance` module binds it to, since modules import each other's
functions by name.  Nothing in the engine's source changes.

Spans stay in memory in flat arrays and are written out once, at the end,
as one compressed numpy archive.  Self time is a span's duration minus the
durations of its direct children; calls nest strictly in one thread, so
the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute) for every wrapped function.  The span name is
# "module.attribute"; Coupling.__post_init__ is the coupling's validation.
SPANS = [
    ("cli", "main"),
    ("cli", "build_parser"),
    ("casefile", "load_case"),
    ("choice", "evaluate_choice_case"),
    ("choice", "presume_choice_it_cp"),
    ("choice", "presume_choice_ii_cp"),
    ("choice", "flatten_choice_case"),
    ("coupling", "evidence_coupling"),
    ("coupling", "coupling_from_map"),
    ("coupling", "independence_coupling"),
    ("coupling", "least_divergence_coupling"),
    ("valuation", "evaluate_policy"),
    ("valuation", "selective_groups"),
    ("valuation", "build_partition"),
    ("valuation", "conditional_gap"),
    ("valuation", "cc_indemnity"),
    ("valuation", "fm_indemnity"),
    ("outcome", "award_from_compensation"),
    ("outcome", "validate_case"),
    ("tables", "reproduce_table"),
    ("scenarios", "matos_sweep"),
    ("scenarios", "medical_sweep"),
    ("verify", "run_verification"),
    ("valuation", "oracle_best_schedule"),
    ("coupling", "oracle_min_cost"),
]
VALIDATE = "coupling.Coupling.__post_init__"
BUILDERS = [
    "coupling.evidence_coupling",
    "coupling.coupling_from_map",
    "coupling.independence_coupling",
    "coupling.least_divergence_coupling",
]

# Per-layer metrics: (name, unit).  Times are milliseconds per operation;
# counts are per operation unless the name says otherwise.
LAYER_METRICS = [
    ("cli.parser_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("casefile.load_ms", "ms"),
    ("choice.presume_ms", "ms"),
    ("choice.flatten_ms", "ms"),
    ("choice.flattens_per_case", "count"),
    ("coupling.build_ms", "ms"),
    ("coupling.validate_ms", "ms"),
    ("coupling.cells", "count"),
    ("coupling.fill_ratio", "ratio"),
    ("coupling.builds_per_schedule", "count"),
    ("valuation.groups_ms", "ms"),
    ("valuation.partition_ms", "ms"),
    ("valuation.gap_ms", "ms"),
    ("valuation.indemnity_ms", "ms"),
    ("valuation.self_ms", "ms"),
    ("outcome.award_ms", "ms"),
    ("outcome.award_calls", "count"),
    ("outcome.validate_ms", "ms"),
    ("tables.reproduce_ms", "ms"),
    ("tables.evaluations", "count"),
    ("scenarios.sweep_ms", "ms"),
    ("verify.oracle_schedule_ms", "ms"),
    ("verify.oracle_transport_ms", "ms"),
    ("verify.self_ms", "ms"),
    ("verify.checks", "count"),
]


class Tracer:
    """Span recorder for one process; install, run operations, uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.cells = 0
        self.positive_cells = 0
        self.checks = 0  # property checks the audit reports it made
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.t1)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.t1.append(0.0)
        self._stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.t1[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, observe=None):
        """`fn` recording a span; `observe` is given each return value."""
        nid = self._id(name)
        opened, closed = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            # The span covers the whole iteration; the engine's callers
            # consume these generators in one go.
            @functools.wraps(fn)
            def gen(*args, **kwargs):
                sid = opened(nid)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    closed(sid)

            return gen

        @functools.wraps(fn)
        def call(*args, **kwargs):
            sid = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(sid)
            if observe is not None:
                observe(result)
            return result

        return call

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for mod_name, _ in SPANS:
            importlib.import_module(f"lostchance.{mod_name}")
        modules = [m for k, m in sys.modules.items() if k.startswith("lostchance")]
        observers = {("verify", "run_verification"): self._count_checks}
        for mod_name, attr in SPANS:
            orig = getattr(sys.modules[f"lostchance.{mod_name}"], attr)
            wrapped = self._wrap(
                f"{mod_name}.{attr}", orig, observers.get((mod_name, attr))
            )
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        coupling_cls = sys.modules["lostchance.coupling"].Coupling
        orig_post = coupling_cls.__post_init__
        nid = self._id(VALIDATE)

        def post_init(inner):
            sid = self._open(nid)
            try:
                orig_post(inner)
            finally:
                self._close(sid)
            self.cells += inner.joint.size
            self.positive_cells += int(np.count_nonzero(inner.joint))

        self._restore.append((coupling_cls, "__post_init__", orig_post))
        coupling_cls.__post_init__ = post_init

    def _count_checks(self, report) -> None:
        self.checks += sum(r.checked for r in report.results)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def timings(self) -> dict:
        """The span arrays, plus each span's duration and self time (s).

        Self time is the duration minus the direct children's durations.
        """
        a = self.arrays()
        dur = a["t1"] - a["t0"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        a["dur"] = dur
        a["self"] = dur - child
        return a

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, ops: int, choice_ops: int) -> dict:
        """Per-layer metrics over `ops` traced operations.

        choice_ops is how many of them evaluated a choice-form case file.
        """
        a = self.timings()
        name, parent = a["name"], a["parent"]
        dur, self_time = a["dur"], a["self"]
        has_parent = parent >= 0

        def ids(*names):
            return [self._ids[n] for n in names if n in self._ids]

        def mask(*names):
            return np.isin(name, ids(*names))

        def ms(*names, own=False):
            return 1e3 * float((self_time if own else dur)[mask(*names)].sum()) / ops

        def under(*names):
            """Spans with an ancestor among `names`."""
            target = mask(*names)
            flag = np.zeros(name.size, dtype=bool)
            safe = np.where(has_parent, parent, 0)
            for _ in range(16):
                flag = has_parent & (target[safe] | flag[safe])
            return flag

        evals = mask("valuation.evaluate_policy")
        built_in_eval = int(np.sum(mask(*BUILDERS) & under("valuation.evaluate_policy")))
        values = {
            "cli.parser_ms": ms("cli.build_parser"),
            "cli.self_ms": ms("cli.main", own=True),
            "casefile.load_ms": ms("casefile.load_case"),
            "choice.presume_ms": ms("choice.presume_choice_it_cp", "choice.presume_choice_ii_cp"),
            "choice.flatten_ms": ms("choice.flatten_choice_case"),
            "choice.flattens_per_case": (
                int(mask("choice.flatten_choice_case").sum()) / choice_ops if choice_ops else 0.0
            ),
            "coupling.build_ms": ms(*BUILDERS),
            "coupling.validate_ms": ms(VALIDATE),
            "coupling.cells": self.cells / ops,
            "coupling.fill_ratio": self.positive_cells / self.cells if self.cells else 0.0,
            "coupling.builds_per_schedule": (
                built_in_eval / int(evals.sum()) if evals.any() else 0.0
            ),
            "valuation.groups_ms": ms("valuation.selective_groups"),
            "valuation.partition_ms": ms("valuation.build_partition"),
            "valuation.gap_ms": ms("valuation.conditional_gap"),
            "valuation.indemnity_ms": ms("valuation.cc_indemnity", "valuation.fm_indemnity"),
            "valuation.self_ms": ms("valuation.evaluate_policy", own=True),
            "outcome.award_ms": ms("outcome.award_from_compensation"),
            "outcome.award_calls": int(mask("outcome.award_from_compensation").sum()) / ops,
            "outcome.validate_ms": ms("outcome.validate_case"),
            "tables.reproduce_ms": ms("tables.reproduce_table"),
            "tables.evaluations": int(np.sum(evals & under("tables.reproduce_table"))) / ops,
            "scenarios.sweep_ms": ms("scenarios.matos_sweep", "scenarios.medical_sweep"),
            "verify.oracle_schedule_ms": ms("valuation.oracle_best_schedule"),
            "verify.oracle_transport_ms": ms("coupling.oracle_min_cost"),
            "verify.self_ms": ms("verify.run_verification", own=True),
            "verify.checks": self.checks / ops,
        }
        return {k: (values[k], unit) for k, unit in LAYER_METRICS}
