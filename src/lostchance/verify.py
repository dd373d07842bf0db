"""Randomized audit of the closed-form rules against brute-force oracles.

Every suite draws seeded random instances and checks an exact claim:
couplings keep their marginals, the comonotone matching is transport
optimal, the clamped conditional gap minimizes expected squared
shortfall, the fair-mean schedule does so among mean-matching schedules,
and the lost-choice factorization keeps the counterfactual choice
uninformative about the factual result given the factual choice.  The
suites read the engine's tables from one `build_grid` per instance, and
the schedule suites price it, as `lostchance evaluate` does.

The suites run as tasks on a pool of forked workers, one per CPU; each
draws from its own seeded stream, so the report is the same bytes on
any number of CPUs.

The harness can inject a deliberate shift into the fair-mean root
(lambda_offset) to demonstrate that the checks actually bite.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .choice import (
    ChoiceCaseModel,
    best_dutiful_choice,
    flatten_choice_case,
    mitigation_offset,
    presume_choice_it_cp,
    presume_choice_ii_cp,
)
from .coupling import (
    evidence_coupling,
    independence_coupling,
    least_divergence_coupling,
    northwest_corner,
    oracle_min_cost,
    transport_cost,
)
from .outcome import CaseModel, DiscreteDistribution, IdentityMoneyMap, OutcomeSpace
from .valuation import (
    STANDARD_AXES,
    GridBuild,
    PolicyCombo,
    build_grid,
    cc_indemnity,
    fm_indemnity,
    oracle_best_schedule,
    price,
    schedule_risk,
    solve_lambda,
)

MAX_FAILURES_SHOWN = 5
# Single instances drawn past the requested count for a suite that has
# not yet exercised its property.
MAX_EXTRA_INSTANCES = 100


def random_case(
    rng: np.random.Generator,
    min_outcomes: int = 2,
    max_outcomes: int = 4,
) -> CaseModel:
    """Random validated case with well-separated weights.

    Weights are floored at 0.01 so conditional means stay stable; one
    factual weight is zeroed now and then to exercise support handling,
    and occasional duplicated values exercise tie-breaking.
    """
    n = int(rng.integers(min_outcomes, max_outcomes + 1))
    values = rng.uniform(-10.0, 10.0, size=n)
    if n >= 3 and rng.random() < 0.2:
        values[int(rng.integers(1, n))] = values[0]
    labels = tuple(f"o{i}" for i in range(n))

    def weights(zero_one: bool) -> np.ndarray:
        w = rng.dirichlet(np.ones(n))
        w = np.maximum(w, 0.01)
        if zero_one and n > 2 and rng.random() < 0.3:
            w[int(rng.integers(0, n))] = 0.0
        return w / w.sum()

    return CaseModel(
        space=OutcomeSpace(labels, values),
        counterfactual=DiscreteDistribution(weights(False)),
        factual=DiscreteDistribution(weights(True)),
        money=IdentityMoneyMap(),
    )


def random_vertex_coupling(rng: np.random.Generator, model: CaseModel) -> np.ndarray:
    """Convex combination of transportation-polytope vertices.

    Each vertex is a northwest-corner solution under a random pair of
    row/column orderings, so marginals are preserved exactly.
    """
    rows = list(model.counterfactual.support())
    cols = list(model.factual.support())
    row_mass = [float(w) for w in model.counterfactual.weights]
    col_mass = [float(w) for w in model.factual.weights]
    k = int(rng.integers(1, 4))
    mix = rng.dirichlet(np.ones(k))
    j = np.zeros((model.space.size, model.space.size))
    for w in mix:
        ro = tuple(rng.permutation(rows))
        co = tuple(rng.permutation(cols))
        j += w * np.asarray(northwest_corner(ro, co, row_mass, col_mass))
    return j


def random_choice_case(rng: np.random.Generator) -> ChoiceCaseModel:
    nc = int(rng.integers(2, 4))
    nr = int(rng.integers(2, 5))
    choices = tuple(f"c{i}" for i in range(nc))
    results = tuple(f"r{i}" for i in range(nr))
    values = rng.uniform(-10.0, 10.0, size=(nc, nr))

    def conditional() -> DiscreteDistribution:
        w = np.maximum(rng.dirichlet(np.ones(nr)), 0.02)
        return DiscreteDistribution(w / w.sum())

    duty_size = int(rng.integers(1, nc + 1))
    duty = frozenset(rng.choice(choices, size=duty_size, replace=False).tolist())
    evidence = None
    if rng.random() < 0.5:
        w = np.maximum(rng.dirichlet(np.ones(nc)), 0.02)
        evidence = DiscreteDistribution(w / w.sum())
    return ChoiceCaseModel(
        choices=choices,
        duty=duty,
        results=results,
        values=values,
        money=IdentityMoneyMap(),
        result_given_choice_cf=tuple(conditional() for _ in range(nc)),
        result_given_choice_f=tuple(conditional() for _ in range(nc)),
        factual_choice=str(rng.choice(choices)),
        factual_result=str(rng.choice(results)),
        counterfactual_choice=evidence,
    )


@dataclass
class PropertyResult:
    name: str
    checked: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ok(self, condition: bool, message: str) -> None:
        self.checked += 1
        if not condition:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(message)

    @property
    def passed(self) -> bool:
        return self.failed == 0 and self.checked > 0


@dataclass
class VerificationReport:
    seed: int
    instances: int
    lambda_offset: float
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [
            f"verification report (seed={self.seed}, instances={self.instances}"
            + (
                f", lambda_offset={self.lambda_offset:g})"
                if self.lambda_offset
                else ")"
            )
        ]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  {status} {r.name}: {r.checked - r.failed}/{r.checked}")
            for f in r.failures:
                lines.append(f"       {f}")
        lines.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.results)} properties)"
        )
        return "\n".join(lines)


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _drawn_build(rng, model: CaseModel, indemnity: str = "cc-i") -> GridBuild:
    """The grid of l-fi, m-fi and h-fi (tables 0, 1 and 2) under
    `indemnity` and a connection drawn at random; e-c evaluates a random
    vertex mix."""
    pick = int(rng.integers(0, 3))
    joint = random_vertex_coupling(rng, model) if pick == 0 else None
    combos = [PolicyCombo(info, STANDARD_AXES[1][pick], indemnity) for info in STANDARD_AXES[0]]
    return build_grid(model, combos, joint)


def _tables(build: GridBuild):
    """Each table of a `_drawn_build`: (info, partition, p, gaps, expected gap)."""
    for t, info in enumerate(STANDARD_AXES[0]):
        yield (info, build.gaps.partitions[t], *build.gaps.table(t), build.gaps.expected[t])


def _check_marginal_preservation(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = random_case(rng)
        for kind, c in (
            ("evidence", evidence_coupling(model, random_vertex_coupling(rng, model))),
            ("least-divergence", least_divergence_coupling(model)),
            ("independence", independence_coupling(model)),
        ):
            dev = max(
                float(np.max(np.abs(c.counterfactual_marginal - model.counterfactual.array))),
                float(np.max(np.abs(c.factual_marginal - model.factual.array))),
            )
            res.ok(
                dev <= 1e-10,
                f"instance {i}: {kind} coupling drifts marginals by {dev:g}",
            )


def _check_comonotone_optimal(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = random_case(rng, min_outcomes=2, max_outcomes=5)
        ld = least_divergence_coupling(model)
        cost = transport_cost(ld)
        _, best = oracle_min_cost(model)
        v = model.space.values_array
        scale = max(1.0, float((v.max() - v.min()) ** 2))
        res.ok(
            abs(cost - best) <= 1e-9 * scale,
            f"instance {i}: comonotone cost {cost!r} vs oracle {best!r}",
        )


def _check_monotone_rearrangement(res: PropertyResult, rng, instances: range) -> None:
    # Positive-mass cells, sorted by column value and then row value,
    # must have non-decreasing row values: no mass pair may be anti-sorted.
    for i in instances:
        model = random_case(rng)
        cells = least_divergence_coupling(model).cells
        v = model.space.values_array
        keep = cells.mass > 1e-14
        row_v, col_v = v[cells.rows[keep]], v[cells.cols[keep]]
        falls = np.diff(row_v[np.lexsort((row_v, col_v))]) < 0.0
        res.ok(not falls.any(), f"instance {i}: comonotone support is anti-sorted")


def _check_independence_covariance(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = random_case(rng)
        c = independence_coupling(model)
        v = model.space.values_array
        mean0 = float(c.counterfactual_marginal @ v)
        mean1 = float(c.factual_marginal @ v)
        cov = float(np.einsum("ij,i,j->", c.joint, v - mean0, v - mean1))
        res.ok(abs(cov) <= 1e-10, f"instance {i}: independent coupling cov {cov:g}")


def _block_payouts(schedule, partition, model: CaseModel) -> np.ndarray:
    """A schedule's payout in each block of `partition`: that of the
    block's first outcome."""
    paid = np.zeros(model.space.size)
    paid[list(model.factual.support())] = schedule.values
    first = np.unique(partition.block_ids, return_index=True)[1]
    return paid[partition.outcomes[first]]


def _check_unconstrained_optimal(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = random_case(rng)
        build = _drawn_build(rng, model)
        coupling = build.couplings[0]
        v = model.space.values_array
        vrange = float(v.max() - v.min())
        risk_tol = 1e-9 * max(1.0, vrange**2)
        for (info, partition, *_), schedule in zip(_tables(build), price(build)):
            x_cc = _block_payouts(schedule, partition, model)
            x_or, r_or = oracle_best_schedule(coupling, partition)
            r_cc = schedule_risk(coupling, partition, x_cc)
            res.ok(
                r_cc <= r_or + risk_tol,
                f"instance {i} {info}: clamped-gap risk {r_cc!r} above "
                f"oracle {r_or!r}",
            )
            res.ok(
                float(np.max(np.abs(x_cc - x_or))) <= 0.01 * vrange + 1e-9,
                f"instance {i} {info}: clamped-gap schedule drifts from the "
                f"oracle beyond grid resolution",
            )


def _check_constrained_optimal(
    res: PropertyResult, rng, instances: range, lambda_offset: float
) -> bool:
    """Returns whether some instance had a positive mean gap: without one
    the fair-mean shift was never exercised."""
    positives = 0
    for i in instances:
        model = random_case(rng)
        build = _drawn_build(rng, model, "fm-i")
        coupling = build.couplings[0]
        v = model.space.values_array
        vrange = float(v.max() - v.min())
        risk_tol = 1e-9 * max(1.0, vrange**2)
        # The harness schedule is held to the evaluated one only when no
        # shift is injected.
        schedules = price(build) if lambda_offset == 0.0 else None
        for t, (info, partition, p, g, target) in enumerate(_tables(build)):
            if target <= 0.0:
                x_fm = fm_indemnity(p, g, target)
                res.ok(
                    not np.any(x_fm),
                    f"instance {i} {info}: nonzero fair-mean schedule for "
                    f"non-positive mean gap",
                )
                continue
            positives += 1
            lam = solve_lambda(p, g, target) + lambda_offset
            x = np.maximum(0.0, g - lam)
            if schedules is not None:
                x_fm = _block_payouts(schedules[t], partition, model)
                res.ok(
                    bool(np.array_equal(x, x_fm)),
                    f"instance {i} {info}: harness schedule differs from "
                    f"the evaluated fm-i schedule",
                )
            mean = float(p @ x)
            res.ok(
                abs(mean - target) <= 1e-10,
                f"instance {i} {info}: fair-mean payout {mean!r} misses "
                f"target {target!r}",
            )
            x_or, r_or = oracle_best_schedule(coupling, partition, target)
            r_x = schedule_risk(coupling, partition, x)
            res.ok(
                r_x <= r_or + risk_tol,
                f"instance {i} {info}: fair-mean risk {r_x!r} above "
                f"constrained oracle {r_or!r}",
            )
            res.ok(
                float(np.max(np.abs(x - x_or))) <= 0.01 * vrange + 1e-9,
                f"instance {i} {info}: fair-mean schedule drifts from the "
                f"constrained oracle beyond grid resolution",
            )
    return positives > 0


def _check_cc_dominates_fm(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = random_case(rng)
        for info, _, p, g, target in _tables(_drawn_build(rng, model)):
            x_cc = cc_indemnity(g)
            x_fm = fm_indemnity(p, g, target)
            res.ok(
                bool(np.all(x_cc >= x_fm)),
                f"instance {i} {info}: fair-mean payout exceeds clamped gap",
            )


def _check_shift_function_shape(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = random_case(rng)
        # The h-fi table.
        p, g = _drawn_build(rng, model).gaps.table(2)

        def f(lam: float) -> float:
            return float(p @ np.maximum(0.0, g - lam))

        lo = float(g.min()) - 1.0
        hi = float(g.max()) + 1.0
        points = sorted(rng.uniform(lo, hi, size=6))
        for a, b in zip(points, points[1:]):
            fa, fb = f(a), f(b)
            res.ok(fb <= fa + 1e-12, f"instance {i}: payout curve increased")
            res.ok(
                fa - fb <= (b - a) + 1e-12,
                f"instance {i}: payout curve steeper than slope one",
            )


def _check_mfi_fmi_closed_form(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = random_case(rng)
        build = _drawn_build(rng, model)
        # The m-fi table.
        p, g = build.gaps.table(1)
        target = build.gaps.expected[1]
        # The closed form presumes a strictly non-compensable second block;
        # a tied outcome can leave it with a positive gap at tie-tolerance
        # scale, in which case the generic root is the right answer.
        if target <= 0.0 or not build.groups.plus.any() or build.groups.ties.any():
            continue
        x_fm = fm_indemnity(p, g, target)
        # The compensable block always comes first in an m-fi partition.
        expected = target / float(p[0])
        res.ok(
            abs(x_fm[0] - expected) <= 1e-9 * max(1.0, abs(expected)),
            f"instance {i}: compensable-block payout {x_fm[0]!r} differs "
            f"from {expected!r}",
        )
        res.ok(
            all(abs(x) == 0.0 for x in x_fm[1:]),
            f"instance {i}: non-compensable block paid",
        )


def _check_gap_identity(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = random_case(rng)
        mean_gap = model.expected_gap()
        for info, *_, expected in _tables(_drawn_build(rng, model)):
            res.ok(
                abs(expected - mean_gap) <= 1e-10,
                f"instance {i} {info}: block gaps aggregate to "
                f"{expected!r}, case mean gap is {mean_gap!r}",
            )


def _check_choice_independence(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = presume_choice_it_cp(random_choice_case(rng))
        # The joint `evaluate` prices, as (C0, R0, C1, R1).
        nc, nr = model.n_choices, model.n_results
        joint4 = np.asarray(flatten_choice_case(model)[1]).reshape(nc, nr, nc, nr)
        fc = model.choice_index(model.factual_choice)
        f_cond = model.result_given_choice_f[fc].array
        for c0 in range(model.n_choices):
            pc = float(joint4[c0].sum())
            if pc <= 0.0:
                continue
            r1_given = joint4[c0, :, fc, :].sum(axis=0) / pc
            dev = float(np.max(np.abs(r1_given - f_cond)))
            res.ok(
                dev <= 1e-10,
                f"instance {i}: factual result law shifts by {dev:g} when "
                f"conditioning on counterfactual choice {c0}",
            )


def _check_presumptions(res: PropertyResult, rng, instances: range) -> None:
    for i in instances:
        model = random_choice_case(rng)
        it = presume_choice_it_cp(model)
        ii = presume_choice_ii_cp(model)
        if model.counterfactual_choice is not None:
            res.ok(
                it == model,
                f"instance {i}: rebuttable presumption overrode evidence",
            )
        else:
            res.ok(
                it.counterfactual_choice is not None,
                f"instance {i}: rebuttable presumption left choice unresolved",
            )
        best = best_dutiful_choice(model)
        point = ii.counterfactual_choice.weights[ii.choice_index(best)]
        res.ok(
            point == 1.0,
            f"instance {i}: absolute presumption did not fix the best "
            f"dutiful choice",
        )
        res.ok(
            presume_choice_it_cp(it) == it and presume_choice_ii_cp(ii) == ii,
            f"instance {i}: presumption is not idempotent",
        )


def _check_mitigation(res: PropertyResult, rng, instances: range) -> None:
    combo = PolicyCombo("h-fi", "e-c", "cc-i")
    for i in instances:
        dual = random_choice_case(rng)
        main = float(rng.uniform(0.0, 5.0))
        final = mitigation_offset(main, dual, combo)
        res.ok(final >= 0.0, f"instance {i}: mitigation went negative")
        res.ok(
            final <= main + 1e-12,
            f"instance {i}: mitigation increased the award",
        )
        if dual.factual_choice in dual.duty:
            res.ok(
                final == main,
                f"instance {i}: dutiful factual choice still reduced the award",
            )
        res.ok(
            mitigation_offset(0.0, dual, combo) == 0.0,
            f"instance {i}: zero main award did not clamp at zero",
        )


def _suites(instances: int, lambda_offset: float) -> list:
    """Every property suite as (stream, name, check, instances, keyword
    arguments), the heaviest first.

    A suite draws from its own stream and is reported in stream order,
    so the order the suites run in changes no byte of the report.
    """
    fair_mean = {"lambda_offset": lambda_offset}
    return [
        (4, "clamped-gap-risk-optimal", _check_unconstrained_optimal, instances, {}),
        (5, "fair-mean-constrained-optimal", _check_constrained_optimal, instances, fair_mean),
        (1, "comonotone-transport-optimal", _check_comonotone_optimal, min(instances, 60), {}),
        (12, "mitigation-clamp", _check_mitigation, instances, {}),
        (0, "coupling-marginals", _check_marginal_preservation, instances, {}),
        (11, "presumption-behavior", _check_presumptions, instances, {}),
        (10, "choice-result-independence", _check_choice_independence, instances, {}),
        (6, "clamped-dominates-fair-mean", _check_cc_dominates_fm, instances, {}),
        (9, "block-gap-aggregation", _check_gap_identity, instances, {}),
        (7, "payout-curve-shape", _check_shift_function_shape, instances, {}),
        (8, "two-block-fair-mean-closed-form", _check_mfi_fmi_closed_form, instances, {}),
        (3, "independence-zero-covariance", _check_independence_covariance, instances, {}),
        (2, "comonotone-monotone-support", _check_monotone_rearrangement, instances, {}),
    ]


def _run_suite(
    seed: int, stream: int, name: str, check: Callable, count: int, kwargs: dict
) -> PropertyResult:
    res = PropertyResult(name)
    rng = _rng_for(seed, stream)
    positive = check(res, rng, range(count), **kwargs)
    # A suite may not exercise its property on any instance it drew:
    # the two-block closed form skips a case without a positive mean
    # gap, and the fair-mean suite returns False until it meets one.
    # Draw on, one at a time, until it does; a property still
    # unexercised at the cap fails.
    for i in range(count, count + MAX_EXTRA_INSTANCES):
        if res.checked and positive is not False:
            break
        positive = check(res, rng, range(i, i + 1), **kwargs)
    if positive is False:
        res.ok(False, "no instance produced a positive mean gap")
    return res


def _worker_count() -> int:
    """The CPUs this process may run on; 1 where `fork` or CPU affinity
    is missing."""
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(
        os, "sched_getaffinity"
    ):
        return 1
    return len(os.sched_getaffinity(0))


def _run_suites(seed: int, suites: list) -> list[PropertyResult]:
    """Every suite's result, in stream order.

    The suites run on a pool of one forked worker per CPU this process
    may use, one task per suite, submitted heaviest first.  A suite that
    raises cancels the suites not yet started, and the first such suite
    in suite order raises here once every worker has exited.  With one
    CPU, or without `fork`, every suite runs here, in order; so does a
    suite left without a result by a worker that died.
    """
    outcomes: dict = {}  # stream -> PropertyResult
    workers = min(_worker_count(), len(suites))
    if workers > 1:
        # A child's copy of unflushed output would be written twice.
        sys.stdout.flush()
        sys.stderr.flush()
        # Fork, not spawn: a spawned worker imports numpy afresh, and
        # sees none of this module's globals as patched at run time.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = [pool.submit(_run_suite_in_worker, seed, *suite) for suite in suites]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
        for (stream, *_), future in zip(suites, futures):
            if future.cancelled():
                continue
            error = future.exception()
            if error is None:
                outcomes[stream] = future.result()
            elif not isinstance(error, BrokenProcessPool):
                raise error
    for suite in suites:
        if suite[0] not in outcomes:
            outcomes[suite[0]] = _run_suite(seed, *suite)
    return [outcomes[stream] for stream in sorted(outcomes)]


def _run_suite_in_worker(*args) -> PropertyResult:
    """`_run_suite(*args)`, looked up when called: a pool sends a function
    by name, and this one runs whatever `_run_suite` was at the fork."""
    return _run_suite(*args)


def run_verification(
    seed: int = 0, instances: int = 200, lambda_offset: float = 0.0
) -> VerificationReport:
    """Run every property suite on seeded random instances.

    lambda_offset shifts the fair-mean root inside the harness (not the
    engine) so a non-zero value must make the report fail; it exists to
    prove the checks are live.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    report = VerificationReport(
        seed=int(seed), instances=int(instances), lambda_offset=float(lambda_offset)
    )
    report.results = _run_suites(seed, _suites(instances, lambda_offset))
    return report
