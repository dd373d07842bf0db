"""Acceptance suite: seven end-to-end criteria, one pass/fail line each.

Run with -s to see the per-criterion lines as they complete.
"""

import numpy as np
import pytest

from lostchance import (
    PolicyCombo,
    best_dutiful_choice,
    cc_indemnity,
    conditional_gap,
    evaluate_choice_case,
    evaluate_policy,
    evidence_coupling,
    flatten_choice_case,
    fm_indemnity,
    least_divergence_coupling,
    matos_award,
    matos_case,
    matos_threshold,
    mitigation_offset,
    oracle_best_schedule,
    oracle_min_cost,
    presume_choice_ii_cp,
    presume_choice_it_cp,
    prize_case,
    schedule_risk,
    selective_groups,
    transport_cost,
)
from lostchance.choice import ChoiceCaseModel
from lostchance.tables import (
    reproduce_table_2,
    reproduce_table_4,
    reproduce_table_5,
    reproduce_table_6,
)
from lostchance.valuation import CouplingStack, build_partition
from lostchance.verify import random_case, random_choice_case, random_vertex_coupling


def _check(criterion: int, slug: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {criterion} ({slug}): FAIL")
        raise
    print(f"[acceptance] criterion {criterion} ({slug}): PASS")


def _partitions(coupling, model):
    infos = ("l-fi", "m-fi", "h-fi")
    groups = selective_groups(CouplingStack([coupling]))
    return zip(infos, build_partition(infos, model.factual.support(), groups))


def _table(coupling, partition):
    """(block probabilities, block gaps, expected gap) of one partition,
    checked."""
    gaps = conditional_gap(CouplingStack([coupling]), [partition])
    return gaps.probabilities, gaps.gaps, gaps.check(0)


def _combo_view(cells):
    out = {}
    for c in cells:
        for descriptor in c.combos:
            out[(descriptor, c.outcome)] = c.printed
    return out


def test_criterion_1_two_outcome_formula_table():
    def body():
        def check_triple(p0, p1, dv):
            cells = reproduce_table_2(p0=p0, p1=p1, delta_v=dv)
            assert all(c.ok for c in cells)
            got = {(c.row, c.outcome): c.computed for c in cells}
            share = (p0 - p1) / (1.0 - p1) * dv
            expect = {
                ("L-FI / any / any", "bad"): (p0 - p1) * dv,
                ("L-FI / any / any", "good"): (p0 - p1) * dv,
                ("M-FI or H-FI / E-C or LD-C / CC-I or FM-I", "bad"): share,
                ("M-FI or H-FI / I-C / CC-I", "bad"): p0 * dv,
                ("M-FI or H-FI / I-C / FM-I", "bad"): share,
            }
            for key, want in expect.items():
                assert abs(got[key] - want) <= 1e-9 * max(1.0, abs(want)), key

        check_triple(0.95, 0.90, 100_000.0)
        # The headline numbers at those parameters.
        cells = reproduce_table_2()
        got = {(c.row, c.outcome): c.computed for c in cells}
        assert got[("L-FI / any / any", "bad")] == pytest.approx(5_000.0)
        assert got[
            ("M-FI or H-FI / E-C or LD-C / CC-I or FM-I", "bad")
        ] == pytest.approx(50_000.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            p1 = float(rng.uniform(0.0, 0.95))
            p0 = float(rng.uniform(p1 + 0.01, 1.0))
            dv = float(rng.uniform(1.0, 1e6))
            check_triple(p0, p1, dv)

    _check(1, "two-outcome-formula-table", body)


def test_criterion_2_prize_schedule_table():
    def body():
        cells = reproduce_table_4()
        assert len(cells) == 40
        for c in cells:
            assert abs(c.computed - c.printed) <= 0.1, (c.row, c.outcome)
            assert c.ok
        flagged = [c for c in cells if c.status == "FLAG"]
        assert {c.row for c in flagged} == {
            "M-FI or H-FI / LD-C (published table) / CC-I or FM-I"
        }
        published = {c.outcome: c.computed for c in flagged}
        for outcome, want in (("a1", 0.0), ("a2", 0.0), ("a3", 37.5), ("a4", 0.0)):
            assert abs(published[outcome] - want) <= 1e-9

        # Under the engine's own cost-minimal matching the same policies
        # pay a3 and a4 instead, and the oracle confirms optimality.
        sc = prize_case()
        sched = evaluate_policy(sc.model, PolicyCombo("h-fi", "ld-c", "cc-i"))
        for outcome, want in (("a1", 0.0), ("a2", 0.0), ("a3", 17.5), ("a4", 40.0)):
            assert abs(sched.value_for(outcome) - want) <= 1e-9 * max(1.0, want)
        coupling = least_divergence_coupling(sc.model)
        (partition,) = build_partition(["h-fi"], sc.model.factual.support())
        x_cc = cc_indemnity(_table(coupling, partition)[1])
        _, r_or = oracle_best_schedule(coupling, partition)
        assert schedule_risk(coupling, partition, x_cc) <= r_or + 1e-5

        # Feeding the published table back in raises the discrepancy flag.
        sched_pub = evaluate_policy(
            sc.model,
            PolicyCombo("h-fi", "paper-table", "cc-i"),
            evidence_joint=sc.paper_table_joint,
        )
        assert any(n.startswith("FLAG") for n in sched_pub.notes)

    _check(2, "prize-schedule-table", body)


def test_criterion_3_urn_tables():
    def body():
        t5 = reproduce_table_5()
        t6 = reproduce_table_6()
        for c in t5 + t6:
            assert c.status == "PASS", (c.table, c.row, c.outcome)
            assert abs(c.computed - c.printed) <= 1e-9 * max(1.0, abs(c.printed))
        v5, v6 = _combo_view(t5), _combo_view(t6)
        assert set(v5) == set(v6)
        differing = {k for k in v5 if abs(v5[k] - v6[k]) > 1e-9}
        # Only the evidence-coupled clamped cell splits the two stories.
        assert differing == {
            ("m-fi/e-c/cc-i", "red"),
            ("h-fi/e-c/cc-i", "red"),
        }

    _check(3, "urn-tables", body)


def test_criterion_4_quiz_show_award():
    def body():
        assert abs(matos_threshold(0.0) - 0.500) <= 1e-3
        assert abs(matos_threshold(1.0) - 0.9146) <= 1e-3

        def p_at_award(theta, target):
            lo, hi = matos_threshold(theta), 1.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if matos_award(mid, theta) < target:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        assert abs(p_at_award(0.0, 125_000.0) - 0.625) <= 1e-3
        assert abs(p_at_award(1.0, 125_000.0) - 0.9421) <= 1e-3
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(matos_award(1.0, theta) - 500_000.0) <= 1e-6

        # Every info x connection x indemnity combination agrees, because
        # the factual position is degenerate.
        combos = [
            PolicyCombo(info, conn, indem)
            for info in ("l-fi", "m-fi", "h-fi")
            for conn in ("e-c", "ld-c", "i-c", "paper-table")
            for indem in ("cc-i", "fm-i")
        ]
        assert len(combos) == 24
        for p, theta in ((0.7, 0.0), (0.95, 1.0), (0.8, 0.5), (0.3, 0.0)):
            base = matos_award(p, theta)
            tol = 1e-9 * max(1.0, abs(base))
            grid = evaluate_choice_case(matos_case(p, theta), combos)
            for sched in grid:
                assert abs(sched.award_for("refuse|500000") - base) <= tol, (
                    p, theta, sched.policy.descriptor,
                )

    _check(4, "quiz-show-award", body)


def test_criterion_5_schedule_optimality():
    """On 200 random models, cc-i and fm-i are optimal against the exact
    oracles, unconstrained and under the mean constraint."""

    def body():
        rng = np.random.default_rng(11)
        positives = 0
        for i in range(200):
            model = random_case(rng)
            coupling = evidence_coupling(model, random_vertex_coupling(rng, model))
            v = model.space.values_array
            vrange = float(v.max() - v.min())
            risk_tol = 1e-9 * max(1.0, vrange**2)
            resolution = 0.01 * vrange + 1e-9
            for info, partition in _partitions(coupling, model):
                p, g, target = _table(coupling, partition)
                x_cc = cc_indemnity(g)
                x_fm = fm_indemnity(p, g, target)
                assert np.all(x_cc >= x_fm), (i, info)
                if target > 0.0:
                    mean = float(p @ x_fm)
                    assert abs(mean - target) <= 1e-10, (i, info)
                else:
                    assert not np.any(x_fm), (i, info)
                x_or, r_or = oracle_best_schedule(coupling, partition)
                assert (
                    schedule_risk(coupling, partition, x_cc) <= r_or + risk_tol
                ), (i, info)
                assert float(np.max(np.abs(x_cc - x_or))) <= resolution, (i, info)
                if target > 0.0:
                    positives += 1
                    x_oc, r_oc = oracle_best_schedule(
                        coupling, partition, constrained=True, target=target
                    )
                    assert (
                        schedule_risk(coupling, partition, x_fm) <= r_oc + risk_tol
                    ), (i, info)
                    assert float(np.max(np.abs(x_fm - x_oc))) <= resolution, (i, info)
        assert positives >= 100

    _check(5, "schedule-optimality", body)


def test_criterion_6_matching_cost_optimality():
    def body():
        rng = np.random.default_rng(6)
        for i in range(40):
            model = random_case(rng, min_outcomes=2, max_outcomes=5)
            own = transport_cost(least_divergence_coupling(model))
            _, best = oracle_min_cost(model)
            assert abs(own - best) <= 1e-9 * max(1.0, abs(best)), i
        sc = prize_case()
        assert transport_cost(least_divergence_coupling(sc.model)) == pytest.approx(
            565.0, abs=1e-9
        )
        assert transport_cost(
            evidence_coupling(sc.model, sc.paper_table_joint)
        ) == pytest.approx(1125.0, abs=1e-9)

    _check(6, "matching-cost-optimality", body)


def test_criterion_7_choice_layer_properties():
    def body():
        rng = np.random.default_rng(7)
        combo = PolicyCombo("h-fi", "e-c", "cc-i")
        with_evidence = 0
        without_evidence = 0
        for i in range(60):
            model = random_choice_case(rng)
            resolved = presume_choice_it_cp(model)
            nc, nr = resolved.n_choices, resolved.n_results
            _, cells = flatten_choice_case(resolved)
            joint4 = np.asarray(cells).reshape(nc, nr, nc, nr)
            fc = resolved.choice_index(resolved.factual_choice)
            f_cond = resolved.result_given_choice_f[fc].array
            for c0 in range(resolved.n_choices):
                pc = float(joint4[c0].sum())
                if pc <= 0.0:
                    continue
                r1_given = joint4[c0, :, fc, :].sum(axis=0) / pc
                assert float(np.max(np.abs(r1_given - f_cond))) <= 1e-10, i

            ii = presume_choice_ii_cp(model)
            if model.counterfactual_choice is not None:
                with_evidence += 1
                assert resolved == model, i
            else:
                without_evidence += 1
                assert resolved.counterfactual_choice is not None, i
            best = best_dutiful_choice(model)
            assert ii.counterfactual_choice.weights[ii.choice_index(best)] == 1.0, i

            dual = ChoiceCaseModel(
                choices=model.choices,
                duty=model.duty,
                results=model.results,
                values=model.values,
                money=model.money,
                result_given_choice_cf=model.result_given_choice_cf,
                result_given_choice_f=model.result_given_choice_f,
                factual_choice=model.factual_choice,
                factual_result=model.factual_result,
                counterfactual_choice=model.counterfactual_choice,
            )
            main = float(rng.uniform(0.0, 5.0))
            final = mitigation_offset(main, dual, combo)
            assert 0.0 <= final <= main + 1e-12, i
            if dual.factual_choice in dual.duty:
                assert final == main, i
            assert mitigation_offset(0.0, dual, combo) == 0.0, i
        assert with_evidence >= 5 and without_evidence >= 5

    _check(7, "choice-layer-properties", body)
