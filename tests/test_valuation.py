import warnings

import numpy as np
import pytest

from lostchance.coupling import (
    evidence_coupling,
    independence_coupling,
    least_divergence_coupling,
)
from lostchance.outcome import (
    CaseModel,
    CurveMoneyMap,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
    UtilityCurve,
)
from lostchance.valuation import (
    ConfigurationError,
    CouplingStack,
    Partition,
    PolicyCombo,
    SelectiveGroups,
    build_grid,
    build_partition,
    cc_indemnity,
    conditional_gap,
    evaluate_grid,
    evaluate_policy,
    fm_indemnity,
    oracle_best_schedule,
    price,
    schedule_risk,
    selective_groups,
    solve_lambda,
)
from lostchance.verify import random_vertex_coupling
from scalar_reference import blocks_of


def hand_partition(blocks) -> Partition:
    """The partition with these blocks, built by hand: build_partition
    refuses a block outside the factual support."""
    return Partition(
        np.array([i for b in blocks for i in b]),
        np.repeat(np.arange(len(blocks)), [len(b) for b in blocks]),
    )


def groups_of(coupling) -> SelectiveGroups:
    """The selective groups of a lone coupling: a one-row stack."""
    return selective_groups(CouplingStack([coupling]))


def one_partition(info, support, groups=None, custom_blocks=None) -> Partition:
    """One information policy's partition: a one-table build on stack row
    0, whose support is `support`.  Only m-fi reads `groups`."""
    supports = [np.asarray(support, dtype=np.intp)]
    return build_partition([info], supports, groups, custom_blocks, coupling_rows=[0])[0]


def table(coupling, partition):
    """(block probabilities, block gaps, expected gap) of one partition,
    checked."""
    gaps = conditional_gap(CouplingStack([coupling]), [partition], [0])
    return gaps.probabilities, gaps.gaps, gaps.expected[0]


PRIZE_EVIDENCE = {
    "a1": "a3",
    "a2": "a3",
    "a3": "a2",
    "a4": "a1",
    "a5": "a4",
}


def prize_model():
    return CaseModel(
        space=OutcomeSpace(
            ("a1", "a2", "a3", "a4", "a5"), (5.0, 30.0, 35.0, 70.0, 110.0)
        ),
        counterfactual=DiscreteDistribution((0.2, 0.2, 0.2, 0.2, 0.2)),
        factual=DiscreteDistribution((0.2, 0.2, 0.4, 0.2, 0.0)),
        money=IdentityMoneyMap(),
    )


def prize_evidence_joint():
    j = np.zeros((5, 5))
    labels = ("a1", "a2", "a3", "a4", "a5")
    for src, dst in PRIZE_EVIDENCE.items():
        j[labels.index(src), labels.index(dst)] = 0.2
    return j


def prize_evidence_coupling():
    return evidence_coupling(prize_model(), prize_evidence_joint())


class TestPolicyCombo:
    def test_normalizes_case(self):
        combo = PolicyCombo("H-FI", "E-C", "CC-I")
        assert combo.descriptor == "h-fi/e-c/cc-i"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="info"):
            PolicyCombo("x-fi", "e-c", "cc-i")
        with pytest.raises(ConfigurationError, match="connection"):
            PolicyCombo("l-fi", "x-c", "cc-i")
        with pytest.raises(ConfigurationError, match="indemnity"):
            PolicyCombo("l-fi", "e-c", "x-i")


class TestSelectiveGroups:
    def test_prize_evidence_split(self):
        groups = groups_of(prize_evidence_coupling())
        # conditional mean minus own value: 65, 5, -17.5, 40 on a1..a4
        assert groups.indices(0) == ((0, 1, 3), (2,), ())

    def test_prize_independence_split(self):
        groups = groups_of(independence_coupling(prize_model()))
        # E[V0] = 50 against values 5, 30, 35, 70
        assert groups.indices(0)[:2] == ((0, 1, 2), (3,))

    def test_tie_goes_to_minus_and_is_recorded(self):
        model = CaseModel(
            space=OutcomeSpace(("lo", "hi"), (0.0, 10.0)),
            counterfactual=DiscreteDistribution((0.5, 0.5)),
            factual=DiscreteDistribution((0.5, 0.5)),
            money=IdentityMoneyMap(),
        )
        c = least_divergence_coupling(model)  # diagonal: gaps exactly zero
        groups = groups_of(c)
        assert groups.indices(0) == ((), (0, 1), (0, 1))


class TestPartitions:
    def test_l_fi_single_block(self):
        p = one_partition("l-fi", (0, 1, 3))
        assert blocks_of(p) == ((0, 1, 3),)
        assert p.block_count == 1
        assert p.outcomes.tolist() == [0, 1, 3]
        assert p.block_ids.tolist() == [0, 0, 0]

    def test_h_fi_singletons(self):
        p = one_partition("h-fi", (0, 2))
        assert blocks_of(p) == ((0,), (2,))

    def test_m_fi_uses_groups_and_drops_empty(self):
        groups = groups_of(prize_evidence_coupling())
        p = one_partition("m-fi", (0, 1, 2, 3), groups)
        assert blocks_of(p) == ((0, 1, 3), (2,))
        assert p.block_count == 2
        # Groups built by hand: every held outcome compensable.
        plus = np.array([[True, True, True, False, False]])
        none = np.zeros_like(plus)
        only_plus = one_partition("m-fi", (0, 1, 2), SelectiveGroups(plus, none, none))
        assert blocks_of(only_plus) == ((0, 1, 2),)
        assert only_plus.block_count == 1

    def test_unknown_information_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown information policy"):
            one_partition("x-fi", (0, 1))

    def test_custom_must_tile_support(self):
        p = one_partition("custom", (0, 1, 2), custom_blocks=((0, 2), (1,)))
        assert blocks_of(p) == ((0, 2), (1,))
        prefix = "custom blocks do not tile the factual support: "
        with pytest.raises(ValueError) as left_out:
            one_partition("custom", (0, 1, 2), custom_blocks=((0,), (1,)))
        assert str(left_out.value) == prefix + "support outcomes left out: 1 [2]"
        with pytest.raises(ValueError) as repeated:
            one_partition("custom", (0, 1), custom_blocks=((0, 1), (1,)))
        assert str(repeated.value) == prefix + "repeated outcomes: 1 [1]"
        with pytest.raises(ValueError, match="empty block"):
            one_partition("custom", (0, 1), custom_blocks=((0, 1), ()))

    def test_a_custom_refusal_names_each_kind_by_count_and_first_ten(self):
        support = np.arange(0, 60, 2)
        blocks = [list(range(1, 40, 2)) + [0, 0, 2], list(range(4, 30, 2)) + [2]]
        with pytest.raises(ValueError) as refused:
            one_partition("custom", support, custom_blocks=blocks)
        assert str(refused.value) == (
            "custom blocks do not tile the factual support: "
            "repeated outcomes: 2 [0, 2]; "
            "support outcomes left out: 15 [30, 32, 34, 36, 38, 40, 42, 44, 46, 48, ...]; "
            "outcomes outside the support: 20 [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, ...]"
        )

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            one_partition("l-fi", ())


class TestConditionalGap:
    def test_prize_h_fi_gaps(self):
        c = prize_evidence_coupling()
        p, g, expected = table(c, one_partition("h-fi", (0, 1, 2, 3)))
        assert np.allclose(p, [0.2, 0.2, 0.4, 0.2])
        assert np.allclose(g, [65.0, 5.0, -17.5, 40.0])
        assert expected == pytest.approx(15.0)

    def test_prize_m_fi_gaps(self):
        c = prize_evidence_coupling()
        groups = groups_of(c)
        p, g, _ = table(c, one_partition("m-fi", (0, 1, 2, 3), groups))
        assert np.allclose(p, [0.6, 0.4])
        assert g[0] == pytest.approx(110.0 / 3.0)
        assert g[1] == pytest.approx(-17.5)

    def test_aggregation_identity(self):
        model = prize_model()
        c = independence_coupling(model)
        for info in ("l-fi", "h-fi"):
            _, _, expected = table(c, one_partition(info, model.factual.support()))
            assert expected == pytest.approx(model.expected_gap())

    def test_zero_probability_block_dropped_with_a_note(self):
        c = prize_evidence_coupling()
        # build_partition would refuse a block outside the factual
        # support, so stretch the partition by hand: block (4,) covers
        # only a5, which has zero factual mass.
        part = hand_partition(((0, 1, 2, 3), (4,)))
        gaps = conditional_gap(CouplingStack([c]), [part], [0])
        assert gaps.notes == (("note: dropped zero-probability block of outcome(s) 'a5'",),)
        assert gaps.probabilities.tolist() == pytest.approx([1.0])
        # a5 maps past the one kept row.
        assert gaps.rows.tolist() == [0, 0, 0, 0, 1]


class TestIndemnities:
    def prize_h_fi_table(self):
        c = prize_evidence_coupling()
        return table(c, one_partition("h-fi", (0, 1, 2, 3)))

    def test_cc_clamps_at_zero(self):
        x = cc_indemnity(self.prize_h_fi_table()[1])
        assert np.allclose(x, [65.0, 5.0, 0.0, 40.0])

    def test_fm_shifts_to_fair_mean(self):
        p, g, expected = self.prize_h_fi_table()
        lam = solve_lambda(p, g, expected)
        assert lam == pytest.approx(15.0)
        x = fm_indemnity(p, g, expected)
        assert np.allclose(x, [50.0, 0.0, 0.0, 25.0])
        assert float(p @ x) == pytest.approx(15.0)

    def test_fm_independence_lambda(self):
        c = independence_coupling(prize_model())
        p, g, expected = table(c, one_partition("h-fi", (0, 1, 2, 3)))
        assert np.allclose(g, [45.0, 20.0, 15.0, -20.0])
        assert solve_lambda(p, g, expected) == pytest.approx(5.0)
        assert np.allclose(fm_indemnity(p, g, expected), [40.0, 15.0, 10.0, 0.0])

    def test_fm_m_fi_lambda(self):
        c = prize_evidence_coupling()
        groups = groups_of(c)
        p, g, expected = table(c, one_partition("m-fi", (0, 1, 2, 3), groups))
        assert solve_lambda(p, g, expected) == pytest.approx(35.0 / 3.0)
        assert np.allclose(fm_indemnity(p, g, expected), [25.0, 0.0])

    def test_fm_zero_when_mean_gap_not_positive(self):
        p, g = np.array([0.5, 0.5]), np.array([1.0, -3.0])
        assert float(p @ g) == pytest.approx(-1.0)
        assert np.array_equal(fm_indemnity(p, g, float(p @ g)), np.zeros(2))

    def test_solve_lambda_rejects_bad_targets(self):
        p, g = np.array([0.5, 0.5]), np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="must be positive"):
            solve_lambda(p, g, 0.0)
        with pytest.raises(ValueError, match="exceeds the payout at zero shift"):
            solve_lambda(p, g, 0.6)  # f(0) = 0.5

    def test_solve_lambda_root_on_a_shifted_breakpoint(self):
        # The root is the lower gap, which round-off moves just outside
        # both segments; the solver must still return it.
        p = np.array([0.3859254525406075, 0.6140745474593926])
        g = np.array([3.204410060167252, 1.8079613122193004e-16])
        lam = solve_lambda(p, g, 1.236663402595722)
        assert 0.0 <= lam <= 1.8079613122193004e-16
        x = fm_indemnity(p, g, float(p @ g))
        assert float(p @ x) == pytest.approx(float(p @ g))

    def test_one_block_fm_skips_the_solve_only_at_its_own_mean(self, monkeypatch):
        # A one-block table whose target is exactly p * g pays its clamped
        # gap without a root solve; a target one ulp off still solves.
        # Either way the payout is bit for bit the solved one.
        import lostchance.valuation as valuation

        solves = []
        solve = valuation.solve_lambda

        def counted(p, g, target):
            solves.append(target)
            return solve(p, g, target)

        monkeypatch.setattr(valuation, "solve_lambda", counted)
        rng = np.random.default_rng(16)
        for i in range(2000):
            p = np.array([10.0 ** -rng.uniform(0.0, 17.0) if i % 2 else rng.uniform()])
            g = np.array([rng.uniform(1e-300, 1e6) * 10.0 ** -rng.integers(0, 12)])
            exact = float(p[0] * g[0])
            if exact <= 0.0:
                continue
            for target, solved in (
                (exact, False),
                (np.nextafter(exact, np.inf), True),
                (np.nextafter(exact, 0.0), True),
            ):
                solves.clear()
                got = fm_indemnity(p, g, float(target))
                want = np.maximum(0.0, g - solve(p, g, float(target)))
                assert got.tobytes() == want.tobytes()
                assert bool(solves) is solved

    def test_cc_dominates_fm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            p = rng.dirichlet(np.ones(n))
            g = rng.uniform(-5.0, 5.0, size=n)
            assert np.all(cc_indemnity(g) >= fm_indemnity(p, g, float(p @ g)))


class TestEvaluatePolicy:
    def test_l_fi_ignores_connection_and_indemnity(self):
        model = prize_model()
        joint = prize_evidence_joint()
        want = max(0.0, model.expected_gap())
        for conn in ("e-c", "ld-c", "i-c"):
            for indem in ("cc-i", "fm-i"):
                sched = evaluate_policy(
                    model,
                    PolicyCombo("l-fi", conn, indem),
                    evidence_joint=joint,
                )
                for label in ("a1", "a2", "a3", "a4"):
                    assert sched.value_for(label) == pytest.approx(want)

    def test_prize_h_fi_e_c_both_indemnities(self):
        model = prize_model()
        joint = prize_evidence_joint()
        cc = evaluate_policy(model, PolicyCombo("h-fi", "e-c", "cc-i"), joint)
        assert [cc.value_for(o) for o in ("a1", "a2", "a3", "a4")] == pytest.approx(
            [65.0, 5.0, 0.0, 40.0]
        )
        fm = evaluate_policy(model, PolicyCombo("h-fi", "e-c", "fm-i"), joint)
        assert [fm.value_for(o) for o in ("a1", "a2", "a3", "a4")] == pytest.approx(
            [50.0, 0.0, 0.0, 25.0]
        )

    def test_unsupported_outcome_not_scheduled(self):
        model = prize_model()
        sched = evaluate_policy(model, PolicyCombo("h-fi", "i-c", "cc-i"))
        assert "a5" not in sched.outcomes
        assert len(sched.outcomes) == 4

    def test_e_c_requires_evidence(self):
        with pytest.raises(ConfigurationError, match="explicit coupling"):
            evaluate_policy(prize_model(), PolicyCombo("h-fi", "e-c", "cc-i"))

    def test_evidence_accepts_map_form(self):
        model = prize_model()
        sched = evaluate_policy(
            model, PolicyCombo("h-fi", "e-c", "cc-i"), evidence_joint=PRIZE_EVIDENCE
        )
        assert sched.value_for("a1") == pytest.approx(65.0)

    def test_paper_table_flags_suboptimal_matrix(self):
        model = prize_model()
        published = {"a1": "a1", "a2": "a2", "a3": "a3", "a4": "a4", "a5": "a3"}
        sched = evaluate_policy(
            model, PolicyCombo("h-fi", "paper-table", "cc-i"), evidence_joint=published
        )
        assert [sched.value_for(o) for o in ("a1", "a2", "a3", "a4")] == pytest.approx(
            [0.0, 0.0, 37.5, 0.0]
        )
        assert any(n.startswith("FLAG") for n in sched.notes)
        assert any("1125" in n and "565" in n for n in sched.notes)

    def test_paper_table_with_optimal_matrix_not_flagged(self):
        model = prize_model()
        own = least_divergence_coupling(model)
        sched = evaluate_policy(
            model, PolicyCombo("h-fi", "paper-table", "cc-i"), evidence_joint=own.joint
        )
        assert not any(n.startswith("FLAG") for n in sched.notes)

    def test_ld_c_matches_oracle_schedule(self):
        model = prize_model()
        sched = evaluate_policy(model, PolicyCombo("h-fi", "ld-c", "cc-i"))
        assert sched.value_for("a3") == pytest.approx(17.5)
        assert sched.value_for("a4") == pytest.approx(40.0)
        assert sched.value_for("a1") == 0.0
        assert sched.value_for("a2") == 0.0

    def test_awards_run_through_money_map(self):
        curve = UtilityCurve(1.0)
        model = CaseModel(
            space=OutcomeSpace(("lose", "win"), (curve.value(100.0), curve.value(1000.0))),
            counterfactual=DiscreteDistribution((0.2, 0.8)),
            factual=DiscreteDistribution((0.9, 0.1)),
            money=CurveMoneyMap(curve),
        )
        sched = evaluate_policy(model, PolicyCombo("h-fi", "i-c", "cc-i"))
        x = sched.value_for("lose")
        assert x > 0.0
        expected_award = curve.money(curve.value(100.0) + x) - 100.0
        assert sched.award_for("lose") == pytest.approx(expected_award, rel=1e-12)
        # risk aversion makes the award exceed the raw value gap
        assert sched.award_for("lose") > x

    def test_schedule_serialization(self):
        model = prize_model()
        sched = evaluate_policy(model, PolicyCombo("h-fi", "i-c", "cc-i"))
        d = sched.as_dict()
        assert d["a1"] == pytest.approx(45.0)
        assert sched.policy.descriptor == "h-fi/i-c/cc-i"
        assert sched.outcomes[0] == "a1"


class TestOracleBestSchedule:
    def test_prize_unconstrained(self):
        c = prize_evidence_coupling()
        part = one_partition("h-fi", (0, 1, 2, 3))
        x, risk = oracle_best_schedule(c, part)
        assert np.allclose(x, [65.0, 5.0, 0.0, 40.0], atol=0.02)
        best = schedule_risk(c, part, cc_indemnity(table(c, part)[1]))
        # the oracle solves each set of paying blocks exactly, so it meets
        # the clamped gap's risk to round-off
        assert best - 1e-9 <= risk <= best + 1e-9

    def test_prize_constrained(self):
        c = prize_evidence_coupling()
        part = one_partition("h-fi", (0, 1, 2, 3))
        # The mean constraint is the table's expected gap, E[V0 - V1].
        x, _ = oracle_best_schedule(c, part, table(c, part)[2])
        assert np.allclose(x, [50.0, 0.0, 0.0, 25.0], atol=0.02)

    def test_single_block_degenerate(self):
        c = prize_evidence_coupling()
        part = one_partition("l-fi", (0, 1, 2, 3))
        x, _ = oracle_best_schedule(c, part)
        assert x[0] == pytest.approx(max(0.0, table(c, part)[1][0]), abs=0.02)

    def test_refuses_many_blocks(self):
        model = CaseModel(
            space=OutcomeSpace(
                tuple(f"o{i}" for i in range(5)), tuple(float(i) for i in range(5))
            ),
            counterfactual=DiscreteDistribution((0.2,) * 5),
            factual=DiscreteDistribution((0.2,) * 5),
            money=IdentityMoneyMap(),
        )
        c = independence_coupling(model)
        part = one_partition("h-fi", (0, 1, 2, 3, 4))
        with pytest.raises(ValueError, match="refuses 5 blocks"):
            oracle_best_schedule(c, part)

    def test_schedule_risk_matches_manual_sum(self):
        c = prize_evidence_coupling()
        part = one_partition("h-fi", (0, 1, 2, 3))
        x = np.array([1.0, 2.0, 3.0, 4.0])
        manual = 0.0
        v = c.space.values_array
        x_of = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        for i in range(5):
            for k in range(5):
                if c.joint[i, k] > 0:
                    manual += c.joint[i, k] * (v[i] - v[k] - x_of.get(k, 0.0)) ** 2
        assert schedule_risk(c, part, x) == pytest.approx(manual)


def _seeded_model(seed: int, n: int, ties: bool, zero: bool, empty_side: bool):
    """A case of n outcomes; `ties` repeats values, `zero` gives one
    outcome no factual mass, and `empty_side` puts all counterfactual mass
    on the lowest value, so under i-c no outcome is compensable."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-10.0, 10.0, n)
    if ties:
        values[rng.integers(1, n, size=max(1, n // 4))] = values[0]
    cf = rng.dirichlet(np.ones(n))
    if empty_side:
        cf = np.eye(n)[int(np.argmin(values))]
    f = rng.dirichlet(np.ones(n))
    if zero:
        f[int(rng.integers(0, n))] = 0.0
        f /= f.sum()
    space = OutcomeSpace(tuple(f"o{i}" for i in range(n)), tuple(values.tolist()))
    model = CaseModel(
        space,
        DiscreteDistribution(tuple(cf.tolist())),
        DiscreteDistribution(tuple(f.tolist())),
        IdentityMoneyMap(),
    )
    return rng, model


class TestStackedGaps:
    @pytest.mark.parametrize(
        "seed, n, ties, zero, empty_side",
        [
            (0, 2, False, False, False),
            (1, 3, True, False, False),
            (2, 5, False, True, False),
            (3, 17, True, True, False),
            (4, 40, False, False, True),
            (5, 300, True, True, False),
            (6, 3000, False, True, False),
            (7, 3000, True, False, True),
        ],
    )
    @pytest.mark.parametrize("connect", [independence_coupling, least_divergence_coupling])
    def test_one_pass_equals_one_call_per_partition(
        self, seed, n, ties, zero, empty_side, connect
    ):
        rng, model = _seeded_model(seed, n, ties, zero, empty_side)
        c = connect(model)
        couplings = CouplingStack([c])
        groups = selective_groups(couplings)
        if empty_side and connect is independence_coupling:
            assert not groups.plus.any()
        support = model.factual.support()
        supports = [np.array(support)]
        parts = build_partition(("l-fi", "m-fi", "h-fi"), supports, groups, coupling_rows=[0] * 3)
        cuts = np.sort(rng.choice(np.arange(1, len(support)), size=min(3, len(support) - 1), replace=False))
        blocks = [b.tolist() for b in np.split(rng.permutation(support), cuts)]
        parts.append(one_partition("custom", support, custom_blocks=blocks))
        if zero:
            # A block outside the factual support: zero probability.
            (off,) = set(range(n)) - set(support)
            parts.append(hand_partition([*blocks, (off,)]))
        stack = conditional_gap(couplings, parts, [0] * len(parts))
        alone = [conditional_gap(couplings, [p], [0]) for p in parts]
        assert [one.expected[0] for one in alone] == list(stack.expected)
        assert [one.notes[0] for one in alone] == list(stack.notes)
        assert sum(map(len, stack.notes)) == int(zero)
        for t, one in enumerate(alone):
            lo, hi = stack.starts[t], stack.starts[t + 1]
            assert np.array_equal(stack.probabilities[lo:hi], one.probabilities)
            assert np.array_equal(stack.gaps[lo:hi], one.gaps)
            # A dropped block's outcomes map past the last row of each.
            rows = stack.rows[stack.bounds[t] : stack.bounds[t + 1]]
            kept = rows < stack.gaps.size
            assert np.array_equal(np.where(kept, rows - lo, one.gaps.size), one.rows)
            outcomes = stack.outcomes[stack.bounds[t] : stack.bounds[t + 1]]
            assert np.array_equal(outcomes, one.outcomes)
        if zero:
            assert stack.starts[-1] - stack.starts[-2] == len(blocks)

    @pytest.mark.parametrize(
        "seed, n, ties, zero",
        [(0, 2, False, False), (1, 3, True, False), (3, 17, True, True), (5, 300, True, True)],
    )
    def test_a_stack_of_couplings_is_each_coupling_alone(self, seed, n, ties, zero):
        rng, model = _seeded_model(seed, n, ties, zero, False)
        evidence = evidence_coupling(model, random_vertex_coupling(rng, model))
        couplings = [evidence, independence_coupling(model), least_divergence_coupling(model)]
        stack = CouplingStack(couplings)
        groups = selective_groups(stack)
        infos = ("l-fi", "m-fi", "h-fi")
        rows = [row for row in range(3) for _ in infos]
        support = np.array(model.factual.support())
        parts = build_partition(infos * 3, [support] * 3, groups, coupling_rows=rows)
        gaps = conditional_gap(stack, parts, rows)
        for row, c in enumerate(couplings):
            alone = CouplingStack([c])
            # Each row's moments are bit for bit the coupling's own.
            assert np.array_equal(stack.mass[row], c.column_moments[0])
            assert np.array_equal(stack.v0[row], c.column_moments[1])
            assert stack.mean_gaps[row] == alone.mean_gaps[0]
            one_groups = selective_groups(alone)
            assert groups.indices(row) == one_groups.indices(0)
            one_parts = build_partition(infos, [support], one_groups, coupling_rows=[0] * 3)
            one = conditional_gap(alone, one_parts, [0] * 3)
            assert one.expected == gaps.expected[3 * row : 3 * row + 3]
            assert one.notes == gaps.notes[3 * row : 3 * row + 3]
            for t in range(3):
                s = 3 * row + t
                assert np.array_equal(parts[s].outcomes, one.partitions[t].outcomes)
                assert np.array_equal(parts[s].block_ids, one.partitions[t].block_ids)
                stacked = slice(gaps.starts[s], gaps.starts[s + 1])
                own = slice(one.starts[t], one.starts[t + 1])
                assert np.array_equal(gaps.probabilities[stacked], one.probabilities[own])
                assert np.array_equal(gaps.gaps[stacked], one.gaps[own])


ALL_COMBOS = [
    PolicyCombo(info, conn, indem)
    for info in ("l-fi", "m-fi", "h-fi", "custom")
    for conn in ("e-c", "ld-c", "i-c", "paper-table")
    for indem in ("cc-i", "fm-i")
]
PRIZE_PUBLISHED = {"a1": "a1", "a2": "a2", "a3": "a3", "a4": "a4", "a5": "a3"}
PRIZE_BLOCKS = [[0, 3], [1], [2]]


def overflowing_model():
    """Money is exp(value), so only a lift to 1000 (ld-c pays "mid" 600)
    overflows; i-c lifts both outcomes to 500."""
    return CaseModel(
        OutcomeSpace(("lo", "mid", "hi"), (0.0, 400.0, 1000.0)),
        DiscreteDistribution((0.5, 0.0, 0.5)),
        DiscreteDistribution((0.5, 0.5, 0.0)),
        CurveMoneyMap(UtilityCurve(1.0)),
    )


class TestBuildAndPrice:
    def test_priced_build_is_the_evaluated_grid(self):
        model = prize_model()
        args = (model, ALL_COMBOS, prize_evidence_joint(), PRIZE_BLOCKS, ("extra",))
        kwargs = {"paper_table_joint": PRIZE_PUBLISHED}
        build = build_grid(*args, **kwargs)
        assert len(ALL_COMBOS) == 32
        assert price(build) == evaluate_grid(*args, **kwargs)
        # Four connections, each with four information policies.
        assert len(build.couplings) == 4
        assert len(build.gaps.partitions) == len(build.gaps.expected) == 16
        mean_gap = model.expected_gap()
        assert all(abs(e - mean_gap) <= 1e-10 for e in build.gaps.expected)

    def test_a_build_error_raises_from_the_build(self):
        with pytest.raises(ConfigurationError, match="'e-c' needs an explicit coupling"):
            build_grid(prize_model(), [PolicyCombo("h-fi", "e-c", "cc-i")])
        with pytest.raises(ConfigurationError, match="at least one combination"):
            build_grid(prize_model(), [])

    def test_an_award_error_raises_only_from_the_price(self):
        combos = [PolicyCombo("h-fi", "i-c", "cc-i"), PolicyCombo("h-fi", "ld-c", "cc-i")]
        build = build_grid(overflowing_model(), combos)
        with pytest.raises(ValueError, match="needs more money than a float holds"):
            price(build)

    def test_a_lone_case_is_a_one_case_family(self):
        model = prize_model()
        args = (ALL_COMBOS, prize_evidence_joint(), PRIZE_BLOCKS, ("extra",))
        alone = build_grid(model, *args, paper_table_joint=PRIZE_PUBLISHED)
        family = build_grid(
            [model],
            ALL_COMBOS,
            [prize_evidence_joint()],
            PRIZE_BLOCKS,
            ("extra",),
            paper_table_joint=[PRIZE_PUBLISHED],
        )
        assert price(family) == price(alone)
        assert family.gaps.expected == alone.gaps.expected
        assert [s.tolist() for s in family.supports] == [[0, 1, 2, 3]]
        assert [s.tolist() for s in alone.supports] == [[0, 1, 2, 3]]
        assert repr(family.payouts) == repr(alone.payouts)

    def test_a_family_prices_each_case_on_its_own_support(self):
        """Two cases over one space, the second without factual mass on
        a3 and with the published table as its evidence."""
        first = prize_model()
        second = CaseModel(
            first.space,
            first.counterfactual,
            DiscreteDistribution((0.2, 0.4, 0.0, 0.2, 0.2)),
            IdentityMoneyMap(),
        )
        combos = ALL_COMBOS[:24]  # no custom blocks: they tile one support
        joints = [PRIZE_EVIDENCE, {"a1": "a1", "a2": "a2", "a3": "a2", "a4": "a4", "a5": "a5"}]
        build = build_grid([first, second], combos, joints)
        grid = price(build)
        assert grid == evaluate_grid(first, combos, joints[0]) + evaluate_grid(
            second, combos, joints[1]
        )
        assert {s.outcomes for s in grid[len(combos) :]} == {("a1", "a2", "a4", "a5")}
        # Each case has the same 12 tables, the second's after the first's.
        assert len(build.couplings) == 8 and len(build.gaps.expected) == 24
        assert build.gaps.partitions[12].outcomes.tolist() == [0, 1, 3, 4]

    def test_a_family_shares_one_outcome_space_and_one_money_map(self):
        model = prize_model()
        combos = [PolicyCombo("h-fi", "i-c", "cc-i")]
        other_values = CaseModel(
            OutcomeSpace(model.space.labels, (5.0, 30.0, 35.0, 70.0, 111.0)),
            model.counterfactual,
            model.factual,
            model.money,
        )
        other_money = CaseModel(
            model.space, model.counterfactual, model.factual, CurveMoneyMap(UtilityCurve(0.5))
        )
        for other in (other_values, other_money):
            with pytest.raises(ValueError, match="share one outcome space and one money map"):
                build_grid([model, other], combos)
        # An equal space and money map built apart are the same family.
        twin = CaseModel(
            OutcomeSpace(model.space.labels, model.space.values),
            model.counterfactual,
            model.factual,
            IdentityMoneyMap(),
        )
        assert price(build_grid([model, twin], combos)) == 2 * evaluate_grid(model, combos)

    def test_a_family_needs_cases_and_one_joint_per_case(self):
        combos = [PolicyCombo("h-fi", "e-c", "cc-i")]
        with pytest.raises(ConfigurationError, match="at least one case"):
            build_grid([], combos)
        with pytest.raises(ConfigurationError, match="one evidence joint"):
            build_grid([prize_model()] * 2, combos, [PRIZE_EVIDENCE])
        # The first case's coupling error raises.
        with pytest.raises(ConfigurationError, match="'e-c' needs an explicit coupling"):
            build_grid([prize_model()] * 2, combos, [None, PRIZE_EVIDENCE])

    def test_values_wider_than_a_float_are_refused(self):
        model = CaseModel(
            OutcomeSpace(("lo", "hi"), (-1e308, 1e308)),
            DiscreteDistribution((0.5, 0.5)),
            DiscreteDistribution((0.5, 0.5)),
            IdentityMoneyMap(),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="span -1e\\+308 to 1e\\+308"):
                build_grid(model, [PolicyCombo("l-fi", "ld-c", "cc-i")])
        # An empty grid builds nothing, so it still has no schedules.
        assert evaluate_grid(model, []) == []


class TestEvaluateGrid:
    def test_grid_matches_one_combination_at_a_time(self):
        model = prize_model()
        joint = prize_evidence_joint()
        grid = evaluate_grid(model, ALL_COMBOS, joint, PRIZE_BLOCKS, ("extra",))
        assert [s.policy for s in grid] == ALL_COMBOS
        for combo, schedule in zip(ALL_COMBOS, grid):
            alone = evaluate_grid(model, [combo], joint, PRIZE_BLOCKS, ("extra",))
            assert [schedule] == alone
            assert schedule.notes[0] == "extra"
        # paper-table evaluates the evidence when no published table is given.
        by_combo = {s.policy: s for s in grid}
        for s in grid:
            if s.policy.connection == "paper-table":
                e_c = PolicyCombo(s.policy.info, "e-c", s.policy.indemnity)
                assert s.values == by_combo[e_c].values

    def test_evaluate_policy_is_a_one_combination_grid(self):
        model = prize_model()
        combo = PolicyCombo("m-fi", "i-c", "fm-i")
        assert evaluate_policy(model, combo) == evaluate_grid(model, [combo])[0]

    def test_paper_table_joint_only_for_paper_table(self):
        model = prize_model()
        combos = [
            PolicyCombo("h-fi", "e-c", "cc-i"),
            PolicyCombo("h-fi", "paper-table", "cc-i"),
            PolicyCombo("h-fi", "ld-c", "cc-i"),
        ]
        grid = evaluate_grid(
            model, combos, PRIZE_EVIDENCE, paper_table_joint=PRIZE_PUBLISHED
        )
        assert grid[0] == evaluate_policy(model, combos[0], PRIZE_EVIDENCE)
        assert grid[1] == evaluate_policy(model, combos[1], PRIZE_PUBLISHED)
        assert grid[1].notes[0].startswith("FLAG")
        assert grid[2] == evaluate_policy(model, combos[2])

    def test_an_empty_grid_has_no_schedules(self):
        assert evaluate_grid(prize_model(), []) == []

    def test_shares_couplings_and_gap_tables(self, monkeypatch):
        import lostchance.valuation as valuation

        calls = []
        stacks = []
        for name in ("least_divergence_coupling", "conditional_gap", "fm_indemnity"):
            original = getattr(valuation, name)

            def counted(*args, _name=name, _original=original):
                calls.append((_name, *(len(a) for a in args[1:2])))
                out = _original(*args)
                if _name == "conditional_gap":
                    stacks.append(out)
                return out

            monkeypatch.setattr(valuation, name, counted)
        evaluate_grid(prize_model(), ALL_COMBOS, PRIZE_EVIDENCE, PRIZE_BLOCKS)
        # ld-c and paper-table share the one least-divergence coupling.
        assert calls.count(("least_divergence_coupling",)) == 1
        # One gap pass over every connection's four information policies.
        assert calls.count(("conditional_gap", 16)) == 1
        # One fair-mean solve per table, though two combinations use each.
        assert [c[0] for c in calls].count("fm_indemnity") == 16
        assert len(calls) == 18
        # The one gap stack checks each of its 16 tables as it is built.
        (stack,) = stacks
        assert len(stack.expected) == 16

        # A grid of clamped combinations solves no fair-mean shift.
        calls.clear()
        stacks.clear()
        clamped = [c for c in ALL_COMBOS if c.indemnity == "cc-i"]
        evaluate_grid(prize_model(), clamped, PRIZE_EVIDENCE, PRIZE_BLOCKS)
        assert "fm_indemnity" not in [c[0] for c in calls]
        (stack,) = stacks
        assert len(stack.expected) == 16

    @pytest.mark.parametrize(
        "combos, match",
        [
            # The earlier combination fails to price, the later to build.
            (
                [("h-fi", "i-c", "cc-i"), ("h-fi", "ld-c", "cc-i"), ("h-fi", "e-c", "cc-i")],
                "'e-c' needs an explicit coupling",
            ),
            # The failing custom table shares i-c with the first combination.
            (
                [("h-fi", "i-c", "cc-i"), ("h-fi", "ld-c", "cc-i"), ("custom", "i-c", "cc-i")],
                "custom partition needs explicit blocks",
            ),
        ],
    )
    def test_a_build_error_wins_over_an_earlier_award_error(self, combos, match):
        model = overflowing_model()
        combos = [PolicyCombo(*c) for c in combos]
        with pytest.raises(ConfigurationError, match=match):
            evaluate_grid(model, combos)
        evaluate_grid(model, combos[:1])
        with pytest.raises(ValueError, match="needs more money than a float holds"):
            evaluate_grid(model, combos[:2])

    @pytest.mark.parametrize(
        "combos, match",
        [
            # Every coupling is built before any partition: e-c's coupling
            # error wins over the custom table of i-c, used first.
            (
                [("l-fi", "i-c", "cc-i"), ("l-fi", "e-c", "cc-i"), ("custom", "i-c", "cc-i")],
                "'e-c' needs an explicit coupling",
            ),
            (
                [("l-fi", "e-c", "cc-i"), ("custom", "i-c", "cc-i"), ("h-fi", "ld-c", "cc-i")],
                "'e-c' needs an explicit coupling",
            ),
            # Of two couplings that fail, the one used first raises.
            (
                [
                    ("h-fi", "ld-c", "cc-i"),
                    ("l-fi", "paper-table", "cc-i"),
                    ("l-fi", "e-c", "cc-i"),
                ],
                "'paper-table' needs an explicit coupling",
            ),
            # The couplings all build, so the first table that cannot be
            # built raises: m-fi/ld-c and m-fi/i-c build, custom/i-c does not.
            (
                [("m-fi", "ld-c", "cc-i"), ("m-fi", "i-c", "cc-i"), ("custom", "i-c", "cc-i")],
                "custom partition needs explicit blocks",
            ),
        ],
    )
    def test_the_connection_used_first_raises_first(self, combos, match):
        combos = [PolicyCombo(*c) for c in combos]
        with pytest.raises(ConfigurationError, match=match):
            evaluate_grid(prize_model(), combos)

    @staticmethod
    def _dropping_model():
        """A case whose evidence gives "a" and "b" no factual mass, though
        the case gives each 1e-17: h-fi/e-c drops the blocks of "a" and of
        "b", and custom/e-c over DROPPING_BLOCKS drops that of both."""
        model = CaseModel(
            OutcomeSpace(("a", "b", "c", "d"), (0.0, 1.0, 2.0, 3.0)),
            DiscreteDistribution((0.0, 0.0, 0.0, 1.0)),
            DiscreteDistribution((1e-17, 1e-17, 0.5, 0.5)),
            IdentityMoneyMap(),
        )
        joint = np.zeros((4, 4))
        joint[3, 2:] = 0.5
        return model, joint

    DROPPING_BLOCKS = [[0, 1], [2], [3]]

    @pytest.mark.parametrize(
        "infos, dropped",
        [
            (("custom", "h-fi"), [["'a', 'b'"], ["'a'", "'b'"]]),
            (("h-fi", "custom"), [["'a'", "'b'"], ["'a', 'b'"]]),
        ],
    )
    def test_a_connection_s_tables_are_noted_in_order(self, infos, dropped):
        model, joint = self._dropping_model()
        combos = [PolicyCombo(info, "e-c", "cc-i") for info in infos]
        build = build_grid(model, combos, joint, self.DROPPING_BLOCKS)
        drop = "note: dropped zero-probability block of outcome(s) "
        assert build.gaps.notes == tuple(tuple(drop + n for n in t) for t in dropped)
        # Each schedule carries its own table's notes.
        assert build.notes == build.gaps.notes
        # A partition that cannot be built still raises.
        with pytest.raises(ValueError, match="support outcomes left out: 1 \\[3\\]$"):
            evaluate_grid(model, combos, joint, [[0, 1, 2]])

    def test_each_dropped_block_is_noted_once_per_table(self):
        model, joint = self._dropping_model()
        combos = [
            PolicyCombo(info, conn, indemnity)
            for info in ("h-fi", "l-fi", "custom")
            for conn in ("e-c", "i-c")
            for indemnity in ("cc-i", "fm-i")
        ]
        build = build_grid(model, combos, joint, self.DROPPING_BLOCKS)
        drop = "note: dropped zero-probability block of outcome(s) "
        h_fi = (drop + "'a'", drop + "'b'")
        custom = (drop + "'a', 'b'",)
        # e-c's tables, then i-c's, which gives "a" and "b" mass.
        assert build.gaps.notes == (h_fi, (), custom, (), (), ())
        grid = price(build)
        assert [s.policy for s in grid] == combos
        noted = {("h-fi", "e-c"): h_fi, ("custom", "e-c"): custom}
        assert [s.notes for s in grid] == [
            noted.get((c.info, c.connection), ()) for c in combos
        ]
