from dataclasses import replace

import numpy as np
import pytest

from lostchance.choice import (
    _PRESUMPTION_RULE_NOTE,
    ChoiceCaseModel,
    best_dutiful_choice,
    counterfactual_choice_scores,
    evaluate_choice_case,
    flatten_choice_case,
    mitigation_offset,
    presume_choice_ii_cp,
    presume_choice_it_cp,
    resolve_choice,
    validate_choice_case,
)
from lostchance.outcome import (
    CaseValidationError,
    DiscreteDistribution,
    IdentityMoneyMap,
)
from lostchance.scenarios import matos_award, matos_case, matos_threshold
from lostchance.valuation import (
    STANDARD_COMBOS,
    ConfigurationError,
    PolicyCombo,
    evaluate_policy,
)
from lostchance.verify import random_choice_case


def surgery_case(**overrides):
    """Two treatments, three results; operating was the duty."""
    base = dict(
        choices=("operate", "wait"),
        duty=frozenset({"operate"}),
        results=("dead", "impaired", "healthy"),
        values=((0.0, 40.0, 100.0), (0.0, 35.0, 90.0)),
        money=IdentityMoneyMap(),
        result_given_choice_cf=(
            DiscreteDistribution((0.1, 0.2, 0.7)),
            DiscreteDistribution((0.3, 0.4, 0.3)),
        ),
        result_given_choice_f=(
            DiscreteDistribution((0.2, 0.3, 0.5)),
            DiscreteDistribution((0.5, 0.3, 0.2)),
        ),
        factual_choice="wait",
        factual_result="impaired",
    )
    base.update(overrides)
    return ChoiceCaseModel(**base)


class TestValidation:
    def test_valid_case_passes(self):
        assert validate_choice_case(surgery_case()) is not None

    def test_collects_all_violations(self):
        model = surgery_case(
            duty=frozenset({"operate", "ghost"}),
            values=((0.0, 40.0), (0.0, 35.0)),
            factual_choice="run",
            factual_result="fine",
        )
        with pytest.raises(CaseValidationError) as exc:
            validate_choice_case(model)
        text = "\n".join(exc.value.violations)
        assert "'ghost' is not a choice" in text
        assert "value table" in text
        assert "'run' is not a choice" in text
        assert "'fine' is not a result" in text

    def test_zero_probability_factual_pair_rejected(self):
        model = surgery_case(
            result_given_choice_f=(
                DiscreteDistribution((0.2, 0.3, 0.5)),
                DiscreteDistribution((0.5, 0.0, 0.5)),
            )
        )
        with pytest.raises(CaseValidationError, match="zero probability"):
            validate_choice_case(model)

    def test_result_coupling_marginals_checked(self):
        bad = surgery_case(
            result_couplings=(
                ("operate", ((0.1, 0.0, 0.0), (0.0, 0.2, 0.0), (0.0, 0.0, 0.7))),
            )
        )
        with pytest.raises(CaseValidationError, match="column sums"):
            validate_choice_case(bad)

    def test_empty_duty_rejected(self):
        with pytest.raises(CaseValidationError, match="duty set is empty"):
            validate_choice_case(surgery_case(duty=frozenset()))

    def test_pair_label_collision_listed_with_other_problems(self):
        # ('a|b', 'c') and ('a', 'b|c') would both flatten to 'a|b|c'.
        model = surgery_case(
            choices=("a|b", "a"),
            duty=frozenset({"a"}),
            results=("c", "b|c", "d"),
            factual_choice="a",
            factual_result="b|c",
            result_given_choice_cf=(
                DiscreteDistribution((0.1, 0.2, 0.6)),
                DiscreteDistribution((0.3, 0.4, 0.3)),
            ),
        )
        with pytest.raises(CaseValidationError) as exc:
            validate_choice_case(model)
        assert exc.value.violations == (
            "pairs ('a|b', 'c') and ('a', 'b|c') share the outcome label 'a|b|c'",
            "counterfactual results given 'a|b' marginal weights sum to 0.9, "
            "not 1 (tolerance 1e-12)",
        )

    def test_labels_with_bars_need_not_collide(self):
        model = surgery_case(choices=("op|now", "wait"), duty=frozenset({"op|now"}))
        validate_choice_case(model)
        assert model.space.labels[0] == "op|now|dead"


class TestPresumptions:
    def test_scores(self):
        scores = counterfactual_choice_scores(surgery_case())
        assert scores["operate"] == pytest.approx(0.2 * 40 + 0.7 * 100)
        assert scores["wait"] == pytest.approx(0.4 * 35 + 0.3 * 90)

    def test_best_dutiful_restricted_to_duty(self):
        model = surgery_case(
            duty=frozenset({"wait"}),
        )
        # operate scores higher but is not in the duty set
        assert best_dutiful_choice(model) == "wait"

    def test_tie_prefers_factual_choice(self):
        model = surgery_case(
            duty=frozenset({"operate", "wait"}),
            values=((0.0, 40.0, 100.0), (0.0, 40.0, 100.0)),
            result_given_choice_cf=(
                DiscreteDistribution((0.1, 0.2, 0.7)),
                DiscreteDistribution((0.1, 0.2, 0.7)),
            ),
        )
        assert best_dutiful_choice(model) == "wait"

    def test_it_cp_fills_missing_choice(self):
        model = surgery_case()
        out = presume_choice_it_cp(model)
        assert out.counterfactual_choice is not None
        assert out.counterfactual_choice.weights[0] == 1.0  # operate
        assert any("it-cp" in n for n in out.notes)

    def test_it_cp_yields_to_evidence(self):
        ev = DiscreteDistribution((0.4, 0.6))
        model = surgery_case(counterfactual_choice=ev)
        out = presume_choice_it_cp(model)
        assert out is model
        assert out.counterfactual_choice == ev

    def test_ii_cp_overrides_evidence(self):
        ev = DiscreteDistribution((0.4, 0.6))
        model = surgery_case(counterfactual_choice=ev)
        out = presume_choice_ii_cp(model)
        assert out.counterfactual_choice.weights == (1.0, 0.0)
        assert any("overrides supplied" in n for n in out.notes)

    def test_presumption_notes_in_order(self):
        presumed = "presumption({}): counterfactual choice presumed 'operate'"
        overrides = "presumption(ii-cp) overrides supplied counterfactual choice evidence"
        rule = _PRESUMPTION_RULE_NOTE
        missing = surgery_case()
        assert presume_choice_it_cp(missing).notes == (presumed.format("it-cp"), rule)
        supplied = surgery_case(counterfactual_choice=DiscreteDistribution((0.4, 0.6)))
        assert presume_choice_ii_cp(supplied).notes == (
            presumed.format("ii-cp"),
            overrides,
            rule,
        )
        # A note already present keeps its place and is not repeated.
        carried = replace(missing, notes=("earlier", rule))
        out = presume_choice_it_cp(carried)
        assert out.notes == ("earlier", rule, presumed.format("it-cp"))
        assert out == replace(
            carried,
            counterfactual_choice=out.counterfactual_choice,
            notes=("earlier", rule, presumed.format("it-cp")),
        )

    def test_presumptions_idempotent(self):
        model = surgery_case()
        once = presume_choice_it_cp(model)
        assert presume_choice_it_cp(once) == once
        twice = presume_choice_ii_cp(presume_choice_ii_cp(model))
        assert twice == presume_choice_ii_cp(model)


def joint4(model: ChoiceCaseModel) -> np.ndarray:
    """The flattened evidence cells as the (C0, R0, C1, R1) joint."""
    nc, nr = model.n_choices, model.n_results
    return np.asarray(flatten_choice_case(model)[1]).reshape(nc, nr, nc, nr)


class TestFactorization:
    def test_unresolved_choice_rejected(self):
        with pytest.raises(ConfigurationError, match="unresolved"):
            flatten_choice_case(surgery_case())

    def test_conditional_independence(self):
        model = presume_choice_it_cp(
            surgery_case(counterfactual_choice=DiscreteDistribution((0.6, 0.4)))
        )
        joint = joint4(model)
        fc = model.choice_index(model.factual_choice)
        f_cond = model.result_given_choice_f[fc].array
        for c0 in range(model.n_choices):
            pc = joint[c0].sum()
            if pc <= 0:
                continue
            r1_law = joint[c0, :, fc, :].sum(axis=0) / pc
            assert np.max(np.abs(r1_law - f_cond)) < 1e-12

    def test_factual_choice_column_degenerate(self):
        model = presume_choice_it_cp(surgery_case())
        joint = joint4(model)
        fc = model.choice_index(model.factual_choice)
        for c1 in range(model.n_choices):
            if c1 != fc:
                assert joint[:, :, c1, :].sum() == 0.0

    def test_supplied_result_coupling_used(self):
        # comonotone would pair the two supports by value; supply the
        # opposite (anti-sorted) matching and check it lands in the joint
        anti = (
            (0.0, 0.0, 0.1),
            (0.0, 0.2, 0.0),
            (0.5, 0.1, 0.1),
        )
        model = surgery_case(
            counterfactual_choice=DiscreteDistribution((1.0, 0.0)),
            result_couplings=(("operate", anti),),
        )
        validate_choice_case(model)
        joint = joint4(model)
        fc = model.choice_index("wait")
        assert joint[0, 0, fc, 2] == pytest.approx(0.1)

    def test_space_is_the_flattened_space(self):
        model = presume_choice_it_cp(surgery_case())
        case, _ = flatten_choice_case(model)
        assert case.space is model.space
        assert model.space == case.space
        assert model.space.values == (0.0, 40.0, 100.0, 0.0, 35.0, 90.0)
        # A presumption copies the case; the copy's space is equal.
        assert surgery_case().space == model.space

    def test_flatten_marginals(self):
        model = presume_choice_it_cp(surgery_case())
        case, evidence = flatten_choice_case(model)
        assert case.space.labels == (
            "operate|dead",
            "operate|impaired",
            "operate|healthy",
            "wait|dead",
            "wait|impaired",
            "wait|healthy",
        )
        # counterfactual mass: all on operate (presumed), split by its conditional
        assert np.allclose(case.counterfactual.array, [0.1, 0.2, 0.7, 0, 0, 0])
        # factual mass: all on wait, split by its conditional
        assert np.allclose(case.factual.array, [0, 0, 0, 0.5, 0.3, 0.2])
        assert case.factual_observed == 4
        assert evidence.shape == (6, 6)
        assert np.allclose(evidence.sum(axis=1), case.counterfactual.array)
        assert np.allclose(evidence.sum(axis=0), case.factual.array)

    def test_evaluate_choice_matches_manual_flatten(self):
        model = surgery_case()
        combo = PolicyCombo("h-fi", "e-c", "cc-i")
        [via_choice] = evaluate_choice_case(model, [combo])
        resolved = presume_choice_it_cp(model)
        case, evidence = flatten_choice_case(resolved)
        direct = evaluate_policy(case, combo, evidence_joint=evidence)
        assert via_choice.outcomes == direct.outcomes
        assert via_choice.values == direct.values

    def test_unknown_presumption_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown presumption"):
            evaluate_choice_case(
                surgery_case(), [PolicyCombo("h-fi", "e-c", "cc-i")], presumption="x-cp"
            )

    def test_none_presumption_needs_evidence(self):
        with pytest.raises(ConfigurationError, match="unresolved"):
            evaluate_choice_case(
                surgery_case(), [PolicyCombo("h-fi", "e-c", "cc-i")], presumption=None
            )


CUSTOM = [
    PolicyCombo("custom", conn, indem)
    for conn in ("e-c", "ld-c", "i-c")
    for indem in ("cc-i", "fm-i")
]


class TestOneChoicePath:
    @pytest.mark.parametrize("presumption", ["it-cp", "ii-cp", None])
    def test_grid_equals_the_calls_per_combination(self, presumption):
        rng = np.random.default_rng(21)
        priced = 0
        for _ in range(12):
            model = random_choice_case(rng)
            resolved = resolve_choice(model, presumption)
            if resolved.counterfactual_choice is None:
                with pytest.raises(ConfigurationError, match="unresolved"):
                    evaluate_choice_case(model, STANDARD_COMBOS, presumption)
                continue
            # Custom blocks tile the factual support, the factual choice's row.
            nr = model.n_results
            start = model.choice_index(model.factual_choice) * nr
            cut = int(rng.integers(1, nr))
            blocks = [list(range(start, start + cut)), list(range(start + cut, start + nr))]
            combos = [*STANDARD_COMBOS, *CUSTOM]
            grid = evaluate_choice_case(model, combos, presumption, blocks)
            # One combination at a time, on the flattened case.
            case, evidence = flatten_choice_case(resolved)
            singles = [
                evaluate_policy(case, combo, evidence, blocks, resolved.notes)
                for combo in combos
            ]
            assert grid == singles
            assert [s.notes for s in grid] == [s.notes for s in singles]
            assert [s.policy for s in grid] == combos
            priced += 1
        assert priced >= 4

    def test_one_flatten_and_one_award_call_per_grid(self, monkeypatch):
        import lostchance.choice as choice
        import lostchance.valuation as valuation

        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(choice, "flatten_choice_case")
        counted(choice, "evaluate_grid")
        counted(valuation, "award_from_compensation")
        schedules = evaluate_choice_case(surgery_case(), STANDARD_COMBOS)
        assert len(schedules) == len(STANDARD_COMBOS)
        assert calls == ["flatten_choice_case", "evaluate_grid", "award_from_compensation"]

    def test_empty_grid_still_resolves(self):
        assert evaluate_choice_case(surgery_case(), []) == []
        with pytest.raises(ConfigurationError, match="unresolved"):
            evaluate_choice_case(surgery_case(), [], None)


class TestMitigation:
    def dual(self, **overrides):
        base = dict(
            choices=("treat", "ignore"),
            duty=frozenset({"treat"}),
            results=("worse", "same", "better"),
            values=((0.0, 10.0, 30.0), (0.0, 8.0, 20.0)),
            money=IdentityMoneyMap(),
            result_given_choice_cf=(
                DiscreteDistribution((0.1, 0.3, 0.6)),
                DiscreteDistribution((0.5, 0.3, 0.2)),
            ),
            result_given_choice_f=(
                DiscreteDistribution((0.2, 0.3, 0.5)),
                DiscreteDistribution((0.6, 0.3, 0.1)),
            ),
            factual_choice="ignore",
            factual_result="same",
        )
        base.update(overrides)
        return ChoiceCaseModel(**base)

    def test_offset_reduces_award(self):
        combo = PolicyCombo("h-fi", "e-c", "cc-i")
        dual = self.dual()
        final = mitigation_offset(100.0, dual, combo)
        assert 0.0 <= final < 100.0

    def test_clamps_at_zero(self):
        combo = PolicyCombo("h-fi", "e-c", "cc-i")
        assert mitigation_offset(0.0, self.dual(), combo) == 0.0

    def test_dutiful_choice_owes_nothing(self):
        combo = PolicyCombo("h-fi", "e-c", "cc-i")
        dutiful = self.dual(factual_choice="treat", factual_result="same")
        assert mitigation_offset(55.0, dutiful, combo) == 55.0


class TestMatos:
    def test_thresholds(self):
        assert matos_threshold(0.0) == pytest.approx(0.49985, abs=1e-4)
        assert matos_threshold(1.0) == pytest.approx(0.914550, abs=1e-5)

    def test_award_zero_below_threshold(self):
        for theta in (0.0, 0.5, 1.0):
            t = matos_threshold(theta)
            assert matos_award(t * 0.99, theta) == 0.0
            assert matos_award(t * 1.01, theta) > 0.0

    def test_full_chance_restores_top_prize_difference(self):
        for theta in (0.0, 0.3, 1.0):
            assert matos_award(1.0, theta) == pytest.approx(500_000.0, abs=1e-5)

    def test_out_of_range_chance_rejected(self):
        with pytest.raises(ValueError):
            matos_award(-0.1, 0.0)
        with pytest.raises(ValueError):
            matos_award(1.1, 0.0)

    def test_closed_form_matches_pipeline(self):
        for p, theta in ((0.7, 0.0), (0.95, 1.0), (0.6, 0.5)):
            case = matos_case(p, theta)
            [sched] = evaluate_choice_case(case, [PolicyCombo("h-fi", "e-c", "cc-i")])
            award = sched.award_for("refuse|500000")
            assert award == pytest.approx(matos_award(p, theta), rel=1e-9, abs=1e-9)

    def test_it_cp_resolution_depends_on_chance(self):
        # above the threshold the presumption backs answering; below it,
        # refusing, which zeroes the award
        [high] = evaluate_choice_case(
            matos_case(0.7, 0.0), [PolicyCombo("h-fi", "e-c", "cc-i")]
        )
        assert any("presumed 'answer'" in n for n in high.notes)
        assert high.award_for("refuse|500000") > 0.0
        [low] = evaluate_choice_case(
            matos_case(0.4, 0.0), [PolicyCombo("h-fi", "e-c", "cc-i")]
        )
        assert any("presumed 'refuse'" in n for n in low.notes)
        assert low.award_for("refuse|500000") == 0.0

    def test_award_identical_across_policy_grid(self):
        combos = [
            PolicyCombo(info, conn, indem)
            for info in ("l-fi", "m-fi", "h-fi")
            for conn in ("e-c", "ld-c", "i-c")
            for indem in ("cc-i", "fm-i")
        ]
        grid = evaluate_choice_case(matos_case(0.95, 1.0), combos)
        awards = [sched.award_for("refuse|500000") for sched in grid]
        assert awards == pytest.approx([awards[0]] * len(combos), rel=1e-9)
