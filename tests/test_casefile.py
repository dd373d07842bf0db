"""Tests for strict JSON case-file loading and saving."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lostchance import (
    CaseValidationError,
    SCHEMA_TEXT,
    dump_case,
    load_case,
    matos_case,
    medical_malpractice,
    save_case,
)
from lostchance.casefile import atomic_write_text, parse_case
from lostchance.cli import main
from lostchance.choice import ChoiceCaseModel, validate_choice_case
from lostchance.outcome import (
    CaseModel,
    CurveMoneyMap,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
    TabulatedMoneyMap,
    UtilityCurve,
)


def outcome_data(**overrides):
    data = {
        "outcomes": [
            {"label": "bad", "value": 0.0},
            {"label": "good", "value": 100.0},
        ],
        "counterfactual": {"bad": 0.1, "good": 0.9},
        "factual": {"bad": 0.4, "good": 0.6},
        "observed": "bad",
        "money": {"kind": "identity"},
    }
    data.update(overrides)
    return data


def errors_of(data):
    with pytest.raises(CaseValidationError) as exc:
        parse_case(data)
    return exc.value.violations


class TestOutcomeForm:
    def test_minimal_load(self):
        loaded = parse_case(outcome_data())
        assert loaded.kind == "outcome"
        assert loaded.case.space.labels == ("bad", "good")
        assert loaded.case.factual_observed == 0
        assert loaded.evidence_joint is None
        assert isinstance(loaded.case.money, IdentityMoneyMap)

    def test_matrix_evidence(self):
        data = outcome_data(
            evidence_coupling={"matrix": [[0.1, 0.0], [0.3, 0.6]]}
        )
        loaded = parse_case(data)
        assert np.allclose(loaded.evidence_joint, [[0.1, 0.0], [0.3, 0.6]])

    def test_map_evidence_expands_with_counterfactual_mass(self):
        data = outcome_data(
            counterfactual={"bad": 0.4, "good": 0.6},
            factual={"bad": 1.0, "good": 0.0},
            evidence_coupling={"map": {"bad": "bad", "good": "bad"}},
        )
        loaded = parse_case(data)
        assert np.allclose(loaded.evidence_joint, [[0.4, 0.0], [0.6, 0.0]])

    def test_round_trip_through_file(self, tmp_path):
        sc = medical_malpractice(0.95, 0.90, 1e5)
        path = tmp_path / "cases" / "medical.json"
        save_case(path, sc.model, sc.evidence_joint)
        loaded = load_case(path)
        assert dump_case(loaded.case, loaded.evidence_joint) == dump_case(
            sc.model, sc.evidence_joint
        )
        # A second save of the reloaded case is byte-identical.
        again = tmp_path / "again.json"
        save_case(again, loaded.case, loaded.evidence_joint)
        assert again.read_text() == path.read_text()

    def test_unknown_top_level_key(self):
        errs = errors_of(outcome_data(verdict="guilty"))
        assert any("unknown top-level keys" in e and "verdict" in e for e in errs)

    def test_policy_keys_rejected_with_pointer_to_flags(self):
        errs = errors_of(outcome_data(policy="h-fi"))
        assert any(
            "do not carry policies" in e and "--info/--connection/--indemnity" in e
            for e in errs
        )
        for key in ("policies", "policy_list"):
            errs = errors_of(outcome_data(**{key: ["h-fi"]}))
            assert any(key in e and "--info" in e for e in errs)

    def test_missing_required_keys(self):
        data = outcome_data()
        del data["factual"], data["money"]
        errs = errors_of(data)
        assert any("missing required keys" in e and "factual" in e for e in errs)

    def test_malformed_marginals(self):
        errs = errors_of(outcome_data(counterfactual={"ugly": 1.0}))
        assert any("unknown label 'ugly'" in e for e in errs)
        errs = errors_of(outcome_data(factual={"bad": "lots", "good": 0.6}))
        assert any("factual weight for 'bad' is not a number" in e for e in errs)
        errs = errors_of(outcome_data(factual={"bad": 0.7, "good": 0.6}))
        assert any("sum to" in e for e in errs)

    def test_malformed_outcomes(self):
        errs = errors_of(outcome_data(outcomes=[{"label": "bad"}]))
        assert any("exactly 'label' and 'value'" in e for e in errs)
        errs = errors_of(outcome_data(outcomes=[]))
        assert errs

    def test_bad_observed_label(self):
        errs = errors_of(outcome_data(observed="fine"))
        assert any("'fine' is not in the outcome space" in e for e in errs)

    def test_bad_evidence_blocks(self):
        errs = errors_of(outcome_data(evidence_coupling={"matrix": [[1.0]]}))
        assert any("evidence matrix has shape" in e for e in errs)
        errs = errors_of(
            outcome_data(evidence_coupling={"matrix": [[1, 0], [0, 0]], "map": {}})
        )
        assert any("exactly one of" in e for e in errs)
        errs = errors_of(outcome_data(evidence_coupling={"map": {"bad": "odd"}}))
        assert any("unknown labels ['odd']" in e for e in errs)

    def test_evidence_map_targets_must_be_labels(self, tmp_path, capsys):
        data = outcome_data(
            evidence_coupling={"map": {"bad": ["good"], "good": "bad", "x": 1}}
        )
        errs = errors_of(data)
        expected = "evidence map sends ['bad', 'x'] to targets that are not labels"
        assert errs == (expected,)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data))
        assert main(["evaluate", str(path)]) == 2
        assert "targets that are not labels" in capsys.readouterr().err

    def test_problems_reported_together(self):
        data = outcome_data(
            observed="fine",
            counterfactual={"ugly": 1.0},
            money={"kind": "alchemy"},
            policy="h-fi",
        )
        errs = errors_of(data)
        assert len(errs) >= 4


class TestChoiceForm:
    def test_round_trip_through_file(self, tmp_path):
        model = matos_case(0.7, 0.5)
        path = tmp_path / "matos.json"
        save_case(path, model)
        loaded = load_case(path)
        assert loaded.kind == "choice"
        assert dump_case(loaded.case) == dump_case(model)
        assert loaded.case.notes == model.notes

    def test_round_trip_with_result_couplings(self, tmp_path):
        model = validate_choice_case(
            ChoiceCaseModel(
                choices=("go", "stay"),
                duty=frozenset({"go"}),
                results=("lo", "hi"),
                values=((0.0, 10.0), (1.0, 8.0)),
                money=IdentityMoneyMap(),
                result_given_choice_cf=(
                    DiscreteDistribution((0.3, 0.7)),
                    DiscreteDistribution((0.5, 0.5)),
                ),
                result_given_choice_f=(
                    DiscreteDistribution((0.6, 0.4)),
                    DiscreteDistribution((0.5, 0.5)),
                ),
                factual_choice="stay",
                factual_result="lo",
                counterfactual_choice=DiscreteDistribution((1.0, 0.0)),
                result_couplings=(
                    ("go", ((0.3, 0.0), (0.2, 0.5))),
                ),
            )
        )
        path = tmp_path / "coupled.json"
        save_case(path, model)
        assert dump_case(load_case(path).case) == dump_case(model)

    def test_unknown_keys_rejected(self):
        model = matos_case(0.7, 0.0)
        data = dump_case(model)
        data["choice"]["alibi"] = True
        errs = errors_of(data)
        assert any("unknown keys in choice block" in e and "alibi" in e for e in errs)
        data = dump_case(model)
        data["venue"] = "lisbon"
        errs = errors_of(data)
        assert any("unknown top-level keys" in e for e in errs)

    def test_policy_keys_rejected(self):
        data = dump_case(matos_case(0.7, 0.0))
        data["policies"] = ["it-cp"]
        errs = errors_of(data)
        assert any("do not carry policies" in e for e in errs)

    def test_missing_choice_fields(self):
        data = dump_case(matos_case(0.7, 0.0))
        del data["choice"]["values"], data["choice"]["factual_result"]
        errs = errors_of(data)
        assert any(
            "choice block is missing" in e
            and "values" in e
            and "factual_result" in e
            for e in errs
        )

    def test_malformed_conditionals(self):
        data = dump_case(matos_case(0.7, 0.0))
        del data["choice"]["result_given_choice_factual"]["answer"]
        errs = errors_of(data)
        assert any("missing choice 'answer'" in e for e in errs)
        data = dump_case(matos_case(0.7, 0.0))
        data["choice"]["result_given_choice_counterfactual"]["umm"] = {}
        errs = errors_of(data)
        assert any("are not choices" in e for e in errs)


def colliding_choice_data():
    """Choice 'a|b' with result 'c', and choice 'a' with result 'b|c': both
    pairs flatten to the outcome label 'a|b|c'."""
    conditional = {"c": 0.5, "b|c": 0.5}
    return {
        "money": {"kind": "identity"},
        "choice": {
            "choices": ["a|b", "a"],
            "duty": ["a"],
            "results": ["c", "b|c"],
            "values": [[0.0, 1.0], [2.0, 3.0]],
            "counterfactual_choice": None,
            "result_given_choice_counterfactual": {"a|b": conditional, "a": conditional},
            "result_given_choice_factual": {"a|b": conditional, "a": conditional},
            "factual_choice": "a|b",
            "factual_result": "c",
        },
    }


class TestPairLabelCollisions:
    COLLISION = "pairs ('a|b', 'c') and ('a', 'b|c') share the outcome label 'a|b|c'"

    def test_found_at_load(self, tmp_path):
        path = tmp_path / "collide.json"
        path.write_text(json.dumps(colliding_choice_data()))
        with pytest.raises(CaseValidationError) as exc:
            load_case(path)
        assert exc.value.violations == (self.COLLISION,)

    def test_listed_with_a_weight_sum_error(self, tmp_path, capsys):
        data = colliding_choice_data()
        data["choice"]["result_given_choice_factual"]["a"] = {"c": 0.5, "b|c": 0.25}
        path = tmp_path / "collide.json"
        path.write_text(json.dumps(data))
        assert main(["evaluate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: case file is invalid\n"
            f"  - {self.COLLISION}\n"
            "  - factual results given 'a' marginal weights sum to 0.75, not 1 "
            "(tolerance 1e-12)\n"
        )


class TestMoneySpecs:
    @pytest.mark.parametrize(
        "money",
        [
            IdentityMoneyMap(),
            CurveMoneyMap(UtilityCurve(0.5)),
            TabulatedMoneyMap(((0.0, 0.0), (10.0, 25.0), (20.0, 100.0))),
        ],
        ids=["identity", "crra", "tabulated"],
    )
    def test_round_trip(self, money):
        loaded = parse_case(outcome_data(money=money.spec()))
        assert loaded.case.money.spec() == money.spec()

    def test_unknown_kind(self):
        errs = errors_of(outcome_data(money={"kind": "alchemy"}))
        assert any("unknown money kind 'alchemy'" in e for e in errs)

    @pytest.mark.parametrize("kind", [[1], {}, 5, None], ids=["list", "object", "number", "null"])
    @pytest.mark.parametrize("form", ["outcome", "choice"])
    def test_kind_that_is_not_a_string(self, tmp_path, capsys, form, kind):
        data = outcome_data() if form == "outcome" else dump_case(matos_case(0.7, 0.0))
        data["money"] = {"kind": kind}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["evaluate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: case file is invalid\n"
            f"  - unknown money kind {kind!r}; expected one of "
            "['crra', 'identity', 'tabulated']\n"
        )

    def test_missing_and_extra_fields(self):
        errs = errors_of(outcome_data(money={"kind": "crra"}))
        assert any("missing ['theta']" in e for e in errs)
        errs = errors_of(outcome_data(money={"kind": "identity", "theta": 1}))
        assert any("unknown keys in money spec" in e for e in errs)

    def test_invalid_theta_surfaces(self):
        errs = errors_of(outcome_data(money={"kind": "crra", "theta": 2.0}))
        assert any("bad money spec" in e for e in errs)

    def test_not_an_object(self):
        errs = errors_of(outcome_data(money="identity"))
        assert any("'kind' field" in e for e in errs)


class TestFileLevel:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CaseValidationError) as exc:
            load_case(path)
        assert any("invalid JSON" in e for e in exc.value.violations)

    def test_non_object_root(self):
        with pytest.raises(CaseValidationError):
            parse_case([1, 2, 3])

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        atomic_write_text(target, "alpha\nbeta\n")
        assert target.read_text() == "alpha\nbeta\n"
        # No stray temp files remain next to the target.
        assert [p.name for p in target.parent.iterdir()] == ["out.txt"]
        atomic_write_text(target, "gamma\n")
        assert target.read_text() == "gamma\n"

    def test_schema_text_mentions_flag_only_policies(self):
        assert "not part of the" in SCHEMA_TEXT
        assert "command-line flags" in SCHEMA_TEXT
        assert '"kind": "crra"' in SCHEMA_TEXT


def load_text(tmp_path, text):
    path = tmp_path / "case.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CaseValidationError) as exc:
        load_case(path)
    return exc.value.violations


class TestStrictJson:
    """What Python's json module accepts but strict JSON does not."""

    def test_duplicate_key_rejected(self, tmp_path):
        text = json.dumps(outcome_data()).replace(
            '"counterfactual": {"bad": 0.1, "good": 0.9}',
            '"counterfactual": {"bad": 0.9, "good": 0.95, "bad": 0.05}',
        )
        assert '"bad": 0.05' in text
        errs = load_text(tmp_path, text)
        assert errs == ("duplicate key 'bad' in one JSON object",)

    def test_every_duplicate_key_listed(self, tmp_path):
        text = json.dumps(outcome_data()).replace(
            '"observed": "bad"', '"observed": "bad", "observed": "good"'
        ).replace(
            '"factual": {"bad": 0.4, "good": 0.6}',
            '"factual": {"bad": 0.4, "good": 0.6, "good": 0.6}',
        )
        errs = load_text(tmp_path, text)
        assert "duplicate key 'observed' in one JSON object" in errs
        assert "duplicate key 'good' in one JSON object" in errs

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_rejected(self, tmp_path, literal):
        text = json.dumps(outcome_data()).replace(
            '"value": 100.0', f'"value": {literal}'
        )
        errs = load_text(tmp_path, text)
        assert f"{literal} is not a JSON number" in errs

    def test_literal_in_money_rejected(self, tmp_path):
        text = json.dumps(outcome_data(money={"kind": "crra", "theta": 0.5}))
        errs = load_text(tmp_path, text.replace("0.5}", "NaN}"))
        assert "NaN is not a JSON number" in errs

    def test_all_problems_reported_together(self, tmp_path):
        data = outcome_data(observed="fine")
        text = json.dumps(data).replace(
            '"counterfactual": {"bad": 0.1, "good": 0.9}',
            '"counterfactual": {"bad": 0.1, "good": 0.9, "bad": 0.1}',
        ).replace('"value": 100.0', '"value": Infinity')
        text = text.replace('"factual": {"bad": 0.4', '"factual": {"bad": true')
        errs = load_text(tmp_path, text)
        assert "duplicate key 'bad' in one JSON object" in errs
        assert "Infinity is not a JSON number" in errs
        assert "factual weight for 'bad' is not a number" in errs
        assert any("'fine' is not in the outcome space" in e for e in errs)


class TestBooleansAreNotNumbers:
    def test_boolean_weight(self):
        errs = errors_of(outcome_data(factual={"bad": True, "good": False}))
        assert "factual weight for 'bad' is not a number" in errs
        assert "factual weight for 'good' is not a number" in errs

    def test_boolean_outcome_value(self):
        errs = errors_of(
            outcome_data(
                outcomes=[
                    {"label": "bad", "value": False},
                    {"label": "good", "value": 100.0},
                ]
            )
        )
        assert "outcomes[0] value is not a number" in errs

    def test_boolean_in_evidence_matrix(self):
        errs = errors_of(
            outcome_data(evidence_coupling={"matrix": [[0.1, False], [0.3, 0.6]]})
        )
        assert "evidence matrix entries must be numbers, not booleans" in errs

    def test_boolean_money_parameters(self):
        errs = errors_of(outcome_data(money={"kind": "crra", "theta": True}))
        assert any("bad money spec" in e for e in errs)
        errs = errors_of(
            outcome_data(money={"kind": "tabulated", "points": [[0, 0], [True, 5]]})
        )
        assert any("bad money spec" in e for e in errs)

    def test_boolean_choice_weight_values_and_couplings(self):
        data = dump_case(matos_case(0.7, 0.0))
        block = data["choice"]
        first = block["choices"][0]
        block["counterfactual_choice"] = {c: 0.0 for c in block["choices"]}
        block["counterfactual_choice"][first] = True
        block["values"][0][0] = True
        nr = len(block["results"])
        coupling = [[0.0] * nr for _ in range(nr)]
        coupling[0][0] = False
        block["result_couplings"] = {first: coupling}
        errs = errors_of(data)
        assert f"counterfactual_choice weight for {first!r} is not a number" in errs
        assert "choice values must be numbers, not booleans" in errs
        assert "result coupling entries must be numbers, not booleans" in errs


class TestStringsAreNotNumbers:
    """A string such as "0.5" is refused wherever a number belongs."""

    def test_string_weight(self):
        errs = errors_of(outcome_data(factual={"bad": "0.4", "good": 0.6}))
        assert "factual weight for 'bad' is not a number" in errs

    def test_string_outcome_value(self):
        errs = errors_of(
            outcome_data(
                outcomes=[
                    {"label": "bad", "value": "0"},
                    {"label": "good", "value": 100.0},
                ]
            )
        )
        assert "outcomes[0] value is not a number" in errs

    def test_string_theta(self):
        errs = errors_of(outcome_data(money={"kind": "crra", "theta": "0.5"}))
        assert "bad money spec: '0.5' is not a number" in errs

    def test_string_table_point(self):
        errs = errors_of(
            outcome_data(money={"kind": "tabulated", "points": [[0, 0], ["100", 5]]})
        )
        assert "bad money spec: '100' is not a number" in errs

    def test_string_in_evidence_matrix(self):
        errs = errors_of(
            outcome_data(evidence_coupling={"matrix": [[0.1, "0"], [0.3, 0.6]]})
        )
        assert errs == ("evidence matrix entries must be numbers, not strings",)

    def test_null_and_string_in_evidence_matrix(self):
        errs = errors_of(
            outcome_data(evidence_coupling={"matrix": [[0.1, None], [0.3, "0.6"]]})
        )
        assert errs == (
            "evidence matrix entries must be numbers, not nulls or strings",
        )

    def test_ragged_evidence_matrix(self):
        errs = errors_of(
            outcome_data(evidence_coupling={"matrix": [[0.1, 0.0], [0.3]]})
        )
        assert errs == ("evidence matrix rows differ in length",)

    def test_string_choice_weight(self):
        data = dump_case(matos_case(0.7, 0.0))
        block = data["choice"]
        first = block["choices"][0]
        block["counterfactual_choice"] = {c: 0.0 for c in block["choices"]}
        block["counterfactual_choice"][first] = "1"
        errs = errors_of(data)
        assert f"counterfactual_choice weight for {first!r} is not a number" in errs

    def test_string_choice_value(self):
        data = dump_case(matos_case(0.7, 0.0))
        data["choice"]["values"][0][0] = "0.5"
        errs = errors_of(data)
        assert "choice values must be numbers, not strings" in errs

    def test_string_result_coupling(self):
        data = dump_case(matos_case(0.7, 0.0))
        block = data["choice"]
        nr = len(block["results"])
        coupling = [[0.0] * nr for _ in range(nr)]
        coupling[0][0] = "0.5"
        block["result_couplings"] = {block["choices"][0]: coupling}
        errs = errors_of(data)
        assert "result coupling entries must be numbers, not strings" in errs

    def test_every_string_listed_with_exit_2(self, tmp_path, capsys):
        from lostchance.cli import main

        data = outcome_data(
            outcomes=[
                {"label": "bad", "value": "0"},
                {"label": "good", "value": 100.0},
            ],
            factual={"bad": "0.4", "good": 0.6},
            money={"kind": "crra", "theta": "0.5"},
            evidence_coupling={"matrix": [[0.1, "0"], [0.3, 0.6]]},
        )
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        errs = load_text(tmp_path, json.dumps(data))
        assert errs == (
            "outcomes[0] value is not a number",
            "factual weight for 'bad' is not a number",
            "bad money spec: '0.5' is not a number",
            "evidence matrix entries must be numbers, not strings",
        )
        assert main(["evaluate", str(path), "--connection", "ld-c"]) == 2
        err = capsys.readouterr().err
        assert all(e in err for e in errs)


class TestLabelsAreStrings:
    """A label is a JSON string: nothing else is read as one."""

    def problems(self, tmp_path, capsys, data) -> str:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["evaluate", str(path)]) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, bad, problem",
        [
            ("choices", 5, "choices must be a list of strings"),
            ("duty", 5, "duty must be a list of strings"),
            ("notes", 5, "notes must be a list of strings"),
            ("results", "abc", "results must be a list of strings"),
            ("duty", ["answer", 5], "duty must be a list of strings"),
            ("factual_choice", ["refuse"], "factual_choice must be a string"),
            ("factual_result", 500000, "factual_result must be a string"),
        ],
    )
    def test_choice_block(self, tmp_path, capsys, key, bad, problem):
        data = dump_case(matos_case(0.7, 0.0))
        data["choice"][key] = bad
        assert f"  - {problem}\n" in self.problems(tmp_path, capsys, data)

    @pytest.mark.parametrize("label", [None, ["g"], 5])
    def test_outcome_label(self, tmp_path, capsys, label):
        outcomes = [{"label": "bad", "value": 0.0}, {"label": label, "value": 1.0}]
        err = self.problems(tmp_path, capsys, outcome_data(outcomes=outcomes))
        assert "  - outcomes[1] label is not a string\n" in err

    def test_observed(self, tmp_path, capsys):
        data = outcome_data(
            outcomes=[{"label": "0", "value": 0.0}, {"label": "1", "value": 1.0}],
            counterfactual={"0": 0.5, "1": 0.5},
            factual={"0": 0.5, "1": 0.5},
            observed=0,
        )
        err = self.problems(tmp_path, capsys, data)
        assert "  - observed outcome must be a label string\n" in err


class TestNumbersBeyondFloatRange:
    """JSON numbers no float holds: 1e400 parses as inf, and a 400-digit
    integer does not convert at all.  Both are refused at every site."""

    BIG = "9" * 400

    def test_table_point_past_float_range(self, tmp_path, capsys):
        from lostchance.cli import main

        text = json.dumps(
            outcome_data(money={"kind": "tabulated", "points": [[0, 0], [100, 5], "X"]})
        ).replace('"X"', "[1e400, 1e400]")
        errs = load_text(tmp_path, text)
        assert errs == ("bad money spec: a number is beyond a float's range",)
        path = tmp_path / "case.json"
        argv = ["evaluate", str(path), "--info", "l-fi", "--connection", "ld-c", "--csv"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "nan" not in out
        assert "beyond a float's range" in err

    def test_long_integer_outcome_value(self, tmp_path, capsys):
        from lostchance.cli import main

        text = json.dumps(outcome_data()).replace('"value": 100.0', f'"value": {self.BIG}')
        assert load_text(tmp_path, text) == ("outcomes[1] value is beyond a float's range",)
        path = tmp_path / "case.json"
        assert main(["evaluate", str(path), "--connection", "ld-c"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "outcomes[1] value is beyond a float's range" in err

    @pytest.mark.parametrize(
        "literal", ["1e400", "-1e400", BIG], ids=["1e400", "-1e400", "400-digits"]
    )
    def test_weight(self, tmp_path, literal):
        text = json.dumps(outcome_data()).replace('"good": 0.6', f'"good": {literal}')
        errs = load_text(tmp_path, text)
        assert "factual weight for 'good' is beyond a float's range" in errs

    def test_theta(self, tmp_path):
        text = json.dumps(outcome_data(money={"kind": "crra", "theta": 0.5}))
        errs = load_text(tmp_path, text.replace("0.5}", "1e400}"))
        assert errs == ("bad money spec: a number is beyond a float's range",)

    @pytest.mark.parametrize("literal", ["1e400", BIG], ids=["1e400", "400-digits"])
    def test_evidence_matrix(self, tmp_path, literal):
        data = outcome_data(evidence_coupling={"matrix": [[0.1, 0.0], [0.3, "X"]]})
        errs = load_text(tmp_path, json.dumps(data).replace('"X"', literal))
        assert errs == ("evidence matrix entries must be numbers within a float's range",)

    @pytest.mark.parametrize("literal", ["1e400", BIG], ids=["1e400", "400-digits"])
    def test_choice_values_couplings_and_weights(self, tmp_path, literal):
        data = dump_case(matos_case(0.7, 0.0))
        block = data["choice"]
        first = block["choices"][0]
        block["counterfactual_choice"] = {c: 0.0 for c in block["choices"]}
        block["counterfactual_choice"][first] = "X"
        block["values"][0][0] = "X"
        nr = len(block["results"])
        coupling = [[0.0] * nr for _ in range(nr)]
        coupling[0][0] = "X"
        block["result_couplings"] = {first: coupling}
        errs = load_text(tmp_path, json.dumps(data).replace('"X"', literal))
        assert f"counterfactual_choice weight for {first!r} is beyond a float's range" in errs
        assert "choice values must be numbers within a float's range" in errs
        assert "result coupling entries must be numbers within a float's range" in errs

    def test_integer_too_long_to_parse(self, tmp_path):
        # Python refuses to convert integers of more than 4300 digits.
        text = json.dumps(outcome_data()).replace('"value": 100.0', f'"value": {"9" * 5000}')
        (err,) = load_text(tmp_path, text)
        assert err.startswith("invalid JSON: ")

    def test_largest_floats_still_load(self):
        loaded = parse_case(
            outcome_data(
                outcomes=[
                    {"label": "bad", "value": -1.7e308},
                    {"label": "good", "value": 10**308},
                ]
            )
        )
        assert loaded.case.space.values == (-1.7e308, 1e308)


# -- round trip -------------------------------------------------------------

_labels = st.lists(
    st.text(min_size=1, max_size=4), min_size=1, max_size=5, unique=True
)
_values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _weights(draw, size: int) -> tuple[float, ...]:
    """A distribution over `size` entries, some of them zero."""
    raw = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
    raw[draw(st.integers(0, size - 1))] += 1
    total = sum(raw)
    return tuple(w / total for w in raw)


@st.composite
def _money(draw):
    kind = draw(st.sampled_from(["identity", "crra", "tabulated"]))
    if kind == "identity":
        return IdentityMoneyMap()
    if kind == "crra":
        return CurveMoneyMap(UtilityCurve(draw(st.floats(0.0, 1.0))))
    steps = draw(
        st.lists(
            st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
            min_size=1,
            max_size=4,
        )
    )
    points = [(draw(_values), draw(_values))]
    for dv, dm in steps:
        v, m = points[-1]
        points.append((v + dv, m + dm))
    return TabulatedMoneyMap(tuple(points))


@st.composite
def _outcome_cases(draw):
    labels = draw(_labels)
    n = len(labels)
    values = tuple(draw(st.lists(_values, min_size=n, max_size=n)))
    factual = draw(_weights(n))
    support = [i for i, w in enumerate(factual) if w > 0.0]
    observed = draw(st.one_of(st.none(), st.sampled_from(support)))
    case = CaseModel(
        space=OutcomeSpace(tuple(labels), values),
        counterfactual=DiscreteDistribution(draw(_weights(n))),
        factual=DiscreteDistribution(factual),
        money=draw(_money()),
        factual_observed=observed,
    )
    joint = None
    if draw(st.booleans()):
        joint = np.outer(case.counterfactual.array, case.factual.array)
    return case, joint


@st.composite
def _choice_cases(draw):
    choices = tuple(draw(_labels))
    results = tuple(draw(_labels))
    nc, nr = len(choices), len(results)
    cf = tuple(DiscreteDistribution(draw(_weights(nr))) for _ in choices)
    f = tuple(DiscreteDistribution(draw(_weights(nr))) for _ in choices)
    fc = draw(st.integers(0, nc - 1))
    fr = draw(st.sampled_from([r for r, w in enumerate(f[fc].weights) if w > 0.0]))
    couplings = None
    coupled = draw(st.lists(st.sampled_from(range(nc)), unique=True, max_size=nc))
    if coupled:
        couplings = tuple(
            (choices[c], np.outer(cf[c].array, f[fc].array)) for c in coupled
        )
    duty = draw(st.sets(st.sampled_from(choices), min_size=1))
    evidence = draw(st.one_of(st.none(), _weights(nc)))
    return validate_choice_case(
        ChoiceCaseModel(
            choices=choices,
            duty=frozenset(duty),
            results=results,
            values=tuple(
                tuple(draw(st.lists(_values, min_size=nr, max_size=nr)))
                for _ in choices
            ),
            money=draw(_money()),
            result_given_choice_cf=cf,
            result_given_choice_f=f,
            factual_choice=choices[fc],
            factual_result=results[fr],
            counterfactual_choice=(
                None if evidence is None else DiscreteDistribution(evidence)
            ),
            result_couplings=couplings,
            notes=tuple(draw(st.lists(st.text(max_size=8), max_size=2))),
        )
    )


def _through_json(data: dict) -> dict:
    return json.loads(json.dumps(data))


class TestRoundTripProperty:
    @given(_outcome_cases())
    @settings(max_examples=150, deadline=None)
    def test_outcome_form(self, drawn):
        case, joint = drawn
        loaded = parse_case(_through_json(dump_case(case, joint)))
        assert loaded.kind == "outcome"
        assert loaded.case == case
        if joint is None:
            assert loaded.evidence_joint is None
        else:
            assert np.array_equal(loaded.evidence_joint, joint)

    @given(_choice_cases())
    @settings(max_examples=150, deadline=None)
    def test_choice_form(self, case):
        loaded = parse_case(_through_json(dump_case(case)))
        assert loaded.kind == "choice"
        assert loaded.case == case
