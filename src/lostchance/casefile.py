"""JSON case files: one case per file, loaded strictly.

Two forms exist.  The outcome form gives the shared outcome space, both
marginals, a money map, and optionally an evidence coupling (a full
matrix or a deterministic outcome map).  The choice form instead
carries a lost-choice block.  Policies are deliberately not part of the
file; they are selected per run through command-line flags.

Unknown keys are rejected everywhere, and all problems are reported
together: duplicate keys, the non-standard NaN and Infinity literals,
booleans or strings where a number belongs, numbers beyond a float's
range, and every structural problem.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import stat
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .choice import ChoiceCaseModel, validate_choice_case
from .coupling import Cells, map_cells
from .outcome import (
    CaseModel,
    CaseValidationError,
    CurveMoneyMap,
    DiscreteDistribution,
    IdentityMoneyMap,
    MoneyMap,
    OutcomeSpace,
    TabulatedMoneyMap,
    UtilityCurve,
    label_positions,
    validate_case,
)

# Each form's required top-level keys, then its optional ones.
_TOP_KEYS_OUTCOME = (
    {"outcomes", "counterfactual", "factual", "money"},
    {"observed", "evidence_coupling"},
)
_TOP_KEYS_CHOICE = ({"choice", "money"}, set())
# Keys that would carry policies, which are chosen per run, not per file.
_POLICY_KEYS = ("policy", "policies", "policy_list")
_CHOICE_KEYS = {
    "choices",
    "duty",
    "results",
    "values",
    "counterfactual_choice",
    "result_given_choice_counterfactual",
    "result_given_choice_factual",
    "factual_choice",
    "factual_result",
    "result_couplings",
    "notes",
}
_MONEY_KEYS = {"identity": set(), "crra": {"theta"}, "tabulated": {"points"}}

SCHEMA_TEXT = """\
Case file grammar (JSON, one case per file)

Outcome form:
  {
    "outcomes":       [{"label": str, "value": number}, ...],
    "counterfactual": {label: weight, ...},   # weights sum to 1
    "factual":        {label: weight, ...},
    "observed":       label,                  # optional
    "money":          MONEY,
    "evidence_coupling":                      # optional
        {"matrix": [[mass, ...], ...]}        # rows: counterfactual outcome
      | {"map": {from_label: to_label, ...}}  # deterministic, expanded
  }

Choice form:
  {
    "money":  MONEY,
    "choice": {
      "choices":  [str, ...],
      "duty":     [str, ...],                 # non-empty subset of choices
      "results":  [str, ...],
      "values":   [[number, ...], ...],       # choices x results
      "counterfactual_choice": {choice: weight, ...} | null,
      "result_given_choice_counterfactual": {choice: {result: weight}},
      "result_given_choice_factual":        {choice: {result: weight}},
      "factual_choice": str,
      "factual_result": str,
      "result_couplings": {choice: [[mass, ...], ...]},  # optional
      "notes": [str, ...]                                # optional
    }
  }

MONEY is one of:
  {"kind": "identity"}
  {"kind": "crra", "theta": number in [0, 1]}
  {"kind": "tabulated", "points": [[value, money], ...]}  # strictly increasing

Policies (information / connection / indemnity) are not part of the
file; pass them as command-line flags.
"""


@dataclass(eq=False)
class LoadedCase:
    """What a case file parses to."""

    case: Union[CaseModel, ChoiceCaseModel]
    evidence_joint: Optional[Union[np.ndarray, Cells]]  # a map loads as Cells
    kind: str  # "outcome" or "choice"


# The types json.loads gives numbers; bool, a subclass of int, is not one.
_NUMBER_TYPES = (int, float)
_NUMBER_SET = frozenset(_NUMBER_TYPES)
# Plural JSON names of the values that are not numbers.
_JSON_KINDS = {
    bool: "booleans",
    str: "strings",
    type(None): "nulls",
    list: "arrays",
    dict: "objects",
}


_OUT_OF_RANGE = "is beyond a float's range"


class _OutOfRange(ValueError):
    """A JSON number no float holds: 1e400 parses as inf, and a
    400-digit integer does not convert at all."""


def _number(x) -> float:
    """float(x) for a JSON number within a float's range; booleans and
    strings such as "0.5" are refused, since strict JSON keeps them apart
    from numbers."""
    if type(x) not in _NUMBER_TYPES:
        raise TypeError(f"{x!r} is not a number")
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if math.isinf(f):
        raise _OutOfRange(f"a number {_OUT_OF_RANGE}")
    return f


def _not_a_number(exc: Exception) -> str:
    """What is wrong with a value `_number` refused, as a predicate."""
    return _OUT_OF_RANGE if isinstance(exc, _OutOfRange) else "is not a number"


def _floats(items, count: int) -> Optional[np.ndarray]:
    """The `count` JSON numbers in `items` as a float array, or None if
    one is beyond a float's range."""
    try:
        flat = np.fromiter(items, float, count)
    except OverflowError:
        return None
    return None if np.isinf(flat).any() else flat


def _numbers(items: Sequence) -> Optional[np.ndarray]:
    """`items` as a float array when every one is a JSON number within a
    float's range, else None: one type-set test and one conversion, with
    no loop over the items in Python."""
    if not set(map(type, items)) <= _NUMBER_SET:
        return None
    return _floats(items, len(items))


def _number_rows(rows, name: str, errs: list[str]):
    """rows if it is a list of rows of JSON numbers, else None after
    listing why not.

    `name` names the entries, as in "choice values"; the shape of the
    table is left to the caller.
    """
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        errs.append(f"{name} must be a list of rows of numbers")
        return None
    bad = {type(x) for r in rows for x in r} - _NUMBER_SET
    if bad:
        kinds = sorted(_JSON_KINDS.get(t, t.__name__) for t in bad)
        errs.append(f"{name} must be numbers, not {' or '.join(kinds)}")
        return None
    count = sum(map(len, rows))
    if _floats(itertools.chain.from_iterable(rows), count) is None:
        errs.append(f"{name} must be numbers within a float's range")
        return None
    return rows


def _money_from_spec(data, errs: list[str]) -> MoneyMap:
    if not isinstance(data, dict) or "kind" not in data:
        errs.append("money must be an object with a 'kind' field")
        return IdentityMoneyMap()
    kind = data["kind"]
    # Only a string names a kind; a list or an object is not even hashable.
    if not isinstance(kind, str) or kind not in _MONEY_KEYS:
        errs.append(f"unknown money kind {kind!r}; expected one of {sorted(_MONEY_KEYS)}")
        return IdentityMoneyMap()
    extra = set(data) - {"kind"} - _MONEY_KEYS[kind]
    if extra:
        errs.append(f"unknown keys in money spec: {sorted(extra)}")
    missing = _MONEY_KEYS[kind] - set(data)
    if missing:
        errs.append(f"money spec of kind {kind!r} is missing {sorted(missing)}")
        return IdentityMoneyMap()
    try:
        if kind == "identity":
            return IdentityMoneyMap()
        if kind == "crra":
            return CurveMoneyMap(UtilityCurve(_number(data["theta"])))
        return TabulatedMoneyMap(
            tuple((_number(v), _number(m)) for v, m in data["points"])
        )
    except (TypeError, ValueError) as exc:
        errs.append(f"bad money spec: {exc}")
        return IdentityMoneyMap()


def _weights_from_dict(
    data, positions: dict[str, int], size: int, name: str, errs: list[str]
) -> DiscreteDistribution:
    weights = np.zeros(size)
    if not isinstance(data, dict):
        errs.append(f"{name} must be an object mapping labels to weights")
        return DiscreteDistribution(weights)
    at = np.fromiter(map(positions.get, data, itertools.repeat(-1)), np.intp, len(data))
    given = _numbers(list(data.values()))
    if given is not None and (at >= 0).all():
        weights[at] = given
        return DiscreteDistribution(weights)
    # Something is wrong: list every problem, in the file's order.
    for lab, w in data.items():
        if lab not in positions:
            errs.append(f"{name} refers to unknown label {lab!r}")
            continue
        try:
            weights[positions[lab]] = _number(w)
        except (TypeError, ValueError) as exc:
            errs.append(f"{name} weight for {lab!r} {_not_a_number(exc)}")
    return DiscreteDistribution(weights)


def _check_top_keys(data: dict, keys: tuple[set, set], errs: list[str]) -> None:
    """List the policy keys, unknown keys and missing required keys of a
    case file's top level, given the form's (required, optional) keys;
    raise once a required key is missing."""
    for key in _POLICY_KEYS:
        if key in data:
            errs.append(
                f"case files do not carry policies ({key!r} found); select "
                f"them with the --info/--connection/--indemnity flags"
            )
    required, optional = keys
    extra = set(data) - required - optional - set(_POLICY_KEYS)
    if extra:
        errs.append(f"unknown top-level keys: {sorted(extra)}")
    missing = required - set(data)
    if missing:
        errs.append(f"missing required keys: {sorted(missing)}")
        raise CaseValidationError(errs)


_LABEL = operator.itemgetter("label")
_VALUE = operator.itemgetter("value")


def _outcome_columns(entries: list, errs: list[str]) -> tuple:
    """The labels and values of a non-empty outcome list, for
    `OutcomeSpace`, which turns labels into strings.

    A well-formed list is read with no loop over its entries in Python;
    otherwise each entry is checked in turn, to list every problem.
    Raises CaseValidationError when no entry is usable.
    """
    if set(map(type, entries)) == {dict} and set(map(len, entries)) == {2}:
        try:
            labels = list(map(_LABEL, entries))
            flat = _numbers(list(map(_VALUE, entries)))
        except KeyError:
            flat = None
        if flat is not None and set(map(type, labels)) == {str}:
            return labels, flat
    labels, values = [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"label", "value"}:
            errs.append(
                f"outcomes[{i}] must be an object with exactly "
                f"'label' and 'value'"
            )
            continue
        if not isinstance(entry["label"], str):
            errs.append(f"outcomes[{i}] label is not a string")
        labels.append(entry["label"])
        try:
            values.append(_number(entry["value"]))
        except (TypeError, ValueError) as exc:
            errs.append(f"outcomes[{i}] value {_not_a_number(exc)}")
            values.append(0.0)
    if not labels:
        raise CaseValidationError(errs)
    return labels, values


def _load_outcome_form(data: dict) -> LoadedCase:
    errs: list[str] = []
    _check_top_keys(data, _TOP_KEYS_OUTCOME, errs)
    if not isinstance(data["outcomes"], list) or not data["outcomes"]:
        errs.append("outcomes must be a non-empty list")
        raise CaseValidationError(errs)
    space = OutcomeSpace(*_outcome_columns(data["outcomes"], errs))
    counterfactual = _weights_from_dict(
        data["counterfactual"], space.positions, space.size, "counterfactual", errs
    )
    factual = _weights_from_dict(
        data["factual"], space.positions, space.size, "factual", errs
    )
    money = _money_from_spec(data["money"], errs)
    observed = None
    if "observed" in data:
        lab = data["observed"]
        if not isinstance(lab, str):
            errs.append("observed outcome must be a label string")
        elif lab not in space.positions:
            errs.append(f"observed outcome {lab!r} is not in the outcome space")
        else:
            observed = space.positions[lab]
    evidence = None
    if "evidence_coupling" in data:
        ev = data["evidence_coupling"]
        if not isinstance(ev, dict) or set(ev) not in ({"matrix"}, {"map"}):
            errs.append(
                "evidence_coupling must be an object with exactly one of "
                "'matrix' or 'map'"
            )
        elif "matrix" in ev:
            rows = _number_rows(ev["matrix"], "evidence matrix entries", errs)
            widths = set() if rows is None else {len(r) for r in rows}
            if len(widths) > 1:
                errs.append("evidence matrix rows differ in length")
            elif rows is not None:
                shape = (len(rows), *widths)
                if shape != (space.size, space.size):
                    errs.append(
                        f"evidence matrix has shape {shape}, expected "
                        f"{(space.size, space.size)}"
                    )
                else:
                    evidence = np.array(rows, dtype=float)
        else:
            mapping = ev["map"]
            if not isinstance(mapping, dict):
                errs.append("evidence map must be an object of label pairs")
            elif odd := [k for k, t in mapping.items() if not isinstance(t, str)]:
                errs.append(f"evidence map sends {odd} to targets that are not labels")
            else:
                bad = (set(mapping) | set(mapping.values())) - space.positions.keys()
                if bad:
                    errs.append(f"evidence map refers to unknown labels {sorted(bad)}")
                else:
                    evidence = map_cells(space, counterfactual.weights, mapping)
    if errs:
        raise CaseValidationError(errs)
    case = validate_case(
        CaseModel(
            space=space,
            counterfactual=counterfactual,
            factual=factual,
            money=money,
            factual_observed=observed,
        )
    )
    return LoadedCase(case=case, evidence_joint=evidence, kind="outcome")


def _label_list(data, name: str, errs: list[str]) -> Optional[tuple[str, ...]]:
    """`data` as a tuple if it is a list of strings, else None after
    listing why not."""
    if isinstance(data, list) and set(map(type, data)) <= {str}:
        return tuple(data)
    errs.append(f"{name} must be a list of strings")
    return None


def _load_choice_form(data: dict) -> LoadedCase:
    errs: list[str] = []
    _check_top_keys(data, _TOP_KEYS_CHOICE, errs)
    block = data["choice"]
    if not isinstance(block, dict):
        raise CaseValidationError(errs + ["choice must be an object"])
    extra = set(block) - _CHOICE_KEYS
    if extra:
        errs.append(f"unknown keys in choice block: {sorted(extra)}")
    required = _CHOICE_KEYS - {"result_couplings", "notes"}
    missing = required - set(block)
    if missing:
        errs.append(f"choice block is missing {sorted(missing)}")
        raise CaseValidationError(errs)
    choices = _label_list(block["choices"], "choices", errs)
    results = _label_list(block["results"], "results", errs)
    duty = _label_list(block["duty"], "duty", errs)
    notes = _label_list(block.get("notes", []), "notes", errs)
    for key in ("factual_choice", "factual_result"):
        if not isinstance(block[key], str):
            errs.append(f"{key} must be a string")
    if choices is None or results is None:
        raise CaseValidationError(errs)
    choice_positions = label_positions(choices)
    result_positions = label_positions(results)

    def cond_table(key: str) -> tuple[DiscreteDistribution, ...]:
        table = block[key]
        out = []
        if not isinstance(table, dict):
            errs.append(f"{key} must be an object keyed by choice")
            return tuple(
                DiscreteDistribution((0.0,) * len(results)) for _ in choices
            )
        unknown = set(table) - set(choices)
        if unknown:
            errs.append(f"{key} keys {sorted(unknown)} are not choices")
        for c in choices:
            if c not in table:
                errs.append(f"{key} is missing choice {c!r}")
                out.append(DiscreteDistribution((0.0,) * len(results)))
            else:
                out.append(
                    _weights_from_dict(
                        table[c],
                        result_positions,
                        len(results),
                        f"{key}[{c!r}]",
                        errs,
                    )
                )
        return tuple(out)

    cf_conds = cond_table("result_given_choice_counterfactual")
    f_conds = cond_table("result_given_choice_factual")
    evidence = block["counterfactual_choice"]
    cf_choice = None
    if evidence is not None:
        cf_choice = _weights_from_dict(
            evidence, choice_positions, len(choices), "counterfactual_choice", errs
        )
    couplings = None
    if block.get("result_couplings") is not None:
        raw = block["result_couplings"]
        if not isinstance(raw, dict):
            errs.append("result_couplings must be an object keyed by choice")
        else:
            rows = {
                str(c): _number_rows(m, "result coupling entries", errs)
                for c, m in raw.items()
            }
            if None not in rows.values():
                couplings = tuple(rows.items())
    values = _number_rows(block["values"], "choice values", errs)
    money = _money_from_spec(data["money"], errs)
    if errs:
        raise CaseValidationError(errs)
    model = validate_choice_case(
        ChoiceCaseModel(
            choices=choices,
            duty=frozenset(duty),
            results=results,
            values=values,
            money=money,
            result_given_choice_cf=cf_conds,
            result_given_choice_f=f_conds,
            factual_choice=block["factual_choice"],
            factual_result=block["factual_result"],
            counterfactual_choice=cf_choice,
            result_couplings=couplings,
            notes=notes,
        )
    )
    return LoadedCase(case=model, evidence_joint=None, kind="choice")


def parse_case(data: dict) -> LoadedCase:
    if not isinstance(data, dict):
        raise CaseValidationError(["case file must contain a JSON object"])
    if "choice" in data:
        return _load_choice_form(data)
    return _load_outcome_form(data)


def _strict_json(text: str) -> tuple[object, list[str]]:
    """Parse JSON, listing what strict JSON forbids but Python's parser
    accepts: a key repeated in one object (the last value would win) and
    the NaN, Infinity and -Infinity literals."""
    problems: list[str] = []

    def pairs_hook(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen: set = set()
            repeated: dict = {}
            for key, _ in pairs:
                if key in seen:
                    repeated[key] = None
                seen.add(key)
            problems.extend(f"duplicate key {k!r} in one JSON object" for k in repeated)
        return obj

    def constant(name: str) -> float:
        problems.append(f"{name} is not a JSON number")
        return float(name)

    try:
        data = json.loads(text, object_pairs_hook=pairs_hook, parse_constant=constant)
    except ValueError as exc:
        # A JSONDecodeError, or an integer too long to convert at all.
        raise CaseValidationError([f"invalid JSON: {exc}"]) from exc
    return data, problems


def load_case(path) -> LoadedCase:
    data, problems = _strict_json(Path(path).read_text(encoding="utf-8"))
    if not problems:
        return parse_case(data)
    # Report the structural problems too, all in one go.
    try:
        parse_case(data)
    except CaseValidationError as exc:
        problems.extend(exc.violations)
    except (KeyError, ValueError) as exc:
        problems.append(str(exc))
    raise CaseValidationError(problems)


def dump_case(
    case: Union[CaseModel, ChoiceCaseModel],
    evidence_joint: Optional[np.ndarray] = None,
) -> dict:
    """Serializable dict that parses back to an equal case."""
    if isinstance(case, ChoiceCaseModel):
        block: dict = {
            "choices": list(case.choices),
            "duty": sorted(case.duty),
            "results": list(case.results),
            "values": [list(row) for row in case.values],
            "counterfactual_choice": (
                None
                if case.counterfactual_choice is None
                else dict(zip(case.choices, case.counterfactual_choice.weights))
            ),
            "result_given_choice_counterfactual": {
                c: dict(zip(case.results, d.weights))
                for c, d in zip(case.choices, case.result_given_choice_cf)
            },
            "result_given_choice_factual": {
                c: dict(zip(case.results, d.weights))
                for c, d in zip(case.choices, case.result_given_choice_f)
            },
            "factual_choice": case.factual_choice,
            "factual_result": case.factual_result,
        }
        if case.result_couplings is not None:
            block["result_couplings"] = {
                c: [list(row) for row in m] for c, m in case.result_couplings
            }
        if case.notes:
            block["notes"] = list(case.notes)
        return {"money": case.money.spec(), "choice": block}
    data: dict = {
        "outcomes": [
            {"label": lab, "value": val}
            for lab, val in zip(case.space.labels, case.space.values)
        ],
        "counterfactual": dict(zip(case.space.labels, case.counterfactual.weights)),
        "factual": dict(zip(case.space.labels, case.factual.weights)),
        "money": case.money.spec(),
    }
    if case.factual_observed is not None:
        data["observed"] = case.space.labels[case.factual_observed]
    if evidence_joint is not None:
        data["evidence_coupling"] = {
            "matrix": [list(map(float, row)) for row in np.asarray(evidence_joint)]
        }
    return data


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file beside the file that `path` names, after
    following any symlink, and rename, so readers never see a half-written
    file and a link stays a link.  A target that exists and is not a
    regular file, such as a FIFO or a device, is written in place.
    Newlines are always LF."""
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return
    target = Path(os.path.realpath(path))
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_case(
    path,
    case: Union[CaseModel, ChoiceCaseModel],
    evidence_joint: Optional[np.ndarray] = None,
) -> None:
    atomic_write_text(path, json.dumps(dump_case(case, evidence_joint), indent=2) + "\n")
