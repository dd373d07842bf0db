"""Cases where the victim lost a choice, not just an outcome.

The harmful act deprived the victim of choosing among several courses of
action, some of which were duty-bound.  Outcomes become (choice, result)
pairs.  The counterfactual choice is either evidenced by a supplied
distribution or presumed: the presumption picks the duty-bound choice
with the highest counterfactual mean value, either rebuttably (yielding
to evidence when present) or absolutely (overriding it).

The joint law factorizes through two channels: a choice channel tying
the counterfactual choice to the (known) factual one, and a result
channel coupling results given each choice pair.  This makes the
counterfactual choice conditionally independent of the factual result
given the factual choice.  `evaluate_choice_case` flattens the pair
space to ordinary outcomes and prices a list of policy combinations on
the standard pipeline as one policy grid.

A mitigation offset handles the dual case where the victim later
neglected a duty of their own: the tortfeasor's liability is reduced by
the award the mirrored case would grant, floored at zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .coupling import MARGINAL_TOL, Cells, comonotone_cells
from .outcome import (
    CaseModel,
    CaseValidationError,
    DiscreteDistribution,
    MoneyMap,
    OutcomeSpace,
    validate_case,
)
from .valuation import (
    CompensationSchedule,
    ConfigurationError,
    PolicyCombo,
    evaluate_grid,
)

_PRESUMPTION_RULE_NOTE = (
    "presumption picks the highest-valued dutiful choice; "
    "the lowest-valued reading of the rule is rejected"
)


def _as_matrix_tuple(m) -> tuple[tuple[float, ...], ...]:
    return tuple(map(tuple, np.asarray(m, dtype=float).tolist()))


@dataclass(frozen=True)
class ChoiceCaseModel:
    """A lost-choice case over (choice, result) pairs.

    values[c][r] is the value of picking choice c and getting result r.
    The per-choice result conditionals describe each run; the factual
    choice and result are what actually happened.  counterfactual_choice
    is evidence when supplied, otherwise a presumption must fill it in.
    result_couplings optionally overrides the default comonotone result
    channel, keyed by counterfactual choice label.
    """

    choices: tuple[str, ...]
    duty: frozenset[str]
    results: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    money: MoneyMap
    result_given_choice_cf: tuple[DiscreteDistribution, ...]
    result_given_choice_f: tuple[DiscreteDistribution, ...]
    factual_choice: str
    factual_result: str
    counterfactual_choice: Optional[DiscreteDistribution] = None
    result_couplings: Optional[
        tuple[tuple[str, tuple[tuple[float, ...], ...]], ...]
    ] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(str(c) for c in self.choices))
        object.__setattr__(self, "results", tuple(str(r) for r in self.results))
        object.__setattr__(self, "duty", frozenset(str(c) for c in self.duty))
        object.__setattr__(
            self, "values", tuple(tuple(map(float, row)) for row in self.values)
        )
        object.__setattr__(
            self, "result_given_choice_cf", tuple(self.result_given_choice_cf)
        )
        object.__setattr__(
            self, "result_given_choice_f", tuple(self.result_given_choice_f)
        )
        if self.result_couplings is not None:
            object.__setattr__(
                self,
                "result_couplings",
                tuple(
                    (str(c), _as_matrix_tuple(m)) for c, m in self.result_couplings
                ),
            )
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def n_choices(self) -> int:
        return len(self.choices)

    @property
    def n_results(self) -> int:
        return len(self.results)

    @property
    def value_matrix(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def choice_index(self, label: str) -> int:
        try:
            return self.choices.index(label)
        except ValueError:
            raise KeyError(f"unknown choice {label!r}") from None

    def result_index(self, label: str) -> int:
        try:
            return self.results.index(label)
        except ValueError:
            raise KeyError(f"unknown result {label!r}") from None

    def result_coupling_for(self, choice: str) -> Optional[np.ndarray]:
        if self.result_couplings is None:
            return None
        for c, m in self.result_couplings:
            if c == choice:
                return np.asarray(m, dtype=float)
        return None

    def outcome_label(self, choice: str, result: str) -> str:
        return f"{choice}|{result}"

    @cached_property
    def space(self) -> OutcomeSpace:
        """The flattened outcome space: pair (c, r) at index c*nr + r,
        labelled 'choice|result' and valued values[c][r]."""
        labels = itertools.starmap(
            self.outcome_label, itertools.product(self.choices, self.results)
        )
        return OutcomeSpace(tuple(labels), self.value_matrix.ravel())


def _result_coupling_sum_errors(
    model: ChoiceCaseModel, choice: str, mat: np.ndarray, f_weights: np.ndarray
) -> list[str]:
    """One message per marginal the result coupling for `choice` misses."""
    errs = []
    cf_weights = model.result_given_choice_cf[model.choice_index(choice)].array
    if np.max(np.abs(mat.sum(axis=1) - cf_weights)) > MARGINAL_TOL:
        errs.append(
            f"result coupling for {choice!r}: row sums do not match the "
            f"counterfactual result conditional"
        )
    if np.max(np.abs(mat.sum(axis=0) - f_weights)) > MARGINAL_TOL:
        errs.append(
            f"result coupling for {choice!r}: column sums do not match the "
            f"factual result conditional"
        )
    return errs


def validate_choice_case(model: ChoiceCaseModel) -> ChoiceCaseModel:
    """Check every lost-choice invariant, reporting all violations together."""
    errs: list[str] = []
    if not model.choices:
        errs.append("no choices")
    if len(set(model.choices)) != len(model.choices):
        errs.append("duplicate choice labels")
    if not model.results:
        errs.append("no results")
    if len(set(model.results)) != len(model.results):
        errs.append("duplicate result labels")
    # Only a label holding '|' can make two pairs share a flattened label.
    if any("|" in lab for lab in model.choices + model.results):
        first: dict[str, tuple[str, str]] = {}
        for pair in itertools.product(model.choices, model.results):
            label = model.outcome_label(*pair)
            if first.setdefault(label, pair) != pair:
                errs.append(
                    f"pairs {first[label]!r} and {pair!r} share the outcome label {label!r}"
                )
    if not model.duty:
        errs.append("duty set is empty")
    for c in sorted(model.duty):
        if c not in model.choices:
            errs.append(f"duty set member {c!r} is not a choice")
    nc, nr = model.n_choices, model.n_results
    if len(model.values) != nc or any(len(row) != nr for row in model.values):
        errs.append(
            f"value table must be {nc} choices x {nr} results, got "
            f"{[len(r) for r in model.values]}"
        )
    else:
        for i, j in zip(*np.nonzero(~np.isfinite(model.value_matrix))):
            errs.append(
                f"value of ({model.choices[i]!r}, {model.results[j]!r}) is not finite"
            )
    for name, conds in (
        ("counterfactual", model.result_given_choice_cf),
        ("factual", model.result_given_choice_f),
    ):
        if len(conds) != nc:
            errs.append(f"{name} result conditionals: {len(conds)} rows for {nc} choices")
            continue
        for c, dist in zip(model.choices, conds):
            errs.extend(dist.violations(f"{name} results given {c!r}", nr))
    if model.factual_choice not in model.choices:
        errs.append(f"factual choice {model.factual_choice!r} is not a choice")
    if model.factual_result not in model.results:
        errs.append(f"factual result {model.factual_result!r} is not a result")
    if not errs:
        fc = model.choice_index(model.factual_choice)
        fr = model.result_index(model.factual_result)
        if model.result_given_choice_f[fc].weights[fr] <= 0.0:
            errs.append(
                f"factual pair ({model.factual_choice!r}, "
                f"{model.factual_result!r}) has zero probability"
            )
    if model.counterfactual_choice is not None:
        errs.extend(model.counterfactual_choice.violations("counterfactual choice", nc))
    if model.result_couplings is not None and not errs:
        fc = model.choice_index(model.factual_choice)
        f_weights = model.result_given_choice_f[fc].array
        for c, m in model.result_couplings:
            if c not in model.choices:
                errs.append(f"result coupling keyed by unknown choice {c!r}")
                continue
            mat = np.asarray(m, dtype=float)
            if mat.shape != (nr, nr):
                errs.append(
                    f"result coupling for {c!r} has shape {mat.shape}, "
                    f"expected {(nr, nr)}"
                )
                continue
            if np.any(mat < 0.0):
                errs.append(f"result coupling for {c!r} has negative mass")
            errs.extend(_result_coupling_sum_errors(model, c, mat, f_weights))
    if not isinstance(model.money, MoneyMap):
        errs.append(f"money map has unsupported type {type(model.money).__name__}")
    if errs:
        raise CaseValidationError(errs)
    return model


def counterfactual_choice_scores(model: ChoiceCaseModel) -> dict[str, float]:
    """Mean counterfactual value of each choice."""
    vmat = model.value_matrix
    return {
        c: float(model.result_given_choice_cf[i].array @ vmat[i])
        for i, c in enumerate(model.choices)
    }


def best_dutiful_choice(model: ChoiceCaseModel) -> str:
    """Duty-bound choice with the highest counterfactual mean value.

    Ties go to the factual choice when it is among the best, otherwise to
    the earliest choice in label order.
    """
    if not model.duty:
        raise ConfigurationError("cannot presume a choice from an empty duty set")
    scores = counterfactual_choice_scores(model)
    dutiful = [c for c in model.choices if c in model.duty]
    if not dutiful:
        raise ConfigurationError("duty set contains no known choice")
    best = max(scores[c] for c in dutiful)
    scale = max(1.0, float(np.max(np.abs(model.value_matrix))))
    tied = [c for c in dutiful if scores[c] >= best - 1e-12 * scale]
    if model.factual_choice in tied:
        return model.factual_choice
    return tied[0]


def _with_presumed(model: ChoiceCaseModel, rule: str) -> ChoiceCaseModel:
    best = best_dutiful_choice(model)
    weights = [0.0] * model.n_choices
    weights[model.choice_index(best)] = 1.0
    point = DiscreteDistribution(tuple(weights))
    overriding = (
        model.counterfactual_choice is not None
        and model.counterfactual_choice != point
    )
    added = [f"presumption({rule}): counterfactual choice presumed {best!r}"]
    if rule == "ii-cp" and overriding:
        added.append("presumption(ii-cp) overrides supplied counterfactual choice evidence")
    added.append(_PRESUMPTION_RULE_NOTE)
    # A note already present is skipped, and the rest keep their order.
    notes = model.notes
    for note in added:
        if note not in notes:
            notes += (note,)
    return replace(model, counterfactual_choice=point, notes=notes)


def presume_choice_it_cp(model: ChoiceCaseModel) -> ChoiceCaseModel:
    """Rebuttable presumption: only fills in a missing counterfactual choice."""
    if model.counterfactual_choice is not None:
        return model
    return _with_presumed(model, "it-cp")


def presume_choice_ii_cp(model: ChoiceCaseModel) -> ChoiceCaseModel:
    """Absolute presumption: fixes the counterfactual choice regardless of evidence."""
    return _with_presumed(model, "ii-cp")


def _factorized_cells(model: ChoiceCaseModel) -> Cells:
    """Cells of the (C0, R0) x (C1, R1) joint, pair (c, r) at index c*nr + r.

    The factual choice is known, so only its columns carry mass.  Results
    are coupled per counterfactual choice, by the supplied matrix when one
    exists and comonotonically (in value order) otherwise, so the
    counterfactual choice carries no information about the factual result
    beyond the factual choice.
    """
    if model.counterfactual_choice is None:
        raise ConfigurationError(
            "counterfactual choice is unresolved; supply evidence or apply "
            "a presumption first"
        )
    nc, nr = model.n_choices, model.n_results
    fc = model.choice_index(model.factual_choice)
    vmat = model.value_matrix
    f_weights = model.result_given_choice_f[fc].array
    cell_rows = [np.empty(0, dtype=np.intp)]
    cell_cols = [np.empty(0, dtype=np.intp)]
    cell_mass = [np.empty(0)]
    for i, c0 in enumerate(model.choices):
        pc = model.counterfactual_choice.weights[i]
        if pc <= 0.0:
            continue
        supplied = model.result_coupling_for(c0)
        if supplied is not None:
            errs = _result_coupling_sum_errors(model, c0, supplied, f_weights)
            if errs:
                raise ValueError(errs[0])
            cells = Cells.from_dense(supplied)
        else:
            cells = comonotone_cells(
                model.result_given_choice_cf[i].weights,
                f_weights,
                vmat[i],
                vmat[fc],
            )
        cell_rows.append(i * nr + cells.rows)
        cell_cols.append(fc * nr + cells.cols)
        cell_mass.append(pc * cells.mass)
    return Cells(
        np.concatenate(cell_rows),
        np.concatenate(cell_cols),
        np.concatenate(cell_mass),
        nc * nr,
    )


def flatten_choice_case(model: ChoiceCaseModel) -> tuple[CaseModel, Cells]:
    """Collapse (choice, result) pairs into a plain case plus its coupling.

    Returns the flattened case model and the pair-space joint as evidence
    cells, so every downstream policy runs unchanged.
    """
    cells = _factorized_cells(model)
    nr = model.n_results
    fc = model.choice_index(model.factual_choice)
    cf_weights = np.concatenate([
        pc * dist.array
        for pc, dist in zip(model.counterfactual_choice.weights, model.result_given_choice_cf)
    ])
    f_weights = np.zeros(model.space.size)
    f_weights[fc * nr : (fc + 1) * nr] = model.result_given_choice_f[fc].array
    case = CaseModel(
        space=model.space,
        counterfactual=DiscreteDistribution(cf_weights),
        factual=DiscreteDistribution(f_weights),
        money=model.money,
        factual_observed=fc * nr + model.result_index(model.factual_result),
    )
    validate_case(case)
    return case, cells


def resolve_choice(
    model: ChoiceCaseModel, presumption: Optional[str] = "it-cp"
) -> ChoiceCaseModel:
    """Apply a presumption ('it-cp', 'ii-cp') to the counterfactual choice,
    or none (None)."""
    if presumption is None:
        return model
    if presumption == "it-cp":
        return presume_choice_it_cp(model)
    if presumption == "ii-cp":
        return presume_choice_ii_cp(model)
    raise ConfigurationError(
        f"unknown presumption {presumption!r}; expected 'it-cp', 'ii-cp' or None"
    )


def evaluate_choice_case(
    model: ChoiceCaseModel,
    combos: Sequence[PolicyCombo],
    presumption: Optional[str] = "it-cp",
    custom_blocks: Optional[Sequence[Sequence[int]]] = None,
) -> list[CompensationSchedule]:
    """One schedule per combination, in order: resolve the counterfactual
    choice, flatten, and price `combos` as one policy grid.  Custom
    blocks hold indices into `model.space`."""
    resolved = resolve_choice(model, presumption)
    case, evidence = flatten_choice_case(resolved)
    return evaluate_grid(case, combos, evidence, custom_blocks, resolved.notes)


def mitigation_offset(
    main_award: float,
    dual: ChoiceCaseModel,
    combo: PolicyCombo,
    presumption: Optional[str] = "it-cp",
) -> float:
    """Final award after netting out the victim's own neglected duty.

    The dual case mirrors the roles: the victim is treated as a
    tortfeasor who failed to mitigate, and the award that mirrored case
    would grant is subtracted from the main one, floored at zero.  In
    `dual`, values and money are the dual tortfeasor's.  A victim whose
    factual choice was dutiful owes nothing.
    """
    if dual.factual_choice in dual.duty:
        dual_award = 0.0
    else:
        [schedule] = evaluate_choice_case(dual, [combo], presumption)
        label = dual.outcome_label(dual.factual_choice, dual.factual_result)
        dual_award = schedule.award_for(label)
    return max(0.0, float(main_award) - dual_award)
