"""Built-in case families: generators for the worked examples.

Each generator returns a Scenario bundling a validated case model with
whatever published couplings belong to it.  The prize scenario carries
two: the evidence table, and a published least-divergence table that the
engine's own comonotone matching beats on cost (the discrepancy is
flagged wherever that table is used).

The Matos award has a closed form; one function prices it, for one risk
aversion over a whole axis of success chances, and serves both
`matos_award` and `matos_sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .choice import ChoiceCaseModel, validate_choice_case
from .coupling import Cells, map_cells
from .outcome import (
    CaseModel,
    CurveMoneyMap,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
    UtilityCurve,
    award_from_compensation,
    validate_case,
)
from .valuation import PolicyCombo, evaluate_grid


@dataclass(frozen=True, eq=False)
class Scenario:
    """A case model plus its published couplings."""

    name: str
    model: CaseModel
    evidence_joint: Optional[Union[np.ndarray, Cells]] = None
    paper_table_joint: Optional[Union[np.ndarray, Cells]] = None
    params: tuple[tuple[str, float], ...] = ()


def _check_chances(p0: float, p1: float) -> tuple[float, float]:
    p0, p1 = float(p0), float(p1)
    if not (math.isfinite(p0) and math.isfinite(p1)):
        raise ValueError("chances must be finite")
    if not (0.0 <= p1 <= p0 <= 1.0):
        raise ValueError(
            f"need 0 <= p1 <= p0 <= 1; got p0={p0!r}, p1={p1!r}"
        )
    if p0 <= 0.0:
        raise ValueError("counterfactual success chance p0 must be positive")
    return p0, p1


def _check_delta_v(delta_v: float) -> float:
    delta_v = float(delta_v)
    if not (math.isfinite(delta_v) and delta_v > 0.0):
        raise ValueError(f"value gap delta_v must be positive, got {delta_v!r}")
    return delta_v


def _two_outcome(
    name: str, evidence: str, space: OutcomeSpace, p0: float, p1: float, *params
) -> Scenario:
    """A case over the (low, high) outcomes of `space`: high has chance p0
    in the counterfactual run and p1 in the factual one, where low was
    observed.  `evidence` is the coupling the physical evidence shows:
    'threshold' (every factual high would also have been high
    counterfactually) or 'independent' (the runs are unrelated).
    """
    if p1 >= 1.0:
        raise ValueError(
            f"p1 must be below 1: at p1 = {p1!r} the observed outcome "
            f"{space.labels[0]!r} has zero factual probability"
        )
    model = validate_case(
        CaseModel(
            space=space,
            counterfactual=DiscreteDistribution((1.0 - p0, p0)),
            factual=DiscreteDistribution((1.0 - p1, p1)),
            money=IdentityMoneyMap(),
            factual_observed=0,
        )
    )
    if evidence == "threshold":
        joint = np.array([[1.0 - p0, 0.0], [p0 - p1, p1]])
    else:
        joint = np.outer(model.counterfactual.array, model.factual.array)
    params = (("p0", p0), ("p1", p1), *params)
    return Scenario(name=name, model=model, evidence_joint=joint, params=params)


def medical_malpractice(p0: float, p1: float, delta_v: float) -> Scenario:
    """Two-outcome malpractice case: proper treatment cures with chance p0,
    the negligent treatment with chance p1; the patient was not cured.

    The evidence coupling is the threshold construction: every patient
    cured under negligence would also have been cured under proper care.
    """
    p0, p1 = _check_chances(p0, p1)
    delta_v = _check_delta_v(delta_v)
    space = OutcomeSpace(("bad", "good"), (0.0, delta_v))
    return _two_outcome("medical", "threshold", space, p0, p1, ("delta_v", delta_v))


def _urn(name: str, evidence: str, p0, p1, v_red, v_blue) -> Scenario:
    p0, p1 = _check_chances(p0, p1)
    v_red, v_blue = float(v_red), float(v_blue)
    for param, v in (("v_red", v_red), ("v_blue", v_blue)):
        if not math.isfinite(v):
            raise ValueError(f"urn value {param} must be finite, got {v!r}")
    if not v_blue > v_red:
        raise ValueError("blue must out-value red")
    space = OutcomeSpace(("red", "blue"), (v_red, v_blue))
    params = (("v_red", v_red), ("v_blue", v_blue))
    return _two_outcome(name, evidence, space, p0, p1, *params)


def urn_independent(
    p0: float, p1: float, v_red: float = 0.0, v_blue: float = 1.0
) -> Scenario:
    """Draw from an urn whose blue share was reduced from p0 to p1; the
    draws are physically unrelated, so the evidence coupling is the
    independent one.  Blue is the good outcome."""
    return _urn("urn-independent", "independent", p0, p1, v_red, v_blue)


def urn_painted(
    p0: float, p1: float, v_red: float = 0.0, v_blue: float = 1.0
) -> Scenario:
    """Same urn, but the harmful act painted some blue balls red, so the
    drawn ball is the same physical ball in both runs: the evidence
    coupling is the threshold one."""
    return _urn("urn-painted", "threshold", p0, p1, v_red, v_blue)


PRIZE_VALUES = (5.0, 30.0, 35.0, 70.0, 110.0)

# Deterministic outcome maps, counterfactual to factual.
_PRIZE_EVIDENCE_MAP = {"a1": "a3", "a2": "a3", "a3": "a2", "a4": "a1", "a5": "a4"}
_PRIZE_PUBLISHED_LD_MAP = {"a1": "a1", "a2": "a2", "a3": "a3", "a4": "a4", "a5": "a3"}


def prize_case() -> Scenario:
    """Five equally likely prize levels; the harmful act permuted who gets
    what.  Ships with the published evidence table and a published
    least-divergence table whose cost the comonotone matching improves on
    (1125 vs 565), which downstream evaluation flags."""
    space = OutcomeSpace(("a1", "a2", "a3", "a4", "a5"), PRIZE_VALUES)
    cf = DiscreteDistribution((0.2, 0.2, 0.2, 0.2, 0.2))
    f = DiscreteDistribution((0.2, 0.2, 0.4, 0.2, 0.0))
    model = validate_case(
        CaseModel(
            space=space,
            counterfactual=cf,
            factual=f,
            money=IdentityMoneyMap(),
        )
    )
    return Scenario(
        name="prize",
        model=model,
        evidence_joint=map_cells(space, cf.weights, _PRIZE_EVIDENCE_MAP),
        paper_table_joint=map_cells(space, cf.weights, _PRIZE_PUBLISHED_LD_MAP),
    )


# Matos v. TV Globo facts: a quiz-show contestant was read a defective
# question, lost the chance to answer the real one, and kept the
# guaranteed prize.  Answering right would have doubled it; answering
# wrong would have left only the consolation amount.  The factual game
# gave a 25% chance of the top prize.
MATOS_GUARANTEED = 500_000.0
MATOS_TOP = 1_000_000.0
MATOS_CONSOLATION = 300.0
MATOS_FACTUAL_TOP_CHANCE = 0.25
# The Matos case's results in order: a wrong answer, refusing, a right one.
_MATOS_RESULTS = (MATOS_CONSOLATION, MATOS_GUARANTEED, MATOS_TOP)


def _matos_chance(p: float) -> float:
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"success chance must lie in [0, 1], got {p!r}")
    return p


def _matos_values(theta: float) -> tuple[UtilityCurve, tuple[float, ...]]:
    """The risk curve for theta and its value of each Matos result."""
    curve = UtilityCurve(theta)
    return curve, tuple(map(curve.value, _MATOS_RESULTS))


def matos_case(p: float, theta: float) -> ChoiceCaseModel:
    """The Matos quiz-show case as a lost-choice model.

    The contestant was denied the real final question.  Refusing to
    answer keeps the guaranteed prize; answering wins the top prize with
    chance p in the counterfactual run (25% in the factual one, where the
    question was defective).  Both answering and refusing are treated as
    dutiful, so the presumption is free to pick either.
    """
    p = _matos_chance(p)
    curve, values = _matos_values(theta)
    q = MATOS_FACTUAL_TOP_CHANCE
    model = ChoiceCaseModel(
        choices=("answer", "refuse"),
        duty=frozenset({"answer", "refuse"}),
        results=tuple(str(int(m)) for m in _MATOS_RESULTS),
        values=(values, values),
        money=CurveMoneyMap(curve),
        result_given_choice_cf=(
            DiscreteDistribution((1.0 - p, 0.0, p)),
            DiscreteDistribution((0.0, 1.0, 0.0)),
        ),
        result_given_choice_f=(
            DiscreteDistribution((1.0 - q, 0.0, q)),
            DiscreteDistribution((0.0, 1.0, 0.0)),
        ),
        factual_choice="refuse",
        factual_result=str(int(MATOS_GUARANTEED)),
        notes=(
            "duty set includes refusing: declining the defective question "
            "was itself dutiful",
        ),
    )
    return validate_choice_case(model)


def matos_threshold(theta: float) -> float:
    """Success chance at which answering and refusing are equally valued."""
    _, (v_low, v_refuse, v_top) = _matos_values(theta)
    return (v_refuse - v_low) / (v_top - v_low)


def matos_award(p: float, theta: float) -> float:
    """Matos award for counterfactual success chance p and risk aversion theta.

    The factual position is the guaranteed prize with certainty, so the
    compensation is the clamped mean value gain of answering, and the
    award converts it back through the same risk curve.  Identical to
    running the full lost-choice pipeline on the built-in Matos case.
    """
    p = _matos_chance(p)
    return _matos_awards(theta, np.array([p]))[0]


def _matos_awards(theta: float, p: np.ndarray) -> list[float]:
    """The Matos award at risk aversion theta for each of the checked
    chances `p`, at least one: one curve and one award call for the axis."""
    curve, (v_low, v_refuse, v_top) = _matos_values(theta)
    gain = p * v_top + (1.0 - p) * v_low - v_refuse
    x = np.where(gain > 0.0, gain, 0.0)
    return award_from_compensation(CurveMoneyMap(curve), v_refuse, x).tolist()


MATOS_BAND_EDGES = (0.0, 125_000.0, 250_000.0, 375_000.0, 500_000.0)
# Each half-open slab's caption, by its upper edge.
_MATOS_BANDS = tuple(
    (hi, f"({lo:g},{hi:g}]") for lo, hi in zip(MATOS_BAND_EDGES, MATOS_BAND_EDGES[1:])
)


def matos_band(award: float) -> str:
    """Caption band for an award: zero, or one of four half-open slabs.

    Edges get a small relative tolerance so money round-trip error at the
    guaranteed-payout ceiling cannot push an award out of the top band.
    """
    top = MATOS_BAND_EDGES[-1]
    if award > top * (1.0 + 1e-9) + 1e-9:
        raise ValueError(f"award {award!r} beyond the top band")
    award = min(award, top)
    if award <= 0.0:
        return "zero"
    for hi, band in _MATOS_BANDS:
        if award <= hi:
            return band
    raise AssertionError("unreachable")


def _matos_chances(ps: Iterable[float]) -> tuple[list[float], Optional[Exception]]:
    """The leading chances of `ps` that `_matos_chance` accepts, and its
    error on the first one it refuses, or None."""
    chances = []
    for p in ps:
        try:
            chances.append(_matos_chance(p))
        except (TypeError, ValueError) as exc:
            return chances, exc
    return chances, None


MATOS_COLUMNS = ("theta", "p", "award", "band")  # a `matos_sweep` row's keys, in order


def matos_sweep(
    thetas: Iterable[float], ps: Iterable[float]
) -> Iterator[dict[str, object]]:
    """Award grid over risk aversion and success chance, banded for plotting.

    Each theta prices its whole p axis as `matos_award` prices one point,
    in one award call.  The rows, and the error of the first point
    `matos_award` refuses, come in the same order: a point with a bad p
    raises the p error even when its theta is bad too, and a theta is
    never checked when p has no points.  The p axis, whatever the
    iterable, is read and checked once, at the first theta, and every
    theta gets its points.
    """
    chances = None
    for theta in thetas:
        if chances is None:
            chances, error = _matos_chances(ps)
            p_axis = np.array(chances)
        if chances:
            awards = _matos_awards(theta, p_axis)
            theta = float(theta)
            for p, award in zip(chances, awards):
                yield {"theta": theta, "p": p, "award": award, "band": matos_band(award)}
        if error is not None:
            raise error


@dataclass(frozen=True)
class RejectedFormulaComparison:
    """The relative-chance formula (p0-p1)/p0 * delta_v, for comparison only.

    No information/connection/indemnity combination produces it; it is
    reported alongside engine output, never as a policy.
    """

    p0: float
    p1: float
    delta_v: float
    value: float
    flag: str = "comparison only; no policy combination produces this value"


def rejected_formula_comparison(
    p0: float, p1: float, delta_v: float
) -> RejectedFormulaComparison:
    p0, p1 = _check_chances(p0, p1)
    delta_v = _check_delta_v(delta_v)
    return RejectedFormulaComparison(
        p0=p0, p1=p1, delta_v=delta_v, value=(p0 - p1) / p0 * delta_v
    )


# The medical sweep's award columns and the combination behind each.
_MEDICAL_COLUMNS = {
    "award_l_fi": PolicyCombo("l-fi", "e-c", "cc-i"),
    "award_e_c": PolicyCombo("h-fi", "e-c", "cc-i"),
    "award_i_c_cc_i": PolicyCombo("h-fi", "i-c", "cc-i"),
    "award_i_c_fm_i": PolicyCombo("h-fi", "i-c", "fm-i"),
}
# A `medical_sweep` row's keys, in order.
MEDICAL_COLUMNS = ("p0", "p1", "delta_v", *_MEDICAL_COLUMNS, "rejected_formula_comparison")


def medical_sweep(
    p0: float, delta_v: float, p1_values: Iterable[float]
) -> Iterator[dict[str, object]]:
    """Awards at the bad outcome as the negligent cure chance varies.

    Columns cover the distinct policy formulas plus the rejected
    relative-chance formula as a flagged comparison.

    Each p1 gives its own case, built and validated on its own.  The
    cases share one outcome space and one money map, so they form one
    family, and one `evaluate_grid` call over it prices the whole p1 axis.
    The cases are built first, in order: when a p1 is refused, the rows
    before it are yielded, then its error is raised.  An error of the
    grid is its first failing case's, and comes before any row.
    """
    cases = []
    error: Optional[Exception] = None
    for p1 in p1_values:
        try:
            p1 = float(p1)
            case = medical_malpractice(p0, p1, delta_v)
        except (TypeError, ValueError, OverflowError) as exc:
            error = exc  # raised once the rows before it are out
            break
        cases.append((p1, case))
    if cases:
        combos = list(_MEDICAL_COLUMNS.values())
        schedules = evaluate_grid(
            [sc.model for _, sc in cases], combos, [sc.evidence_joint for _, sc in cases]
        )
        p0, delta_v = float(p0), float(delta_v)
        k = len(combos)
        for i, (p1, _) in enumerate(cases):
            row: dict[str, object] = {"p0": p0, "p1": p1, "delta_v": delta_v}
            for col, schedule in zip(_MEDICAL_COLUMNS, schedules[i * k : (i + 1) * k]):
                row[col] = schedule.award_for("bad")
            row["rejected_formula_comparison"] = rejected_formula_comparison(
                p0, p1, delta_v
            ).value
            yield row
    if error is not None:
        raise error
