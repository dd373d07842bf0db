"""Core primitives for twin-scenario compensation cases.

A case compares two runs of the same world: the factual run, where the
harmful act happened, and the counterfactual run, where it did not.  Both
runs share one outcome space.  Each side contributes a marginal
distribution over that space; how the two sides are glued together is the
business of the coupling module.

Money enters twice: outcome values may come from a risk-aversion curve
applied to money, and computed compensation (in value units) is converted
back to a monetary award through a strictly increasing money map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

# Absolute tolerance for a probability vector summing to one.
WEIGHT_SUM_TOL = 1e-12

# Width of the logarithmic branch around theta = 1.
_LOG_BRANCH_TOL = 1e-9


class CaseValidationError(ValueError):
    """A case model violates its invariants.

    Carries every detected violation so callers can report them all at
    once instead of fixing one, re-running, and finding the next.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered outcome labels, each carrying one real value."""

    labels: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))
        if len(self.labels) != len(self.values):
            raise ValueError(
                f"{len(self.labels)} labels but {len(self.values)} values"
            )
        if not self.labels:
            raise ValueError("outcome space is empty")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def values_array(self) -> np.ndarray:
        """The values as a read-only array, built once."""
        return _read_only(np.asarray(self.values, dtype=float))

    @cached_property
    def positions(self) -> dict[str, int]:
        """Label -> index; a repeated label maps to its first index."""
        return label_positions(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except KeyError:
            raise KeyError(f"unknown outcome label {label!r}") from None


def label_positions(labels: Sequence[str]) -> dict[str, int]:
    """Label -> index of its first occurrence."""
    n = len(labels)
    # Later writes win, so walking backwards leaves the first occurrence.
    return dict(zip(reversed(labels), range(n - 1, -1, -1)))


@dataclass(frozen=True)
class DiscreteDistribution:
    """Weights over an outcome space, in label order.

    The constructor only coerces; normalization and sign checks live in
    validate_case so a malformed case can be reported in full.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @cached_property
    def array(self) -> np.ndarray:
        """The weights as a read-only array, built once."""
        return _read_only(np.asarray(self.weights, dtype=float))

    @property
    def total(self) -> float:
        return float(math.fsum(self.weights))

    def support(self) -> tuple[int, ...]:
        """Indices with strictly positive weight."""
        return tuple(i for i, w in enumerate(self.weights) if w > 0.0)

    def mean(self, values: Sequence[float]) -> float:
        return float(np.dot(self.array, np.asarray(values, dtype=float)))

    def violations(self, name: str, size: int) -> list[str]:
        out: list[str] = []
        if len(self.weights) != size:
            out.append(
                f"{name} marginal has {len(self.weights)} weights for {size} outcomes"
            )
        for i, w in enumerate(self.weights):
            if not math.isfinite(w):
                out.append(f"{name} marginal weight {i} is not finite")
            elif w < 0.0:
                out.append(f"{name} marginal weight {i} is negative ({w!r})")
        if abs(self.total - 1.0) > WEIGHT_SUM_TOL:
            out.append(
                f"{name} marginal weights sum to {self.total!r}, not 1 "
                f"(tolerance {WEIGHT_SUM_TOL})"
            )
        return out


@dataclass(frozen=True)
class UtilityCurve:
    """Constant-relative-risk-aversion value curve for money.

    theta = 0 is the risk-neutral case, valued literally as money - 1 so
    that one unit of money anchors the curve at value zero for every
    theta.  theta inside (0, 1) uses the usual power form, and a
    logarithmic branch takes over within 1e-9 of theta = 1.  Money must
    be strictly positive.
    """

    theta: float

    def __post_init__(self) -> None:
        t = float(self.theta)
        if not math.isfinite(t) or not (0.0 <= t <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta!r}")
        object.__setattr__(self, "theta", t)

    @property
    def _log_branch(self) -> bool:
        return abs(1.0 - self.theta) < _LOG_BRANCH_TOL

    def value(self, money: float) -> float:
        """Value of a positive amount of money."""
        m = float(money)
        if not (math.isfinite(m) and m > 0.0):
            raise ValueError(f"money must be finite and positive, got {money!r}")
        if self._log_branch:
            return math.log(m)
        if self.theta == 0.0:
            return m - 1.0
        # (1 - m**(1-theta)) / (theta - 1), written via expm1 so the
        # branch stays accurate as theta approaches 1.
        eps = 1.0 - self.theta
        return math.expm1(eps * math.log(m)) / eps

    def money(self, value: float) -> float:
        """Inverse of value(); rejects values outside the curve's range."""
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"value must be finite, got {value!r}")
        if self._log_branch:
            return math.exp(v)
        if self.theta == 0.0:
            if v + 1.0 <= 0.0:
                raise ValueError(
                    f"value {v!r} lies outside the range of the theta=0.0 curve"
                )
            return v + 1.0
        eps = 1.0 - self.theta
        base = 1.0 + v * eps
        if base <= 0.0:
            raise ValueError(
                f"value {v!r} lies outside the range of the theta={self.theta} curve"
            )
        return math.exp(math.log1p(v * eps) / eps)


def utility_value(curve: UtilityCurve, money: float) -> float:
    """Value of a monetary amount under the given risk-aversion curve."""
    return curve.value(money)


def money_equivalent(curve: UtilityCurve, value: float) -> float:
    """Monetary amount whose value under the curve equals `value`."""
    return curve.money(value)


class MoneyMap:
    """Strictly increasing conversion from value units to money."""

    kind: str = "abstract"
    # Highest value the map is given for; awards lifting past it extrapolate.
    top: float = math.inf

    def to_money(self, value: float) -> float:
        raise NotImplementedError

    def spec(self) -> dict:
        """Serializable description of this map."""
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMoneyMap(MoneyMap):
    """Value units are money units."""

    kind: str = "identity"

    def to_money(self, value: float) -> float:
        return float(value)

    def spec(self) -> dict:
        return {"kind": "identity"}


@dataclass(frozen=True)
class CurveMoneyMap(MoneyMap):
    """Inverts a risk-aversion curve: value back to money."""

    curve: UtilityCurve
    kind: str = "crra"

    def to_money(self, value: float) -> float:
        return self.curve.money(value)

    def spec(self) -> dict:
        return {"kind": "crra", "theta": self.curve.theta}


@dataclass(frozen=True)
class TabulatedMoneyMap(MoneyMap):
    """Piecewise-linear map through strictly increasing (value, money) knots."""

    points: tuple[tuple[float, float], ...]
    kind: str = "tabulated"

    def __post_init__(self) -> None:
        pts = tuple((float(v), float(m)) for v, m in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("tabulated money map needs at least two points")
        for (v0, m0), (v1, m1) in zip(pts, pts[1:]):
            if not (v1 > v0 and m1 > m0):
                raise ValueError(
                    "tabulated money map must be strictly increasing in both "
                    f"coordinates; offending pair ({v0}, {m0}) -> ({v1}, {m1})"
                )

    def to_money(self, value: float) -> float:
        v = float(value)
        vs = [p[0] for p in self.points]
        ms = [p[1] for p in self.points]
        if v < vs[0] or v > vs[-1]:
            raise ValueError(
                f"value {v!r} outside tabulated domain [{vs[0]}, {vs[-1]}]"
            )
        return float(np.interp(v, vs, ms))

    @property
    def top(self) -> float:
        """The value of the table's last point."""
        return self.points[-1][0]

    def extrapolate_top(self, value: float) -> float:
        """Money for a value past the last point, along the end segment."""
        (v0, m0), (v1, m1) = self.points[-2:]
        return m1 + (float(value) - v1) * (m1 - m0) / (v1 - v0)

    def spec(self) -> dict:
        return {"kind": "tabulated", "points": [list(p) for p in self.points]}


def award_from_compensation(money: MoneyMap, v1: float, x: float) -> float:
    """Monetary award that lifts a factual value v1 by compensation x.

    x is compensation in value units and must be non-negative; the award
    is the money difference between the lifted and unlifted positions.
    A table fixes money only up to its last point; a lifted value past it
    is priced along the table's end segment.
    """
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"compensation must be finite and >= 0, got {x!r}")
    v1 = float(v1)
    if v1 + x > money.top:
        return money.extrapolate_top(v1 + x) - money.to_money(v1)
    return money.to_money(v1 + x) - money.to_money(v1)


@dataclass(frozen=True)
class CaseModel:
    """A twin-scenario case: shared outcomes, two marginals, a money map.

    factual_observed, when set, is the index of the outcome that actually
    occurred; it must carry positive factual probability.
    """

    space: OutcomeSpace
    counterfactual: DiscreteDistribution
    factual: DiscreteDistribution
    money: MoneyMap
    factual_observed: Optional[int] = None

    @property
    def values(self) -> np.ndarray:
        return self.space.values_array

    def expected_gap(self) -> float:
        """Mean counterfactual value minus mean factual value."""
        v = self.values
        return float(self.counterfactual.array @ v - self.factual.array @ v)


def validate_case(model: CaseModel) -> CaseModel:
    """Check every case invariant, reporting all violations together."""
    errs: list[str] = []
    space = model.space
    seen: set[str] = set()
    for lab in space.labels:
        if lab in seen:
            errs.append(f"duplicate outcome label {lab!r}")
        seen.add(lab)
        if not lab:
            errs.append("empty outcome label")
    for lab, val in zip(space.labels, space.values):
        if not math.isfinite(val):
            errs.append(f"outcome {lab!r} has non-finite value {val!r}")
    errs.extend(model.counterfactual.violations("counterfactual", space.size))
    errs.extend(model.factual.violations("factual", space.size))
    if not isinstance(model.money, MoneyMap):
        errs.append(f"money map has unsupported type {type(model.money).__name__}")
    obs = model.factual_observed
    if obs is not None:
        if not (0 <= obs < space.size):
            errs.append(f"observed outcome index {obs} out of range")
        elif len(model.factual.weights) == space.size and (
            model.factual.weights[obs] <= 0.0
        ):
            errs.append(
                f"observed outcome {space.labels[obs]!r} has zero factual probability"
            )
    if errs:
        raise CaseValidationError(errs)
    return model
