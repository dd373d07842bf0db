"""Core primitives for twin-scenario compensation cases.

A case compares two runs of the same world: the factual run, where the
harmful act happened, and the counterfactual run, where it did not.  Both
runs share one outcome space.  Each side contributes a marginal
distribution over that space; how the two sides are glued together is the
business of the coupling module.

Money enters twice: outcome values may come from a risk-aversion curve
applied to money, and computed compensation (in value units) is converted
back to a monetary award through a strictly increasing money map.  A
money map has one conversion, which takes a float or a whole array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    def __reduce__(self):
        # Unpickling calls the class with the reduced arguments, and an
        # exception's default arguments are its joined message, which
        # would be split into characters.
        return type(self), (self.violations,)


def read_only(values) -> np.ndarray:
    """`values` as a read-only array."""
    a = np.asarray(values)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered outcome labels, each carrying one real value.

    `values_array` holds the values as a read-only array, made once from
    the values given, which may be a sequence or an array.
    """

    labels: tuple[str, ...]
    values: tuple[float, ...]
    values_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = read_only(np.array(self.values, dtype=float))
        if values.ndim != 1:
            raise TypeError("outcome values must be a flat sequence of numbers")
        object.__setattr__(self, "labels", tuple(map(str, self.labels)))
        object.__setattr__(self, "values", tuple(values.tolist()))
        object.__setattr__(self, "values_array", values)
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
    validate_case so a malformed case can be reported in full.  `array`
    holds the weights as a read-only array, made once from the weights
    given, which may be a sequence or an array.
    """

    weights: tuple[float, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = read_only(np.array(self.weights, dtype=float))
        if weights.ndim != 1:
            raise TypeError("weights must be a flat sequence of numbers")
        object.__setattr__(self, "weights", tuple(weights.tolist()))
        object.__setattr__(self, "array", weights)

    @property
    def total(self) -> float:
        return float(math.fsum(self.weights))

    def support(self) -> tuple[int, ...]:
        """Indices with strictly positive weight."""
        return tuple(np.flatnonzero(self.array > 0.0).tolist())

    def mean(self, values: Sequence[float]) -> float:
        return float(np.dot(self.array, np.asarray(values, dtype=float)))

    def violations(self, name: str, size: int) -> list[str]:
        out: list[str] = []
        if len(self.weights) != size:
            out.append(
                f"{name} marginal has {len(self.weights)} weights for {size} outcomes"
            )
        bad = ~np.isfinite(self.array) | (self.array < 0.0)
        for i in np.flatnonzero(bad).tolist():
            w = self.weights[i]
            if not math.isfinite(w):
                out.append(f"{name} marginal weight {i} is not finite")
            else:
                out.append(f"{name} marginal weight {i} is negative ({w!r})")
        total = self.total
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            out.append(
                f"{name} marginal weights sum to {total!r}, not 1 "
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
            raise ValueError(f"theta must lie in [0, 1], got {t!r}")
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

    def money(self, value):
        """Inverse of value(), of a float or of each element of an array.

        A float gives a float and an array an array.  exp and log1p are
        math's, applied one element at a time, since numpy's differ from
        them in the last bit on some values.  Rejects values that are not
        finite, values outside the curve's range, and values whose money
        is beyond a float's range, in that order of checks; an array's
        error names its first element that fails the check.
        """
        v = np.asarray(value, dtype=float)
        finite = np.isfinite(v)
        if not finite.all():
            raise ValueError(f"value must be finite, got {_first(v, ~finite)!r}")
        eps = 1.0 - self.theta
        log_branch = self._log_branch
        if not log_branch:
            scaled = v * eps
            bad = 1.0 + scaled <= 0.0
            if bad.any():
                raise ValueError(
                    f"value {_first(v, bad)!r} lies outside the range of the "
                    f"theta={self.theta} curve"
                )
        if self.theta == 0.0:
            money = v + 1.0
        else:
            power = v if log_branch else _elementwise(math.log1p, scaled) / eps
            try:
                money = _elementwise(math.exp, power)
            except OverflowError:
                # Find the first value whose money overflows, to name it.
                for p, x in zip(power.ravel().tolist(), v.ravel().tolist()):
                    try:
                        math.exp(p)
                    except OverflowError:
                        raise ValueError(
                            f"value {x!r} needs more money than a float holds "
                            f"under the theta={self.theta} curve"
                        ) from None
                raise
        return float(money) if money.ndim == 0 else money


def _first(values: np.ndarray, mask: np.ndarray) -> float:
    """The first element of `values` where `mask` is set, as a float."""
    return float(values.ravel()[mask.ravel().argmax()])


def _elementwise(f, values: np.ndarray) -> np.ndarray:
    """f of every element of an array of floats, in the array's shape."""
    return np.fromiter(map(f, values.ravel().tolist()), float, values.size).reshape(
        values.shape
    )


class MoneyMap:
    """Strictly increasing conversion from value units to money."""

    # Highest value the map is given for; awards lifting past it extrapolate.
    top: float = math.inf

    def to_money(self, value):
        """Money for a float, or for each element of an array: a float
        gives a float and an array an array.  A value the map refuses
        raises a ValueError that names it, for an array its first."""
        raise NotImplementedError

    def spec(self) -> dict:
        """Serializable description of this map."""
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMoneyMap(MoneyMap):
    """Value units are money units."""

    def to_money(self, value):
        return float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)

    def spec(self) -> dict:
        return {"kind": "identity"}


@dataclass(frozen=True)
class CurveMoneyMap(MoneyMap):
    """Inverts a risk-aversion curve: value back to money."""

    curve: UtilityCurve

    def to_money(self, value):
        return self.curve.money(value)

    def spec(self) -> dict:
        return {"kind": "crra", "theta": self.curve.theta}


@dataclass(frozen=True)
class TabulatedMoneyMap(MoneyMap):
    """Piecewise-linear map through strictly increasing (value, money) knots.

    The knots' value and money spans and every segment's slope must be
    finite, so that every award the map prices inside its knots is too.
    """

    points: tuple[tuple[float, float], ...]

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
            if not math.isfinite((m1 - m0) / (v1 - v0)):
                raise ValueError(
                    "tabulated money map has a slope beyond a float's range "
                    f"between ({v0}, {m0}) and ({v1}, {m1})"
                )
        (v_first, m_first), (v_last, m_last) = pts[0], pts[-1]
        if not (math.isfinite(v_last - v_first) and math.isfinite(m_last - m_first)):
            raise ValueError(
                "tabulated money map spans more than a float holds, from "
                f"({v_first}, {m_first}) to ({v_last}, {m_last})"
            )

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([p[0] for p in self.points]),
            np.array([p[1] for p in self.points]),
        )

    def to_money(self, value):
        v = np.asarray(value, dtype=float)
        low, high = self.points[0][0], self.points[-1][0]
        bad = (v < low) | (v > high)
        if bad.any():
            raise ValueError(
                f"value {_first(v, bad)!r} outside tabulated domain [{low}, {high}]"
            )
        money = np.interp(v, *self._knots)
        return float(money) if money.ndim == 0 else money

    @property
    def top(self) -> float:
        """The value of the table's last point."""
        return self.points[-1][0]

    def extrapolate_top(self, value):
        """Money for a value past the last point, along the end segment;
        `value` is a float or an array."""
        (v0, m0), (v1, m1) = self.points[-2:]
        return m1 + (value - v1) * (m1 - m0) / (v1 - v0)

    def spec(self) -> dict:
        return {"kind": "tabulated", "points": [list(p) for p in self.points]}


def _awards(money: MoneyMap, v1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """award_from_compensation on arrays of one shape.  Each check, in
    order, names the first outcome that fails it, so a one-outcome call
    raises that outcome's own error."""
    good = np.isfinite(x) & (x >= 0.0)
    if not good.all():
        raise ValueError(f"compensation must be finite and >= 0, got {_first(x, ~good)!r}")
    # An overflow shows as a non-finite award, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        lifted = v1 + x
        past = lifted > money.top
        if past.any():
            up = np.where(
                past,
                money.extrapolate_top(lifted),
                money.to_money(np.minimum(lifted, money.top)),
            )
        else:
            up = money.to_money(lifted)
        award = up - money.to_money(v1)
    finite = np.isfinite(award)
    if not finite.all():
        raise ValueError(
            f"the award lifting value {_first(v1, ~finite)!r} by "
            f"{_first(x, ~finite)!r} is not a finite amount of money"
        )
    return award


def award_from_compensation(money: MoneyMap, v1, x):
    """Monetary award that lifts a factual value v1 by compensation x.

    x is compensation in value units and must be finite and non-negative;
    the award is the money difference between the lifted and unlifted
    positions, and must be finite too.  A table fixes money only up to
    its last point; a lifted value past it is priced along the table's
    end segment.

    v1 and x are arrays, giving the whole schedule's awards as an array
    in one call, or floats: a float pair gives a float, and a float
    against an array stands for every outcome.  A refused call raises
    the error of its first refused outcome, as that outcome alone would.
    """
    v1, x = np.asarray(v1, dtype=float), np.asarray(x, dtype=float)
    pair = v1.ndim == x.ndim == 0
    if pair:
        v1, x = v1.reshape(1), x.reshape(1)
    elif v1.shape != x.shape:
        v1, x = np.broadcast_arrays(v1, x)
    try:
        award = _awards(money, v1, x)
        return float(award[0]) if pair else award
    except ValueError:
        pass
    # A prefix fails exactly when one of its outcomes does: bisect for the
    # shortest failing prefix, whose last outcome alone names the error.
    v1, x = v1.ravel(), x.ravel()
    ok, bad = 0, v1.size
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            _awards(money, v1[:mid], x[:mid])
            ok = mid
        except ValueError:
            bad = mid
    _awards(money, v1[ok : ok + 1], x[ok : ok + 1])
    raise AssertionError(f"outcome {ok} fails as part of an array but not alone")


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
    if len(space.positions) != space.size or "" in space.positions:
        seen: set[str] = set()
        for lab in space.labels:
            if lab in seen:
                errs.append(f"duplicate outcome label {lab!r}")
            seen.add(lab)
            if not lab:
                errs.append("empty outcome label")
    for i in np.flatnonzero(~np.isfinite(space.values_array)).tolist():
        errs.append(
            f"outcome {space.labels[i]!r} has non-finite value {space.values[i]!r}"
        )
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
