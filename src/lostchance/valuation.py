"""Policy evaluation: information partitions, value gaps, indemnity rules.

A policy combination picks three things:

* how much of the factual outcome the court may condition on (an
  information partition of the factual support);
* which coupling connects the two runs (evidence, least divergence, or
  independence; "paper-table" evaluates an externally published matrix in
  place of the engine's own least-divergence coupling);
* the indemnity rule: cover-the-conditional-gap (clamped conditional mean
  of V0 - V1) or fair-mean (the same, shifted down by the unique lambda
  that makes the expected payout equal the unconditional mean gap).

The fair-mean shift lambda solves E[max(0, gap_K - lambda)] = E[V0 - V1]
exactly: the left side is piecewise linear and non-increasing in lambda,
so scanning its breakpoints gives a closed-form root.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .coupling import (
    Coupling,
    coupling_from_map,
    evidence_coupling,
    independence_coupling,
    least_divergence_coupling,
    transport_cost,
)
from .outcome import CaseModel, award_from_compensation, read_only

# Sum of block probability times block gap must equal the mean gap
# within this tolerance.
GAP_IDENTITY_TOL = 1e-10

INFO_POLICIES = ("l-fi", "m-fi", "h-fi", "custom")
CONNECTION_POLICIES = ("e-c", "ld-c", "i-c", "paper-table")
INDEMNITY_POLICIES = ("cc-i", "fm-i")
# The standard policies on each axis: all but custom blocks and a
# published table, which need input beyond a case file.  `evaluate
# --all-policies` spans them, and "any" in a table row's label means them.
STANDARD_AXES = (("l-fi", "m-fi", "h-fi"), ("e-c", "ld-c", "i-c"), INDEMNITY_POLICIES)


class ConfigurationError(ValueError):
    """A policy evaluation request is incomplete or inconsistent."""


@dataclass(frozen=True)
class PolicyCombo:
    """One information / connection / indemnity choice."""

    info: str
    connection: str
    indemnity: str

    def __post_init__(self) -> None:
        for name, got, allowed in (
            ("info", self.info, INFO_POLICIES),
            ("connection", self.connection, CONNECTION_POLICIES),
            ("indemnity", self.indemnity, INDEMNITY_POLICIES),
        ):
            norm = str(got).strip().lower()
            if norm not in allowed:
                raise ConfigurationError(
                    f"unknown {name} policy {got!r}; expected one of {allowed}"
                )
            object.__setattr__(self, name, norm)

    @property
    def descriptor(self) -> str:
        return f"{self.info}/{self.connection}/{self.indemnity}"


# Every combination of the standard policies, in product order; built
# once, as `evaluate --all-policies` evaluates them on every call.
STANDARD_COMBOS = tuple(itertools.starmap(PolicyCombo, itertools.product(*STANDARD_AXES)))


@dataclass(frozen=True)
class SelectiveGroups:
    """Split of the factual support by conditional counterfactual mean.

    An outcome is compensable (plus group) when the mean counterfactual
    value given that outcome strictly exceeds the outcome's own value.
    Outcomes at or below their conditional mean form the minus group;
    exact ties are recorded separately since they sit on the boundary.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...]
    ties: tuple[int, ...] = ()


def selective_groups(coupling: Coupling) -> SelectiveGroups:
    v = coupling.space.values_array
    col_mass, col_v0 = coupling.column_moments
    scale = max(1.0, float(np.abs(v).max()))
    tol = 1e-9 * scale
    support = (col_mass > 0.0).nonzero()[0]
    # Conditional mean of V0 given each factual outcome, minus its value.
    diff = col_v0[support] / col_mass[support] - v[support]
    tied = np.abs(diff) <= tol
    # Strictly above the tie band: not tied, and positive.
    plus = diff > tol
    return SelectiveGroups(
        tuple(support[plus].tolist()),
        tuple(support[~plus].tolist()),
        tuple(support[tied].tolist()),
    )


class InformationPartition:
    """Blocks of factual outcome indices the court can tell apart.

    Held as two aligned read-only arrays: `outcomes`, the indices block
    after block, and `block_ids`, the block (0, 1, ...) of each.  `blocks`,
    the same partition as a tuple of index tuples, is built when read.
    """

    def __init__(self, blocks: Sequence[Sequence[int]], origin: str):
        self._set(*_block_arrays(blocks), origin)

    @classmethod
    def from_ids(
        cls, outcomes: np.ndarray, block_ids: np.ndarray, origin: str
    ) -> "InformationPartition":
        """The partition putting outcomes[i] in block block_ids[i]; the
        ids must run 0, 1, ... without gaps, in non-decreasing order."""
        _check_disjoint(outcomes)
        part = cls.__new__(cls)
        part._set(outcomes, block_ids, origin)
        return part

    def _set(self, outcomes: np.ndarray, block_ids: np.ndarray, origin: str) -> None:
        self.outcomes = read_only(outcomes)
        self.block_ids = read_only(block_ids)
        self.origin = origin
        self.block_count = int(block_ids[-1]) + 1 if block_ids.size else 0

    @functools.cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        flat = self.outcomes.tolist()
        ends = [0, *(np.flatnonzero(np.diff(self.block_ids)) + 1).tolist(), len(flat)]
        return tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]) if b > a)


def _check_disjoint(outcomes: np.ndarray) -> None:
    ordered = np.sort(outcomes)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("partition blocks overlap")


def _block_arrays(blocks: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, block ids) of a partition given as blocks of indices."""
    sizes = [len(b) for b in blocks]
    outcomes = np.fromiter(itertools.chain.from_iterable(blocks), np.intp, sum(sizes))
    _check_disjoint(outcomes)
    if 0 in sizes:
        raise ValueError("partition contains an empty block")
    return outcomes, np.repeat(np.arange(len(sizes)), sizes)


def build_partition(
    info: str,
    support: Sequence[int],
    groups: Optional[SelectiveGroups] = None,
    custom_blocks: Optional[Sequence[Sequence[int]]] = None,
) -> InformationPartition:
    """Assemble the partition a given information policy allows.

    * l-fi: one block, the whole factual support;
    * m-fi: the compensable/non-compensable split (empty side dropped);
    * h-fi: singletons, full knowledge of the factual outcome;
    * custom: caller-supplied blocks, which must tile the support exactly.
    """
    info = str(info).strip().lower()
    sup = np.array(support, dtype=np.intp)
    return InformationPartition.from_ids(
        *_partition(info, sup, groups, custom_blocks), info
    )


def _partition(
    info: str, support: np.ndarray, groups, custom_blocks
) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, block ids) of the partition `info` allows on `support`,
    an index array; see build_partition."""
    if not support.size:
        raise ValueError("factual support is empty")
    if info == "l-fi":
        return support, np.zeros_like(support)
    if info == "h-fi":
        return support, np.arange(support.size)
    if info == "m-fi":
        if groups is None:
            raise ConfigurationError("m-fi partition needs selective groups")
        return _block_arrays(tuple(b for b in (groups.plus, groups.minus) if b))
    if info == "custom":
        if custom_blocks is None:
            raise ConfigurationError("custom partition needs explicit blocks")
        blocks = tuple(tuple(int(i) for i in b) for b in custom_blocks)
        arrays = _block_arrays(blocks)
        covered = sorted(i for b in blocks for i in b)
        if covered != sorted(support.tolist()):
            raise ValueError(
                f"custom blocks cover indices {covered}, expected exactly the "
                f"factual support {sorted(support.tolist())}"
            )
        return arrays
    raise ConfigurationError(f"unknown information policy {info!r}")


class GapTable:
    """Conditional mean value gaps, one row per partition block.

    Held as arrays: `probabilities` and `gaps` per row, and `partition`,
    whose blocks are the rows' outcomes.
    """

    @classmethod
    def from_arrays(
        cls, partition: InformationPartition, probabilities, gaps
    ) -> "GapTable":
        """The table whose row b is block b of `partition`."""
        table = cls()
        table.partition = partition
        table.probabilities = read_only(probabilities)
        table.gaps = read_only(gaps)
        return table

    @property
    def expected_gap(self) -> float:
        return float(self.probabilities @ self.gaps)


class GapStack:
    """The gap tables of several partitions of one coupling's factual
    support, from one pass; see `conditional_gap`.

    Rows are the blocks of nonzero probability, table after table:
    `probabilities` and `gaps` per row, and table t's rows are
    `starts[t]:starts[t + 1]`.  `outcomes` holds the partitions' outcomes
    end to end, table t's at `bounds[t]:bounds[t + 1]`, and `rows` the row
    of each, or the row count when its block was dropped.  A table is read
    with `table(t)`, which runs `check(t)` first.
    """

    def __init__(self, coupling: Coupling, partitions: Sequence) -> None:
        v = coupling.space.values_array
        col_mass, col_v0 = coupling.column_moments
        # E[(V0 - V1) 1{O1 = k}] column by column.
        col_gap = col_v0 - col_mass * v
        self.partitions = partitions
        # Table t's block b is block first[t] + b of the stack.
        ids, first, self.bounds = [], [0], [0]
        for p in partitions:
            ids.append(p.block_ids + first[-1] if first[-1] else p.block_ids)
            count = int(p.block_ids[-1]) + 1 if p.block_ids.size else 0
            first.append(first[-1] + count)
            self.bounds.append(self.bounds[-1] + p.outcomes.size)
        self.outcomes = flat = np.concatenate([p.outcomes for p in partitions])
        ids = np.concatenate(ids)
        # bincount adds each bin's weights in input order, so a block's
        # sums are the ones a pass over its table alone would take.
        block_p = np.bincount(ids, weights=col_mass[flat], minlength=first[-1])
        block_gap = np.bincount(ids, weights=col_gap[flat], minlength=first[-1])
        kept = block_p > 0.0
        self._dropped = not kept.all()
        self.rows, self.starts = ids, first
        if self._dropped:
            kept_before = np.concatenate(([0], np.cumsum(kept)))
            self.rows = np.where(kept[ids], kept_before[ids], kept_before[-1])
            self.starts = kept_before[first].tolist()
            block_p, block_gap = block_p[kept], block_gap[kept]
        self.probabilities = read_only(block_p)
        self.gaps = read_only(block_gap / block_p)
        self._mean_gap = float(col_v0.sum() - col_mass @ v)
        self._scale = max(1.0, float(np.abs(v).max()))

    def check(self, t: int) -> float:
        """Warn of each block of table t dropped for zero probability, then
        hold its rows to the gap identity: sum_b p_b gap_b = E[V0 - V1].
        Returns the left side, the table's expected gap."""
        if self._dropped:
            part = self.partitions[t]
            rows = self.rows[self.bounds[t] : self.bounds[t + 1]]
            for b in np.unique(part.block_ids[rows == self.gaps.size]).tolist():
                block = tuple(part.outcomes[part.block_ids == b].tolist())
                warnings.warn(f"dropping zero-probability block {block}", stacklevel=2)
        lo, hi = self.starts[t], self.starts[t + 1]
        expected = float(self.probabilities[lo:hi] @ self.gaps[lo:hi])
        if abs(expected - self._mean_gap) > GAP_IDENTITY_TOL * self._scale:
            raise AssertionError(
                f"gap table inconsistent: blocks aggregate to {expected!r} "
                f"but the coupling's mean gap is {self._mean_gap!r}"
            )
        return expected

    def table(self, t: int) -> GapTable:
        """Table t, checked, as a `GapTable` over the blocks it keeps."""
        self.check(t)
        part = self.partitions[t]
        lo, hi = self.starts[t], self.starts[t + 1]
        if self._dropped:
            rows = self.rows[self.bounds[t] : self.bounds[t + 1]]
            kept = rows < self.gaps.size
            if not kept.all():
                part = InformationPartition.from_ids(
                    part.outcomes[kept], rows[kept] - lo, part.origin
                )
        return GapTable.from_arrays(part, self.probabilities[lo:hi], self.gaps[lo:hi])


def conditional_gap(coupling: Coupling, partitions):
    """E[V0 - V1 | block] and block probability for each block, for one or
    more partitions of the coupling's factual support, in one pass.

    Given a sequence of partitions (objects holding `outcomes` and
    `block_ids` arrays, as `InformationPartition` does), returns their
    `GapStack`.  Given one `InformationPartition`, returns its `GapTable`:
    `conditional_gap(coupling, [partition]).table(0)`.  Blocks with zero
    factual probability carry no conditional mean; they are dropped with
    a warning, when their table is read, rather than reported as 0/0.
    """
    if isinstance(partitions, InformationPartition):
        return GapStack(coupling, [partitions]).table(0)
    return GapStack(coupling, partitions)


def cc_indemnity(gaps) -> np.ndarray:
    """Clamp each row's conditional gap at zero; one payout per row of a
    `GapTable` or `GapStack`."""
    return np.maximum(0.0, gaps.gaps)


def solve_lambda(gaps: GapTable, target: float) -> float:
    """Root of sum_b p_b * max(0, gap_b - lambda) = target, for target > 0.

    The left side is piecewise linear, continuous and non-increasing with
    breakpoints at the block gaps.  Sorting gaps in decreasing order, the
    segment between consecutive breakpoints has the closed form
    S_k - P_k * lambda with S_k and P_k the partial mass-weighted sum and
    mass of the blocks above the segment, so the root is exact.
    """
    return _shift(gaps.probabilities, gaps.gaps, target)


def _shift(probabilities: np.ndarray, gaps: np.ndarray, target: float) -> float:
    """solve_lambda on a table's probability and gap arrays."""
    if not (math.isfinite(target) and target > 0.0):
        raise ValueError(f"target payout must be positive, got {target!r}")
    order = (-gaps).argsort(kind="stable")
    g = gaps[order]
    p = probabilities[order]
    # cumsum adds in order, so S_k and P_k are the running sums a loop
    # over the segments would take.
    cand = ((p * g).cumsum() - target) / p.cumsum()
    # The first segment whose candidate reaches its lower breakpoint holds
    # the root; round-off can push it just past the upper one.
    hit = (cand >= np.concatenate((g[1:], (-math.inf,)))).nonzero()[0]
    if not hit.size:
        raise AssertionError(
            f"no breakpoint segment contained the root for target {target!r}; "
            f"gaps {g.tolist()!r}"
        )
    k = hit[0]
    lam = float(min(cand[k], g[k]))
    # A negative root is refused past round-off at the gaps' scale.
    if lam < 0.0 and lam < -1e-12 * max(1.0, float(np.max(np.abs(g)))):
        raise ValueError(
            f"target {target!r} exceeds the payout at zero shift; no "
            f"non-negative shift exists"
        )
    return max(0.0, lam)


def fm_indemnity(gaps: GapTable) -> np.ndarray:
    """Fair-mean payouts: clamped gaps shifted so their mean hits the mean gap.

    When the mean gap is not positive the whole schedule is zero.
    Otherwise the shift is solve_lambda's exact root, which is always
    non-negative, so fair-mean payouts never exceed the clamped ones.
    """
    return _fair_mean(gaps.probabilities, gaps.gaps, gaps.expected_gap)


def _fair_mean(probabilities: np.ndarray, gaps: np.ndarray, target: float) -> np.ndarray:
    """fm_indemnity on a table's probability and gap arrays, whose expected
    gap is `target`."""
    if target <= 0.0:
        return np.zeros(gaps.size)
    return np.maximum(0.0, gaps - _shift(probabilities, gaps, target))


@dataclass(frozen=True)
class CompensationSchedule:
    """Per-outcome compensation (value units) and monetary award."""

    policy: PolicyCombo
    outcomes: tuple[str, ...]
    values: tuple[float, ...]
    awards: tuple[float, ...]
    notes: tuple[str, ...] = ()

    def _index(self, label: str) -> int:
        try:
            return self.outcomes.index(label)
        except ValueError:
            raise ValueError(
                f"outcome {label!r} is not in this schedule; only factually "
                f"possible outcomes are scheduled"
            ) from None

    def value_for(self, label: str) -> float:
        return self.values[self._index(label)]

    def award_for(self, label: str) -> float:
        return self.awards[self._index(label)]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.outcomes, self.values))

    @property
    def flags(self) -> tuple[str, ...]:
        """The notes that flag a computation `--strict` refuses: a
        published least-divergence table that is not cost-minimal."""
        return tuple(n for n in self.notes if n.startswith("FLAG"))


def _coupling_for(
    model: CaseModel, conn: str, joint, least_divergence
) -> tuple[Coupling, tuple[str, ...]]:
    """The coupling a connection policy uses, and the notes it carries.

    `joint` is what e-c or paper-table evaluates: a matrix, `Cells` or an
    outcome map.  `least_divergence()` gives the engine's own
    least-divergence coupling, which paper-table is costed against.
    """
    if conn in ("e-c", "paper-table"):
        if joint is None:
            raise ConfigurationError(
                f"connection policy {conn!r} needs an explicit coupling and "
                f"none was supplied"
            )
        if isinstance(joint, dict):
            c = coupling_from_map(model, joint)
        else:
            c = evidence_coupling(model, joint)
        if conn == "paper-table":
            own = least_divergence()
            supplied_cost = transport_cost(c)
            own_cost = transport_cost(own)
            if supplied_cost > own_cost + 1e-9:
                return c, (
                    "FLAG published least-divergence table is not cost-minimal: "
                    f"cost {supplied_cost:.6g} vs optimal {own_cost:.6g}",
                )
        return c, ()
    if conn == "ld-c":
        vals = model.space.values
        notes = ()
        if len(set(vals)) < len(vals):
            notes = (
                "note: value ties present; least-divergence matching breaks "
                "them by label order and the schedule may depend on that order",
            )
        return least_divergence(), notes
    if conn == "i-c":
        return independence_coupling(model), ()
    raise ConfigurationError(f"unknown connection policy {conn!r}")


class _Partition(NamedTuple):
    """A partition as the gap pass reads it: `_partition`'s arrays."""

    outcomes: np.ndarray
    block_ids: np.ndarray


class _Connection:
    """What the combinations with one connection share: its coupling's
    notes, and the tables of every information policy they use, in order
    of first use, from one `conditional_gap` pass.

    `payouts` holds every row's clamped payout, a 0, every row's fair-mean
    payout and a 0.  The grid lays every connection's `payouts` end to
    end, this one's from `base`, and `slots[i][t]` gives, for each factual
    support outcome, where in them its payout under table t is, clamped
    for i = 0 and fair-mean for i = 1; an outcome no kept block holds is
    paid a 0.  A table is checked, and its fair-mean payouts solved, when
    the first combination needing them comes up.
    """

    def __init__(
        self, model, conn, infos, joint, least_divergence, support, custom_blocks, base
    ):
        coupling, notes = _coupling_for(model, conn, joint, least_divergence)
        groups = selective_groups(coupling)
        partitions: list[_Partition] = []
        self.notes: list[tuple[str, ...]] = []
        # The first information policy whose partition cannot be built;
        # the combinations before its first one are priced before it raises.
        self.failure: Optional[Exception] = None
        for info in infos:
            try:
                partitions.append(
                    _Partition(*_partition(info, support, groups, custom_blocks))
                )
            except Exception as exc:
                if not partitions:
                    raise
                self.failure = exc
                break
            self.notes.append(notes + _tie_note(model, info, groups))
        self.table_of = dict(zip(infos, range(len(partitions))))
        self.gaps = gaps = conditional_gap(coupling, partitions)
        rows = gaps.gaps.size
        self.payouts = np.zeros(2 * rows + 2)
        self.payouts[:rows] = cc_indemnity(gaps)
        sizes = [p.outcomes.size for p in partitions]
        where = np.full((len(partitions), model.space.size), rows)
        where[np.arange(len(partitions)).repeat(sizes), gaps.outcomes] = gaps.rows
        clamped = where[:, support] + base
        self.slots = (clamped, clamped + (rows + 1))
        # Each table's expected gap, once it is checked.
        self._expected: list[Optional[float]] = [None] * len(partitions)
        self._unsolved = [True] * len(partitions)

    def slot(self, info: str, indemnity: str) -> tuple[int, np.ndarray]:
        """The table `info` uses, and the slots of its payouts under
        `indemnity`."""
        t = self.table_of.get(info)
        if t is None:
            raise self.failure
        if self._expected[t] is None:
            self._expected[t] = self.gaps.check(t)
        if indemnity == "cc-i":
            return t, self.slots[0][t]
        if self._unsolved[t]:
            lo, hi = self.gaps.starts[t], self.gaps.starts[t + 1]
            shift = self.gaps.gaps.size + 1
            self.payouts[shift + lo : shift + hi] = _fair_mean(
                self.gaps.probabilities[lo:hi], self.gaps.gaps[lo:hi], self._expected[t]
            )
            self._unsolved[t] = False
        return t, self.slots[1][t]


def _tie_note(model: CaseModel, info: str, groups: SelectiveGroups) -> tuple[str, ...]:
    if not (groups.ties and info == "m-fi"):
        return ()
    tied = ", ".join(model.space.labels[i] for i in groups.ties)
    return (
        f"note: outcome(s) {tied} sit exactly at their conditional mean "
        f"and are grouped as non-compensable",
    )


def evaluate_grid(
    model: CaseModel,
    combos: Sequence[PolicyCombo],
    evidence_joint=None,
    custom_blocks: Optional[Sequence[Sequence[int]]] = None,
    extra_notes: Sequence[str] = (),
    *,
    paper_table_joint=None,
) -> list[CompensationSchedule]:
    """One schedule per combination: coupling, partition, gaps, indemnity,
    money awards.

    The coupling, its notes and its selective groups depend only on the
    connection, so each is built once, when the first combination needing
    it comes up.  So are the partitions of every information policy that
    the connection's combinations use, and their gap tables, from one
    `conditional_gap` pass, and their clamped payouts, from one
    `np.maximum`.  A table is checked, and its fair-mean payouts solved,
    when its first combination comes up.  The payouts of every
    combination then form one (combination x outcome) matrix, gathered
    at once from the connections' payouts and priced by one award call.
    A grid raises exactly where, and as, the first failing combination
    would on its own: when combination k fails to build its coupling,
    table or indemnity, combinations 0..k-1 are priced first, and an
    award error among them wins.

    e-c evaluates `evidence_joint`; paper-table evaluates
    `paper_table_joint`, or `evidence_joint` when that is not given.
    """
    if paper_table_joint is None:
        paper_table_joint = evidence_joint
    joints = {"e-c": evidence_joint, "paper-table": paper_table_joint}
    # model.factual.support(), as an array.
    support = np.flatnonzero(model.factual.array > 0.0)
    # ld-c and paper-table's cost check share one least-divergence coupling.
    least_divergence = functools.cache(lambda: least_divergence_coupling(model))
    # The information policies of each connection, in order of first use.
    infos: dict[str, dict[str, None]] = {}
    for combo in combos:
        infos.setdefault(combo.connection, {})[combo.info] = None
    connected: dict[str, _Connection] = {}
    base = 0
    # Per priced combination: its notes and its payouts' slots.
    notes: list[tuple[str, ...]] = []
    slots: list[np.ndarray] = []
    failure: Optional[Exception] = None
    try:
        for combo in combos:
            conn = connected.get(combo.connection)
            if conn is None:
                conn = connected[combo.connection] = _Connection(
                    model,
                    combo.connection,
                    list(infos[combo.connection]),
                    joints.get(combo.connection),
                    least_divergence,
                    support,
                    custom_blocks,
                    base,
                )
                base += conn.payouts.size
            t, slot = conn.slot(combo.info, combo.indemnity)
            notes.append(conn.notes[t])
            slots.append(slot)
    except Exception as exc:
        failure = exc
    # The combinations before a failing one are priced first, so that an
    # award error among them wins, as it would one combination at a time.
    schedules = []
    if slots:
        payouts = np.concatenate([conn.payouts for conn in connected.values()])
        # The (combination x outcome) payout matrix, flattened row after row.
        x = payouts[np.concatenate(slots)]
        schedules = _price(model, combos, support, x, notes, tuple(extra_notes))
    if failure is not None:
        raise failure
    return schedules


def _price(
    model: CaseModel,
    combos: Sequence[PolicyCombo],
    support: np.ndarray,
    x: np.ndarray,
    notes: list[tuple[str, ...]],
    extra_notes: tuple[str, ...],
) -> list[CompensationSchedule]:
    """The schedules of the first len(notes) combinations, priced by one
    award call over `x`, their (combination x outcome) payout matrix
    flattened row after row, so the call raises the error of the first
    combination that fails."""
    labels = tuple(map(model.space.labels.__getitem__, support.tolist()))
    money = model.money
    n = len(labels)
    v = np.concatenate([model.space.values_array[support]] * len(notes))
    awards = award_from_compensation(money, v, x).tolist()
    values = x.tolist()
    notes = [extra_notes + row_notes for row_notes in notes]
    if money.top < math.inf:  # only a money table has a last point
        for i in np.flatnonzero(v + x > money.top).tolist():
            row, k = divmod(i, n)
            notes[row] += (
                f"note: the award for outcome {labels[k]!r} extrapolates the "
                f"money table past its last point {money.top:g}, along "
                f"its end segment",
            )
    return [
        CompensationSchedule(
            policy=combo,
            outcomes=labels,
            values=tuple(values[row * n : (row + 1) * n]),
            awards=tuple(awards[row * n : (row + 1) * n]),
            notes=row_notes,
        )
        for row, (combo, row_notes) in enumerate(zip(combos, notes))
    ]


def evaluate_policy(
    model: CaseModel,
    combo: PolicyCombo,
    evidence_joint=None,
    custom_blocks: Optional[Sequence[Sequence[int]]] = None,
    extra_notes: Sequence[str] = (),
) -> CompensationSchedule:
    """One combination: a one-element `evaluate_grid`."""
    return evaluate_grid(model, [combo], evidence_joint, custom_blocks, extra_notes)[0]


def schedule_risk(
    coupling: Coupling, partition: InformationPartition, block_x: np.ndarray
) -> float:
    """E[(V0 - V1 - X)^2] for a block-constant schedule, straight from the joint."""
    v = coupling.space.values_array
    n = coupling.space.size
    x_col = np.zeros(n)
    for block, x in zip(partition.blocks, block_x):
        for k in block:
            x_col[k] = x
    d = v[:, None] - v[None, :] - x_col[None, :]
    return float(np.einsum("ij,ij->", coupling.joint, d * d))


@functools.lru_cache(maxsize=None)
def _grid_lattice(dims: int) -> np.ndarray:
    """Flat positions, in a (dims, 11) array of axes, of every point of their
    11-point grid: one row per point, in meshgrid "ij" order."""
    lattice = np.indices((11,) * dims).reshape(dims, -1).T + 11 * np.arange(dims)
    lattice = np.ascontiguousarray(lattice)
    lattice.setflags(write=False)
    return lattice


def _grid(axes: list) -> np.ndarray:
    """Every point of the product of 11-point axes, one row per point."""
    return np.array(axes).ravel()[_grid_lattice(len(axes))]


def oracle_best_schedule(
    coupling: Coupling,
    partition: InformationPartition,
    constrained: bool = False,
    target: Optional[float] = None,
    target_step: Optional[float] = None,
) -> tuple[np.ndarray, float]:
    """Grid-search reference for the best block-constant schedule.

    Minimizes the expected squared shortfall over 11-point grids,
    refining around the incumbent until the spacing falls below
    target_step.  Every candidate batch is scored from three sums of the
    joint per block, taken once per call.  With constrained=True only
    schedules whose expected payout equals `target` (default: the
    coupling's mean gap) are considered, plus the all-zero schedule.  Kept deliberately
    independent of the closed-form rules so it can audit them; refuses
    partitions with more than 4 blocks.
    """
    nb = partition.block_count
    if nb > 4:
        raise ValueError(f"oracle refuses {nb} blocks; grids are exhaustive up to 4")
    v = coupling.space.values_array
    joint = coupling.joint
    col_mass = coupling.factual_marginal
    n = coupling.space.size
    # Columns outside every block share block 0's payout.
    col_block = np.zeros(n, dtype=int)
    for bi, block in enumerate(partition.blocks):
        for k in block:
            col_block[k] = bi
    # With d = V0 - V1, the risk of paying x_b in block b is
    # sum_ij J_ij (d_ij - x_b(j))^2 = C - 2 x.B + x^2.A for the sums below.
    d = v[:, None] - v[None, :]
    jd = joint * d
    mom_a = np.bincount(col_block, weights=joint.sum(axis=0), minlength=nb)
    mom_b = np.bincount(col_block, weights=jd.sum(axis=0), minlength=nb)
    mom_c = float((jd * d).sum())
    block_p = np.array(
        [float(col_mass[list(block)].sum()) for block in partition.blocks]
    )
    vrange = float(v.max() - v.min())
    if vrange <= 0.0:
        zero = np.zeros(nb)
        return zero, schedule_risk(coupling, partition, zero)
    if target_step is None:
        target_step = min(0.01, 0.005 * vrange)

    def eval_cands(c: np.ndarray) -> tuple[np.ndarray, float]:
        risks = mom_c - 2.0 * (c @ mom_b) + (c * c) @ mom_a
        i = int(np.argmin(risks))
        return c[i].copy(), float(risks[i])

    if constrained:
        t = float(coupling.joint.sum(axis=1) @ v - col_mass @ v) if target is None else float(target)
        best_x = np.zeros(nb)
        best_r = schedule_risk(coupling, partition, best_x)
        if t > 0.0:
            # One block is always solved from the mean constraint instead of
            # being gridded, so every candidate meets the constraint exactly.
            def caps_for(free: list) -> np.ndarray:
                # q_b * x_b can never exceed the payout target, so each axis
                # is capped hard; the level-0 grid then resolves the whole
                # feasible box even when it is much thinner than the range.
                return np.array(
                    [
                        min(vrange, t / block_p[b]) if block_p[b] > 0 else vrange
                        for b in free
                    ]
                )

            def assemble(det: int, free: list, free_vals: np.ndarray) -> np.ndarray:
                m = free_vals.shape[0]
                c = np.zeros((m, nb))
                for j, b in enumerate(free):
                    c[:, b] = free_vals[:, j]
                rem = (t - free_vals @ block_p[free]) / block_p[det]
                c[:, det] = rem
                c = c[rem >= -1e-9]
                c[:, det] = np.maximum(c[:, det], 0.0)
                return c

            det0 = int(np.argmax(block_p))
            free0 = [b for b in range(nb) if b != det0]
            if not free0:
                cands = assemble(det0, free0, np.zeros((1, 0)))
                if len(cands):
                    x, r = eval_cands(cands)
                    if r < best_r:
                        best_x, best_r = x, r
            else:
                caps = caps_for(free0)
                centre = caps / 2.0
                halfw = caps / 2.0
                while True:
                    axes = [
                        np.linspace(max(0.0, c - h), min(cap, c + h), 11)
                        for c, h, cap in zip(centre, halfw, caps)
                    ]
                    cands = assemble(det0, free0, _grid(axes))
                    if len(cands):
                        x, r = eval_cands(cands)
                        if r < best_r:
                            best_x, best_r = x, r
                    spacing = halfw / 5.0
                    if float(np.max(spacing)) <= target_step:
                        break
                    centre = best_x[free0]
                    halfw = 2.0 * spacing
                # Window refinement can stall along the correlated valley the
                # constraint carves, and single-axis moves cannot walk a facet
                # where the solved-for block pays zero.  Per-axis line sweeps
                # at the final resolution, rotating which block is solved for,
                # cover both: a point no sweep improves sits within a couple
                # of steps of the true constrained minimizer.
                step = float(target_step)
                for _round in range(8):
                    r_before = best_r
                    for det in range(nb):
                        if block_p[det] <= 0.0:
                            continue
                        free = [b for b in range(nb) if b != det]
                        dcaps = caps_for(free)
                        x_free = best_x[free].copy()
                        for _ in range(80):
                            improved = False
                            for j, b in enumerate(free):
                                others = float(
                                    block_p[free] @ x_free
                                    - block_p[b] * x_free[j]
                                )
                                if block_p[b] > 0:
                                    hi = min(dcaps[j], (t - others) / block_p[b])
                                else:
                                    hi = dcaps[j]
                                hi = max(0.0, hi)
                                line = np.clip(
                                    np.arange(0.0, hi + step, step), 0.0, hi
                                )
                                line = np.append(line, x_free[j])
                                fv = np.tile(x_free, (line.size, 1))
                                fv[:, j] = line
                                cands = assemble(det, free, fv)
                                if not len(cands):
                                    continue
                                x, r = eval_cands(cands)
                                if r < best_r:
                                    best_x, best_r = x, r
                                    x_free = x[free].copy()
                                    improved = True
                            if not improved:
                                break
                    if not best_r < r_before:
                        break
        return best_x, best_r

    centre = np.full(nb, vrange / 2.0)
    halfw = vrange / 2.0
    best_x = np.zeros(nb)
    best_r = schedule_risk(coupling, partition, best_x)
    while True:
        axes = [np.linspace(c - halfw, c + halfw, 11) for c in centre]
        grid = np.clip(_grid(axes), 0.0, None)
        x, r = eval_cands(grid)
        if r < best_r:
            best_x, best_r = x, r
        step = halfw / 5.0
        if step <= target_step:
            break
        centre = best_x
        halfw = 2.0 * step
    return best_x, best_r
