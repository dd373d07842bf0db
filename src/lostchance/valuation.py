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

Valuation reads a coupling only through its column moments
(`Coupling.column_moments`); how a coupling stores its cells is the
coupling module's business.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coupling import (
    Coupling,
    CouplingStack,
    independence_coupling,
    least_divergence_coupling,
    stack_couplings,
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


@dataclass(frozen=True, eq=False)
class SelectiveGroups:
    """Split of each coupling's factual support by conditional
    counterfactual mean, as (coupling x outcome) masks.

    An outcome is compensable (plus group) when the mean counterfactual
    value given that outcome strictly exceeds the outcome's own value.
    Outcomes at or below their conditional mean form the minus group;
    exact ties are marked separately since they sit on the boundary.
    """

    plus: np.ndarray
    minus: np.ndarray
    ties: np.ndarray

    def indices(self, row: int) -> tuple[tuple[int, ...], ...]:
        """Coupling `row`'s plus, minus and tied outcomes, as increasing
        index tuples."""
        return tuple(
            tuple(np.flatnonzero(mask[row]).tolist())
            for mask in (self.plus, self.minus, self.ties)
        )


def selective_groups(couplings: CouplingStack) -> SelectiveGroups:
    """The selective groups of every coupling of a stack, at once."""
    mass = couplings.mass
    held = mass > 0.0
    # Conditional mean of V0 given each factual outcome, minus its value;
    # only held outcomes are read.
    diff = couplings.v0 / np.where(held, mass, 1.0) - couplings.space.values_array
    tol = 1e-9 * couplings.scale
    # Strictly above the tie band: not tied, and positive.
    plus = held & (diff > tol)
    return SelectiveGroups(plus, held & ~plus, held & (np.abs(diff) <= tol))


@dataclass(frozen=True, eq=False)
class Partition:
    """Blocks of factual outcome indices the court can tell apart.

    Held as two aligned arrays: `outcomes`, the indices block after block,
    and `block_ids`, the block (0, 1, ...) of each.
    """

    outcomes: np.ndarray
    block_ids: np.ndarray

    @property
    def block_count(self) -> int:
        return int(self.block_ids[-1]) + 1 if self.block_ids.size else 0


def _shared_partition(
    info: str, support: np.ndarray, custom_blocks: Optional[Sequence[Sequence[int]]]
) -> Partition:
    """The partition of an information policy that does not depend on the
    coupling: l-fi, h-fi or custom."""
    if info == "l-fi":
        return Partition(support, np.zeros_like(support))
    if info == "h-fi":
        return Partition(support, np.arange(support.size))
    if info != "custom":
        raise ConfigurationError(f"unknown information policy {info!r}")
    if custom_blocks is None:
        raise ConfigurationError("custom partition needs explicit blocks")
    sizes = [len(b) for b in custom_blocks]
    if 0 in sizes:
        raise ValueError("partition contains an empty block")
    outcomes = np.fromiter(itertools.chain.from_iterable(custom_blocks), np.intp, sum(sizes))
    ordered = np.sort(outcomes)
    if not np.array_equal(ordered, support):
        wrong = {
            "repeated outcomes": np.unique(ordered[1:][ordered[1:] == ordered[:-1]]),
            "support outcomes left out": np.setdiff1d(support, ordered),
            "outcomes outside the support": np.setdiff1d(ordered, support),
        }
        # Each kind by its count and at most its first 10 indices.
        problems = [
            f"{what}: {i.size} [{', '.join(map(str, i[:10].tolist()))}{', ...' * (i.size > 10)}]"
            for what, i in wrong.items()
            if i.size
        ]
        raise ValueError(
            "custom blocks do not tile the factual support: " + "; ".join(problems)
        )
    return Partition(outcomes, np.repeat(np.arange(len(sizes)), sizes))


def build_partition(
    infos: Sequence[str],
    supports: Sequence[np.ndarray],
    groups: SelectiveGroups,
    custom_blocks: Optional[Sequence[Sequence[int]]] = None,
    *,
    coupling_rows: Sequence[int],
) -> list[Partition]:
    """The partition each information policy in `infos` allows on the
    factual support: table t's under the coupling in row
    `coupling_rows[t]` of the stack that `groups` came from.
    `supports[row]` is the indices of row `row`'s factual support in
    increasing order; rows of cases with equal supports may share one
    array.

    * l-fi: one block, the whole factual support;
    * m-fi: the coupling's compensable/non-compensable split (empty side
      dropped);
    * h-fi: singletons, full knowledge of the factual outcome;
    * custom: caller-supplied blocks, which must be non-empty and tile
      the support exactly.  A refusal names, by count and first 10
      indices, the repeated outcomes, the support outcomes left out and
      the outcomes outside the support.

    l-fi, h-fi and custom do not depend on the coupling: each is built,
    and custom checked, once per support array, and shared by every
    table whose row holds that array.  The first table that cannot be
    built raises.
    """
    shared: dict[tuple[str, int], Partition] = {}
    partitions = []
    for info, row in zip(infos, coupling_rows):
        if info == "m-fi":
            # The coupling's plus outcomes, then its minus outcomes.
            side, outcomes = np.array((groups.plus[row], groups.minus[row])).nonzero()
            # Block 0 is the plus side, or the minus side when no outcome
            # is compensable.
            partitions.append(Partition(outcomes, side - 1 if side.size and side[0] else side))
            continue
        support = supports[row]
        key = (info, id(support))
        if key not in shared:
            if not support.size:
                raise ValueError("factual support is empty")
            shared[key] = _shared_partition(info, support, custom_blocks)
        partitions.append(shared[key])
    return partitions


class GapStack:
    """Gap tables, each of one partition of the factual support under one
    coupling of a `CouplingStack`, every table of every coupling from one
    pass; see `conditional_gap`.

    Rows are the blocks of nonzero probability, table after table:
    `probabilities` and `gaps` per row, and table t's rows are
    `starts[t]:starts[t + 1]`.  `outcomes` holds the partitions' outcomes
    end to end, table t's at `bounds[t]:bounds[t + 1]`; `tables` gives
    the table of each, and `rows` its row, or the row count when its
    block was dropped.  Every table is checked when the stack is built;
    `expected[t]` is table t's expected gap, and `notes[t]` notes each of
    its blocks dropped for zero probability, by its outcomes' labels.
    """

    def __init__(
        self,
        couplings: CouplingStack,
        partitions: Sequence[Partition],
        coupling_rows: Sequence[int],
    ) -> None:
        v = couplings.space.values_array
        mass, v0 = couplings.mass, couplings.v0
        self.partitions = partitions
        sizes = [p.outcomes.size for p in partitions]
        self.bounds = [0, *itertools.accumulate(sizes)]
        # Table t's block b is block first[t] + b of the stack.
        first = [0, *itertools.accumulate([p.block_count for p in partitions])]
        # The table of each outcome of the stack.
        self.tables = np.arange(len(partitions)).repeat(sizes)
        self.outcomes = cells = np.concatenate([p.outcomes for p in partitions])
        ids = np.concatenate([p.block_ids for p in partitions])
        if len(partitions) > 1:
            ids = ids + np.array(first[:-1])[self.tables]
        # Table t's outcome k reads cell (coupling_rows[t], k) of the moments.
        if any(coupling_rows):
            cells = cells + (np.array(coupling_rows) * v.size)[self.tables]
        # E[(V0 - V1) 1{O1 = k}], coupling by coupling and column by column.
        col_gap = v0 - mass * v
        # bincount adds each bin's weights in input order, so a block's
        # sums are the ones a pass over its table alone would take.
        block_p = np.bincount(ids, weights=mass.ravel()[cells], minlength=first[-1])
        block_gap = np.bincount(ids, weights=col_gap.ravel()[cells], minlength=first[-1])
        kept = block_p > 0.0
        dropped = not kept.all()
        self.rows, self.starts = ids, first
        if dropped:
            kept_before = np.concatenate(([0], np.cumsum(kept)))
            self.rows = np.where(kept[ids], kept_before[ids], kept_before[-1])
            self.starts = kept_before[first].tolist()
            block_p, block_gap = block_p[kept], block_gap[kept]
        self.probabilities = read_only(block_p)
        self.gaps = read_only(block_gap / block_p)
        # Table by table: note each block dropped for zero probability, by
        # its outcomes' labels, then hold the table's rows to its
        # coupling's gap identity, sum_b p_b gap_b = E[V0 - V1].  The left
        # side is the table's expected gap.
        labels = couplings.space.labels
        notes, expected = [], []
        for t, (part, row) in enumerate(zip(partitions, coupling_rows)):
            notes.append(())
            if dropped:
                gone = self.rows[self.bounds[t] : self.bounds[t + 1]] == self.gaps.size
                for b in np.unique(part.block_ids[gone]).tolist():
                    block = part.outcomes[part.block_ids == b].tolist()
                    names = ", ".join(repr(labels[k]) for k in block)
                    notes[t] += (f"note: dropped zero-probability block of outcome(s) {names}",)
            expected.append(float(np.dot(*self.table(t))))
            mean_gap = couplings.mean_gaps[row]
            if abs(expected[t] - mean_gap) > GAP_IDENTITY_TOL * couplings.scale:
                raise AssertionError(
                    f"gap table inconsistent: blocks aggregate to {expected[t]!r} "
                    f"but the coupling's mean gap is {mean_gap!r}"
                )
        self.notes = tuple(notes)
        self.expected = tuple(expected)

    def table(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Table t's rows: its kept blocks' probabilities and gaps."""
        lo, hi = self.starts[t], self.starts[t + 1]
        return self.probabilities[lo:hi], self.gaps[lo:hi]


def conditional_gap(
    couplings: CouplingStack,
    partitions: Sequence[Partition],
    coupling_rows: Sequence[int],
) -> GapStack:
    """E[V0 - V1 | block] and block probability for each block of every
    partition, as their checked `GapStack`.  Partition t is read under
    the coupling in row `coupling_rows[t]` of the stack, so one call
    takes the tables of several partitions of several couplings; a lone
    coupling's tables are `conditional_gap(CouplingStack([c]), parts,
    [0] * len(parts))`.

    The partitions' outcomes are laid end to end, each table's block ids
    offset past the blocks of the tables before it, and each outcome reads
    its own coupling's cell of the (coupling x outcome) moments.  One
    `np.bincount` pair then sums every block's mass and gap mass.
    `np.bincount` adds each bin's weights in input order, so every
    block's sums are bit for bit the ones a pass over its own table, under
    its own coupling alone, takes.  Blocks with zero factual probability
    carry no conditional mean; they are dropped, each with a note of its
    table, rather than reported as 0/0.  Tables are checked in order, and
    the first that fails its gap identity raises.
    """
    return GapStack(couplings, partitions, coupling_rows)


def cc_indemnity(gaps: np.ndarray) -> np.ndarray:
    """Clamp each block's conditional gap at zero."""
    return np.maximum(0.0, gaps)


def solve_lambda(probabilities: np.ndarray, gaps: np.ndarray, target: float) -> float:
    """Root of sum_b p_b * max(0, gap_b - lambda) = target, for target > 0,
    over a table's block probabilities and gaps.

    The left side is piecewise linear, continuous and non-increasing with
    breakpoints at the block gaps.  Sorting gaps in decreasing order, the
    segment between consecutive breakpoints has the closed form
    S_k - P_k * lambda with S_k and P_k the partial mass-weighted sum and
    mass of the blocks above the segment, so the root is exact.
    """
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


def fm_indemnity(probabilities: np.ndarray, gaps: np.ndarray, target: float) -> np.ndarray:
    """Fair-mean payouts: a table's clamped gaps shifted so their mean hits
    `target`, its expected gap.

    When the mean gap is not positive the whole schedule is zero.
    Otherwise the shift is solve_lambda's exact root, which is always
    non-negative, so fair-mean payouts never exceed the clamped ones.
    A one-block table whose target is exactly its p * g needs no solve:
    the root's candidate (p * g - target) / p is then 0.
    """
    if target <= 0.0:
        return np.zeros(gaps.size)
    if gaps.size == 1 and target == float(probabilities[0] * gaps[0]):
        return np.maximum(0.0, gaps)
    return np.maximum(0.0, gaps - solve_lambda(probabilities, gaps, target))


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


def _missing_joint(conn: str):
    """A builder that refuses: connection `conn` was given no joint."""

    def refuse(model: CaseModel) -> Coupling:
        raise ConfigurationError(
            f"connection policy {conn!r} needs an explicit coupling and "
            f"none was supplied"
        )

    return refuse


def _case_rows(
    model: CaseModel, conns, evidence_joint, paper_table_joint, rows: list
) -> dict[str, int]:
    """Append one case's couplings to the `stack_couplings` rows `rows`,
    in the order they are built, and return the row of each connection in
    `conns`.  e-c evaluates `evidence_joint`, paper-table
    `paper_table_joint` or else `evidence_joint`; paper-table is costed
    against the least-divergence coupling, built right after it unless
    ld-c came first, and ld-c and paper-table share that coupling."""
    if paper_table_joint is None:
        paper_table_joint = evidence_joint
    joints = {"e-c": evidence_joint, "paper-table": paper_table_joint}
    at: dict[str, int] = {}

    def add(conn: str, what) -> None:
        at[conn] = len(rows)
        rows.append((model, what))

    for conn in conns:
        if conn in joints:
            joint = joints[conn]
            add(conn, _missing_joint(conn) if joint is None else joint)
        elif conn == "i-c":
            add(conn, independence_coupling)
        if conn in ("ld-c", "paper-table") and "ld-c" not in at:
            add("ld-c", least_divergence_coupling)
    return at


def _coupling_notes(
    space, couplings: Sequence[Coupling], at: dict[str, int]
) -> dict[int, tuple[str, ...]]:
    """The notes each of one case's couplings carries, by stack row: a
    published least-divergence table that is not cost-minimal is
    flagged, and ld-c notes value ties."""
    notes = {}
    if "paper-table" in at:
        supplied_cost = transport_cost(couplings[at["paper-table"]])
        own_cost = transport_cost(couplings[at["ld-c"]])
        if supplied_cost > own_cost + 1e-9:
            notes[at["paper-table"]] = (
                "FLAG published least-divergence table is not cost-minimal: "
                f"cost {supplied_cost:.6g} vs optimal {own_cost:.6g}",
            )
    if "ld-c" in at and len(set(space.values)) < space.size:
        notes[at["ld-c"]] = (
            "note: value ties present; least-divergence matching breaks "
            "them by label order and the schedule may depend on that order",
        )
    return notes


def _tie_note(space, groups: SelectiveGroups, row: int) -> tuple[str, ...]:
    if not groups.ties[row].any():
        return ()
    tied = ", ".join(space.labels[i] for i in groups.indices(row)[2])
    return (
        f"note: outcome(s) {tied} sit exactly at their conditional mean "
        f"and are grouped as non-compensable",
    )


@dataclass(frozen=True, eq=False)
class GridBuild:
    """A policy grid built and not yet priced, over a family of cases
    that share one outcome space and one money map; a lone case is a
    one-case family.  Every case has the same tables in the same order,
    and case c's tables and stack rows follow case c - 1's.  Table t's
    partition is `gaps.partitions[t]`, its rows `gaps.table(t)` and its
    checked expected gap `gaps.expected[t]`; `couplings` are the rows of
    `groups`, each case's in the order they are built.  `supports` holds
    each case's factual support, `payouts` the (case x combination x
    support outcome) payouts, flattened row after row, and `notes` each
    (case, combination)'s notes, case after case."""

    models: tuple[CaseModel, ...]
    combos: tuple[PolicyCombo, ...]
    couplings: tuple[Coupling, ...]
    groups: SelectiveGroups
    gaps: GapStack
    supports: tuple[np.ndarray, ...]
    payouts: np.ndarray
    notes: tuple[tuple[str, ...], ...]


def build_grid(
    model: CaseModel | Sequence[CaseModel],
    combos: Sequence[PolicyCombo],
    evidence_joint=None,
    custom_blocks: Optional[Sequence[Sequence[int]]] = None,
    extra_notes: Sequence[str] = (),
    *,
    paper_table_joint=None,
) -> GridBuild:
    """Every stage of a policy grid up to its payouts, one stage at a time
    over every table of every connection of every case.

    `model` is one case, or a family of cases: a sequence of cases that
    share one outcome space and one money map, and differ in their
    marginals and evidence.  A family's `evidence_joint` and
    `paper_table_joint` hold one joint, or None, per case; its
    `custom_blocks` and `extra_notes` serve every case.  A lone case is a
    one-case family, and takes the same path.  e-c evaluates a case's
    `evidence_joint`; paper-table evaluates its `paper_table_joint`, or
    its `evidence_joint`.

    A case's tables are the (connection, information policy) pairs that
    some combination uses: connections in order of first use, and within
    each its information policies in order of first use.  Every case has
    the same tables, and the build runs, case after case within a stage:

    * every case's couplings and their column moments, as the one
      `CouplingStack` of one `stack_couplings` call: a row per connection
      of each case, and after paper-table's the least-divergence
      coupling it is costed against, unless ld-c came first (the two
      share it); then the notes each coupling carries;
    * their selective groups, one `selective_groups` call;
    * every table's partition, one `build_partition` call, on its own
      case's factual support;
    * every table's gaps, one `conditional_gap` pass that checks each
      table in turn and notes its dropped blocks on each of its
      schedules, and every row's clamped payout, one `cc_indemnity` call;
    * table by table, its fair-mean payouts when some fm-i combination
      uses it, one `fm_indemnity` call each;
    * the (case x combination x support outcome) payouts, in one gather.

    So the first stage that fails raises: a family whose cases differ in
    outcome space or money map, then values that span more than a float
    holds, then a coupling error, case by case and in order of first use,
    with its own constructor's message, before any partition error, and
    so on.
    """
    if not combos:
        raise ConfigurationError("a policy grid needs at least one combination")
    if isinstance(model, CaseModel):
        models, evidence, published = (model,), (evidence_joint,), (paper_table_joint,)
    else:
        models = tuple(model)
        evidence = [None] * len(models) if evidence_joint is None else evidence_joint
        published = [None] * len(models) if paper_table_joint is None else paper_table_joint
        if not models:
            raise ConfigurationError("a case family needs at least one case")
        if not len(evidence) == len(published) == len(models):
            raise ConfigurationError(
                "a case family needs one evidence joint and one published "
                "table, or None, per case"
            )
    space, money = models[0].space, models[0].money
    for other in models[1:]:
        if other.space != space or other.money != money:
            raise ValueError("the cases of a family share one outcome space and one money map")
    v = space.values_array
    # Python floats: a numpy subtraction would warn on overflow.
    low, high = float(v.min()), float(v.max())
    if not math.isfinite(high - low):
        raise ValueError(
            f"outcome values span {low!r} to {high!r}, a range wider than a float holds"
        )
    # The information policies of each connection, in order of first use,
    # and whether some fm-i combination uses each.
    uses: dict[str, dict[str, bool]] = {}
    for combo in combos:
        fair = uses.setdefault(combo.connection, {})
        fair[combo.info] = fair.get(combo.info, False) or combo.indemnity == "fm-i"
    # Each case's couplings, case after case, are rows of one stack:
    # at[c][conn] is the row of case c's connection conn, and owners[i]
    # the case of row i.
    specs: list = []
    at, owners = [], []
    for c, (case, joint, table) in enumerate(zip(models, evidence, published)):
        at.append(_case_rows(case, uses, joint, table, specs))
        owners += [c] * (len(specs) - len(owners))
    couplings = stack_couplings(specs)
    coupling_notes: dict[int, tuple[str, ...]] = {}
    for case_rows in at:
        coupling_notes.update(_coupling_notes(space, couplings.couplings, case_rows))
    groups = selective_groups(couplings)
    # A case's tables, each (connection, information policy) that some
    # combination uses: its connection, its policy, and whether some fm-i
    # combination uses it.
    tables: dict[tuple[str, str], int] = {}
    conns, infos, fairs = [], [], []
    for conn, conn_infos in uses.items():
        for info, fair in conn_infos.items():
            tables[conn, info] = len(conns)
            conns.append(conn)
            infos.append(info)
            fairs.append(fair)
    cases, per_case = len(models), len(conns)
    # Case c's table t is table c * per_case + t of the build, read under
    # its case's row of the stack for its connection.
    rows = [case_rows[conn] for case_rows in at for conn in conns]
    infos *= cases
    # Each case's factual support; cases with equal supports share one
    # array, and with it their l-fi, h-fi and custom partitions.
    distinct: dict[bytes, np.ndarray] = {}
    masks, supports = [], []
    for case in models:
        mask = case.factual.array > 0.0
        key = mask.tobytes()
        if key not in distinct:
            distinct[key] = mask.nonzero()[0]
        masks.append(mask)
        supports.append(distinct[key])
    row_supports = [supports[c] for c in owners]
    partitions = build_partition(infos, row_supports, groups, custom_blocks, coupling_rows=rows)
    gaps = conditional_gap(couplings, partitions, rows)
    # Every row's clamped payout, a 0, every row's fair-mean payout and a
    # 0; fair-mean payouts are solved only for the tables that some fm-i
    # combination uses.
    count = gaps.gaps.size
    payouts = np.zeros(2 * count + 2)
    payouts[:count] = cc_indemnity(gaps.gaps)
    for t, fair in enumerate(fairs * cases):
        if fair:
            lo, hi = count + 1 + gaps.starts[t], count + 1 + gaps.starts[t + 1]
            payouts[lo:hi] = fm_indemnity(*gaps.table(t), gaps.expected[t])
    # slots[t, k] is where in `payouts` table t pays outcome k: the row of
    # the block that holds it, or the 0 past the clamped payouts when no
    # kept block does.  slots[t + len(rows)] is the same place among the
    # fair-mean payouts.
    where = np.full((len(rows), space.size), count)
    where[gaps.tables, gaps.outcomes] = gaps.rows
    slots = np.concatenate((where, where + (count + 1)))
    picks = [tables[c.connection, c.info] for c in combos]
    picked = [t + len(rows) if c.indemnity == "fm-i" else t for t, c in zip(picks, combos)]
    # Case c's combination k pays from row c * per_case + picked[k] of
    # `slots`, at the outcomes its case's support holds.
    picked = [c * per_case + t for c in range(cases) for t in picked]
    held = np.array(masks).repeat(len(combos), axis=0)
    notes = [
        coupling_notes.get(row, ())
        + gaps.notes[t]
        + (_tie_note(space, groups, row) if info == "m-fi" else ())
        for t, (row, info) in enumerate(zip(rows, infos))
    ]
    extra = tuple(extra_notes)
    return GridBuild(
        models=models,
        combos=tuple(combos),
        couplings=couplings.couplings,
        groups=groups,
        gaps=gaps,
        supports=tuple(supports),
        payouts=payouts[slots[picked][held]],
        notes=tuple([extra + notes[c * per_case + t] for c in range(cases) for t in picks]),
    )


def price(build: GridBuild) -> list[CompensationSchedule]:
    """The grid's schedules, case after case and within a case combination
    after combination, each over its own case's factual support.  They
    are priced by one award call over the payout matrix, so the call
    raises the error of the first (case, combination) that fails."""
    space, money = build.models[0].space, build.models[0].money
    combos, supports, x = build.combos, build.supports, build.payouts
    case_values = [space.values_array[s] for s in supports]
    v = np.concatenate([a for a in case_values for _ in combos])
    awards = award_from_compensation(money, v, x).tolist()
    values = x.tolist()
    # Each case's support labels, and where each schedule's outcomes start.
    case_labels = [tuple(map(space.labels.__getitem__, s.tolist())) for s in supports]
    starts = [0, *itertools.accumulate(len(labels) for labels in case_labels for _ in combos)]
    notes = list(build.notes)
    if money.top < math.inf:  # only a money table has a last point
        for i in np.flatnonzero(v + x > money.top).tolist():
            row = bisect.bisect_right(starts, i) - 1
            label = case_labels[row // len(combos)][i - starts[row]]
            notes[row] += (
                f"note: the award for outcome {label!r} "
                f"extrapolates the money table past its last point "
                f"{money.top:g}, along its end segment",
            )
    return [
        CompensationSchedule(
            policy=combo,
            outcomes=outcomes,
            values=tuple(values[a:b]),
            awards=tuple(awards[a:b]),
            notes=row_notes,
        )
        for (outcomes, combo), a, b, row_notes in zip(
            itertools.product(case_labels, combos), starts, starts[1:], notes
        )
    ]


def evaluate_grid(
    model: CaseModel | Sequence[CaseModel], combos: Sequence[PolicyCombo], *args, **kwargs
) -> list[CompensationSchedule]:
    """One schedule per combination, and for a family of cases per case
    and combination: `price(build_grid(model, combos, ...))`, with
    `build_grid`'s arguments, so a build error wins over an award error.
    An empty grid has no schedules."""
    return price(build_grid(model, combos, *args, **kwargs)) if combos else []


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
    coupling: Coupling, partition: Partition, block_x: np.ndarray
) -> float:
    """E[(V0 - V1 - X)^2] for a block-constant schedule, straight from the joint."""
    v = coupling.space.values_array
    x_col = np.zeros(coupling.space.size)
    x_col[partition.outcomes] = np.asarray(block_x)[partition.block_ids]
    d = v[:, None] - v[None, :] - x_col[None, :]
    return float(np.einsum("ij,ij->", coupling.joint, d * d))


def oracle_best_schedule(
    coupling: Coupling,
    partition: Partition,
    target: Optional[float] = None,
) -> tuple[np.ndarray, float]:
    """Exact reference for the best block-constant schedule.

    Minimizes the expected squared shortfall over schedules that pay no
    block less than zero.  Given a `target`, only schedules whose
    expected payout equals it are considered, plus the all-zero
    schedule.  The risk is a separable
    convex quadratic, so its minimiser is the optimum of its first-order
    conditions on its own set of paying blocks: every such set is solved
    from three sums of the joint per block, taken once per call, and the
    nonnegative solution of least risk wins, the first in enumeration
    order on a tie.  Kept deliberately independent of the closed-form
    rules so it can audit them; refuses partitions with more than 4
    blocks.
    """
    nb = partition.block_count
    if nb > 4:
        raise ValueError(
            f"oracle refuses {nb} blocks; it enumerates paying block sets up to 4"
        )
    v = coupling.space.values_array
    joint = coupling.joint
    col_mass = coupling.factual_marginal
    n = coupling.space.size
    # Columns outside every block share block 0's payout.
    col_block = np.zeros(n, dtype=int)
    col_block[partition.outcomes] = partition.block_ids
    # With d = V0 - V1, the risk of paying x_b in block b is
    # sum_ij J_ij (d_ij - x_b(j))^2 = C - 2 x.B + x^2.A for the sums below.
    d = v[:, None] - v[None, :]
    jd = joint * d
    mom_a = np.bincount(col_block, weights=joint.sum(axis=0), minlength=nb)
    mom_b = np.bincount(col_block, weights=jd.sum(axis=0), minlength=nb)
    mom_c = float((jd * d).sum())
    block_p = np.bincount(
        partition.block_ids, weights=col_mass[partition.outcomes], minlength=nb
    )
    best_x = np.zeros(nb)
    best_r = schedule_risk(coupling, partition, best_x)
    if float(v.max() - v.min()) <= 0.0:
        return best_x, best_r
    if target is not None:
        t = float(target)
        if t <= 0.0:
            return best_x, best_r
    # One row per set of paying blocks; a block of no mass never pays.
    paying = np.array(list(itertools.product((False, True), repeat=nb)))
    paying = paying[~(paying & (mom_a <= 0.0)).any(axis=1)]
    a = np.where(mom_a > 0.0, mom_a, 1.0)
    if target is not None:
        # Stationarity on the paying set, x_b = (B_b - nu p_b) / A_b, with
        # the multiplier nu fixed by the mean constraint p.x = t.
        w = block_p / a
        den = paying @ (block_p * w)
        paying, den = paying[den > 0.0], den[den > 0.0]
        nu = (paying @ (w * mom_b) - t) / den
        x = (mom_b - nu[:, None] * block_p) / a
    else:
        x = mom_b / a
    cands = np.where(paying, x, 0.0)
    cands = cands[(cands >= 0.0).all(axis=1)]
    if len(cands):
        risks = mom_c - 2.0 * (cands @ mom_b) + (cands * cands) @ mom_a
        i = int(np.argmin(risks))
        if risks[i] < best_r:
            best_x, best_r = cands[i], float(risks[i])
    return best_x, best_r
