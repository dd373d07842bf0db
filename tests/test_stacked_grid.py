"""The stacked policy grid against one combination at a time.

`evaluate_grid` builds every connection's moments, groups, partitions and
gap tables as (connection x outcome) arrays, in one pass per stage.  A
one-combination grid is a one-row stack with one table, so it meets none
of the other connections' cells.  On seeded random cases, with

- 2 to 12 outcomes, tied values among them;
- an evidence matrix, an evidence map, or no evidence, and now and then
  a published table that differs from the evidence;
- factual weights of 1e-17 on outcomes the evidence gives no mass, so
  e-c (and paper-table) drop their blocks;

every schedule of the grid of every standard combination, plus custom
blocks and paper-table, in a random order, must equal its one-combination grid bit for bit:
the repr of its values and awards, and its notes.  The grid must note
the same dropped blocks, in the same order, as its tables evaluated one
by one.  A family of such cases over one outcome space, with their own
marginals, supports and evidence, must give each case's own grid, case
after case, with the same notes.  A `CouplingStack`'s rows must be its
couplings' own column moments, bit for bit.
"""

import numpy as np
import pytest

from lostchance.coupling import (
    coupling_from_map,
    evidence_coupling,
    independence_coupling,
    least_divergence_coupling,
)
from lostchance.outcome import (
    CaseModel,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
)
from lostchance.valuation import CouplingStack, PolicyCombo, build_grid, price

INFOS = ("l-fi", "m-fi", "h-fi", "custom")
CONNECTIONS = ("e-c", "ld-c", "i-c", "paper-table")
INDEMNITIES = ("cc-i", "fm-i")


def _values(rng, n):
    values = rng.integers(-20, 21, size=n).astype(float) * 0.5
    if n >= 3:
        # At least one tie, often more.
        tied = rng.choice(np.arange(1, n), size=int(rng.integers(1, n // 2 + 1)), replace=False)
        values[tied] = values[0]
    return values


def _matrix(rng, cf, n):
    """A joint with counterfactual marginal `cf` whose mass avoids some
    columns."""
    open_cols = rng.random(n) < 0.75
    open_cols[int(rng.integers(n))] = True
    joint = np.zeros((n, n))
    for i in np.flatnonzero(cf):
        cols = np.flatnonzero(open_cols & (rng.random(n) < 0.6))
        if not cols.size:
            cols = np.flatnonzero(open_cols)[:1]
        joint[i, cols] = cf[i] * rng.dirichlet(np.ones(cols.size))
    return joint


def random_grid_case(rng, space=None):
    """(model, evidence, published table, custom blocks) of a random case,
    over `space` when one is given."""
    n = int(rng.integers(2, 13)) if space is None else space.size
    labels = tuple(f"o{i}" for i in range(n))
    cf = rng.dirichlet(np.ones(n))
    kind = rng.choice(["matrix", "map", "none"])
    if kind == "matrix":
        evidence = _matrix(rng, cf, n)
        factual = evidence.sum(axis=0)
    elif kind == "map":
        targets = rng.integers(0, n, size=n)
        evidence = {labels[i]: labels[int(t)] for i, t in enumerate(targets)}
        factual = np.bincount(targets, weights=cf, minlength=n)
    else:
        evidence = None
        factual = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.8)
        if not factual.any():
            factual[0] = 1.0
        factual /= factual.sum()
    # An outcome the evidence never reaches is possible only at 1e-17:
    # the evidence still fits the marginals, and e-c drops its block.
    empty = np.flatnonzero(factual == 0.0)
    if empty.size:
        rare = rng.choice(empty, size=int(rng.integers(1, empty.size + 1)), replace=False)
        factual[rare] = 1e-17
    model = CaseModel(
        space or OutcomeSpace(labels, tuple(_values(rng, n).tolist())),
        DiscreteDistribution(tuple(cf.tolist())),
        DiscreteDistribution(tuple(factual.tolist())),
        IdentityMoneyMap(),
    )
    published = None
    if evidence is not None and rng.random() < 0.5:
        # The engine's own least-divergence table, as a dense matrix, is
        # cost-minimal; the evidence usually is not.
        published = np.asarray(least_divergence_coupling(model).joint)
    support = np.flatnonzero(model.factual.array > 0.0)
    cuts = rng.choice(np.arange(1, support.size), size=min(2, support.size - 1), replace=False)
    blocks = [b.tolist() for b in np.split(rng.permutation(support), np.sort(cuts))]
    return model, evidence, published, blocks


def _combos(evidence):
    return [
        PolicyCombo(info, conn, indemnity)
        for info in INFOS
        for conn in CONNECTIONS
        for indemnity in INDEMNITIES
        if evidence is not None or conn not in ("e-c", "paper-table")
    ]


def _bits(schedule):
    s = schedule
    return (s.policy, s.outcomes, repr(s.values), repr(s.awards), s.notes)


def _evaluate(model, combos, evidence, published, blocks):
    """The grid's schedules and its dropped-block notes, in table order."""
    build = build_grid(model, combos, evidence, blocks, ("extra",), paper_table_joint=published)
    return price(build), [note for notes in build.gaps.notes for note in notes]


def _tables(combos):
    """The grid's (connection, information) tables, connections in order
    of first use and each one's information policies in order of first use."""
    return [
        (conn, info)
        for conn in dict.fromkeys(c.connection for c in combos)
        for info in dict.fromkeys(c.info for c in combos if c.connection == conn)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_grid_equals_one_combination_at_a_time(seed):
    rng = np.random.default_rng(seed)
    dropped = 0
    for _ in range(8):
        model, evidence, published, blocks = random_grid_case(rng)
        combos = _combos(evidence)
        order = rng.permutation(len(combos))
        combos = [combos[i] for i in order]
        grid, grid_dropped = _evaluate(model, combos, evidence, published, blocks)
        assert [s.policy for s in grid] == combos
        for combo, schedule in zip(combos, grid):
            (alone,), _ = _evaluate(model, [combo], evidence, published, blocks)
            assert _bits(schedule) == _bits(alone)
        one_by_one = []
        for conn, info in _tables(combos):
            one_by_one += _evaluate(
                model, [PolicyCombo(info, conn, "cc-i")], evidence, published, blocks
            )[1]
        assert grid_dropped == one_by_one
        dropped += len(grid_dropped)
    # Blocks were dropped somewhere in the seed's cases.
    assert dropped


@pytest.mark.parametrize("seed", range(6))
def test_family_equals_its_cases_one_at_a_time(seed):
    """A family of cases over one outcome space, with their own marginals,
    factual supports and evidence, is one grid whose schedules, notes and
    dropped-block notes are those of each case's own grid, case after case."""
    rng = np.random.default_rng(1000 + seed)
    supports = set()
    for _ in range(4):
        family = [random_grid_case(rng)]
        space = family[0][0].space
        family += [random_grid_case(rng, space) for _ in range(int(rng.integers(1, 6)))]
        models, evidence, published, _ = zip(*family)
        # Custom blocks tile one support, and e-c needs every case's evidence.
        combos = [
            c
            for c in _combos(None if any(e is None for e in evidence) else evidence)
            if c.info != "custom"
        ]
        combos = [combos[i] for i in rng.permutation(len(combos))]
        grid, grid_dropped = _evaluate(list(models), combos, evidence, published, None)
        one_by_one, case_dropped = [], []
        for model, joint, table, _ in family:
            schedules, dropped = _evaluate(model, combos, joint, table, None)
            one_by_one += schedules
            case_dropped += dropped
        assert list(map(_bits, grid)) == list(map(_bits, one_by_one))
        assert grid_dropped == case_dropped
        supports.add(len({s.outcomes for s in grid}))
    # Some family of the seed's has cases whose factual supports differ.
    assert max(supports) > 1


def _couplings(model, evidence):
    """The case's e-c (when it has evidence), ld-c and i-c couplings."""
    out = []
    if isinstance(evidence, dict):
        out.append(coupling_from_map(model, evidence))
    elif evidence is not None:
        out.append(evidence_coupling(model, evidence))
    return out + [least_divergence_coupling(model), independence_coupling(model)]


@pytest.mark.parametrize("seed", range(6))
def test_stack_rows_are_each_couplings_column_moments(seed):
    """Row i of a stack's `mass` and `v0` is coupling i's own
    `column_moments`, bit for bit, in a stack that mixes explicit cells
    and a rank-one (independence) coupling, and in a two-case family."""
    rng = np.random.default_rng(2000 + seed)
    kinds, evidence_kinds = set(), set()
    for _ in range(8):
        model, evidence, _, _ = random_grid_case(rng)
        other, other_evidence, _, _ = random_grid_case(rng, model.space)
        evidence_kinds |= {type(evidence).__name__, type(other_evidence).__name__}
        for couplings in (
            _couplings(model, evidence),
            _couplings(model, evidence) + _couplings(other, other_evidence),
        ):
            stack = CouplingStack(couplings)
            assert stack.mass.shape == stack.v0.shape == (len(couplings), model.space.size)
            for i, coupling in enumerate(couplings):
                mass, v0 = coupling.column_moments
                assert stack.mass[i].tobytes() == mass.tobytes()
                assert stack.v0[i].tobytes() == v0.tobytes()
                kinds.add(type(coupling.cells).__name__)
    assert kinds == {"Cells", "RankOneCells"}
    # e-c from an evidence matrix and from an outcome map both occur.
    assert {"ndarray", "dict"} <= evidence_kinds
