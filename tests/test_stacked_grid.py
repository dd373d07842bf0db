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

`stack_couplings` builds a whole grid's couplings in one pass, through
the one check every coupling takes, so a lone coupling from a public
constructor is a one-row stack of it.  Both are held to
`coupling_reference`, a frozen copy of the earlier per-coupling checks.
On random families whose rows mix every joint form, each row's cells and
moments, and each public constructor's, must be the reference's, bit for
bit, with no `Coupling` validated one at a time.  A malformed joint at
any case of a family must raise the reference's error, byte for byte,
before a partition error; of two malformed rows the earlier one's error
wins, whatever their kinds; a total or a marginal within rounding of its
tolerance must be accepted or refused as the reference decides; a grid
must refuse a malformed joint with the public builders unreachable; and
a 3000-outcome grid must build without an n x n array.
"""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

import coupling_reference as reference
from lostchance.coupling import (
    MARGINAL_TOL,
    MASS_SUM_TOL,
    Cells,
    Coupling,
    RankOneCells,
    coupling_from_map,
    evidence_coupling,
    independence_coupling,
    least_divergence_coupling,
    stack_couplings,
)
from lostchance.outcome import (
    CaseModel,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
)
from lostchance.valuation import CouplingStack, PolicyCombo, build_grid, price
from lostchance.verify import random_case, random_vertex_coupling

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


# -- the one coupling check against the per-coupling reference --------------


def _family(rng, cases):
    """`cases` random cases, of at most 30 outcomes, over one space."""
    first = random_case(rng, 2, 30)
    n = first.space.size
    return [first] + [
        dataclasses.replace(random_case(rng, n, n), space=first.space) for _ in range(cases - 1)
    ]


def _split_cells(rng, joint):
    """The joint's cells out of order, some of them split into two
    repeated cells."""
    rows, cols = np.nonzero(joint)
    mass = joint[rows, cols]
    split = np.flatnonzero(rng.random(mass.size) < 0.4)
    part = mass[split] * rng.random(split.size)
    mass[split] -= part
    rows, cols, mass = np.r_[rows, rows[split]], np.r_[cols, cols[split]], np.r_[mass, part]
    order = rng.permutation(rows.size)
    return Cells(rows[order], cols[order], mass[order], joint.shape[0])


def _random_row(rng, model, form):
    """(model, what) for one stack row of the given joint form; a map row
    gets the factual law its map pushes the counterfactual one to."""
    if form == "ld-c":
        return model, least_divergence_coupling
    if form == "i-c":
        return model, independence_coupling
    if form == "map":
        n = model.space.size
        targets = rng.integers(0, n, size=n)
        factual = np.bincount(targets, weights=model.counterfactual.array, minlength=n)
        model = dataclasses.replace(model, factual=DiscreteDistribution(tuple(factual.tolist())))
        labels = model.space.labels
        return model, {labels[i]: labels[int(t)] for i, t in enumerate(targets)}
    joint = random_vertex_coupling(rng, model)
    return model, joint if form == "dense" else _split_cells(rng, joint)


FORMS = ("dense", "cells", "map", "ld-c", "i-c")


def _public(model, what):
    return what(model) if callable(what) else evidence_coupling(model, what)


def _assert_same(got, want):
    """Two couplings, or a coupling and its reference, with the same
    cells and moments, bit for bit."""
    assert type(got.cells) is type(want.cells)
    names = ("rows", "cols", "mass")
    if isinstance(want.cells, RankOneCells):
        names = ("row_weights", "col_weights")
    for name in names:
        a, b = getattr(got.cells, name), getattr(want.cells, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name
        assert not a.flags.writeable
    for a, b in zip(got.column_moments, want.column_moments):
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable


@pytest.fixture
def checked(monkeypatch):
    """Counts the couplings validated by `Coupling.__post_init__`."""
    count = []
    post_init = Coupling.__post_init__

    def counted(self):
        count.append(self)
        post_init(self)

    monkeypatch.setattr(Coupling, "__post_init__", counted)
    return count


@pytest.mark.parametrize("seed", range(8))
def test_stack_rows_equal_their_own_constructors(seed, checked):
    """Random families of up to 5 cases, each case up to 5 rows of any
    joint form: dense, unsorted cells with repeats, an outcome map,
    least-divergence and independence.  Each row's cells and moments,
    and those of the row's own public constructor, are the reference's;
    the stack's arrays and mean gaps are those of the public couplings
    stacked; and the stacked pass validates no `Coupling` itself."""
    rng = np.random.default_rng(3000 + seed)
    forms = set()
    for _ in range(10):
        rows = []
        for model in _family(rng, int(rng.integers(1, 6))):
            for form in rng.choice(FORMS, size=int(rng.integers(1, 6))):
                rows.append(_random_row(rng, model, str(form)))
                forms.add(str(form))
        del checked[:]
        stack = stack_couplings(rows)
        assert not checked
        public = CouplingStack([_public(model, what) for model, what in rows])
        for got, alone, (model, what) in zip(stack.couplings, public.couplings, rows, strict=True):
            want = reference.build(model, what)
            _assert_same(got, want)
            _assert_same(alone, want)
        for name in ("mass", "v0"):
            assert getattr(stack, name).tobytes() == getattr(public, name).tobytes()
        assert stack.mean_gaps == public.mean_gaps
    assert forms == set(FORMS)


@pytest.mark.parametrize("seed", range(4))
def test_grid_couplings_equal_their_own_constructors(seed):
    """A family's grid over every connection: each case's e-c, paper-table,
    the least-divergence coupling paper-table is costed against, and
    i-c, each the reference's, bit for bit."""
    rng = np.random.default_rng(4000 + seed)
    models = _family(rng, 4)
    evidence = [random_vertex_coupling(rng, m) for m in models]
    published = [_split_cells(rng, random_vertex_coupling(rng, m)) for m in models]
    combos = [PolicyCombo("h-fi", conn, "cc-i") for conn in ("e-c", "paper-table", "i-c", "ld-c")]
    build = build_grid(models, combos, evidence, paper_table_joint=published)
    public = []
    for model, joint, table in zip(models, evidence, published):
        public += [
            reference.evidence(model, joint),
            reference.evidence(model, table),
            reference.least_divergence(model),
            reference.independence(model),
        ]
    for got, want in zip(build.couplings, public, strict=True):
        _assert_same(got, want)


def _malformed(rng, model, kind):
    """(model, e-c joint) of one malformed kind; "dropped" is well-formed
    but for one cell of -1e-16, which `Coupling` drops."""
    joint = random_vertex_coupling(rng, model)
    n = model.space.size
    r, c = np.argwhere(joint > 0.0)[0]
    if kind == "shape":
        return model, np.zeros((n + 1, n + 1))
    if kind in ("counterfactual", "factual"):
        off = joint.copy()
        # Moving mass along a column keeps the factual marginal; along a
        # row, the counterfactual one.
        other = (r + 1) % n
        if kind == "counterfactual":
            off[r, c] -= 1e-9
            off[other, c] += 1e-9
        else:
            off[r, c] -= 1e-9
            off[r, (c + 1) % n] += 1e-9
        return model, off
    if kind == "nan":
        off = joint.copy()
        off[r, c] = np.nan
        return model, off
    if kind in ("negative", "dropped"):
        # One more cell, below zero, where the comonotone joint (at most
        # 2n - 1 cells) has none; its lines move by far less than
        # MARGINAL_TOL.
        cells = least_divergence_coupling(model).cells
        i, j = np.argwhere(np.asarray(cells) == 0.0)[0]
        tiny = 1e-14 if kind == "negative" else 1e-16
        return model, Cells(np.r_[cells.rows, i], np.r_[cells.cols, j], np.r_[cells.mass, -tiny], n)
    if kind == "index":
        cells = Cells.from_dense(joint)
        return model, Cells(np.r_[cells.rows, n], np.r_[cells.cols, 0], np.r_[cells.mass, 0.0], n)
    if kind == "total":
        return model, joint * (1.0 + 2e-12)
    if kind == "rank-one factor":
        a = model.counterfactual.array.copy()
        a[0] = -a[0]
        return model, RankOneCells(a, model.factual.array)
    assert kind == "i-c factor"
    f = model.factual.array.copy()
    f[-1] = np.inf
    return dataclasses.replace(model, factual=DiscreteDistribution(tuple(f.tolist()))), joint


MALFORMED = (
    "shape",
    "counterfactual",
    "factual",
    "nan",
    "negative",
    "dropped",
    "index",
    "total",
    "rank-one factor",
    "i-c factor",
)


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("kind", MALFORMED)
def test_a_malformed_joint_is_refused_with_its_own_message(kind, k):
    """Case k of a 5-case family holds a malformed joint.  The grid raises
    the reference's error, byte for byte, before the custom blocks'
    tiling error; a -1e-16 cell is dropped as the reference drops it."""
    rng = np.random.default_rng(5000 + 10 * k + MALFORMED.index(kind))
    models = _family(rng, 5)
    evidence = [random_vertex_coupling(rng, m) for m in models]
    models[k], evidence[k] = _malformed(rng, models[k], kind)
    connections = ("i-c",) if kind == "i-c factor" else ("e-c", "ld-c", "i-c")
    combos = [PolicyCombo("custom", conn, "cc-i") for conn in connections]
    rows = [
        (model, what)
        for model, joint in zip(models, evidence)
        for what in (joint, least_divergence_coupling, independence_coupling)
        if kind != "i-c factor" or what is independence_coupling
    ]
    expected = reference.first_refusal(rows)
    if kind == "dropped":
        assert expected is None
        build = build_grid(models, [PolicyCombo("h-fi", c, "cc-i") for c in connections], evidence)
        for got, (model, what) in zip(build.couplings, rows, strict=True):
            _assert_same(got, reference.build(model, what))
        return
    assert expected is not None
    with pytest.raises(type(expected)) as raised:
        build_grid(models, combos, evidence, [[0]])
    assert str(raised.value) == str(expected)


def _malformed_row(rng, model, kind):
    """One `stack_couplings` row of a malformed kind: an i-c row for a
    non-finite i-c factor, an e-c row otherwise."""
    model, joint = _malformed(rng, model, kind)
    return (model, independence_coupling) if kind == "i-c factor" else (model, joint)


def _family_rows(rng, cases):
    """Each case's e-c, ld-c and i-c rows, case after case."""
    return [
        (model, what)
        for model in _family(rng, cases)
        for what in (random_vertex_coupling(rng, model), least_divergence_coupling, independence_coupling)
    ]


def _assert_alone_as_reference(build, want):
    """`build()` refuses as `want()` does, byte for byte, or builds its
    coupling bit for bit."""
    try:
        expected = want()
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            build()
        assert str(raised.value) == str(exc)
    else:
        _assert_same(build(), expected)


def _assert_refused_as_reference(rows):
    """`stack_couplings(rows)` refuses as the reference's first refusal,
    byte for byte, or, when the reference refuses none, builds its
    couplings bit for bit; and each row's public constructor refuses or
    builds as the reference does with that row alone."""
    for model, what in rows:
        _assert_alone_as_reference(
            lambda: _public(model, what), lambda: reference.build(model, what)
        )
    expected = reference.first_refusal(rows)
    if expected is None:
        for got, (model, what) in zip(stack_couplings(rows).couplings, rows, strict=True):
            _assert_same(got, reference.build(model, what))
        return None
    with pytest.raises(type(expected)) as raised:
        stack_couplings(rows)
    assert str(raised.value) == str(expected)
    return expected


@pytest.mark.parametrize("second", MALFORMED)
@pytest.mark.parametrize("first", MALFORMED)
def test_the_earlier_of_two_malformed_rows_is_refused(first, second):
    """Two malformed rows, at stack rows i < j of a 4-case family: the
    stack raises row i's own refusal, whatever the two kinds, and row
    j's only when row i's -1e-16 cell is dropped."""
    rng = np.random.default_rng([7000, MALFORMED.index(first), MALFORMED.index(second)])
    rows = _family_rows(rng, 4)
    i, j = np.sort(rng.choice(len(rows), size=2, replace=False)).tolist()
    rows[i] = _malformed_row(rng, rows[i][0], first)
    rows[j] = _malformed_row(rng, rows[j][0], second)
    expected = _assert_refused_as_reference(rows)
    alone = reference.first_refusal([rows[i] if first != "dropped" else rows[j]])
    assert str(expected) == str(alone)


def _full_model(rng, n):
    """A case of n outcomes whose marginals weigh every outcome."""
    return CaseModel(
        OutcomeSpace(tuple(f"o{i}" for i in range(n)), tuple(map(float, range(n)))),
        DiscreteDistribution(tuple(rng.dirichlet(np.ones(n)).tolist())),
        DiscreteDistribution(tuple(rng.dirichlet(np.ones(n)).tolist())),
        IdentityMoneyMap(),
    )


def _uniform_total(cells, total):
    """`cells` with their mass scaled to sum near `total`."""
    return Cells(cells.rows, cells.cols, cells.mass * (total / cells.mass.sum()), cells.n)


@pytest.mark.parametrize("side", [-1, 1])
def test_a_total_within_rounding_of_its_tolerance(side):
    """Joints of 144 cells, in random order with repeats, whose totals
    step across 1 + side * MASS_SUM_TOL a few ulps at a time: each is
    accepted or refused as the reference decides, as an evidence row of
    a family, as `evidence_coupling` and as `Coupling`."""
    rng = np.random.default_rng(8000 + side)
    model = _full_model(rng, 12)
    cells = _split_cells(rng, np.outer(model.counterfactual.array, model.factual.array))
    assert cells.mass.size >= 64
    ulp = np.spacing(1.0)
    decided = set()
    for step in range(-6, 7):
        joint = _uniform_total(cells, 1.0 + side * MASS_SUM_TOL + step * ulp)
        family = [(model, least_divergence_coupling), (model, joint), (model, independence_coupling)]
        decided.add(_assert_refused_as_reference(family) is None)
        _assert_alone_as_reference(
            lambda: Coupling(model.space, joint), lambda: reference.coupling(model.space, joint)
        )
    # The steps cross the tolerance: some totals pass and some fail.
    assert decided == {True, False}


@pytest.mark.parametrize("line", ["counterfactual", "factual"])
@pytest.mark.parametrize("form", ["dense", "cells"])
def test_a_marginal_within_rounding_of_its_tolerance(form, line):
    """An evidence joint whose counterfactual (or factual) marginal is off
    by MARGINAL_TOL, give or take a few rounding steps: each is accepted
    or refused as the reference decides, in a family and alone."""
    rng = np.random.default_rng(9000 + 2 * FORMS.index(form) + (line == "factual"))
    model = _full_model(rng, 12)
    outer = np.outer(model.counterfactual.array, model.factual.array)
    decided = set()
    # A line sum near 0.1 rounds in steps of about 1.4e-17.
    for step in range(-40, 41, 2):
        shift = MARGINAL_TOL + step * 1e-18
        joint = outer.copy()
        # Moving mass along a column keeps the factual marginal; along a
        # row, the counterfactual one.
        joint[0, 0] -= shift
        joint[(1, 0) if line == "counterfactual" else (0, 1)] += shift
        what = joint if form == "dense" else _split_cells(rng, joint)
        family = [(model, independence_coupling), (model, what), (model, least_divergence_coupling)]
        decided.add(_assert_refused_as_reference(family) is None)
    # The steps cross the tolerance: some marginals pass and some fail.
    assert decided == {True, False}


BUILDERS = ("evidence_coupling", "coupling_from_map", "independence_coupling", "least_divergence_coupling")


@pytest.mark.parametrize("kind", MALFORMED)
def test_a_grid_refuses_without_the_public_builders(kind, monkeypatch):
    """With every public builder raising, under every name a `lostchance`
    module binds it to, a family's grid with a malformed joint still
    raises the reference's error, and one without builds: no coupling is
    checked or refused by a second path."""
    rng = np.random.default_rng(10000 + MALFORMED.index(kind))
    models = _family(rng, 3)
    good = [random_vertex_coupling(rng, m) for m in models]
    evidence = list(good)
    models[1], evidence[1] = _malformed(rng, models[1], kind)
    connections = ("i-c",) if kind == "i-c factor" else ("e-c", "ld-c", "i-c")
    rows = [
        (model, what)
        for model, joint in zip(models, evidence)
        for what in (joint, least_divergence_coupling, independence_coupling)
        if kind != "i-c factor" or what is independence_coupling
    ]
    expected = reference.first_refusal(rows)
    for name in BUILDERS:

        def unreachable(*args, name=name):
            raise AssertionError(f"{name} called")

        for module in [m for key, m in sys.modules.items() if key.startswith("lostchance")]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    combos = [PolicyCombo("h-fi", conn, "cc-i") for conn in ("e-c", "ld-c", "i-c")]
    assert len(build_grid(models[:1] * 3, combos, good[:1] * 3).couplings) == 9
    combos = [PolicyCombo("h-fi", conn, "cc-i") for conn in connections]
    if expected is None:
        build_grid(models, combos, evidence)
        return
    with pytest.raises(type(expected)) as raised:
        build_grid(models, combos, evidence)
    assert str(raised.value) == str(expected)


def test_a_large_grid_builds_no_matrix():
    """A 3000-outcome case under an outcome map, ld-c and i-c builds its
    l-fi grid, whose couplings are most of the build, without an n x n
    array: 72 MB for one, against a 1 MiB peak."""
    n = 3000
    rng = np.random.default_rng(6)
    labels = tuple(f"o{i}" for i in range(n))
    cf = rng.dirichlet(np.ones(n))
    targets = rng.integers(0, n, size=n)
    model = CaseModel(
        OutcomeSpace(labels, tuple(rng.normal(size=n).tolist())),
        DiscreteDistribution(tuple(cf.tolist())),
        DiscreteDistribution(tuple(np.bincount(targets, weights=cf, minlength=n).tolist())),
        IdentityMoneyMap(),
    )
    mapping = {labels[i]: labels[int(t)] for i, t in enumerate(targets)}
    combos = [PolicyCombo("l-fi", conn, "cc-i") for conn in ("e-c", "ld-c", "i-c")]
    build_grid(model, combos, mapping)  # warm every cache
    tracemalloc.start()
    try:
        build = build_grid(model, combos, mapping)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [type(c.cells).__name__ for c in build.couplings] == ["Cells", "Cells", "RankOneCells"]
    assert peak < 1 << 20
