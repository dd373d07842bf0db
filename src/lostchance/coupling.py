"""Couplings: joint laws gluing the factual and counterfactual runs.

A coupling is an n x n law of probability mass, rows indexed by the
counterfactual outcome and columns by the factual one.  Row sums must
reproduce the counterfactual marginal and column sums the factual
marginal.  Three constructions are supported:

* evidence: an explicitly supplied matrix (or deterministic outcome map),
  checked against the case marginals;
* independence: the outer product of the marginals;
* least divergence: the joint minimizing the expected squared value gap,
  which for fixed marginals is the comonotone (value-sorted) matching.

A coupling stores only its positive cells (`Cells`): the comonotone
matching has at most 2n - 1 of them and a deterministic map n, so no
construction needs an n x n matrix.  Independence is kept as its two
factors (`RankOneCells`).  The dense matrix is built only on request.

An exhaustive oracle is included for testing: every vertex of the
transportation polytope is a northwest-corner solution under some pair of
row/column orderings, so enumerating orderings finds the exact minimum
for small spaces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .outcome import CaseModel, OutcomeSpace, read_only

# A coupling's total mass must be 1 within this tolerance.
MASS_SUM_TOL = 1e-12
# Row/column sums must match the case marginals within this tolerance.
MARGINAL_TOL = 1e-10

_ORACLE_MAX_OUTCOMES = 6
# Ordering pairs swept at once by the oracle: a 6x6 support has 720 x 720
# of them, and a chunk keeps each working array at 256 KiB.
_ORACLE_CHUNK = 32768


@dataclass(frozen=True, eq=False)
class Cells:
    """An n x n mass matrix given by its listed cells; all others are zero.

    Behaves like the matrix where the engine needs it: `shape`,
    `sum(axis)`, and conversion with `np.asarray`, which adds up repeated
    cells.  A `Coupling` keeps its cells positive, unique and sorted by
    (row, col).
    """

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    n: int

    @classmethod
    def from_dense(cls, joint: np.ndarray) -> "Cells":
        """The non-zero cells of a square matrix, in row-major order."""
        rows, cols = np.nonzero(joint)
        return cls(rows, cols, joint[rows, cols], joint.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def sum(self, axis=None):
        if axis is None:
            return float(self.mass.sum())
        idx = self.cols if axis == 0 else self.rows
        return np.bincount(idx, weights=self.mass, minlength=self.n)

    def column_sums(self, row_values: np.ndarray) -> np.ndarray:
        """sum_i mass[i, k] * row_values[i] for every column k."""
        return np.bincount(
            self.cols, weights=self.mass * row_values[self.rows], minlength=self.n
        )

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        j = np.zeros((self.n, self.n))
        np.add.at(j, (self.rows, self.cols), self.mass)
        return j if dtype is None else j.astype(dtype)


@dataclass(frozen=True, eq=False)
class RankOneCells:
    """The outer product of two weight vectors, kept as its factors.

    Its sums and column moments have closed forms; the explicit cells are
    listed only when asked for.
    """

    row_weights: np.ndarray
    col_weights: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_weights), len(self.col_weights))

    def sum(self, axis=None):
        a, b = self.row_weights, self.col_weights
        if axis is None:
            return float(a.sum() * b.sum())
        return b * a.sum() if axis == 0 else a * b.sum()

    def column_sums(self, row_values: np.ndarray) -> np.ndarray:
        # Independence: the row law is the same in every column.
        return self.col_weights * float(self.row_weights @ row_values)

    @cached_property
    def explicit(self) -> Cells:
        a, b = self.row_weights, self.col_weights
        ia, ib = np.flatnonzero(a), np.flatnonzero(b)
        mass = np.outer(a[ia], b[ib]).ravel()
        keep = mass > 0.0
        return Cells(
            np.repeat(ia, ib.size)[keep], np.tile(ib, ia.size)[keep], mass[keep], len(a)
        )

    @property
    def rows(self) -> np.ndarray:
        return self.explicit.rows

    @property
    def cols(self) -> np.ndarray:
        return self.explicit.cols

    @property
    def mass(self) -> np.ndarray:
        return self.explicit.mass

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        j = np.outer(self.row_weights, self.col_weights)
        return j if dtype is None else j.astype(dtype)


def _sorted_unique(cells: Cells, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copies of the cells' arrays, checked to lie in the n x n joint,
    sorted by (row, col), with repeated cells added up."""
    rows = np.array(cells.rows, dtype=np.intp)
    cols = np.array(cells.cols, dtype=np.intp)
    mass = np.array(cells.mass, dtype=float)
    if cells.n != n:
        raise ValueError(f"joint has shape {cells.shape}, expected {(n, n)}")
    if not (rows.ndim == cols.ndim == mass.ndim == 1) or not (
        rows.size == cols.size == mass.size
    ):
        raise ValueError("cells need one row, column and mass per cell")
    if rows.size:
        # Viewed as unsigned, a negative index is huge, so one bound
        # per side catches both ends.
        if max(rows.view(np.uintp).max(), cols.view(np.uintp).max()) >= n:
            raise ValueError(f"cell index out of range for a {n}x{n} joint")
        key = rows * n + cols
        if (key[1:] <= key[:-1]).any():
            order = np.argsort(key, kind="stable")
            key, mass = key[order], mass[order]
            if (key[1:] == key[:-1]).any():
                key, first = np.unique(key, return_index=True)
                mass = np.add.reduceat(mass, first)
            rows, cols = np.divmod(key, n)
    return rows, cols, mass


def _positive(rows: np.ndarray, cols: np.ndarray, mass: np.ndarray, n: int) -> Cells:
    """Read-only cells after the mass checks; mass within 1e-15 below zero
    counts as zero and is dropped with the zero cells."""
    if not np.isfinite(mass).all():
        raise ValueError("joint contains non-finite mass")
    positive = mass > 0.0
    if not positive.all():
        negative = mass < -1e-15
        if negative.any():
            c = int(negative.argmax())
            raise ValueError(f"negative mass {float(mass[c])!r} at ({rows[c]}, {cols[c]})")
        rows, cols, mass = rows[positive], cols[positive], mass[positive]
    return Cells(read_only(rows), read_only(cols), read_only(mass), n)


@dataclass(frozen=True, eq=False)
class Coupling:
    """Joint law over (counterfactual outcome, factual outcome).

    `cells` is `Cells` or `RankOneCells`; validation stores it as
    positive `Cells` sorted by (row, col), or keeps a valid rank-one law
    as its factors; either kind's total mass must be 1 within
    `MASS_SUM_TOL`.  A dense matrix or an outcome map enters through
    `evidence_coupling`.
    """

    space: OutcomeSpace
    cells: Union[Cells, RankOneCells]

    def __post_init__(self) -> None:
        n = self.space.size
        cells = self.cells
        if isinstance(cells, RankOneCells):
            a = np.array(cells.row_weights, dtype=float)
            b = np.array(cells.col_weights, dtype=float)
            if a.shape != (n,) or b.shape != (n,):
                raise ValueError(
                    f"joint has shape {(a.size, b.size)}, expected {(n, n)}"
                )
            for name, w in (("row_weights", a), ("col_weights", b)):
                bad = ~(np.isfinite(w) & (w >= 0.0))
                if bad.any():
                    i = int(bad.argmax())
                    raise ValueError(
                        f"rank-one {name}[{i}] is {float(w[i])!r}, "
                        f"not a finite non-negative weight"
                    )
            cells = RankOneCells(read_only(a), read_only(b))
        elif isinstance(cells, Cells):
            cells = _positive(*_sorted_unique(cells, n), n)
        else:
            raise TypeError(
                f"coupling cells must be Cells or RankOneCells, "
                f"not {type(cells).__name__}"
            )
        total = cells.sum()
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"joint mass sums to {total!r}, not 1")
        object.__setattr__(self, "cells", cells)

    @cached_property
    def joint(self) -> np.ndarray:
        """The dense n x n matrix, built on first use and read-only."""
        return read_only(np.asarray(self.cells, dtype=float))

    @property
    def counterfactual_marginal(self) -> np.ndarray:
        return self.cells.sum(axis=1)

    @property
    def factual_marginal(self) -> np.ndarray:
        return self.column_moments[0]

    @cached_property
    def column_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(P(O1 = k), E[V0 1{O1 = k}]) for every factual outcome k."""
        v = self.space.values_array
        return (
            read_only(self.cells.sum(axis=0)),
            read_only(self.cells.column_sums(v)),
        )


def transport_cost(coupling: Coupling) -> float:
    """Expected squared value gap E[(V0 - V1)^2] under the coupling.  A
    gap past about 1.3e154 squares past a float, and the cost is then
    inf, without a warning."""
    v = coupling.space.values_array
    c = coupling.cells
    with np.errstate(over="ignore"):
        d = v[c.rows] - v[c.cols]
        return float(c.mass @ (d * d))


def _check_marginals(model: CaseModel, joint) -> None:
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    cf = model.counterfactual.array
    f = model.factual.array
    labels = model.space.labels
    off = np.abs(rows - cf) > MARGINAL_TOL
    if off.any():
        i = int(off.argmax())
        raise ValueError(
            f"counterfactual marginal mismatch at row {i} ({labels[i]!r}): "
            f"coupling gives {float(rows[i])!r}, case says {float(cf[i])!r}"
        )
    off = np.abs(cols - f) > MARGINAL_TOL
    if off.any():
        k = int(off.argmax())
        raise ValueError(
            f"factual marginal mismatch at column {k} ({labels[k]!r}): "
            f"coupling gives {float(cols[k])!r}, case says {float(f[k])!r}"
        )


def evidence_coupling(model: CaseModel, joint) -> Coupling:
    """Wrap an explicitly supplied joint, checking it against the case.

    The joint is `Cells` or a dense matrix; this is where a matrix
    becomes a coupling's cells.
    """
    if not isinstance(joint, Cells):
        joint = np.asarray(joint, dtype=float)
    n = model.space.size
    if joint.shape != (n, n):
        raise ValueError(f"evidence joint has shape {joint.shape}, expected {(n, n)}")
    _check_marginals(model, joint)
    if not isinstance(joint, Cells):
        joint = Cells.from_dense(joint)
    return Coupling(model.space, joint)


def map_cells(space: OutcomeSpace, weights, mapping: dict[str, str]) -> Cells:
    """Cells of a deterministic outcome map: each source outcome sends its
    whole weight to the outcome it maps to."""
    at = space.positions.__getitem__
    try:
        rows = np.fromiter(map(at, mapping), np.intp, len(mapping))
        cols = np.fromiter(map(at, mapping.values()), np.intp, len(mapping))
    except KeyError as exc:
        raise KeyError(f"unknown outcome label {exc.args[0]!r}") from None
    return Cells(rows, cols, np.asarray(weights, dtype=float)[rows], space.size)


def coupling_from_map(model: CaseModel, mapping: dict[str, str]) -> Coupling:
    """Expand a deterministic counterfactual-to-factual outcome map.

    Each counterfactual outcome sends its whole mass to one factual
    outcome.  The map's cells then enter through `evidence_coupling`,
    as a file's map does, so a map that leaves out a weighted
    counterfactual outcome is refused by the marginal check, which names
    that outcome.
    """
    cells = map_cells(model.space, model.counterfactual.array, mapping)
    return evidence_coupling(model, cells)


def independence_coupling(model: CaseModel) -> Coupling:
    """Outer product of the marginals: the runs share no information."""
    return Coupling(
        model.space, RankOneCells(model.counterfactual.array, model.factual.array)
    )


def northwest_corner(row_order, col_order, row_mass, col_mass) -> Cells:
    """Cells of the northwest-corner solution, in sweep order.

    Rows and columns are filled greedily in the given orders, so each
    cell ends a row or a column and there are fewer than
    len(row_order) + len(col_order) of them.  A remainder at or below
    1e-15 counts as exhausted.
    """
    rows: list[int] = []
    cols: list[int] = []
    masses: list[float] = []
    nr, nc = len(row_order), len(col_order)
    ri = ci = 0
    r_rem = row_mass[row_order[0]] if nr else 0.0
    c_rem = col_mass[col_order[0]] if nc else 0.0
    while ri < nr and ci < nc:
        take = r_rem if r_rem < c_rem else c_rem
        if take > 0.0:
            rows.append(row_order[ri])
            cols.append(col_order[ci])
            masses.append(take)
        r_rem -= take
        c_rem -= take
        if r_rem <= 1e-15:
            ri += 1
            if ri < nr:
                r_rem = row_mass[row_order[ri]]
        if c_rem <= 1e-15:
            ci += 1
            if ci < nc:
                c_rem = col_mass[col_order[ci]]
    return Cells(
        np.array(rows, dtype=np.intp),
        np.array(cols, dtype=np.intp),
        np.array(masses, dtype=float),
        len(row_mass),
    )


def _sorted_support(keys: np.ndarray, weights: np.ndarray) -> list[int]:
    # A stable sort on the key keeps equal-keyed entries in index order.
    support = (weights > 0.0).nonzero()[0]
    return support[np.argsort(keys[support], kind="stable")].tolist()


def comonotone_cells(row_weights, col_weights, row_keys, col_keys) -> Cells:
    """Cells pairing two marginals in increasing key order.

    Both supports are swept lowest key first, matching mass greedily, so
    high row keys land on high column keys.  Key ties are broken by index
    order, which pins down one matrix when several qualify.
    """
    rw = np.asarray(row_weights, dtype=float)
    cw = np.asarray(col_weights, dtype=float)
    return northwest_corner(
        _sorted_support(np.asarray(row_keys, dtype=float), rw),
        _sorted_support(np.asarray(col_keys, dtype=float), cw),
        rw.tolist(),
        cw.tolist(),
    )


def least_divergence_coupling(model: CaseModel) -> Coupling:
    """Comonotone matching: sort both supports by value and sweep.

    Among all joints with the case marginals this minimizes the expected
    squared value gap.  Value ties are broken by label order, which pins
    down one minimizer when several exist.
    """
    v = model.space.values_array
    cells = comonotone_cells(model.counterfactual.array, model.factual.array, v, v)
    return Coupling(model.space, cells)


def _nw_costs(
    row_perms: np.ndarray,
    col_perms: np.ndarray,
    pairs: np.ndarray,
    row_mass: np.ndarray,
    col_mass: np.ndarray,
    sq: np.ndarray,
) -> np.ndarray:
    """Northwest-corner cost of every (row order, column order) pair.

    Pair p sweeps rows in `row_perms[p // C]` and columns in
    `col_perms[p % C]`, C = len(col_perms).  All pairs step together, one
    cell per step, each with the sweep's own arithmetic: the smaller
    remainder is taken, a remainder at or below 1e-15 counts as exhausted,
    and a sweep stops when its rows or columns run out (rows checked
    first).  Finished pairs add nothing more, so every cost is the sum of
    the same terms in the same order as one sweep on its own.
    """
    nr, nc = row_perms.shape[1], col_perms.shape[1]
    a, b = np.divmod(pairs, len(col_perms))
    ri = np.zeros(pairs.size, dtype=np.intp)
    ci = np.zeros(pairs.size, dtype=np.intp)
    r_rem = row_mass[row_perms[a, 0]]
    c_rem = col_mass[col_perms[b, 0]]
    cost = np.zeros(pairs.size)
    live = np.ones(pairs.size, dtype=bool)
    # Each step exhausts a row or a column, so no sweep runs longer.
    for _ in range(nr + nc - 1):
        take = np.where(r_rem < c_rem, r_rem, c_rem)
        cell = sq[row_perms[a, ri], col_perms[b, ci]]
        cost += np.where(live, take * cell, 0.0)
        r_rem -= take
        c_rem -= take
        r_out = live & (r_rem <= 1e-15)
        ri += r_out
        live &= ri < nr
        c_out = live & (c_rem <= 1e-15)
        ci += c_out
        live &= ci < nc
        if not live.any():
            break
        r_out &= live
        c_out &= live
        r_rem[r_out] = row_mass[row_perms[a[r_out], ri[r_out]]]
        c_rem[c_out] = col_mass[col_perms[b[c_out], ci[c_out]]]
        # Finished sweeps keep their last index in range for the lookups.
        np.minimum(ri, nr - 1, out=ri)
        np.minimum(ci, nc - 1, out=ci)
    return cost


def oracle_min_cost(model: CaseModel) -> tuple[Coupling, float]:
    """Exact minimum transport cost by enumerating polytope vertices.

    Every basic feasible solution of a transportation problem is the
    northwest-corner solution under some ordering of rows and columns, so
    trying all ordering pairs visits every vertex.  The pairs are swept
    as arrays, a chunk at a time; the first minimum in
    `itertools.permutations` order wins.  Factorial blowup limits this to
    supports of at most 6 outcomes per side; larger models are refused.
    """
    v = model.space.values
    row_sup = list(model.counterfactual.support())
    col_sup = list(model.factual.support())
    if len(row_sup) > _ORACLE_MAX_OUTCOMES or len(col_sup) > _ORACLE_MAX_OUTCOMES:
        raise ValueError(
            f"oracle refuses support sizes {len(row_sup)}x{len(col_sup)}; "
            f"enumeration is exhaustive only up to "
            f"{_ORACLE_MAX_OUTCOMES}x{_ORACLE_MAX_OUTCOMES}"
        )
    row_mass = [float(w) for w in model.counterfactual.weights]
    col_mass = [float(w) for w in model.factual.weights]
    sq = np.array([[(a - b) ** 2 for b in v] for a in v])
    row_perms = np.array(list(itertools.permutations(row_sup)), dtype=np.intp)
    col_perms = np.array(list(itertools.permutations(col_sup)), dtype=np.intp)
    rm, cm = np.array(row_mass), np.array(col_mass)
    total = len(row_perms) * len(col_perms)
    best = math.inf
    best_pair = -1
    for lo in range(0, total, _ORACLE_CHUNK):
        pairs = np.arange(lo, min(lo + _ORACLE_CHUNK, total))
        costs = _nw_costs(row_perms, col_perms, pairs, rm, cm, sq)
        i = int(costs.argmin())
        if costs[i] < best:
            best = float(costs[i])
            best_pair = lo + i
    assert best_pair >= 0
    a, b = divmod(best_pair, len(col_perms))
    cells = northwest_corner(
        row_perms[a].tolist(), col_perms[b].tolist(), row_mass, col_mass
    )
    return Coupling(model.space, cells), best
