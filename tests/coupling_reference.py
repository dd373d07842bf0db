"""Per-coupling reference for the coupling checks, kept for differential tests.

A frozen copy of the engine's earlier construction, where each coupling
was checked on its own: `evidence_coupling` checked a joint's marginals
on the joint as given, and `Coupling` then sorted and merged its cells,
checked their mass and their total, and took its column moments when
first asked.  The engine now checks every coupling, a lone one or a
grid's, in one pass over a stack; tests hold that pass to this copy on
random cases.  The cell builders (`Cells.from_dense`, `map_cells`,
`comonotone_cells`) and the cell classes are the engine's own, since
they check nothing.

One change from the earlier copy: a caller's `Cells` given as evidence
has its layout and index range checked before its marginals, so an
index out of range is refused by name rather than by a numpy error.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from lostchance.coupling import (
    MARGINAL_TOL,
    MASS_SUM_TOL,
    Cells,
    RankOneCells,
    comonotone_cells,
    independence_coupling,
    least_divergence_coupling,
    map_cells,
)
from lostchance.outcome import CaseModel, OutcomeSpace, read_only


class Reference(NamedTuple):
    """A checked coupling's cells and its column moments."""

    cells: Union[Cells, RankOneCells]
    column_moments: tuple[np.ndarray, np.ndarray]


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


def coupling(space: OutcomeSpace, cells) -> Reference:
    """`Coupling(space, cells)`: the cells checked, and their moments."""
    n = space.size
    if isinstance(cells, RankOneCells):
        a = np.array(cells.row_weights, dtype=float)
        b = np.array(cells.col_weights, dtype=float)
        if a.shape != (n,) or b.shape != (n,):
            raise ValueError(f"joint has shape {(a.size, b.size)}, expected {(n, n)}")
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
            f"coupling cells must be Cells or RankOneCells, not {type(cells).__name__}"
        )
    total = cells.sum()
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise ValueError(f"joint mass sums to {total!r}, not 1")
    return Reference(cells, column_moments(space, cells))


def column_moments(space: OutcomeSpace, cells) -> tuple[np.ndarray, np.ndarray]:
    """(P(O1 = k), E[V0 1{O1 = k}]) for every factual outcome k."""
    v = space.values_array
    if isinstance(cells, RankOneCells):
        a, b = cells.row_weights, cells.col_weights
        v0 = b * float(a @ v)
    else:
        v0 = np.bincount(cells.cols, weights=cells.mass * v[cells.rows], minlength=cells.n)
    return read_only(cells.sum(axis=0)), read_only(v0)


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


def evidence(model: CaseModel, joint) -> Reference:
    """`evidence_coupling(model, joint)`."""
    if isinstance(joint, dict):
        joint = map_cells(model.space, model.counterfactual.array, joint)
    elif not isinstance(joint, Cells):
        joint = np.asarray(joint, dtype=float)
    n = model.space.size
    if joint.shape != (n, n):
        raise ValueError(f"evidence joint has shape {joint.shape}, expected {(n, n)}")
    if isinstance(joint, Cells):
        # The one change: layout and index range before the marginals.
        rows, cols, mass = _sorted_unique(joint, n)
        _check_marginals(model, joint)
        return coupling(model.space, Cells(rows, cols, mass, n))
    _check_marginals(model, joint)
    return coupling(model.space, Cells.from_dense(joint))


def independence(model: CaseModel) -> Reference:
    """`independence_coupling(model)`."""
    return coupling(
        model.space, RankOneCells(model.counterfactual.array, model.factual.array)
    )


def least_divergence(model: CaseModel) -> Reference:
    """`least_divergence_coupling(model)`."""
    v = model.space.values_array
    cells = comonotone_cells(model.counterfactual.array, model.factual.array, v, v)
    return coupling(model.space, cells)


def build(model: CaseModel, what) -> Reference:
    """One `stack_couplings` row, `(model, what)`, built on its own."""
    if what is independence_coupling:
        return independence(model)
    if what is least_divergence_coupling:
        return least_divergence(model)
    return evidence(model, what)


def first_refusal(rows) -> Exception | None:
    """The first error the rows, each built on its own, raise in order."""
    for model, what in rows:
        try:
            build(model, what)
        except Exception as exc:
            return exc
    return None
