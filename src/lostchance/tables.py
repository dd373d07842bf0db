"""Reproduction of the published compensation tables, cell by cell.

Each table row is named by its printed label, and the label names the
family of policy combinations that share the row's printed value per
outcome (see `_members`).  Reproduction evaluates every member of the
family through the engine and compares against the printed value: PASS
when every member matches within tolerance, FLAG when the row matches
but a member's schedule carries a FLAG note (the published
least-divergence table is not cost-minimal), FAIL otherwise.

Symbolic tables (the two-outcome examples) are checked at the supplied
parameters with a 1e-9 relative tolerance.  The prize table prints
one-decimal truncations, so its tolerance is 0.1 absolute.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

from .scenarios import Scenario, medical_malpractice, prize_case, urn_independent, urn_painted
from .valuation import STANDARD_AXES, PolicyCombo, evaluate_grid

SYMBOLIC_TOL = 1e-9
PRINTED_DECIMAL_TOL = 0.1


def _symbolic_tol(printed: float) -> float:
    return SYMBOLIC_TOL * max(1.0, abs(printed))


def _decimal_tol(printed: float) -> float:
    return PRINTED_DECIMAL_TOL


@dataclass(frozen=True)
class TableCell:
    table: str
    row: str
    outcome: str
    computed: float
    printed: float
    tolerance: float
    status: str
    combos: tuple[str, ...] = ()
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("PASS", "FLAG")


_PUBLISHED = {"ld-c (published table)": "paper-table"}


@functools.cache
def _members(label: str) -> tuple[PolicyCombo, ...]:
    """The combinations a printed row label names, in product order.

    " / " separates the information, connection and indemnity axes and
    " or " the policies on one axis; "any" is the axis's standard
    policies, and "LD-C (published table)" is the paper-table connection.
    """
    axes = (
        standard if axis == "any" else [_PUBLISHED.get(p, p) for p in axis.split(" or ")]
        for axis, standard in zip(label.lower().split(" / "), STANDARD_AXES, strict=True)
    )
    return tuple(itertools.starmap(PolicyCombo, itertools.product(*axes)))


def _reproduce(
    scenario: Scenario,
    table: str,
    outcomes: tuple[str, ...],
    rows: list[tuple[str, tuple[float, ...]]],
    tol_for: Callable[[float], float],
) -> list[TableCell]:
    """Every row's cells, from one policy grid over all the rows' members.

    A row is (label, printed value per outcome).  e-c evaluates the
    scenario's evidence, paper-table its published table.
    """
    combos = list(dict.fromkeys(c for label, _ in rows for c in _members(label)))
    grid = evaluate_grid(
        scenario.model,
        combos,
        scenario.evidence_joint,
        paper_table_joint=scenario.paper_table_joint,
    )
    schedule_of = dict(zip(combos, grid))
    # Every schedule of one grid shares its outcome tuple, so each outcome
    # has one position in all of them.
    positions = [grid[0]._index(outcome) for outcome in outcomes]
    cells: list[TableCell] = []
    for label, printed_row in rows:
        members = _members(label)
        descriptors = tuple(c.descriptor for c in members)
        schedules = [schedule_of[c] for c in members]
        values = [s.values for s in schedules]
        flags = "; ".join(dict.fromkeys(n for s in schedules for n in s.flags))
        for outcome, k, printed in zip(outcomes, positions, printed_row, strict=True):
            tolerance = tol_for(printed)
            devs = [abs(v[k] - printed) for v in values]
            worst = max((0.0, *devs))
            if worst > tolerance:
                status = "FAIL"
                worst_combo = descriptors[devs.index(worst)]
                note = f"worst member {worst_combo} deviates by {worst:.3g}"
            else:
                status, note = ("FLAG", flags) if flags else ("PASS", "")
            cells.append(
                TableCell(
                    table=table,
                    row=label,
                    outcome=outcome,
                    computed=values[0][k],
                    printed=printed,
                    tolerance=tolerance,
                    status=status,
                    combos=descriptors,
                    note=note,
                )
            )
    return cells


def _symbolic_table(
    table: str, scenario: Scenario, evidence_like: str
) -> list[TableCell]:
    """A two-outcome table at the scenario's own parameters, from the row
    families all the two-outcome examples share.

    evidence_like says which engine coupling the case's physical evidence
    matches: 'threshold' lumps E-C with LD-C, 'independent' lumps it with
    I-C.
    """
    space, params = scenario.model.space, dict(scenario.params)
    low, high = space.labels
    p0, p1 = params["p0"], params["p1"]
    if p1 <= 0.0:
        raise ValueError(
            f"table {table} needs p1 > 0: at p1 = {p1!r} the outcome {high!r} "
            f"is factually impossible, so its cells have no schedule"
        )
    delta_v = space.values[1] - space.values[0]
    share = (p0 - p1) / (1.0 - p1) * delta_v
    full = (p0 - p1) * delta_v
    unconditional = p0 * delta_v
    rows = [("L-FI / any / any", (full, full))]
    if evidence_like == "threshold":
        rows += [
            ("M-FI or H-FI / E-C or LD-C / CC-I or FM-I", (share, 0.0)),
            ("M-FI or H-FI / I-C / CC-I", (unconditional, 0.0)),
            ("M-FI or H-FI / I-C / FM-I", (share, 0.0)),
        ]
    else:
        rows += [
            ("M-FI or H-FI / E-C or I-C / CC-I", (unconditional, 0.0)),
            ("M-FI or H-FI / E-C or I-C / FM-I", (share, 0.0)),
            ("M-FI or H-FI / LD-C / CC-I or FM-I", (share, 0.0)),
        ]
    return _reproduce(scenario, table, (low, high), rows, _symbolic_tol)


def reproduce_table_2(
    p0: float = 0.95, p1: float = 0.90, delta_v: float = 100_000.0
) -> list[TableCell]:
    """Malpractice table: four symbolic rows over (bad, good)."""
    return _symbolic_table("2", medical_malpractice(p0, p1, delta_v), "threshold")


def reproduce_table_5(
    p0: float = 0.95, p1: float = 0.90, v_red: float = 0.0, v_blue: float = 100_000.0
) -> list[TableCell]:
    """Painted-urn table: evidence follows the threshold coupling."""
    return _symbolic_table("5", urn_painted(p0, p1, v_red, v_blue), "threshold")


def reproduce_table_6(
    p0: float = 0.95, p1: float = 0.90, v_red: float = 0.0, v_blue: float = 100_000.0
) -> list[TableCell]:
    """Independent-urn table: evidence follows the independence coupling."""
    return _symbolic_table("6", urn_independent(p0, p1, v_red, v_blue), "independent")


# The prize table as printed: each row's values for a1..a4.
_PRIZE_ROWS = [
    ("L-FI / any / any", (15.0, 15.0, 15.0, 15.0)),
    ("M-FI / E-C / CC-I", (36.6, 36.6, 0.0, 36.6)),
    ("M-FI / E-C / FM-I", (25.0, 25.0, 0.0, 25.0)),
    ("H-FI / E-C / CC-I", (65.0, 5.0, 0.0, 40.0)),
    ("H-FI / E-C / FM-I", (50.0, 0.0, 0.0, 25.0)),
    ("M-FI or H-FI / LD-C (published table) / CC-I or FM-I", (0.0, 0.0, 37.5, 0.0)),
    ("M-FI / I-C / CC-I", (23.7, 23.7, 23.7, 0.0)),
    ("M-FI / I-C / FM-I", (18.7, 18.7, 18.7, 0.0)),
    ("H-FI / I-C / CC-I", (45.0, 20.0, 15.0, 0.0)),
    ("H-FI / I-C / FM-I", (40.0, 15.0, 10.0, 0.0)),
]


def reproduce_table_4() -> list[TableCell]:
    """Prize table: ten rows over (a1..a4), printed to one decimal.

    The published least-divergence row is reproduced through the
    paper-table connection; it comes out FLAG, since the matrix behind
    it is not cost-minimal.
    """
    outcomes = ("a1", "a2", "a3", "a4")
    return _reproduce(prize_case(), "4", outcomes, _PRIZE_ROWS, _decimal_tol)


TABLES: dict[str, Callable[..., list[TableCell]]] = {
    "2": reproduce_table_2,
    "4": reproduce_table_4,
    "5": reproduce_table_5,
    "6": reproduce_table_6,
}


def reproduce_table(table_id: str, **params) -> list[TableCell]:
    try:
        fn = TABLES[str(table_id)]
    except KeyError:
        raise ValueError(
            f"unknown table {table_id!r}; available: {sorted(TABLES)}"
        ) from None
    return fn(**params)
