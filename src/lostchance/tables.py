"""Reproduction of the published compensation tables, cell by cell.

Each table row names a family of policy combinations that share one
printed value per outcome.  Reproduction evaluates every member of the
family through the engine and compares against the printed value: PASS
when every member matches within tolerance, FLAG when the row matches
but carries a documented caveat (the published least-divergence table is
not cost-minimal), FAIL otherwise.

Symbolic tables (the two-outcome examples) are checked at the supplied
parameters with a 1e-9 relative tolerance.  The prize table prints
one-decimal truncations, so its tolerance is 0.1 absolute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .scenarios import Scenario, medical_malpractice, prize_case, urn_independent, urn_painted
from .valuation import CompensationSchedule, PolicyCombo, evaluate_grid

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


@dataclass(frozen=True)
class _Row:
    label: str
    members: tuple[PolicyCombo, ...]
    printed: dict[str, float]
    flagged: bool = False


def _reproduce(
    scenario: Scenario,
    rows: list[_Row],
    table: str,
    tol_for: Callable[[float], float],
) -> list[TableCell]:
    """Every row's cells, from one policy grid over all the rows' members.

    e-c evaluates the scenario's evidence, paper-table its published table.
    """
    combos = list(dict.fromkeys(c for row in rows for c in row.members))
    grid = evaluate_grid(
        scenario.model,
        combos,
        scenario.evidence_joint,
        paper_table_joint=scenario.paper_table_joint,
    )
    schedule_of = dict(zip(combos, grid))
    cells: list[TableCell] = []
    for row in rows:
        members = [(c, schedule_of[c]) for c in row.members]
        cells.extend(_evaluate_row(row, table, tol_for, members))
    return cells


def _evaluate_row(
    row: _Row,
    table: str,
    tol_for: Callable[[float], float],
    schedules: list[tuple[PolicyCombo, CompensationSchedule]],
) -> list[TableCell]:
    cells: list[TableCell] = []
    for outcome, printed in row.printed.items():
        tolerance = tol_for(printed)
        worst = 0.0
        worst_combo = schedules[0][0].descriptor
        computed = schedules[0][1].value_for(outcome)
        for combo, schedule in schedules:
            dev = abs(schedule.value_for(outcome) - printed)
            if dev > worst:
                worst = dev
                worst_combo = combo.descriptor
        if worst > tolerance:
            status = "FAIL"
            note = f"worst member {worst_combo} deviates by {worst:.3g}"
        elif row.flagged:
            status = "FLAG"
            note = "; ".join(
                dict.fromkeys(
                    n
                    for _, s in schedules
                    for n in s.notes
                    if n.startswith("FLAG")
                )
            )
        else:
            status = "PASS"
            note = ""
        cells.append(
            TableCell(
                table=table,
                row=row.label,
                outcome=outcome,
                computed=computed,
                printed=printed,
                tolerance=tolerance,
                status=status,
                combos=tuple(c.descriptor for c, _ in schedules),
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
    delta_v = space.values[1] - space.values[0]
    share = (p0 - p1) / (1.0 - p1) * delta_v
    full = (p0 - p1) * delta_v
    unconditional = p0 * delta_v
    infos = ("m-fi", "h-fi")
    l_fi_members = tuple(
        PolicyCombo("l-fi", conn, indem)
        for conn in ("e-c", "ld-c", "i-c")
        for indem in ("cc-i", "fm-i")
    )
    rows = [
        _Row(
            "L-FI / any / any",
            l_fi_members,
            {low: full, high: full},
        )
    ]
    if evidence_like == "threshold":
        rows += [
            _Row(
                "M-FI or H-FI / E-C or LD-C / CC-I or FM-I",
                tuple(
                    PolicyCombo(info, conn, indem)
                    for info in infos
                    for conn in ("e-c", "ld-c")
                    for indem in ("cc-i", "fm-i")
                ),
                {low: share, high: 0.0},
            ),
            _Row(
                "M-FI or H-FI / I-C / CC-I",
                tuple(PolicyCombo(info, "i-c", "cc-i") for info in infos),
                {low: unconditional, high: 0.0},
            ),
            _Row(
                "M-FI or H-FI / I-C / FM-I",
                tuple(PolicyCombo(info, "i-c", "fm-i") for info in infos),
                {low: share, high: 0.0},
            ),
        ]
    else:
        rows += [
            _Row(
                "M-FI or H-FI / E-C or I-C / CC-I",
                tuple(
                    PolicyCombo(info, conn, "cc-i")
                    for info in infos
                    for conn in ("e-c", "i-c")
                ),
                {low: unconditional, high: 0.0},
            ),
            _Row(
                "M-FI or H-FI / E-C or I-C / FM-I",
                tuple(
                    PolicyCombo(info, conn, "fm-i")
                    for info in infos
                    for conn in ("e-c", "i-c")
                ),
                {low: share, high: 0.0},
            ),
            _Row(
                "M-FI or H-FI / LD-C / CC-I or FM-I",
                tuple(
                    PolicyCombo(info, "ld-c", indem)
                    for info in infos
                    for indem in ("cc-i", "fm-i")
                ),
                {low: share, high: 0.0},
            ),
        ]
    return _reproduce(scenario, rows, table, _symbolic_tol)


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


def reproduce_table_4() -> list[TableCell]:
    """Prize table: ten rows over (a1..a4), printed to one decimal.

    The published least-divergence row is reproduced through the
    paper-table connection and flagged, since the matrix behind it is
    not cost-minimal.
    """
    rows = [
        _Row(
            "L-FI / any / any",
            tuple(
                PolicyCombo("l-fi", conn, indem)
                for conn in ("e-c", "ld-c", "i-c")
                for indem in ("cc-i", "fm-i")
            ),
            {"a1": 15.0, "a2": 15.0, "a3": 15.0, "a4": 15.0},
        ),
        _Row(
            "M-FI / E-C / CC-I",
            (PolicyCombo("m-fi", "e-c", "cc-i"),),
            {"a1": 36.6, "a2": 36.6, "a3": 0.0, "a4": 36.6},
        ),
        _Row(
            "M-FI / E-C / FM-I",
            (PolicyCombo("m-fi", "e-c", "fm-i"),),
            {"a1": 25.0, "a2": 25.0, "a3": 0.0, "a4": 25.0},
        ),
        _Row(
            "H-FI / E-C / CC-I",
            (PolicyCombo("h-fi", "e-c", "cc-i"),),
            {"a1": 65.0, "a2": 5.0, "a3": 0.0, "a4": 40.0},
        ),
        _Row(
            "H-FI / E-C / FM-I",
            (PolicyCombo("h-fi", "e-c", "fm-i"),),
            {"a1": 50.0, "a2": 0.0, "a3": 0.0, "a4": 25.0},
        ),
        _Row(
            "M-FI or H-FI / LD-C (published table) / CC-I or FM-I",
            tuple(
                PolicyCombo(info, "paper-table", indem)
                for info in ("m-fi", "h-fi")
                for indem in ("cc-i", "fm-i")
            ),
            {"a1": 0.0, "a2": 0.0, "a3": 37.5, "a4": 0.0},
            flagged=True,
        ),
        _Row(
            "M-FI / I-C / CC-I",
            (PolicyCombo("m-fi", "i-c", "cc-i"),),
            {"a1": 23.7, "a2": 23.7, "a3": 23.7, "a4": 0.0},
        ),
        _Row(
            "M-FI / I-C / FM-I",
            (PolicyCombo("m-fi", "i-c", "fm-i"),),
            {"a1": 18.7, "a2": 18.7, "a3": 18.7, "a4": 0.0},
        ),
        _Row(
            "H-FI / I-C / CC-I",
            (PolicyCombo("h-fi", "i-c", "cc-i"),),
            {"a1": 45.0, "a2": 20.0, "a3": 15.0, "a4": 0.0},
        ),
        _Row(
            "H-FI / I-C / FM-I",
            (PolicyCombo("h-fi", "i-c", "fm-i"),),
            {"a1": 40.0, "a2": 15.0, "a3": 10.0, "a4": 0.0},
        ),
    ]
    return _reproduce(prize_case(), rows, "4", _decimal_tol)


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
