"""Output checks, computed apart from the engine with the benchmark's own numpy.

Nothing here imports the engine.  Every check reads the case file (or the
paper's published numbers) and the command's printed output, and returns
a list of problems; an empty list means the output is correct.  The
self-test in selftest.py corrupts one value of a real output per check and
shows that the check then reports a problem.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from corpus import crra_value

# Compensation and award tolerances, relative to the case's value and money
# scale.  Round-off in the engine is many orders of magnitude smaller; a
# wrong formula is many orders larger.
VALUE_RTOL = 1e-7
MONEY_RTOL = 1e-7


# -- money maps --------------------------------------------------------------


def to_money(spec: dict, value: np.ndarray) -> np.ndarray:
    """Money equivalent of values under a case file's money map."""
    v = np.asarray(value, dtype=float)
    kind = spec["kind"]
    if kind == "identity":
        return v
    if kind == "crra":
        theta = float(spec["theta"])
        if abs(1.0 - theta) < 1e-9:
            return np.exp(v)
        eps = 1.0 - theta
        return np.power(1.0 + eps * v, 1.0 / eps)
    xs = np.array([p[0] for p in spec["points"]], dtype=float)
    ms = np.array([p[1] for p in spec["points"]], dtype=float)
    return np.interp(v, xs, ms)


# -- the flattened case a schedule is computed on ----------------------------


@dataclass
class Flat:
    """Outcome space, both marginals and the evidence's conditional means."""

    labels: list
    values: np.ndarray
    cf: np.ndarray
    f: np.ndarray
    money: dict
    # E[V0 | O1 = k] under the evidence coupling; NaN off the factual support.
    evidence_means: Optional[np.ndarray]

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.f > 0.0)

    @property
    def mean_gap(self) -> float:
        return float(self.cf @ self.values - self.f @ self.values)

    @property
    def value_tol(self) -> float:
        return VALUE_RTOL * max(1.0, float(np.max(np.abs(self.values))))

    @property
    def money_tol(self) -> float:
        m = to_money(self.money, self.values)
        return MONEY_RTOL * max(1.0, float(np.max(np.abs(m))))


def comonotone_means(row_w, row_v, col_w, col_v) -> np.ndarray:
    """E[row value | column k] under the increasing (quantile) matching.

    Both supports are sorted by value, ties by index.  The integral of the
    row quantile function over column k's quantile interval, divided by
    the column's mass, is the conditional mean.  NaN where col_w is 0.
    """
    row_w, row_v = np.asarray(row_w, float), np.asarray(row_v, float)
    col_w, col_v = np.asarray(col_w, float), np.asarray(col_v, float)
    ro = [i for i in np.lexsort((np.arange(row_v.size), row_v)) if row_w[i] > 0]
    co = [j for j in np.lexsort((np.arange(col_v.size), col_v)) if col_w[j] > 0]
    knots = np.concatenate([[0.0], np.cumsum(row_w[ro])])
    area = np.concatenate([[0.0], np.cumsum(row_w[ro] * row_v[ro])])
    edges = np.concatenate([[0.0], np.cumsum(col_w[co])])
    out = np.full(col_w.size, np.nan)
    out[co] = np.diff(np.interp(edges, knots, area)) / col_w[co]
    return out


def comonotone_cost(row_w, col_w, values) -> float:
    """Expected squared value gap of the increasing matching."""
    row_w, col_w = np.asarray(row_w, float), np.asarray(col_w, float)
    v = np.asarray(values, float)
    ro = [i for i in np.argsort(v, kind="stable") if row_w[i] > 0]
    co = [j for j in np.argsort(v, kind="stable") if col_w[j] > 0]
    r_edges = np.cumsum(row_w[ro])
    c_edges = np.cumsum(col_w[co])
    cuts = np.unique(np.concatenate([[0.0], r_edges, c_edges]))
    cuts = cuts[cuts <= min(r_edges[-1], c_edges[-1])]
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    q0 = v[np.array(ro)[np.searchsorted(r_edges, mids)]]
    q1 = v[np.array(co)[np.searchsorted(c_edges, mids)]]
    return float(np.sum(np.diff(cuts) * (q0 - q1) ** 2))


def flat_outcome(data: dict) -> Flat:
    labels = [o["label"] for o in data["outcomes"]]
    v = np.array([float(o["value"]) for o in data["outcomes"]])
    cf = np.array([float(data["counterfactual"].get(lab, 0.0)) for lab in labels])
    f = np.array([float(data["factual"].get(lab, 0.0)) for lab in labels])
    means = None
    ev = data.get("evidence_coupling")
    if ev is not None and "matrix" in ev:
        joint = np.array(ev["matrix"], dtype=float)
        mass = joint.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(mass > 0, joint.T @ v / mass, np.nan)
    elif ev is not None:
        index = {lab: i for i, lab in enumerate(labels)}
        src = np.array([index[s] for s in ev["map"]])
        dst = np.array([index[d] for d in ev["map"].values()])
        mass = np.bincount(dst, weights=cf[src], minlength=v.size)
        total = np.bincount(dst, weights=cf[src] * v[src], minlength=v.size)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(mass > 0, total / mass, np.nan)
    return Flat(labels, v, cf, f, data["money"], means)


def flat_choice(data: dict, presumption: Optional[str]) -> Flat:
    """The pair-space case the engine evaluates, derived from the file.

    The counterfactual choice is the evidence, or the best dutiful choice
    (highest counterfactual mean value; ties to the factual choice, then
    to the earliest) when the presumption supplies it.  Results are
    joined per counterfactual choice by the supplied coupling, or else by
    the increasing matching in value order.
    """
    b = data["choice"]
    choices, results = b["choices"], b["results"]
    vals = np.array(b["values"], dtype=float)
    cfc = np.array(
        [[float(b["result_given_choice_counterfactual"][c].get(r, 0.0)) for r in results]
         for c in choices]
    )
    ffc = np.array(
        [[float(b["result_given_choice_factual"][c].get(r, 0.0)) for r in results]
         for c in choices]
    )
    fc = choices.index(b["factual_choice"])
    scores = (cfc * vals).sum(axis=1)
    dutiful = [i for i, c in enumerate(choices) if c in b["duty"]]
    best = max(scores[i] for i in dutiful)
    scale = max(1.0, float(np.max(np.abs(vals))))
    tied = [i for i in dutiful if scores[i] >= best - 1e-12 * scale]
    pick = fc if fc in tied else tied[0]
    evidence = b["counterfactual_choice"]
    if presumption == "ii-cp" or (presumption == "it-cp" and evidence is None):
        pi = np.zeros(len(choices))
        pi[pick] = 1.0
    else:
        pi = np.array([float(evidence.get(c, 0.0)) for c in choices])
    supplied = b.get("result_couplings") or {}
    num = np.zeros(len(results))
    den = np.zeros(len(results))
    for i, c in enumerate(choices):
        if pi[i] <= 0.0:
            continue
        if c in supplied:
            k = np.array(supplied[c], dtype=float)
            num += pi[i] * (k.T @ vals[i])
            den += pi[i] * k.sum(axis=0)
        else:
            means = comonotone_means(cfc[i], vals[i], ffc[fc], vals[fc])
            num += pi[i] * np.nan_to_num(means) * ffc[fc]
            den += pi[i] * ffc[fc]
    f = np.zeros((len(choices), len(results)))
    f[fc] = ffc[fc]
    with np.errstate(invalid="ignore", divide="ignore"):
        block = np.where(den > 0, num / den, np.nan)
    means = np.full(f.shape, np.nan)
    means[fc] = block
    return Flat(
        labels=[f"{c}|{r}" for c in choices for r in results],
        values=vals.ravel(),
        cf=(pi[:, None] * cfc).ravel(),
        f=f.ravel(),
        money=data["money"],
        evidence_means=means.ravel(),
    )


def flat_case(data: dict, presumption: Optional[str]) -> Flat:
    return flat_choice(data, presumption) if "choice" in data else flat_outcome(data)


# -- parsing `evaluate --csv` ------------------------------------------------


@dataclass
class Schedule:
    labels: list
    x: np.ndarray
    award: np.ndarray


def parse_evaluate(stdout: str) -> tuple[dict, list]:
    """Schedules by policy descriptor, and the '#' note lines."""
    lines = stdout.splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")]
    notes = [ln for ln in lines if ln.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(rows))))
    if not table or table[0] != ["policy", "outcome", "compensation", "award"]:
        raise ValueError(f"unexpected CSV header {table[:1]!r}")
    raw: dict = {}
    for policy, outcome, x, award in table[1:]:
        raw.setdefault(policy, []).append((outcome, float(x), float(award)))
    scheds = {
        p: Schedule(
            [r[0] for r in rs],
            np.array([r[1] for r in rs]),
            np.array([r[2] for r in rs]),
        )
        for p, rs in raw.items()
    }
    return scheds, notes


# -- properties every schedule must have -------------------------------------

Property = Callable[[Flat, dict], list]


def _split(policy: str) -> tuple[str, str, str]:
    info, conn, indem = policy.split("/")
    return info, conn, indem


def _compare(name: str, policy: str, labels, got, want, tol) -> list:
    bad = np.flatnonzero(~(np.abs(np.asarray(got) - np.asarray(want)) <= tol))
    return [
        f"{name}: {policy} {labels[i]} is {got[i]!r}, expected {want[i]!r}"
        for i in bad[:3]
    ]


def prop_cc_covers_fm(flat: Flat, scheds: dict) -> list:
    """cc-i never pays less than fm-i under the same information and coupling."""
    out = []
    for policy, s in scheds.items():
        info, conn, indem = _split(policy)
        twin = scheds.get(f"{info}/{conn}/fm-i")
        if indem != "cc-i" or twin is None:
            continue
        bad = np.flatnonzero(s.x < twin.x - flat.value_tol)
        out += [
            f"cc-covers-fm: {policy} pays {s.x[i]!r} at {s.labels[i]}, fm-i "
            f"pays {twin.x[i]!r}"
            for i in bad[:3]
        ]
    return out


def prop_lfi_flat(flat: Flat, scheds: dict) -> list:
    """l-fi/cc-i pays max(0, E[V0] - E[V1]) to every outcome."""
    want = max(0.0, flat.mean_gap)
    return [
        p
        for policy, s in scheds.items()
        if policy.startswith("l-fi/") and policy.endswith("/cc-i")
        for p in _compare(
            "l-fi-flat", policy, s.labels, s.x, np.full(s.x.size, want), flat.value_tol
        )
    ]


def prop_hfi_independent(flat: Flat, scheds: dict) -> list:
    """h-fi/i-c/cc-i pays max(0, E[V0] - v_k)."""
    s = scheds.get("h-fi/i-c/cc-i")
    if s is None:
        return []
    m0 = float(flat.cf @ flat.values)
    want = np.maximum(0.0, m0 - flat.values[flat.support])
    return _compare("h-fi-independent", "h-fi/i-c/cc-i", s.labels, s.x, want, flat.value_tol)


def prop_hfi_evidence(flat: Flat, scheds: dict) -> list:
    """h-fi/e-c/cc-i gaps are the evidence coupling's column means."""
    s = scheds.get("h-fi/e-c/cc-i")
    if s is None or flat.evidence_means is None:
        return []
    sup = flat.support
    want = np.maximum(0.0, flat.evidence_means[sup] - flat.values[sup])
    return _compare("h-fi-evidence", "h-fi/e-c/cc-i", s.labels, s.x, want, flat.value_tol)


def prop_hfi_comonotone(flat: Flat, scheds: dict) -> list:
    """h-fi/ld-c/cc-i gaps come from the quantile-merge matching (no ties)."""
    s = scheds.get("h-fi/ld-c/cc-i")
    used = flat.values[(flat.cf > 0) | (flat.f > 0)]
    if s is None or np.unique(used).size < used.size:
        return []
    means = comonotone_means(flat.cf, flat.values, flat.f, flat.values)
    sup = flat.support
    want = np.maximum(0.0, means[sup] - flat.values[sup])
    return _compare("h-fi-comonotone", "h-fi/ld-c/cc-i", s.labels, s.x, want, flat.value_tol)


def prop_fm_mean(flat: Flat, scheds: dict) -> list:
    """The expected fm-i payout equals the positive part of the mean gap."""
    want = max(0.0, flat.mean_gap)
    f = flat.f[flat.support]
    out = []
    for policy, s in scheds.items():
        if policy.endswith("/fm-i"):
            got = float(f @ s.x)
            if not abs(got - want) <= flat.value_tol:
                out.append(f"fm-mean: {policy} expected payout {got!r}, mean gap {want!r}")
    return out


def prop_awards(flat: Flat, scheds: dict) -> list:
    """Awards invert the money map: M(v_k + x_k) - M(v_k).

    A table fixes M only between its first and last point, so an award
    whose lifted value lies past the table has no closed form to meet.
    """
    v = flat.values[flat.support]
    out = []
    for policy, s in scheds.items():
        want = to_money(flat.money, v + s.x) - to_money(flat.money, v)
        if flat.money["kind"] == "tabulated":
            top = max(p[0] for p in flat.money["points"])
            want = np.where(v + s.x > top, s.award, want)
        out += _compare("award", policy, s.labels, s.award, want, flat.money_tol)
    return out


PROPERTIES: dict[str, Property] = {
    "cc-covers-fm": prop_cc_covers_fm,
    "l-fi-flat": prop_lfi_flat,
    "h-fi-independent": prop_hfi_independent,
    "h-fi-evidence": prop_hfi_evidence,
    "h-fi-comonotone": prop_hfi_comonotone,
    "fm-mean": prop_fm_mean,
    "award": prop_awards,
}


def expected_policies(data: dict, combos: list, all_policies: bool) -> list:
    has_evidence = "choice" in data or "evidence_coupling" in data
    return [
        "/".join(c)
        for c in combos
        if has_evidence or not all_policies or c[1] != "e-c"
    ]


def check_evaluate(op, stdout: str, stderr: str, code: int) -> list:
    """Problems with one `evaluate` operation's output (op is a CaseOp)."""
    if op.expect_exit != 0:
        return [] if "error" in stderr else [f"{op.name}: rejected without a message"]
    try:
        scheds, notes = parse_evaluate(stdout)
    except ValueError as exc:
        return [f"{op.name}: {exc}"]
    flat = flat_case(op.data, op.presumption)
    want = expected_policies(op.data, op.combos, op.all_policies)
    problems = []
    if list(scheds) != want:
        problems.append(f"{op.name}: policies {list(scheds)} != {want}")
    # One note per information policy whose e-c combinations were skipped.
    skipped = sum(1 for n in notes if n.startswith("# skipped"))
    missing = {c[0] for c in op.combos if "/".join(c) not in want}
    if op.all_policies and skipped != len(missing):
        problems.append(f"{op.name}: {skipped} skipped-combination notes")
    sup_labels = [flat.labels[k] for k in flat.support]
    for policy, s in scheds.items():
        if s.labels != sup_labels:
            problems.append(f"{op.name}: {policy} schedules {s.labels}, not the factual support")
            return problems
        if not (np.all(np.isfinite(s.x)) and np.all(s.x >= 0.0)):
            problems.append(f"{op.name}: {policy} has a negative or non-finite payout")
    for prop in PROPERTIES.values():
        problems += [f"{op.name}: {p}" for p in prop(flat, scheds)]
    return problems


# -- paper audit -------------------------------------------------------------

_CELL = re.compile(
    r"^table (\S+) \| (.+) \| (\S+): computed=(\S+) printed=(\S+) "
    r"(PASS|FLAG|FAIL)(?:  \((.*)\))?$"
)
_COUNT = re.compile(r"^(\d+)/(\d+) cells match$")
_COSTS = re.compile(r"cost ([-+0-9.eE]+) vs optimal ([-+0-9.eE]+)")

PRIZE_VALUES = np.array([5.0, 30.0, 35.0, 70.0, 110.0])
PRIZE_CF = np.full(5, 0.2)
PRIZE_F = np.array([0.2, 0.2, 0.4, 0.2, 0.0])
# The published least-divergence table sends a1..a5 to a1, a2, a3, a4, a3.
PRIZE_PUBLISHED_MAP = np.array([0, 1, 2, 3, 2])


def prize_costs() -> tuple[float, float]:
    """Transport costs of the published table (1125) and the optimum (565)."""
    published = float(
        PRIZE_CF @ (PRIZE_VALUES - PRIZE_VALUES[PRIZE_PUBLISHED_MAP]) ** 2
    )
    return published, comonotone_cost(PRIZE_CF, PRIZE_F, PRIZE_VALUES)


def table_rows(stdout: str) -> int:
    """Number of distinct table rows (one schedule each) in `table` output."""
    return len({m.group(2) for m in map(_CELL.match, stdout.splitlines()) if m})


def check_table(table: str, stdout: str, code: int) -> list:
    cells = [m for m in map(_CELL.match, stdout.splitlines()) if m]
    counts = [m for m in map(_COUNT.match, stdout.splitlines()) if m]
    problems = []
    if code != 0:
        problems.append(f"table {table}: exit {code}")
    if not cells or len(counts) != 1:
        return problems + [f"table {table}: output not understood"]
    ok, total = int(counts[0].group(1)), int(counts[0].group(2))
    if not ok == total == len(cells):
        problems.append(f"table {table}: {ok}/{total} cells match of {len(cells)}")
    problems += [
        f"table {table}: {m.group(2)} | {m.group(3)} FAILs" for m in cells
        if m.group(6) == "FAIL"
    ]
    flagged = [m for m in cells if m.group(6) == "FLAG"]
    if table != "4":
        return problems + [f"table {table}: unexpected FLAG" for _ in flagged[:1]]
    rows = {m.group(2) for m in flagged}
    if len(rows) != 1 or "LD-C" not in next(iter(rows), ""):
        return problems + [f"table 4: FLAGs on rows {sorted(rows)}"]
    (row,) = rows
    if any(m.group(2) == row and m.group(6) != "FLAG" for m in cells):
        problems.append("table 4: least-divergence row only partly FLAGged")
    published, optimal = prize_costs()
    for m in flagged:
        costs = _COSTS.search(m.group(7) or "")
        if costs is None:
            problems.append(f"table 4: FLAG on {m.group(3)} gives no costs")
            continue
        got = (float(costs.group(1)), float(costs.group(2)))
        if not (math.isclose(got[0], published, rel_tol=1e-5)
                and math.isclose(got[1], optimal, rel_tol=1e-5)):
            problems.append(
                f"table 4: FLAG costs {got} but the marginals give "
                f"{published:g} vs {optimal:g}"
            )
    return problems


def _read_csv(text: str, header: list) -> tuple[list, list]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [], [f"CSV header {rows[:1]!r} != {header!r}"]
    return rows[1:], []


MEDICAL_HEADER = [
    "p0", "p1", "delta_v", "award_l_fi", "award_e_c", "award_i_c_cc_i",
    "award_i_c_fm_i", "rejected_formula_comparison",
]


def check_medical(text: str, p0=0.95, delta_v=100_000.0, p1_max=0.90, steps=19) -> list:
    """Two-outcome closed forms for every column of `sweep medical`.

    With the threshold evidence coupling the bad outcome's conditional
    gap is (p0 - p1) / (1 - p1) * delta_v, which is also the fair-mean
    payout under independence; the clamped payout under independence is
    p0 * delta_v, and the one-block payout is the mean gap.
    """
    rows, problems = _read_csv(text, MEDICAL_HEADER)
    if problems:
        return problems
    if len(rows) != steps:
        return [f"medical sweep: {len(rows)} rows, expected {steps}"]
    for p1, row in zip(np.linspace(0.0, p1_max, steps), rows):
        share = (p0 - p1) / (1.0 - p1) * delta_v
        want = [p0, p1, delta_v, (p0 - p1) * delta_v, share, p0 * delta_v, share,
                (p0 - p1) / p0 * delta_v]
        for name, got, w in zip(MEDICAL_HEADER, map(float, row), want):
            if not abs(got - w) <= 1e-9 * delta_v:
                problems.append(f"medical sweep p1={p1:g}: {name} {got!r} != {w!r}")
    return problems[:5]


MATOS_GUARANTEED, MATOS_TOP, MATOS_LOW = 500_000.0, 1_000_000.0, 300.0
MATOS_EDGES = (0.0, 125_000.0, 250_000.0, 375_000.0, 500_000.0)


def matos_award(p: float, theta: float) -> float:
    """Closed-form Matos award under CRRA risk aversion theta.

    The contestant kept the guaranteed prize; the award is the money that
    lifts its value by the clamped mean value gain of answering.
    """
    low, guar, top = crra_value(np.array([MATOS_LOW, MATOS_GUARANTEED, MATOS_TOP]), theta)
    x = max(0.0, p * top + (1.0 - p) * low - guar)
    money = {"kind": "crra", "theta": theta}
    return float(to_money(money, guar + x) - to_money(money, guar))


def matos_bands(award: float) -> set:
    """Caption bands an award may carry; both sides when it sits on an edge."""
    out = set()
    for a in (award * (1 - 1e-9) - 1e-6, award * (1 + 1e-9) + 1e-6):
        if a <= 0.0:
            out.add("zero")
            continue
        for lo, hi in zip(MATOS_EDGES, MATOS_EDGES[1:]):
            if a <= hi:
                out.add(f"({lo:g},{hi:g}]")
                break
        else:
            out.add(f"({MATOS_EDGES[-2]:g},{MATOS_EDGES[-1]:g}]")
    return out


def check_matos(text: str, theta_steps=11, p_steps=21) -> list:
    """Every award and caption band of `sweep matos` on its default grid."""
    rows, problems = _read_csv(text, ["theta", "p", "award", "band"])
    if problems:
        return problems
    grid = [(t, p) for t in np.linspace(0.0, 1.0, theta_steps)
            for p in np.linspace(0.0, 1.0, p_steps)]
    if len(rows) != len(grid):
        return [f"matos sweep: {len(rows)} rows, expected {len(grid)}"]
    for (theta, p), (t_got, p_got, award, band) in zip(grid, rows):
        want = matos_award(p, theta)
        if float(t_got) != theta or float(p_got) != p:
            problems.append(f"matos sweep: row ({t_got}, {p_got}) != ({theta}, {p})")
        elif not abs(float(award) - want) <= 1e-8 * MATOS_TOP:
            problems.append(f"matos theta={theta:g} p={p:g}: award {award} != {want!r}")
        elif band not in matos_bands(want):
            problems.append(f"matos theta={theta:g} p={p:g}: band {band} for {want!r}")
    return problems[:5]


# -- verify ------------------------------------------------------------------

_PROPERTY = re.compile(r"^  (PASS|FAIL) (\S+): (\d+)/(\d+)$")
_OVERALL = re.compile(r"^overall: (PASS|FAIL) \((\d+) properties\)$")


def _verify_report(stdout: str) -> tuple[list, list]:
    """(status, name, passed, checked) per property, and the overall lines."""
    lines = stdout.splitlines()
    props = [m.groups() for m in map(_PROPERTY.match, lines) if m]
    overall = [m.groups() for m in map(_OVERALL.match, lines) if m]
    return [(st, name, int(ok), int(n)) for st, name, ok, n in props], overall


def verify_checks(stdout: str) -> int:
    """Property checks the report says it made."""
    return sum(n for _, _, _, n in _verify_report(stdout)[0])


def check_verify(stdout: str, code: int) -> list:
    """The seeded audit PASSes every property, each with checks made."""
    props, overall = _verify_report(stdout)
    problems = [] if code == 0 else [f"verify: exit {code}"]
    if not props or overall != [("PASS", str(len(props)))]:
        return problems + [f"verify: overall {overall} over {len(props)} properties"]
    for status, name, ok, n in props:
        if status != "PASS" or n == 0 or ok != n:
            problems.append(f"verify: {name} {status} {ok}/{n}")
    return problems


def check_verify_injected(stdout: str, code: int, property_name: str) -> list:
    """With the fair-mean root shifted, exactly that property FAILs."""
    props, overall = _verify_report(stdout)
    failing = {name for status, name, ok, n in props if status == "FAIL" and ok < n}
    problems = [] if code == 1 else [f"verify injected: exit {code}"]
    if overall != [("FAIL", str(len(props)))] or failing != {property_name}:
        problems.append(f"verify injected: overall {overall}, FAILing {sorted(failing)}")
    return problems
