"""Per-outcome reference for the evaluate path, kept for differential tests.

A frozen copy of the loops the engine ran before it carried a schedule's
per-outcome data as arrays:

* the information partition as a tuple of index tuples, h-fi as one
  singleton per outcome;
* `conditional_gap` building one (outcomes, probability, gap) row per
  block, and one note per block it drops;
* `solve_lambda` scanning its breakpoints in a loop;
* one award per outcome, priced and refused one outcome at a time
  (`award`), with the extrapolation note added outcome by outcome;
* `evaluate --csv` written row by row;
* the case loader's and `validate_case`'s checks, item by item.

The coupling and its selective groups are the engine's own, since they
never looped over outcomes in Python.  `tests/test_arrays_vs_scalar.py`
holds the engine to these functions byte for byte.
"""

from __future__ import annotations

import csv
import functools
import io
import math

import numpy as np

from lostchance.casefile import _not_a_number, _number
from lostchance.coupling import Coupling, least_divergence_coupling
from lostchance.outcome import WEIGHT_SUM_TOL, CaseModel, MoneyMap
from lostchance.valuation import (
    CompensationSchedule,
    ConfigurationError,
    CouplingStack,
    _coupling_for,
    selective_groups,
)

# -- valuation ---------------------------------------------------------------


def blocks_of(partition) -> tuple[tuple[int, ...], ...]:
    """A `Partition`'s blocks as index tuples, from its aligned
    `outcomes` and `block_ids`."""
    blocks = [[] for _ in range(partition.block_count)]
    for k, b in zip(partition.outcomes.tolist(), partition.block_ids.tolist()):
        blocks[b].append(k)
    return tuple(map(tuple, blocks))


def partition_blocks(info, support, plus, minus, custom_blocks):
    sup = tuple(int(i) for i in support)
    if info == "l-fi":
        return (sup,)
    if info == "h-fi":
        return tuple((i,) for i in sup)
    if info == "m-fi":
        return tuple(b for b in (plus, minus) if b)
    if custom_blocks is None:
        raise ConfigurationError("custom partition needs explicit blocks")
    return tuple(tuple(int(i) for i in b) for b in custom_blocks)


def conditional_gap(
    coupling: Coupling, blocks
) -> tuple[list[tuple[tuple, float, float]], tuple[str, ...]]:
    """(outcomes, probability, gap) per block with positive probability,
    and a note per block dropped for zero probability."""
    v = coupling.space.values_array
    col_mass, col_v0 = coupling.column_moments
    col_gap = col_v0 - col_mass * v
    sizes = [len(b) for b in blocks]
    flat = np.array([i for b in blocks for i in b], dtype=np.intp)
    block_id = np.repeat(np.arange(len(sizes)), sizes)
    block_p = np.bincount(block_id, weights=col_mass[flat], minlength=len(sizes))
    block_gap = np.bincount(block_id, weights=col_gap[flat], minlength=len(sizes))
    labels = coupling.space.labels
    rows, notes = [], ()
    for block, p, g in zip(blocks, block_p.tolist(), block_gap.tolist()):
        if p <= 0.0:
            names = ", ".join(repr(labels[k]) for k in block)
            notes += (f"note: dropped zero-probability block of outcome(s) {names}",)
            continue
        rows.append((tuple(block), p, g / p))
    return rows, notes


def solve_lambda(probabilities: np.ndarray, gaps: np.ndarray, target: float) -> float:
    order = np.argsort(-gaps, kind="stable")
    g = gaps[order]
    p = probabilities[order]
    s_k = 0.0
    p_k = 0.0
    lam = None
    for k in range(len(g)):
        s_k += p[k] * g[k]
        p_k += p[k]
        lo = g[k + 1] if k + 1 < len(g) else -math.inf
        cand = (s_k - target) / p_k
        if cand >= lo:
            lam = float(min(cand, g[k]))
            break
    if lam is None:
        raise AssertionError("no breakpoint segment contained the root")
    scale = max(1.0, float(np.max(np.abs(g))) if len(g) else 1.0)
    if lam < -1e-12 * scale:
        raise ValueError("target exceeds the payout at zero shift")
    return max(0.0, lam)


def indemnity(rows, rule: str) -> np.ndarray:
    p = np.array([r[1] for r in rows])
    g = np.array([r[2] for r in rows])
    if rule == "cc-i":
        return np.maximum(0.0, g)
    target = float(p @ g)
    if target <= 0.0:
        return np.zeros(len(rows))
    return np.maximum(0.0, g - solve_lambda(p, g, target))


def award(money: MoneyMap, v1: float, x: float) -> float:
    """The award for one outcome, as the engine priced it one call at a
    time, with the error it raised for a refused outcome."""
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"compensation must be finite and >= 0, got {x!r}")
    v1 = float(v1)
    if v1 + x > money.top:
        award = money.extrapolate_top(v1 + x) - money.to_money(v1)
    else:
        award = money.to_money(v1 + x) - money.to_money(v1)
    if not math.isfinite(award):
        raise ValueError(
            f"the award lifting value {v1!r} by {x!r} is not a finite amount "
            f"of money"
        )
    return award


def schedules(
    model: CaseModel, combos, evidence_joint=None, custom_blocks=None, extra_notes=()
) -> list[CompensationSchedule]:
    """What `evaluate_grid` returns, combination by combination."""
    support = model.factual.support()
    labels = tuple(model.space.labels[k] for k in support)
    values = model.space.values
    money = model.money
    least_divergence = functools.cache(lambda: least_divergence_coupling(model))
    out = []
    for combo in combos:
        coupling, notes = _coupling_for(
            model, combo.connection, evidence_joint, least_divergence
        )
        plus, minus, ties = selective_groups(CouplingStack([coupling])).indices(0)
        blocks = partition_blocks(combo.info, support, plus, minus, custom_blocks)
        rows, dropped = conditional_gap(coupling, blocks)
        notes += dropped
        if ties and combo.info == "m-fi":
            tied = ", ".join(model.space.labels[i] for i in ties)
            notes += (
                f"note: outcome(s) {tied} sit exactly at their conditional mean "
                f"and are grouped as non-compensable",
            )
        block_x = indemnity(rows, combo.indemnity).tolist()
        x_of = {k: x for (block, _, _), x in zip(rows, block_x) for k in block}
        xs = [x_of.get(k, 0.0) for k in support]
        notes = list(tuple(extra_notes) + notes)
        awards = []
        for label, k, x in zip(labels, support, xs):
            awards.append(award(money, values[k], x))
            if values[k] + x > money.top:
                notes.append(
                    f"note: the award for outcome {label!r} extrapolates the "
                    f"money table past its last point {money.top:g}, along "
                    f"its end segment"
                )
        out.append(
            CompensationSchedule(combo, labels, tuple(xs), tuple(awards), tuple(notes))
        )
    return out


# -- cli ---------------------------------------------------------------------


def emit_csv(rows, header, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [
                repr(float(x))
                if isinstance(x, (int, float, np.floating)) and not isinstance(x, bool)
                else str(x)
                for x in row
            ]
        )


def evaluate_stdout(scheds) -> str:
    """What `evaluate --csv` prints for these schedules."""
    buf = io.StringIO()
    rows = [
        (s.policy.descriptor, o, x, a)
        for s in scheds
        for o, x, a in zip(s.outcomes, s.values, s.awards)
    ]
    emit_csv(rows, ("policy", "outcome", "compensation", "award"), buf)
    for note in sorted({n for s in scheds for n in s.notes}):
        buf.write(f"# {note}\n")
    return buf.getvalue()


# -- case loading --------------------------------------------------------------


def outcome_problems(entries) -> tuple[list, list, list[str]]:
    """Labels, values and problems of an outcome list, entry by entry."""
    labels, values, errs = [], [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"label", "value"}:
            errs.append(
                f"outcomes[{i}] must be an object with exactly 'label' and 'value'"
            )
            continue
        labels.append(str(entry["label"]))
        try:
            values.append(_number(entry["value"]))
        except (TypeError, ValueError) as exc:
            errs.append(f"outcomes[{i}] value {_not_a_number(exc)}")
            values.append(0.0)
    return labels, values, errs


def weight_problems(data: dict, labels: list, name: str) -> tuple[list, list[str]]:
    """Weights and problems of a label -> weight object, label by label."""
    positions = {}
    for i, lab in enumerate(labels):
        positions.setdefault(lab, i)
    weights, errs = [0.0] * len(labels), []
    for lab, w in data.items():
        if lab not in positions:
            errs.append(f"{name} refers to unknown label {lab!r}")
            continue
        try:
            weights[positions[lab]] = _number(w)
        except (TypeError, ValueError) as exc:
            errs.append(f"{name} weight for {lab!r} {_not_a_number(exc)}")
    return weights, errs


def marginal_problems(weights: list, name: str, size: int) -> list[str]:
    out = []
    if len(weights) != size:
        out.append(f"{name} marginal has {len(weights)} weights for {size} outcomes")
    for i, w in enumerate(weights):
        if not math.isfinite(w):
            out.append(f"{name} marginal weight {i} is not finite")
        elif w < 0.0:
            out.append(f"{name} marginal weight {i} is negative ({w!r})")
    total = float(math.fsum(weights))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        out.append(
            f"{name} marginal weights sum to {total!r}, not 1 "
            f"(tolerance {WEIGHT_SUM_TOL})"
        )
    return out


def case_problems(labels: list, values: list, cf: list, f: list) -> list[str]:
    """`validate_case`'s problems for a case with no observed outcome."""
    errs, seen = [], set()
    for lab in labels:
        if lab in seen:
            errs.append(f"duplicate outcome label {lab!r}")
        seen.add(lab)
        if not lab:
            errs.append("empty outcome label")
    for lab, val in zip(labels, values):
        if not math.isfinite(val):
            errs.append(f"outcome {lab!r} has non-finite value {val!r}")
    errs += marginal_problems(cf, "counterfactual", len(labels))
    errs += marginal_problems(f, "factual", len(labels))
    return errs
