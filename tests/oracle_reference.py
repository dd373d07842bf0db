"""Scalar reference for the audit's brute-force oracles, kept for differential tests.

A frozen copy of the engine's earlier oracles:

* `oracle_min_cost` walks every (row order, column order) pair of the
  supports with one scalar northwest-corner cost loop (`_nw_cost`) per pair;
* `oracle_best_schedule` builds each grid level with `np.meshgrid` and
  scores every candidate through an (m, n, n) tensor of squared
  shortfalls (`_risk_batch`).

The engine's oracles are now array programs; tests compare the two on
seeded cases.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from lostchance.coupling import Coupling, northwest_corner
from lostchance.outcome import CaseModel
from lostchance.valuation import Partition, schedule_risk
from scalar_reference import blocks_of

_ORACLE_MAX_OUTCOMES = 6


def _nw_cost(
    row_order: tuple[int, ...],
    col_order: tuple[int, ...],
    row_mass: list[float],
    col_mass: list[float],
    sq: list[list[float]],
) -> float:
    """Cost of the northwest-corner solution for the given orderings."""
    cost = 0.0
    ri = ci = 0
    r_rem = row_mass[row_order[0]]
    c_rem = col_mass[col_order[0]]
    nr, nc = len(row_order), len(col_order)
    while True:
        take = r_rem if r_rem < c_rem else c_rem
        cost += take * sq[row_order[ri]][col_order[ci]]
        r_rem -= take
        c_rem -= take
        if r_rem <= 1e-15:
            ri += 1
            if ri == nr:
                break
            r_rem = row_mass[row_order[ri]]
        if c_rem <= 1e-15:
            ci += 1
            if ci == nc:
                break
            c_rem = col_mass[col_order[ci]]
    return cost


def oracle_min_cost(model: CaseModel) -> tuple[Coupling, float]:
    """Exact minimum transport cost by enumerating polytope vertices.

    Every basic feasible solution of a transportation problem is the
    northwest-corner solution under some ordering of rows and columns, so
    trying all ordering pairs visits every vertex.  Factorial blowup
    limits this to supports of at most 6 outcomes per side; larger models
    are refused.
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
    sq = [[(a - b) ** 2 for b in v] for a in v]
    best = math.inf
    best_orders = None
    for ro in itertools.permutations(row_sup):
        for co in itertools.permutations(col_sup):
            c = _nw_cost(ro, co, row_mass, col_mass, sq)
            if c < best:
                best = c
                best_orders = (ro, co)
    assert best_orders is not None
    cells = northwest_corner(*best_orders, row_mass, col_mass)
    return Coupling(model.space, cells), best


def _risk_batch(joint, v, col_block, candidates) -> np.ndarray:
    """Risk of many block schedules at once; candidates is (m, B)."""
    x_cols = candidates[:, col_block]  # (m, n)
    d = v[None, :, None] - v[None, None, :] - x_cols[:, None, :]
    return np.einsum("ij,mij->m", joint, d * d)


def oracle_best_schedule(
    coupling: Coupling,
    partition: Partition,
    constrained: bool = False,
    target: Optional[float] = None,
    target_step: Optional[float] = None,
) -> tuple[np.ndarray, float]:
    """Grid-search reference for the best block-constant schedule.

    Minimizes the expected squared shortfall by direct evaluation on the
    joint, refining a coarse grid around the incumbent until the spacing
    falls below target_step.  With constrained=True only schedules whose
    expected payout equals `target` (default: the coupling's mean gap)
    are considered, plus the all-zero schedule.  Kept deliberately
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
    col_block = np.zeros(n, dtype=int)
    blocks = blocks_of(partition)
    for bi, block in enumerate(blocks):
        for k in block:
            col_block[k] = bi
    block_p = np.array([float(col_mass[list(block)].sum()) for block in blocks])
    vrange = float(v.max() - v.min())
    if vrange <= 0.0:
        zero = np.zeros(nb)
        return zero, schedule_risk(coupling, partition, zero)
    if target_step is None:
        target_step = min(0.01, 0.005 * vrange)

    def eval_cands(c: np.ndarray) -> tuple[np.ndarray, float]:
        risks = _risk_batch(joint, v, col_block, c)
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
                    grid = np.stack(
                        [g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                        axis=1,
                    )
                    cands = assemble(det0, free0, grid)
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
        grid = np.stack(
            [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        grid = np.clip(grid, 0.0, None)
        x, r = eval_cands(grid)
        if r < best_r:
            best_x, best_r = x, r
        step = halfw / 5.0
        if step <= target_step:
            break
        centre = best_x
        halfw = 2.0 * step
    return best_x, best_r
