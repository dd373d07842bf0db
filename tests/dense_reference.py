"""Dense reference for the valuation pipeline, kept for differential tests.

A frozen copy of the engine's earlier column math, where every coupling
was an n x n matrix, and selective groups and block gaps were taken
column by column and block by block.  The engine now stores couplings as
their positive cells and takes every block's gap of a connection in one
pass; tests compare the two on random cases.  The partition
(`build_partition`) and indemnity steps are the engine's own, since
they never touched the matrix; awards are priced one outcome at a time
by `scalar_reference.award`.
"""

from __future__ import annotations

import numpy as np

import scalar_reference
from lostchance.outcome import CaseModel
from lostchance.valuation import (
    PolicyCombo,
    SelectiveGroups,
    build_partition,
    cc_indemnity,
    fm_indemnity,
)


def _sorted_support(keys, weights) -> list[tuple[int, float]]:
    order = sorted(
        (i for i, w in enumerate(weights) if w > 0.0),
        key=lambda i: (keys[i], i),
    )
    return [(i, float(weights[i])) for i in order]


def comonotone_matrix(row_weights, col_weights, row_keys, col_keys) -> np.ndarray:
    rows = _sorted_support(row_keys, row_weights)
    cols = _sorted_support(col_keys, col_weights)
    j = np.zeros((len(row_weights), len(col_weights)))
    ri = ci = 0
    r_rem = rows[0][1] if rows else 0.0
    c_rem = cols[0][1] if cols else 0.0
    while ri < len(rows) and ci < len(cols):
        take = min(r_rem, c_rem)
        if take > 0.0:
            j[rows[ri][0], cols[ci][0]] += take
        r_rem -= take
        c_rem -= take
        if r_rem <= 1e-15:
            ri += 1
            r_rem = rows[ri][1] if ri < len(rows) else 0.0
        if c_rem <= 1e-15:
            ci += 1
            c_rem = cols[ci][1] if ci < len(cols) else 0.0
    return j


def least_divergence_joint(model: CaseModel) -> np.ndarray:
    v = model.space.values
    return comonotone_matrix(model.counterfactual.weights, model.factual.weights, v, v)


def independence_joint(model: CaseModel) -> np.ndarray:
    return np.outer(model.counterfactual.array, model.factual.array)


def map_joint(model: CaseModel, mapping: dict) -> np.ndarray:
    n = model.space.size
    j = np.zeros((n, n))
    labels = list(model.space.labels)
    cf = model.counterfactual.array
    for src, dst in mapping.items():
        j[labels.index(src), labels.index(dst)] += cf[labels.index(src)]
    return j


def transport_cost(joint: np.ndarray, v: np.ndarray) -> float:
    d = v[:, None] - v[None, :]
    return float(np.einsum("ij,ij->", joint, d * d))


def choice_joint(model) -> np.ndarray:
    """The flattened (choice, result) joint of a resolved choice case."""
    nc, nr = model.n_choices, model.n_results
    fc = model.choice_index(model.factual_choice)
    vmat = model.value_matrix
    f_weights = model.result_given_choice_f[fc].array
    joint = np.zeros((nc, nr, nc, nr))
    for i, c0 in enumerate(model.choices):
        pc = model.counterfactual_choice.weights[i]
        if pc <= 0.0:
            continue
        k = model.result_coupling_for(c0)
        if k is None:
            k = comonotone_matrix(
                model.result_given_choice_cf[i].weights, f_weights, vmat[i], vmat[fc]
            )
        joint[i, :, fc, :] = pc * k
    return joint.reshape(nc * nr, nc * nr)


def selective_groups(joint: np.ndarray, v: np.ndarray) -> SelectiveGroups:
    col_mass = joint.sum(axis=0)
    scale = max(1.0, float(np.max(np.abs(v))))
    tol = 1e-9 * scale
    plus: list[int] = []
    minus: list[int] = []
    ties: list[int] = []
    for k in range(len(v)):
        if col_mass[k] <= 0.0:
            continue
        cond_mean = float(joint[:, k] @ v) / float(col_mass[k])
        diff = cond_mean - float(v[k])
        if abs(diff) <= tol:
            ties.append(k)
            minus.append(k)
        elif diff > 0.0:
            plus.append(k)
        else:
            minus.append(k)
    masks = np.zeros((3, 1, len(v)), dtype=bool)
    for mask, indices in zip(masks, (plus, minus, ties)):
        mask[0, indices] = True
    return SelectiveGroups(*masks)


def conditional_gap(joint: np.ndarray, v: np.ndarray, partition):
    """(blocks, probabilities, gaps) of the blocks of `partition` with
    positive probability."""
    col_mass = joint.sum(axis=0)
    col_gap = joint.T @ v - col_mass * v
    blocks, probabilities, gaps = [], [], []
    for block in partition.blocks:
        idx = list(block)
        p = float(col_mass[idx].sum())
        if p <= 0.0:
            continue
        blocks.append(tuple(block))
        probabilities.append(p)
        gaps.append(float(col_gap[idx].sum()) / p)
    return blocks, np.array(probabilities), np.array(gaps)


def evaluate(
    model: CaseModel, combo: PolicyCombo, joint: np.ndarray, custom_blocks=None
):
    """(outcomes, compensations, awards, groups) under a dense joint."""
    v = model.space.values_array
    groups = selective_groups(joint, v)
    support = model.factual.support()
    supports = [np.array(support)]
    (partition,) = build_partition(
        [combo.info], supports, groups, custom_blocks, coupling_rows=[0]
    )
    blocks, p, g = conditional_gap(joint, v, partition)
    if combo.indemnity == "cc-i":
        block_x = cc_indemnity(g)
    else:
        block_x = fm_indemnity(p, g, float(p @ g))
    x_of = {k: float(x) for b, x in zip(blocks, block_x) for k in b}
    outcomes = tuple(model.space.labels[k] for k in support)
    values = tuple(x_of.get(k, 0.0) for k in support)
    awards = tuple(
        scalar_reference.award(model.money, float(v[k]), x)
        for k, x in zip(support, values)
    )
    return outcomes, values, awards, groups
