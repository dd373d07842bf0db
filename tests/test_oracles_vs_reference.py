"""The audit's array oracles against the scalar reference, on seeded cases.

`oracle_reference` keeps the earlier scalar oracles.  The transport
oracle must return the same cost and cells bit for bit, since every
ordering pair keeps its own order of additions.  The schedule oracle
now solves every set of paying blocks exactly where the reference
searches grids, so its risk may only be lower than the reference's, up
to round-off, and its schedule may differ by one grid step.  It is also
held to the closed-form schedules, which it must match to round-off.
"""

import numpy as np
import pytest

import oracle_reference as ref
from lostchance.coupling import (
    evidence_coupling,
    independence_coupling,
    least_divergence_coupling,
    oracle_min_cost,
    transport_cost,
)
from lostchance.outcome import (
    CaseModel,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
)
from lostchance.valuation import (
    CouplingStack,
    build_partition,
    cc_indemnity,
    conditional_gap,
    fm_indemnity,
    oracle_best_schedule,
    schedule_risk,
    selective_groups,
)
from lostchance.verify import random_case, random_vertex_coupling


def _weights(rng, n, zero):
    w = rng.dirichlet(np.ones(n))
    if rng.random() < 0.3:
        # Coarse weights make equal remainders, and so sweep ties, likely.
        w = np.round(w * 6.0) + 1.0
    if zero and rng.random() < 0.4:
        w[int(rng.integers(0, n))] = 0.0
    return tuple(float(x) for x in w / w.sum())


def _case(values, cf, f):
    n = len(values)
    return CaseModel(
        space=OutcomeSpace(tuple(f"o{i}" for i in range(n)), tuple(map(float, values))),
        counterfactual=DiscreteDistribution(tuple(map(float, cf))),
        factual=DiscreteDistribution(tuple(map(float, f))),
        money=IdentityMoneyMap(),
    )


def _transport_case(rng, n, zero=True, drop=None):
    """A case with n outcomes; `drop` zeroes that factual outcome."""
    values = rng.uniform(-5.0, 5.0, size=n)
    if rng.random() < 0.4:
        values[int(rng.integers(1, n))] = values[0]
    if rng.random() < 0.2:
        values = np.round(values)
    f = np.array(_weights(rng, n, zero))
    if drop is not None:
        f[drop] = 0.0
        f /= f.sum()
    return _case(values, _weights(rng, n, zero), f)


def _near_tie_case(rng, n, offset):
    """Factual weights that swap the first two counterfactual ones and move
    the last two by `offset` in opposite directions.

    The optimal sweep, in value order, then pays a positive cost and meets
    a remainder of that size, on the column side for a positive offset
    and on the row side for a negative one.  Above the 1e-15 exhaustion
    threshold the remainder stays a cell of its own; below it, it counts
    as exhausted.
    """
    cf = np.array(_weights(rng, n, False))
    f = cf.copy()
    f[[0, 1]] = f[[1, 0]]
    f[-2] += offset
    f[-1] -= offset
    return _case(np.sort(rng.uniform(-5.0, 5.0, size=n)), cf, f)


def _transport_cases():
    rng = np.random.default_rng(2024)
    cases = [_transport_case(rng, int(rng.integers(2, 6))) for _ in range(179)]
    cases += [
        _near_tie_case(rng, int(rng.integers(4, 6)), offset)
        for offset in (3e-13, -3e-13, 4e-16, -4e-16, 2e-15, -2e-15)
        for _ in range(3)
    ]
    # Supports up to the 6x6 refusal limit; the scalar reference takes
    # over a second on a full 6x6, so only one is checked.
    cases.append(_transport_case(rng, 6, zero=False))
    cases += [_transport_case(rng, 6, zero=False, drop=k) for k in (0, 5)]
    return cases


def test_transport_cases_reach_the_limit():
    sizes = [
        (len(m.counterfactual.support()), len(m.factual.support()))
        for m in _transport_cases()
    ]
    assert len(sizes) >= 200
    assert (6, 6) in sizes and (6, 5) in sizes
    assert any(min(s) < 3 for s in sizes)
    assert any(len(set(m.space.values)) < m.space.size for m in _transport_cases())


def test_min_cost_bit_identical():
    for i, model in enumerate(_transport_cases()):
        coupling, cost = oracle_min_cost(model)
        ref_coupling, ref_cost = ref.oracle_min_cost(model)
        assert cost == ref_cost, i
        for field in ("rows", "cols", "mass"):
            assert np.array_equal(
                getattr(coupling.cells, field), getattr(ref_coupling.cells, field)
            ), (i, field)


def _schedule_pairs():
    """(coupling, partition) pairs over the three connections and the
    l-fi, m-fi and h-fi partitions."""
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 240:
        model = random_case(rng)
        pick = len(pairs) % 3
        if pick == 0:
            coupling = evidence_coupling(model, random_vertex_coupling(rng, model))
        elif pick == 1:
            coupling = least_divergence_coupling(model)
        else:
            coupling = independence_coupling(model)
        groups = selective_groups(CouplingStack([coupling]))
        supports = [np.array(model.factual.support())]
        infos = ("l-fi", "m-fi", "h-fi")
        for partition in build_partition(infos, supports, groups, coupling_rows=[0] * 3):
            pairs.append((model, coupling, partition))
    return pairs


@pytest.mark.parametrize("constrained", [False, True])
def test_best_schedule_matches_reference(constrained):
    """The exact oracle never does worse than the grid search, and lands
    within one of its steps."""
    for i, (model, coupling, partition) in enumerate(_schedule_pairs()):
        v = model.space.values_array
        vrange = float(v.max() - v.min())
        step = max((0.001 if constrained else 0.005) * vrange, 1e-6)
        target = None
        if constrained:
            target = conditional_gap(CouplingStack([coupling]), [partition], [0]).expected[0]
        x, risk = oracle_best_schedule(coupling, partition, target)
        ref_x, ref_risk = ref.oracle_best_schedule(
            coupling, partition, constrained, target, target_step=step
        )
        scale = max(1.0, transport_cost(coupling))
        assert risk <= ref_risk + 1e-12 * scale, i
        assert float(np.max(np.abs(x - ref_x))) <= step, i


@pytest.mark.parametrize("constrained", [False, True])
def test_best_schedule_is_the_closed_form(constrained):
    """Without the mean constraint the oracle's optimum is the clamped
    conditional gap (cc-i); with it and a positive target, the fair-mean
    shift (fm-i).  Both to round-off, in risk and in schedule."""
    checked = 0
    for i, (model, coupling, partition) in enumerate(_schedule_pairs()):
        gaps = conditional_gap(CouplingStack([coupling]), [partition], [0])
        target = gaps.expected[0]
        if constrained:
            if target <= 0.0:
                continue
            want = fm_indemnity(gaps.probabilities, gaps.gaps, target)
            x, risk = oracle_best_schedule(coupling, partition, target)
        else:
            want = cc_indemnity(gaps.gaps)
            x, risk = oracle_best_schedule(coupling, partition)
        v = model.space.values_array
        scale = max(1.0, transport_cost(coupling))
        assert risk <= schedule_risk(coupling, partition, want) + 1e-12 * scale, i
        assert float(np.max(np.abs(x - want))) <= 1e-9 * max(1.0, float(v.max() - v.min())), i
        checked += 1
    assert checked >= (100 if constrained else 240)
