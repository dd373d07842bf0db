"""The cell-based pipeline against the dense reference, on random cases.

Cases reach 500 outcomes, far past what the brute-force oracles in
`verify` can check, and include zeroed factual support and value ties.
Couplings must match the dense ones cell for cell; schedules must match
within the gap-identity tolerance, since sums now run in another order.
"""

import tracemalloc

import numpy as np
import pytest

import dense_reference as ref
from lostchance.choice import (
    ChoiceCaseModel,
    evaluate_choice_case,
    flatten_choice_case,
    resolve_choice,
)
from lostchance.coupling import (
    coupling_from_map,
    evidence_coupling,
    independence_coupling,
    least_divergence_coupling,
    map_cells,
    northwest_corner,
)
from lostchance.outcome import (
    CaseModel,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
    validate_case,
)
from lostchance.valuation import (
    CONNECTION_POLICIES,
    GAP_IDENTITY_TOL,
    INDEMNITY_POLICIES,
    INFO_POLICIES,
    ConfigurationError,
    PolicyCombo,
    evaluate_policy,
)

SIZES = (2, 3, 5, 8, 13, 40, 150, 500)


def _weights(rng, n, zero_share):
    w = rng.dirichlet(np.ones(n))
    zeros = rng.random(n) < zero_share
    zeros[int(rng.integers(0, n))] = False
    w[zeros] = 0.0
    return w / w.sum()


def random_case(rng, n, ties):
    """A case whose factual law is the push-forward of a random map, so the
    map is valid evidence; factual outcomes the map misses get no mass."""
    values = rng.uniform(-10.0, 10.0, size=n)
    if ties:
        values = np.round(values / 4.0) * 4.0
    labels = tuple(f"o{i}" for i in range(n))
    cf = _weights(rng, n, 0.2)
    targets = rng.integers(0, max(1, n // 2), size=n)
    f = np.bincount(targets, weights=cf, minlength=n)
    model = validate_case(
        CaseModel(
            space=OutcomeSpace(labels, tuple(values.tolist())),
            counterfactual=DiscreteDistribution(tuple(cf.tolist())),
            factual=DiscreteDistribution(tuple((f / f.sum()).tolist())),
            money=IdentityMoneyMap(),
        )
    )
    mapping = {labels[i]: labels[targets[i]] for i in range(n)}
    return model, mapping


def random_vertex(rng, model):
    rows = list(model.counterfactual.support())
    cols = list(model.factual.support())
    cf, f = list(model.counterfactual.weights), list(model.factual.weights)
    ro, co = tuple(rng.permutation(rows)), tuple(rng.permutation(cols))
    return np.asarray(northwest_corner(ro, co, cf, f))


def custom_blocks(rng, model):
    support = list(model.factual.support())
    rng.shuffle(support)
    cuts = sorted(rng.choice(np.arange(1, len(support) + 1), size=2))
    blocks = [support[: cuts[0]], support[cuts[0] : cuts[1]], support[cuts[1] :]]
    return [sorted(b) for b in blocks if b]


def tolerance(model):
    return GAP_IDENTITY_TOL * max(1.0, float(np.max(np.abs(model.space.values_array))))


def assert_same_schedule(schedule, dense, tol):
    outcomes, values, awards, _ = dense
    assert schedule.outcomes == outcomes
    assert np.allclose(schedule.values, values, rtol=0.0, atol=tol)
    assert np.allclose(schedule.awards, awards, rtol=0.0, atol=tol)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_outcome_cases_match_dense_reference(n, ties):
    rng = np.random.default_rng([n, int(ties)])
    model, mapping = random_case(rng, n, ties)
    v = model.space.values_array
    tol = tolerance(model)
    vertex = random_vertex(rng, model)
    blocks = custom_blocks(rng, model)
    dense_ld = ref.least_divergence_joint(model)

    cells = map_cells(model.space, model.counterfactual.weights, mapping)
    dense_map = ref.map_joint(model, mapping)
    dense_ic = ref.independence_joint(model)

    assert np.array_equal(least_divergence_coupling(model).joint, dense_ld)
    assert np.array_equal(independence_coupling(model).joint, dense_ic)
    assert np.array_equal(coupling_from_map(model, mapping).joint, dense_map)
    assert np.array_equal(np.asarray(cells), dense_map)

    for conn in CONNECTION_POLICIES:
        evidences = {
            "e-c": [(mapping, dense_map), (cells, dense_map), (vertex, vertex)],
            "paper-table": [(vertex, vertex)],
            "ld-c": [(None, dense_ld)],
            "i-c": [(None, dense_ic)],
        }[conn]
        for evidence, joint in evidences:
            for info in INFO_POLICIES:
                for indemnity in INDEMNITY_POLICIES:
                    combo = PolicyCombo(info, conn, indemnity)
                    custom = blocks if info == "custom" else None
                    schedule = evaluate_policy(model, combo, evidence, custom)
                    dense = ref.evaluate(model, combo, joint, custom)
                    assert_same_schedule(schedule, dense, tol)
                    groups = dense[3]
                    notes = schedule.notes
                    tied = [note for note in notes if "conditional mean" in note]
                    assert bool(tied) == bool(info == "m-fi" and groups.ties.any())
                    if conn == "paper-table":
                        supplied = ref.transport_cost(joint, v)
                        own = ref.transport_cost(dense_ld, v)
                        flagged = any(note.startswith("FLAG") for note in notes)
                        assert flagged == (supplied > own + 1e-9)


def random_choice_case(rng, nc, nr, evidence, couplings):
    choices = tuple(f"c{i}" for i in range(nc))
    results = tuple(f"r{i}" for i in range(nr))
    values = rng.uniform(-10.0, 10.0, size=(nc, nr))
    values[:, ::3] = np.round(values[:, ::3])

    def conditional():
        return DiscreteDistribution(tuple(_weights(rng, nr, 0.2).tolist()))

    cf_conds = tuple(conditional() for _ in range(nc))
    f_conds = tuple(conditional() for _ in range(nc))
    fc = int(rng.integers(0, nc))
    fr = int(rng.choice(np.flatnonzero(f_conds[fc].array)))
    supplied = None
    if couplings:
        f_mass = list(f_conds[fc].weights)
        supplied = tuple(
            (
                choices[i],
                np.asarray(
                    northwest_corner(
                        tuple(rng.permutation(cf_conds[i].support())),
                        tuple(rng.permutation(f_conds[fc].support())),
                        list(cf_conds[i].weights),
                        f_mass,
                    )
                ),
            )
            for i in range(0, nc, 2)
        )
    return ChoiceCaseModel(
        choices=choices,
        duty=frozenset(choices[: 1 + nc // 2]),
        results=results,
        values=tuple(map(tuple, values.tolist())),
        money=IdentityMoneyMap(),
        result_given_choice_cf=cf_conds,
        result_given_choice_f=f_conds,
        factual_choice=choices[fc],
        factual_result=results[fr],
        counterfactual_choice=(
            DiscreteDistribution(tuple(_weights(rng, nc, 0.3).tolist()))
            if evidence
            else None
        ),
        result_couplings=supplied,
    )


@pytest.mark.parametrize(
    "nc, nr, evidence, couplings",
    [
        (2, 2, True, False),
        (3, 4, False, True),
        (4, 30, True, True),
        (3, 120, False, False),
    ],
)
@pytest.mark.parametrize("presumption", ["it-cp", "ii-cp", None])
def test_choice_cases_match_dense_reference(nc, nr, evidence, couplings, presumption):
    rng = np.random.default_rng([nc, nr, int(evidence), int(couplings)])
    model = random_choice_case(rng, nc, nr, evidence, couplings)
    resolved = resolve_choice(model, presumption)
    if resolved.counterfactual_choice is None:
        with pytest.raises(ConfigurationError, match="unresolved"):
            flatten_choice_case(resolved)
        return
    case, cells = flatten_choice_case(resolved)
    joint = ref.choice_joint(resolved)
    assert np.array_equal(np.asarray(cells), joint)
    tol = tolerance(case)
    dense_joints = {
        "e-c": joint,
        "ld-c": ref.least_divergence_joint(case),
        "i-c": ref.independence_joint(case),
    }
    combos = [
        PolicyCombo(info, conn, indemnity)
        for conn in dense_joints
        for info in ("l-fi", "m-fi", "h-fi")
        for indemnity in INDEMNITY_POLICIES
    ]
    for combo, schedule in zip(combos, evaluate_choice_case(model, combos, presumption)):
        dense = ref.evaluate(case, combo, dense_joints[combo.connection])
        assert_same_schedule(schedule, dense, tol)


def test_evidence_coupling_accepts_cells_and_matrix_alike():
    rng = np.random.default_rng(4)
    model, mapping = random_case(rng, 30, False)
    cells = map_cells(model.space, model.counterfactual.weights, mapping)
    a = evidence_coupling(model, cells).cells
    b = evidence_coupling(model, np.asarray(cells)).cells
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.mass, b.mass)


@pytest.mark.parametrize("conn", ["ld-c", "e-c", "i-c"])
def test_large_case_allocates_no_dense_matrix(conn):
    n = 3000
    rng = np.random.default_rng(9)
    model, mapping = random_case(rng, n, False)
    evidence = mapping if conn == "e-c" else None
    combo = PolicyCombo("h-fi", conn, "fm-i")
    tracemalloc.start()
    try:
        evaluate_policy(model, combo, evidence)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
