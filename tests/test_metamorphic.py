"""Metamorphic relations of the policy grid, at sizes no oracle reaches.

Each test changes a case in a way that must not move its schedules, or
must move them in a known way, and compares the two grids under the
twelve least-divergence and independence combinations:

- an outcome added at the end of the list, with a value no other
  outcome has and no weight in either world, is never factually
  possible, so no schedule may change, bit for bit;
- multiplying every value by 8 multiplies every gap by a power of two,
  so under identity money every compensation and award is 8 times the
  original, exactly;
- permuting the outcome list leaves every outcome's compensation and
  award where they were, up to round-off: the engine's sums then meet
  their terms in another order, so the two grids are compared label by
  label within the gap identity's tolerance, never bit for bit.
  Least-divergence matching breaks value ties by label order, so under
  ld-c the values are distinct.

The outcome goes at the end so that every reduction meets the other
outcomes in the same order: an outcome inserted before them moves the
engine's sums as a permutation of the list does, by a few units in the
last place.  Even at the end, one more term regroups numpy's pairwise
sums and BLAS dot products when the count crosses a multiple of 8 (or
doubles past 128), and the independence coupling scales every column by
such a sum: at 7, 127 or 255 outcomes, among other sizes, most cases
move their i-c schedules by an ulp, which
`test_an_impossible_outcome_at_a_summation_boundary` records as an
expected failure.
"""

import numpy as np
import pytest

from lostchance.outcome import (
    CaseModel,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
)
from lostchance.valuation import GAP_IDENTITY_TOL, STANDARD_COMBOS, evaluate_grid

COMBOS = [c for c in STANDARD_COMBOS if c.connection != "e-c"]
SIZES = (3, 4, 30, 300, 3000)
# Sizes at which one more term regroups numpy's sums.
BOUNDARY_SIZES = (7, 127, 255)


def _model(values, counterfactual, factual, labels=None) -> CaseModel:
    if labels is None:
        labels = tuple(f"o{i}" for i in range(len(values)))
    return CaseModel(
        OutcomeSpace(labels, values),
        DiscreteDistribution(counterfactual),
        DiscreteDistribution(factual),
        IdentityMoneyMap(),
    )


def _seeded(seed: int, n: int):
    """Values, counterfactual and factual weights of a seeded case: odd
    seeds repeat a quarter of the values, and seeds divisible by 3 give
    one outcome no factual mass."""
    rng = np.random.default_rng([seed, n])
    values = rng.uniform(-10.0, 10.0, n)
    if seed % 2:
        values[rng.integers(1, n, size=max(1, n // 4))] = values[0]
    counterfactual = rng.dirichlet(np.ones(n))
    factual = rng.dirichlet(np.ones(n))
    if seed % 3 == 0:
        factual[int(rng.integers(0, n))] = 0.0
        factual /= factual.sum()
    return values, counterfactual, factual


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


def _check_impossible_outcome(n: int, seed: int, combos) -> None:
    values, counterfactual, factual = _seeded(seed, n)
    base = evaluate_grid(_model(values, counterfactual, factual), combos)
    distinct = np.unique(values)
    # Below every value, above every value, and between two of them.
    added = [distinct[0] - 1.0, distinct[-1] + 1.0]
    if distinct.size > 1:
        added.append((distinct[0] + distinct[1]) / 2)
    for value in added:
        assert value not in values
        model = _model(
            np.append(values, value),
            np.append(counterfactual, 0.0),
            np.append(factual, 0.0),
        )
        for old, new in zip(base, evaluate_grid(model, combos), strict=True):
            assert new.policy == old.policy
            assert new.outcomes == old.outcomes
            assert new.notes == old.notes
            assert _bits(new.values) == _bits(old.values), (value, new.policy)
            assert _bits(new.awards) == _bits(old.awards), (value, new.policy)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", SIZES)
def test_an_impossible_outcome_changes_no_schedule(n, seed):
    _check_impossible_outcome(n, seed, COMBOS)


@pytest.mark.parametrize(
    "connection",
    [
        "ld-c",
        pytest.param(
            "i-c",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the independence coupling's sums regroup when one "
                "more term is added at these sizes",
            ),
        ),
    ],
)
@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_an_impossible_outcome_at_a_summation_boundary(n, connection):
    combos = [c for c in COMBOS if c.connection == connection]
    for seed in range(4):
        _check_impossible_outcome(n, seed, combos)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", SIZES + BOUNDARY_SIZES)
def test_values_times_8_scale_every_compensation_exactly(n, seed):
    values, counterfactual, factual = _seeded(seed, n)
    base = evaluate_grid(_model(values, counterfactual, factual), COMBOS)
    scaled = evaluate_grid(_model(values * 8.0, counterfactual, factual), COMBOS)
    for old, new in zip(base, scaled, strict=True):
        assert new.policy == old.policy
        assert new.outcomes == old.outcomes
        assert _bits(new.values) == _bits(np.multiply(old.values, 8.0)), new.policy
        assert _bits(new.awards) == _bits(np.multiply(old.awards, 8.0)), new.policy


TIE_NOTE = "note: outcome(s) "


def _note_key(note: str):
    """A note, with the m-fi tie note's labels as a set: it lists them in
    outcome-list order.  Least-divergence matching moves all the mass of
    some outcomes onto themselves, so most ld-c cases have such a note."""
    if note.startswith(TIE_NOTE):
        labels, rest = note[len(TIE_NOTE) :].split(" sit exactly", 1)
        return frozenset(labels.split(", ")), rest
    return note


@pytest.mark.parametrize("seed", [0, 2, 4])
@pytest.mark.parametrize("n", SIZES)
def test_a_permuted_outcome_list_moves_schedules_by_round_off_only(n, seed):
    # Even seeds draw distinct values, which ld-c needs.
    values, counterfactual, factual = _seeded(seed, n)
    assert np.unique(values).size == n
    labels = tuple(f"o{i}" for i in range(n))
    order = np.random.default_rng([seed, n, 1]).permutation(n)
    base = evaluate_grid(_model(values, counterfactual, factual), COMBOS)
    permuted = evaluate_grid(
        _model(
            values[order],
            counterfactual[order],
            factual[order],
            tuple(labels[i] for i in order),
        ),
        COMBOS,
    )
    tol = GAP_IDENTITY_TOL * max(1.0, float(np.abs(values).max()))
    for old, new in zip(base, permuted, strict=True):
        assert new.policy == old.policy
        assert sorted(new.outcomes) == sorted(old.outcomes)
        assert list(map(_note_key, new.notes)) == list(map(_note_key, old.notes))
        for got, want in ((new.values, old.values), (new.awards, old.awards)):
            by_label = dict(zip(new.outcomes, got))
            moved = np.subtract([by_label[k] for k in old.outcomes], want)
            assert np.abs(moved).max() <= tol, new.policy
