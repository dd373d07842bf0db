import json
import re
import tracemalloc

import numpy as np
import pytest

from lostchance.casefile import dump_case
from lostchance.cli import main
from lostchance.coupling import (
    Cells,
    Coupling,
    RankOneCells,
    comonotone_cells,
    coupling_from_map,
    evidence_coupling,
    independence_coupling,
    least_divergence_coupling,
    oracle_min_cost,
    stack_couplings,
    transport_cost,
)
from lostchance.outcome import (
    CaseModel,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
)
from lostchance.valuation import PolicyCombo, build_grid


def medical_model():
    return CaseModel(
        space=OutcomeSpace(("bad", "good"), (0.0, 100_000.0)),
        counterfactual=DiscreteDistribution((0.05, 0.95)),
        factual=DiscreteDistribution((0.10, 0.90)),
        money=IdentityMoneyMap(),
    )


def prize_model():
    return CaseModel(
        space=OutcomeSpace(
            ("a1", "a2", "a3", "a4", "a5"), (5.0, 30.0, 35.0, 70.0, 110.0)
        ),
        counterfactual=DiscreteDistribution((0.2, 0.2, 0.2, 0.2, 0.2)),
        factual=DiscreteDistribution((0.2, 0.2, 0.4, 0.2, 0.0)),
        money=IdentityMoneyMap(),
    )


class TestCouplingContainer:
    def test_marginals_recovered(self):
        model = medical_model()
        c = evidence_coupling(model, [[0.05, 0.0], [0.05, 0.90]])
        assert np.allclose(c.counterfactual_marginal, [0.05, 0.95])
        assert np.allclose(c.factual_marginal, [0.10, 0.90])

    def test_rejects_bad_shape(self):
        model = medical_model()
        with pytest.raises(ValueError, match="shape"):
            evidence_coupling(model, [[1.0]])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="negative mass"):
            Coupling(
                OutcomeSpace(("a", "b"), (0.0, 1.0)),
                Cells.from_dense(np.array([[0.6, -0.1], [0.2, 0.3]])),
            )

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError, match="sums to"):
            Coupling(
                OutcomeSpace(("a", "b"), (0.0, 1.0)),
                Cells.from_dense(np.array([[0.5, 0.0], [0.0, 0.4]])),
            )

    @pytest.mark.parametrize(
        "bad_row, bad_col, match",
        [
            ({1: -0.1}, {}, r"row_weights\[1\] is -0\.1,"),
            ({0: np.inf}, {2: np.nan}, r"row_weights\[0\] is inf,"),
            ({}, {2: np.nan, 3: -1.0}, r"col_weights\[2\] is nan,"),
        ],
        ids=["negative-row", "row-before-column", "first-bad-column"],
    )
    def test_rank_one_names_its_first_bad_factor(self, bad_row, bad_col, match):
        a, b = np.full(4, 0.25), np.full(4, 0.25)
        for w, bad in ((a, bad_row), (b, bad_col)):
            for i, x in bad.items():
                w[i] = x
        space = OutcomeSpace(tuple("abcd"), (0.0, 1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match=match):
            Coupling(space, RankOneCells(a, b))

    def test_rank_one_refusal_builds_no_matrix(self):
        n = 1000
        space = OutcomeSpace(tuple(f"o{i}" for i in range(n)), tuple(map(float, range(n))))
        a, b = np.full(n, 1.0 / n), np.full(n, 1.0 / n)
        b[-1] = -b[-1]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"col_weights\[{n - 1}\]"):
                Coupling(space, RankOneCells(a, b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # An n x n float matrix alone would take 8 MB.
        assert peak < 1 << 20

    def test_rejects_a_dense_matrix(self):
        with pytest.raises(TypeError, match="Cells or RankOneCells"):
            Coupling(OutcomeSpace(("a", "b"), (0.0, 1.0)), np.eye(2) / 2)

    def test_joint_is_read_only(self):
        c = independence_coupling(medical_model())
        with pytest.raises(ValueError):
            c.joint[0, 0] = 1.0

    def test_csv_rows_skip_zero_cells(self):
        model = medical_model()
        c = evidence_coupling(model, [[0.05, 0.0], [0.05, 0.90]])
        cells = list(zip(c.cells.rows.tolist(), c.cells.cols.tolist()))
        assert cells == [(0, 0), (1, 0), (1, 1)]
        assert c.cells.mass.tolist() == [0.05, 0.05, 0.90]


class TestCells:
    def space(self):
        return OutcomeSpace(("a", "b", "c"), (0.0, 1.0, 2.0))

    def test_cells_are_sorted_merged_and_positive(self):
        cells = Cells(
            np.array([2, 0, 2, 1]),
            np.array([1, 0, 1, 2]),
            np.array([0.25, 0.5, 0.25, 0.0]),
            3,
        )
        c = Coupling(self.space(), cells)
        assert c.cells.rows.tolist() == [0, 2]
        assert c.cells.cols.tolist() == [0, 1]
        assert c.cells.mass.tolist() == [0.5, 0.5]
        assert np.array_equal(c.joint, np.asarray(cells))
        assert not c.cells.mass.flags.writeable

    def test_cells_out_of_range_rejected(self):
        for rows in ([0, 3], [0, -1]):
            cells = Cells(np.array(rows), np.array([0, 1]), np.array([0.5, 0.5]), 3)
            with pytest.raises(ValueError, match="out of range"):
                Coupling(self.space(), cells)

    def test_cells_checked_like_a_matrix(self):
        cells = Cells(np.array([1, 0]), np.array([1, 2]), np.array([-0.1, 1.1]), 3)
        with pytest.raises(ValueError, match=r"negative mass .* at \(1, 1\)"):
            Coupling(self.space(), cells)
        cells = Cells(np.array([0]), np.array([0]), np.array([np.nan]), 3)
        with pytest.raises(ValueError, match="non-finite"):
            Coupling(self.space(), cells)
        cells = Cells(np.array([0]), np.array([0]), np.array([1.0]), 2)
        with pytest.raises(ValueError, match="shape"):
            Coupling(self.space(), cells)

    @pytest.mark.parametrize(
        "builder, shape",
        [(least_divergence_coupling, "(2, 2)"), (independence_coupling, "(2, 3)")],
        ids=["ld-c", "i-c"],
    )
    def test_marginals_of_another_length_are_refused(self, builder, shape):
        """A case is not checked when it is built, so a counterfactual law
        of 2 weights on 3 outcomes reaches the builders, which refuse it
        alone and as a stack row."""
        model = CaseModel(
            self.space(),
            DiscreteDistribution((0.5, 0.5)),
            DiscreteDistribution((0.2, 0.3, 0.5)),
            IdentityMoneyMap(),
        )
        message = f"^{re.escape(f'joint has shape {shape}, expected (3, 3)')}$"
        with pytest.raises(ValueError, match=message):
            builder(model)
        with pytest.raises(ValueError, match=message):
            stack_couplings([(model, builder)])

    def test_independence_keeps_factors_until_cells_are_asked_for(self):
        model = prize_model()
        c = independence_coupling(model)
        assert "explicit" not in vars(c.cells)
        assert np.allclose(c.factual_marginal, model.factual.array)
        assert c.cells.mass.size == 5 * 4
        outer = np.outer(model.counterfactual.array, model.factual.array)
        assert np.array_equal(c.joint, outer)


class TestEvidenceCoupling:
    def test_marginal_mismatch_names_the_outcome(self):
        model = medical_model()
        with pytest.raises(ValueError, match="row 0 \\('bad'\\)"):
            evidence_coupling(model, [[0.10, 0.0], [0.0, 0.90]])
        with pytest.raises(ValueError, match="column 0 \\('bad'\\)"):
            evidence_coupling(model, [[0.05, 0.0], [0.0, 0.95]])

    def test_map_expansion(self):
        model = prize_model()
        c = coupling_from_map(
            model, {"a1": "a3", "a2": "a3", "a3": "a2", "a4": "a1", "a5": "a4"}
        )
        assert c.joint[0, 2] == pytest.approx(0.2)
        assert c.joint[1, 2] == pytest.approx(0.2)
        assert np.allclose(c.factual_marginal, model.factual.array)
        # a deterministic map that breaks the factual marginal is rejected
        with pytest.raises(ValueError, match="marginal mismatch"):
            coupling_from_map(
                model, {"a1": "a1", "a2": "a2", "a3": "a3", "a4": "a4", "a5": "a4"}
            )

    def test_map_must_cover_support(self):
        model = prize_model()
        with pytest.raises(
            ValueError,
            match=r"counterfactual marginal mismatch at row 3 \('a4'\): "
            r"coupling gives 0.0, case says 0.2$",
        ):
            coupling_from_map(
                model, {"a1": "a1", "a2": "a2", "a3": "a3", "a5": "a4"}
            )

    def test_a_dict_map_and_a_file_map_are_refused_alike(self, tmp_path, capsys):
        model = prize_model()
        mapping = {"a1": "a1", "a2": "a2", "a3": "a3", "a5": "a4"}
        with pytest.raises(ValueError) as from_dict:
            coupling_from_map(model, mapping)
        case = tmp_path / "map.json"
        case.write_text(json.dumps({**dump_case(model), "evidence_coupling": {"map": mapping}}))
        assert main(["evaluate", str(case), "--connection", "e-c"]) == 2
        assert capsys.readouterr().err == f"error: {from_dict.value}\n"

    @pytest.mark.parametrize("axis", ["row", "col"])
    @pytest.mark.parametrize("index", [5, -1])
    def test_an_index_out_of_range_is_refused_by_name(self, index, axis):
        """A `Cells` joint with an index of n or -1 is refused by its
        index check, before its marginals are summed: through
        `evidence_coupling` and at case 1 of a 3-case grid."""
        model = prize_model()
        good = least_divergence_coupling(model).cells
        rows, cols = np.r_[good.rows, 0], np.r_[good.cols, 0]
        (rows if axis == "row" else cols)[-1] = index
        bad = Cells(rows, cols, np.r_[good.mass, 0.0], 5)
        message = "^cell index out of range for a 5x5 joint$"
        with pytest.raises(ValueError, match=message):
            evidence_coupling(model, bad)
        combos = [PolicyCombo("h-fi", conn, "cc-i") for conn in ("e-c", "ld-c", "i-c")]
        with pytest.raises(ValueError, match=message):
            build_grid([model] * 3, combos, [good, bad, good])


class TestIndependence:
    def test_outer_product_cells(self):
        c = independence_coupling(prize_model())
        assert c.joint[4, 2] == pytest.approx(0.2 * 0.4)
        assert c.joint[0, 4] == 0.0

    def test_covariance_is_zero(self):
        model = prize_model()
        c = independence_coupling(model)
        v = model.space.values_array
        m0 = float(model.counterfactual.array @ v)
        m1 = float(model.factual.array @ v)
        cov = float(np.einsum("ij,i,j->", c.joint, v - m0, v - m1))
        assert abs(cov) < 1e-12


class TestComonotone:
    def test_prize_matching_pairs_and_cost(self):
        model = prize_model()
        c = least_divergence_coupling(model)
        expected = {
            (0, 0): 0.2,
            (1, 1): 0.2,
            (2, 2): 0.2,
            (3, 2): 0.2,
            (4, 3): 0.2,
        }
        for (i, k), mass in expected.items():
            assert c.joint[i, k] == pytest.approx(mass)
        assert float(c.joint.sum()) == pytest.approx(1.0)
        assert transport_cost(c) == pytest.approx(565.0)

    def test_identical_marginals_give_diagonal(self):
        model = CaseModel(
            space=OutcomeSpace(("x", "y", "z"), (1.0, 2.0, 3.0)),
            counterfactual=DiscreteDistribution((0.3, 0.3, 0.4)),
            factual=DiscreteDistribution((0.3, 0.3, 0.4)),
            money=IdentityMoneyMap(),
        )
        c = least_divergence_coupling(model)
        assert np.allclose(c.joint, np.diag([0.3, 0.3, 0.4]))
        assert transport_cost(c) == pytest.approx(0.0)

    def test_tie_broken_by_label_order(self):
        weights = (0.5, 0.5)
        j = np.asarray(comonotone_cells(weights, weights, (1.0, 1.0), (1.0, 1.0)))
        assert np.allclose(j, np.diag([0.5, 0.5]))

    def test_matrix_respects_custom_keys(self):
        # Keys reverse the value order, so the sweep must follow the keys.
        half = (0.5, 0.5)
        j = np.asarray(comonotone_cells(half, half, (2.0, 1.0), (2.0, 1.0)))
        assert np.allclose(j, np.diag([0.5, 0.5]))
        j = np.asarray(comonotone_cells(half, half, (2.0, 1.0), (1.0, 2.0)))
        assert np.allclose(j, [[0.0, 0.5], [0.5, 0.0]])


class TestOracle:
    def test_prize_oracle_matches_comonotone(self):
        model = prize_model()
        ld = least_divergence_coupling(model)
        oracle_coupling, best = oracle_min_cost(model)
        assert best == pytest.approx(565.0)
        assert transport_cost(ld) == pytest.approx(best)
        assert transport_cost(oracle_coupling) == pytest.approx(best)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            values = tuple(float(x) for x in rng.uniform(-5.0, 5.0, size=n))
            cf = rng.dirichlet(np.ones(n))
            f = rng.dirichlet(np.ones(n))
            model = CaseModel(
                space=OutcomeSpace(tuple(f"o{i}" for i in range(n)), values),
                counterfactual=DiscreteDistribution(tuple(map(float, cf))),
                factual=DiscreteDistribution(tuple(map(float, f))),
                money=IdentityMoneyMap(),
            )
            cost = transport_cost(least_divergence_coupling(model))
            _, best = oracle_min_cost(model)
            scale = max(1.0, (max(values) - min(values)) ** 2)
            assert abs(cost - best) <= 1e-9 * scale

    def test_refuses_large_supports(self):
        n = 7
        model = CaseModel(
            space=OutcomeSpace(
                tuple(f"o{i}" for i in range(n)), tuple(float(i) for i in range(n))
            ),
            counterfactual=DiscreteDistribution((1.0 / n,) * n),
            factual=DiscreteDistribution((1.0 / n,) * n),
            money=IdentityMoneyMap(),
        )
        with pytest.raises(ValueError, match="refuses support sizes 7x7"):
            oracle_min_cost(model)
