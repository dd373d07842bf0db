"""Tests for the built-in case families."""

import itertools

import numpy as np
import pytest

from lostchance import (
    PolicyCombo,
    RejectedFormulaComparison,
    evaluate_grid,
    evaluate_policy,
    medical_malpractice,
    medical_sweep,
    prize_case,
    rejected_formula_comparison,
    urn_independent,
    urn_painted,
)
from lostchance.cli import _grid, main
from lostchance.scenarios import (
    _MEDICAL_COLUMNS,
    MATOS_GUARANTEED,
    matos_award,
    matos_band,
    matos_case,
    matos_sweep,
)


def _medical_rows_one_grid_per_row(p0, delta_v, p1_values):
    """`medical_sweep` as one `evaluate_grid` call per p1."""
    for p1 in p1_values:
        sc = medical_malpractice(p0, float(p1), delta_v)
        row = {"p0": float(p0), "p1": float(p1), "delta_v": float(delta_v)}
        schedules = evaluate_grid(sc.model, list(_MEDICAL_COLUMNS.values()), sc.evidence_joint)
        for col, schedule in zip(_MEDICAL_COLUMNS, schedules):
            row[col] = schedule.award_for("bad")
        row["rejected_formula_comparison"] = rejected_formula_comparison(p0, p1, delta_v).value
        yield row


def _drain(rows):
    """The repr of every row a sweep yields, and of the error it ends with."""
    got = []
    try:
        for row in rows:
            got.append(repr(row))
    except ValueError as exc:
        return got, repr(exc)
    return got, None


def marginals_ok(scenario, joint):
    cf = scenario.model.counterfactual.array
    f = scenario.model.factual.array
    return np.allclose(joint.sum(axis=1), cf) and np.allclose(joint.sum(axis=0), f)


class TestMedical:
    def test_structure(self):
        sc = medical_malpractice(0.95, 0.90, 1e5)
        assert sc.name == "medical"
        assert sc.model.space.labels == ("bad", "good")
        assert sc.model.space.values == (0.0, 1e5)
        assert sc.model.factual_observed == 0
        assert np.allclose(sc.model.counterfactual.array, [0.05, 0.95])
        assert np.allclose(sc.model.factual.array, [0.10, 0.90])
        assert dict(sc.params) == {"p0": 0.95, "p1": 0.90, "delta_v": 1e5}

    def test_evidence_is_threshold_coupling(self):
        # Everyone cured under negligence is cured under proper care too:
        # no mass below the diagonal in the good-to-bad direction.
        sc = medical_malpractice(0.95, 0.90, 1e5)
        expected = np.array([[0.05, 0.0], [0.05, 0.90]])
        assert np.allclose(sc.evidence_joint, expected)
        assert marginals_ok(sc, sc.evidence_joint)

    def test_boundary_chances_allowed(self):
        # A certainly-failing negligent treatment and a no-op act are both
        # legitimate inputs.
        sc = medical_malpractice(0.95, 0.0, 1e5)
        assert np.allclose(sc.model.factual.array, [1.0, 0.0])
        assert np.allclose(sc.evidence_joint, [[0.05, 0.0], [0.95, 0.0]])
        sc = medical_malpractice(0.5, 0.5, 1e5)
        assert np.allclose(sc.evidence_joint, [[0.5, 0.0], [0.0, 0.5]])

    @pytest.mark.parametrize(
        "p0,p1",
        [(0.0, 0.0), (0.5, 0.6), (-0.1, -0.2), (1.1, 0.5), (float("nan"), 0.1)],
    )
    def test_bad_chances_rejected(self, p0, p1):
        with pytest.raises(ValueError):
            medical_malpractice(p0, p1, 1e5)

    @pytest.mark.parametrize("dv", [0.0, -1.0, float("inf")])
    def test_bad_value_gap_rejected(self, dv):
        with pytest.raises(ValueError):
            medical_malpractice(0.95, 0.90, dv)


class TestUrns:
    def test_independent_uses_product_coupling(self):
        sc = urn_independent(0.6, 0.3)
        assert sc.name == "urn-independent"
        assert sc.model.space.labels == ("red", "blue")
        expected = np.outer([0.4, 0.6], [0.7, 0.3])
        assert np.allclose(sc.evidence_joint, expected)
        assert marginals_ok(sc, sc.evidence_joint)

    def test_painted_uses_threshold_coupling(self):
        sc = urn_painted(0.6, 0.3)
        assert sc.name == "urn-painted"
        expected = np.array([[0.4, 0.0], [0.3, 0.3]])
        assert np.allclose(sc.evidence_joint, expected)

    def test_custom_ball_values(self):
        sc = urn_independent(0.6, 0.3, v_red=10.0, v_blue=250.0)
        assert sc.model.space.values == (10.0, 250.0)

    def test_value_order_enforced(self):
        with pytest.raises(ValueError):
            urn_independent(0.6, 0.3, v_red=5.0, v_blue=5.0)
        with pytest.raises(ValueError):
            urn_painted(0.6, 0.3, v_red=9.0, v_blue=2.0)


class TestPrize:
    def test_marginals_and_values(self):
        sc = prize_case()
        assert sc.model.space.labels == ("a1", "a2", "a3", "a4", "a5")
        assert sc.model.space.values == (5.0, 30.0, 35.0, 70.0, 110.0)
        assert np.allclose(sc.model.counterfactual.array, [0.2] * 5)
        assert np.allclose(sc.model.factual.array, [0.2, 0.2, 0.4, 0.2, 0.0])
        assert sc.model.factual_observed is None

    def test_evidence_joint_matches_published_map(self):
        sc = prize_case()
        expected = np.zeros((5, 5))
        for src, dst in [(0, 2), (1, 2), (2, 1), (3, 0), (4, 3)]:
            expected[src, dst] = 0.2
        assert np.allclose(sc.evidence_joint, expected)
        assert marginals_ok(sc, sc.evidence_joint)

    def test_published_table_joint(self):
        sc = prize_case()
        expected = np.zeros((5, 5))
        for src, dst in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 2)]:
            expected[src, dst] = 0.2
        assert np.allclose(sc.paper_table_joint, expected)
        assert marginals_ok(sc, sc.paper_table_joint)

    def test_cost_discrepancy_note_present(self):
        # The published table's cost is flagged on every schedule priced from it.
        sc = prize_case()
        combos = [PolicyCombo(info, "paper-table", "cc-i") for info in ("l-fi", "m-fi", "h-fi")]
        grid = evaluate_grid(sc.model, combos, paper_table_joint=sc.paper_table_joint)
        for sched in grid:
            flags = [n for n in sched.notes if n.startswith("FLAG")]
            assert any("cost 1125 vs optimal 565" in n for n in flags)


class TestMatosCase:
    def test_model_shape(self):
        m = matos_case(0.7, 0.0)
        assert m.choices == ("answer", "refuse")
        assert m.duty == frozenset({"answer", "refuse"})
        assert m.results == ("300", "500000", "1000000")
        assert m.factual_choice == "refuse"
        assert m.factual_result == str(int(MATOS_GUARANTEED))
        # Answering wins the top prize with chance p; refusing is a sure thing.
        assert np.allclose(m.result_given_choice_cf[0].array, [0.3, 0.0, 0.7])
        assert np.allclose(m.result_given_choice_cf[1].array, [0.0, 1.0, 0.0])
        assert np.allclose(m.result_given_choice_f[0].array, [0.75, 0.0, 0.25])

    def test_values_follow_the_curve(self):
        m = matos_case(0.7, 0.5)
        # The value of a result does not depend on how you got there.
        assert m.values[0] == m.values[1]
        v300, v500k, v1m = m.values[0]
        assert v300 < v500k < v1m

    def test_duty_note(self):
        m = matos_case(0.7, 0.0)
        assert any("dutiful" in n for n in m.notes)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_bad_chance_rejected(self, p):
        with pytest.raises(ValueError):
            matos_case(p, 0.0)


class TestMatosBand:
    def test_zero_and_negative(self):
        assert matos_band(0.0) == "zero"
        assert matos_band(-3.0) == "zero"

    @pytest.mark.parametrize(
        "award,band",
        [
            (1.0, "(0,125000]"),
            (125_000.0, "(0,125000]"),
            (125_000.5, "(125000,250000]"),
            (250_000.0, "(125000,250000]"),
            (300_000.0, "(250000,375000]"),
            (375_000.0, "(250000,375000]"),
            (375_000.5, "(375000,500000]"),
            (500_000.0, "(375000,500000]"),
        ],
    )
    def test_half_open_bands(self, award, band):
        assert matos_band(award) == band

    def test_roundoff_above_the_ceiling_tolerated(self):
        # Money round-trips through the utility curve can overshoot the
        # guaranteed payout by a few ulps; that still belongs to the top band.
        assert matos_band(500_000.0000000007) == "(375000,500000]"

    def test_genuinely_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            matos_band(500_001.0)


class TestSweeps:
    def test_matos_sweep_rows(self):
        rows = list(matos_sweep([0.0, 1.0], [0.0, 0.7, 1.0]))
        assert len(rows) == 6
        for row in rows:
            assert set(row) == {"theta", "p", "award", "band"}
            assert row["award"] == matos_award(row["p"], row["theta"])
            assert row["band"] == matos_band(row["award"])
        # Below the compensation threshold the award is zero.
        assert rows[0]["award"] == 0.0 and rows[0]["band"] == "zero"
        # At p=1 the award reaches the guaranteed payout.
        assert rows[2]["band"] == "(375000,500000]"

    def test_every_row_has_the_columns_the_cli_writes_in_order(self, tmp_path, capsys):
        rows = {
            "matos": list(matos_sweep(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 5))),
            "medical": list(medical_sweep(0.95, 1e5, np.linspace(0.0, 0.9, 4))),
        }
        assert [len(r) for r in rows.values()] == [15, 4]
        for scenario, sweep in rows.items():
            out = tmp_path / f"{scenario}.csv"
            assert main(["sweep", scenario, "--out", str(out)]) == 0
            header = tuple(out.read_text().splitlines()[0].split(","))
            assert all(tuple(row) == header for row in sweep), scenario
        capsys.readouterr()

    def test_matos_sweep_is_matos_award_bit_for_bit(self):
        # 1 - 5e-10 takes the curve's logarithmic branch.
        thetas = [0.0, 0.25, 0.5, 1.0 - 5e-10, 1.0]
        ps = np.linspace(0.0, 1.0, 41)
        rows = list(matos_sweep(thetas, ps))
        assert len(rows) == len(thetas) * len(ps)
        points = [(theta, p) for theta in thetas for p in ps]
        for (theta, p), row in zip(points, rows):
            assert type(row["award"]) is float
            assert repr(row["theta"]) == repr(float(theta))
            assert repr(row["p"]) == repr(float(p))
            assert repr(row["award"]) == repr(matos_award(p, theta))
            assert row["band"] == matos_band(row["award"])

    def test_matos_sweep_checks_no_theta_without_points(self):
        assert list(matos_sweep([], [2.0])) == []
        assert list(matos_sweep([2.0], [])) == []

    def test_matos_sweep_bad_chance_wins_at_the_first_point(self):
        with pytest.raises(ValueError, match=r"success chance must lie in \[0, 1\], got 2.0"):
            list(matos_sweep([2.0], [2.0]))
        with pytest.raises(ValueError, match="theta must lie in"):
            list(matos_sweep([2.0], [0.5, 2.0]))

    def test_matos_sweep_yields_the_rows_before_a_bad_point(self):
        rows = matos_sweep([0.5], [0.0, 0.5, 2.0, 0.7])
        assert [next(rows)["p"], next(rows)["p"]] == [0.0, 0.5]
        with pytest.raises(ValueError, match="got 2.0"):
            next(rows)
        rows = matos_sweep([0.5, -1.0], [0.2, 0.4])
        assert [row["award"] for row in itertools.islice(rows, 2)] == [
            matos_award(0.2, 0.5),
            matos_award(0.4, 0.5),
        ]
        with pytest.raises(ValueError, match="theta must lie in"):
            next(rows)

    def test_matos_sweep_reads_a_one_shot_p_axis_once(self):
        # Every theta gets the points, as from a list.
        one_shot = list(matos_sweep([0.0, 0.5, 1.0], (p for p in [0.1, 0.9])))
        assert one_shot == list(matos_sweep([0.0, 0.5, 1.0], [0.1, 0.9]))
        assert [(row["theta"], row["p"]) for row in one_shot] == [
            (theta, p) for theta in (0.0, 0.5, 1.0) for p in (0.1, 0.9)
        ]
        # An empty theta axis reads no point.
        points = iter([0.1, 0.9])
        assert list(matos_sweep([], points)) == []
        assert next(points) == 0.1

    def test_medical_sweep_matches_direct_evaluation(self):
        rows = list(medical_sweep(0.95, 1e5, [0.90]))
        assert len(rows) == 1
        row = rows[0]
        assert row["p0"] == 0.95 and row["p1"] == 0.90 and row["delta_v"] == 1e5
        assert row["award_l_fi"] == pytest.approx(5_000.0, rel=1e-12)
        assert row["award_e_c"] == pytest.approx(50_000.0, rel=1e-12)
        assert row["award_i_c_cc_i"] == pytest.approx(95_000.0, rel=1e-12)
        assert row["award_i_c_fm_i"] == pytest.approx(50_000.0, rel=1e-12)
        sc = medical_malpractice(0.95, 0.90, 1e5)
        for col, combo in [
            ("award_l_fi", ("l-fi", "e-c", "cc-i")),
            ("award_e_c", ("h-fi", "e-c", "cc-i")),
            ("award_i_c_cc_i", ("h-fi", "i-c", "cc-i")),
            ("award_i_c_fm_i", ("h-fi", "i-c", "fm-i")),
        ]:
            schedule = evaluate_policy(
                sc.model, PolicyCombo(*combo), evidence_joint=sc.evidence_joint
            )
            assert row[col] == schedule.award_for("bad")

    @pytest.mark.parametrize("p0, delta_v", [(0.95, 1e5), (0.5, 1.0), (1.0, 3.7), (0.3, 2e-3)])
    @pytest.mark.parametrize(
        "lo, hi, steps",
        [
            (0.0, 0.9, 19),  # the default axis
            (0.0, None, 20),  # p1 = 0 and p1 = p0
            (0.0, 0.9, 181),
            (0.25, 0.9, 1),
            (0.0, 0.9, 0),
        ],
    )
    def test_medical_sweep_rows_are_one_grid_per_row(self, p0, delta_v, lo, hi, steps):
        """One grid over the whole p1 axis gives, by repr, the rows of one
        `evaluate_grid` per p1, and the same error after the same rows: a
        p1 past p0 is refused, and so is p1 = 1 at the end of the edge axis
        when p0 = 1."""
        p1s = _grid(lo, p0 if hi is None else hi, steps)
        rows, error = _drain(medical_sweep(p0, delta_v, p1s))
        assert (rows, error) == _drain(_medical_rows_one_grid_per_row(p0, delta_v, p1s))
        assert len(rows) == steps or error is not None

    def test_medical_sweep_yields_the_rows_before_a_refused_p1(self):
        rows = medical_sweep(0.5, 1e5, [0.1, 0.2, 0.7, 0.3])
        assert [next(rows)["p1"], next(rows)["p1"]] == [0.1, 0.2]
        with pytest.raises(ValueError, match=r"need 0 <= p1 <= p0 <= 1; got p0=0.5, p1=0.7"):
            next(rows)
        assert _drain(medical_sweep(0.5, 1e5, [0.1, 0.2, 0.7, 0.3])) == _drain(
            _medical_rows_one_grid_per_row(0.5, 1e5, [0.1, 0.2, 0.7, 0.3])
        )

    @pytest.mark.parametrize("steps", [1, 19, 181])
    def test_sweep_medical_is_one_build_and_one_award_call(
        self, monkeypatch, tmp_path, capsys, steps
    ):
        import lostchance.valuation as valuation

        calls = []
        for name in ("build_grid", "award_from_compensation"):
            original = getattr(valuation, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(valuation, name, counted)
        out = tmp_path / "medical.csv"
        argv = ["sweep", "medical", "--p1-steps", str(steps), "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(f"wrote {steps} rows")
        assert calls == ["build_grid", "award_from_compensation"]

    def test_medical_sweep_carries_the_rejected_formula(self):
        row = next(iter(medical_sweep(0.95, 1e5, [0.90])))
        assert row["rejected_formula_comparison"] == pytest.approx(
            5_263.157894736842, rel=1e-12
        )


class TestRejectedFormula:
    def test_value_and_flag(self):
        cmp = rejected_formula_comparison(0.95, 0.90, 1e5)
        assert isinstance(cmp, RejectedFormulaComparison)
        assert cmp.value == pytest.approx((0.95 - 0.90) / 0.95 * 1e5, rel=1e-15)
        assert "no policy combination" in cmp.flag

    def test_preconditions_shared_with_medical(self):
        with pytest.raises(ValueError):
            rejected_formula_comparison(0.0, 0.0, 1e5)
        with pytest.raises(ValueError):
            rejected_formula_comparison(0.95, 0.90, -1.0)
