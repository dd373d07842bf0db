"""Tests for the published-table reproduction layer."""

import pytest

from lostchance.tables import (
    TABLES,
    TableCell,
    reproduce_table,
    reproduce_table_2,
    reproduce_table_4,
    reproduce_table_5,
    reproduce_table_6,
)


def by_row(cells):
    out = {}
    for c in cells:
        out.setdefault(c.row, {})[c.outcome] = c
    return out


def combo_view(cells):
    """Flatten row families into one printed value per (combo, outcome)."""
    out = {}
    for c in cells:
        for descriptor in c.combos:
            out[(descriptor, c.outcome)] = c.printed
    return out


class TestMalpracticeTable:
    def test_all_cells_reproduce(self):
        cells = reproduce_table_2()
        assert len(cells) == 8
        assert all(c.ok for c in cells)
        assert all(c.status == "PASS" for c in cells)

    def test_printed_values(self):
        rows = by_row(reproduce_table_2())
        approx = lambda x: pytest.approx(x, rel=1e-12)
        assert rows["L-FI / any / any"]["bad"].printed == approx(5_000.0)
        assert rows["L-FI / any / any"]["good"].printed == approx(5_000.0)
        assert rows["M-FI or H-FI / E-C or LD-C / CC-I or FM-I"]["bad"].printed == approx(50_000.0)
        assert rows["M-FI or H-FI / I-C / CC-I"]["bad"].printed == approx(95_000.0)
        assert rows["M-FI or H-FI / I-C / FM-I"]["bad"].printed == approx(50_000.0)
        for row in rows.values():
            assert row["good"].printed == pytest.approx(row["good"].computed)

    def test_custom_parameters(self):
        cells = reproduce_table_2(p0=0.6, p1=0.2, delta_v=10.0)
        assert all(c.ok for c in cells)
        rows = by_row(cells)
        assert rows["L-FI / any / any"]["bad"].printed == pytest.approx(4.0)
        assert rows["M-FI or H-FI / I-C / CC-I"]["bad"].printed == pytest.approx(6.0)
        assert rows["M-FI or H-FI / I-C / FM-I"]["bad"].printed == pytest.approx(5.0)

    def test_symbolic_tolerance_is_tight(self):
        for c in reproduce_table_2():
            assert c.tolerance == 1e-9 * max(1.0, abs(c.printed))
            assert abs(c.computed - c.printed) <= c.tolerance


class TestPrizeTable:
    def test_cell_count_and_outcomes(self):
        cells = reproduce_table_4()
        assert len(cells) == 40
        assert {c.outcome for c in cells} == {"a1", "a2", "a3", "a4"}
        assert len({c.row for c in cells}) == 10

    def test_every_cell_ok_with_exactly_one_flagged_row(self):
        cells = reproduce_table_4()
        assert all(c.ok for c in cells)
        flagged = [c for c in cells if c.status == "FLAG"]
        assert len(flagged) == 4
        assert {c.row for c in flagged} == {
            "M-FI or H-FI / LD-C (published table) / CC-I or FM-I"
        }
        for c in flagged:
            assert "1125" in c.note and "565" in c.note

    def test_row_label_names_its_combinations_in_product_order(self):
        rows = by_row(reproduce_table_4())
        published = rows["M-FI or H-FI / LD-C (published table) / CC-I or FM-I"]
        assert published["a1"].combos == (
            "m-fi/paper-table/cc-i",
            "m-fi/paper-table/fm-i",
            "h-fi/paper-table/cc-i",
            "h-fi/paper-table/fm-i",
        )
        assert rows["L-FI / any / any"]["a1"].combos == tuple(
            f"l-fi/{conn}/{indem}"
            for conn in ("e-c", "ld-c", "i-c")
            for indem in ("cc-i", "fm-i")
        )
        assert rows["H-FI / I-C / FM-I"]["a1"].combos == ("h-fi/i-c/fm-i",)

    def test_published_least_divergence_row_values(self):
        rows = by_row(reproduce_table_4())
        row = rows["M-FI or H-FI / LD-C (published table) / CC-I or FM-I"]
        assert {o: c.printed for o, c in row.items()} == {
            "a1": 0.0,
            "a2": 0.0,
            "a3": 37.5,
            "a4": 0.0,
        }

    def test_one_decimal_truncations_absorbed_by_tolerance(self):
        rows = by_row(reproduce_table_4())
        cell = rows["M-FI / E-C / CC-I"]["a1"]
        assert cell.printed == 36.6
        assert cell.computed == pytest.approx(110.0 / 3.0, rel=1e-12)
        assert cell.tolerance == 0.1
        cell = rows["M-FI / I-C / CC-I"]["a1"]
        assert cell.printed == 23.7 and cell.computed == pytest.approx(23.75)

    def test_high_info_rows(self):
        rows = by_row(reproduce_table_4())
        ec_cc = rows["H-FI / E-C / CC-I"]
        assert [ec_cc[o].computed for o in ("a1", "a2", "a3", "a4")] == pytest.approx(
            [65.0, 5.0, 0.0, 40.0]
        )
        ic_fm = rows["H-FI / I-C / FM-I"]
        assert [ic_fm[o].computed for o in ("a1", "a2", "a3", "a4")] == pytest.approx(
            [40.0, 15.0, 10.0, 0.0]
        )


class TestUrnTables:
    def test_both_tables_reproduce(self):
        for cells in (reproduce_table_5(), reproduce_table_6()):
            assert len(cells) == 8
            assert all(c.status == "PASS" for c in cells)

    def test_tables_differ_only_in_the_evidence_clamped_cell(self):
        t5 = combo_view(reproduce_table_5())
        t6 = combo_view(reproduce_table_6())
        assert set(t5) == set(t6)
        differing = {k for k in t5 if t5[k] != t6[k]}
        assert differing == {
            ("m-fi/e-c/cc-i", "red"),
            ("h-fi/e-c/cc-i", "red"),
        }
        for key in differing:
            assert t5[key] == pytest.approx(50_000.0, rel=1e-12)
            assert t6[key] == pytest.approx(95_000.0, rel=1e-12)

    def test_custom_ball_values(self):
        cells = reproduce_table_5(p0=0.8, p1=0.4, v_red=100.0, v_blue=600.0)
        assert all(c.ok for c in cells)
        rows = by_row(cells)
        assert rows["L-FI / any / any"]["red"].printed == pytest.approx(200.0)
        assert rows["M-FI or H-FI / I-C / CC-I"]["red"].printed == pytest.approx(400.0)


class TestDispatch:
    def test_registry(self):
        assert set(TABLES) == {"2", "4", "5", "6"}

    def test_reproduce_table_dispatch(self):
        direct = reproduce_table_2(p0=0.9, p1=0.5, delta_v=10.0)
        via_id = reproduce_table("2", p0=0.9, p1=0.5, delta_v=10.0)
        assert [(c.row, c.outcome, c.computed) for c in direct] == [
            (c.row, c.outcome, c.computed) for c in via_id
        ]
        assert reproduce_table(4) == reproduce_table("4")

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_one_grid_per_table(self, monkeypatch, table):
        import lostchance.tables as tables
        import lostchance.valuation as valuation

        grids, builds = [], []
        evaluate_grid = tables.evaluate_grid
        least_divergence = valuation.least_divergence_coupling

        def counted_grid(model, combos, *args, **kwargs):
            grids.append(len(combos))
            return evaluate_grid(model, combos, *args, **kwargs)

        def counted_build(model):
            builds.append(model)
            return least_divergence(model)

        monkeypatch.setattr(tables, "evaluate_grid", counted_grid)
        monkeypatch.setattr(valuation, "least_divergence_coupling", counted_build)
        cells = reproduce_table(table)
        assert len(grids) == 1
        assert grids[0] == len({d for c in cells for d in c.combos})
        assert len(builds) == 1

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unknown table"):
            reproduce_table("3")

    def test_a_failing_cell_names_its_worst_member(self):
        # e-c matches the printed H-FI / E-C / CC-I row, i-c does not.
        from lostchance.scenarios import prize_case
        from lostchance.tables import _decimal_tol, _reproduce

        rows = [("H-FI / E-C or I-C / CC-I", (65.0, 5.0, 0.0, 40.0))]
        cells = _reproduce(prize_case(), "4", ("a1", "a2", "a3", "a4"), rows, _decimal_tol)
        assert [c.status for c in cells] == ["FAIL"] * 4
        assert [c.computed for c in cells] == pytest.approx([65.0, 5.0, 0.0, 40.0])
        assert all(c.combos == ("h-fi/e-c/cc-i", "h-fi/i-c/cc-i") for c in cells)
        assert [c.note for c in cells] == [
            f"worst member h-fi/i-c/cc-i deviates by {dev:.3g}"
            for dev in (abs(45.0 - 65.0), abs(20.0 - 5.0), 15.0, 40.0)
        ]

    def test_cell_ok_property(self):
        cell = TableCell(
            table="2", row="r", outcome="bad", computed=1.0, printed=2.0,
            tolerance=0.5, status="FAIL",
        )
        assert not cell.ok
