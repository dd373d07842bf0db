"""End-to-end tests for the command-line front end.

Everything goes through lostchance.cli.main(argv) so exit codes and
captured output are checked without spawning subprocesses.
"""

import csv
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lostchance import (
    SCHEMA_TEXT,
    load_case,
    matos_case,
    medical_malpractice,
    prize_case,
    save_case,
)
from lostchance.cli import _cell, _csv_columns, _csv_field, _schedules_csv, main
from lostchance.outcome import OutcomeSpace
from lostchance.scenarios import RejectedFormulaComparison, matos_award, matos_band
from lostchance.valuation import CompensationSchedule, PolicyCombo


@pytest.fixture
def medical_file(tmp_path):
    sc = medical_malpractice(0.95, 0.90, 1e5)
    path = tmp_path / "medical.json"
    save_case(path, sc.model, sc.evidence_joint)
    return path


@pytest.fixture
def bare_file(tmp_path):
    # Same case, but without the evidence coupling.
    sc = medical_malpractice(0.95, 0.90, 1e5)
    path = tmp_path / "bare.json"
    save_case(path, sc.model)
    return path


@pytest.fixture
def paper_table_file(tmp_path):
    sc = prize_case()
    path = tmp_path / "prize_published.json"
    save_case(path, sc.model, sc.paper_table_joint)
    return path


@pytest.fixture
def matos_file(tmp_path):
    path = tmp_path / "matos.json"
    save_case(path, matos_case(0.95, 0.0))
    return path


@pytest.fixture
def table_top_file(tmp_path):
    # The money table ends at the top value, and the l-fi payouts of 4
    # lift the good outcome to 14, past its last point.
    path = tmp_path / "table_top.json"
    path.write_text(
        json.dumps(
            {
                "outcomes": [
                    {"label": "bad", "value": 0.0},
                    {"label": "good", "value": 10.0},
                ],
                "counterfactual": {"bad": 0.5, "good": 0.5},
                "factual": {"bad": 0.9, "good": 0.1},
                "money": {
                    "kind": "tabulated",
                    "points": [[0.0, 0.0], [10.0, 100000.0]],
                },
            }
        ),
        encoding="utf-8",
    )
    return path


# Outcomes "a" and "b" carry factual weight 1e-17 that the evidence gives
# no mass, so h-fi/e-c drops their blocks.
DROPPED_BLOCK_CASE = {
    "outcomes": [{"label": k, "value": float(i)} for i, k in enumerate("abcd")],
    "counterfactual": {"a": 0.0, "b": 0.0, "c": 0.0, "d": 1.0},
    "factual": {"a": 1e-17, "b": 1e-17, "c": 0.5, "d": 0.5},
    "money": {"kind": "identity"},
    "evidence_coupling": {
        "matrix": [[0.0] * 4, [0.0] * 4, [0.0] * 4, [0.0, 0.0, 0.5, 0.5]]
    },
}

GOLDEN = Path(__file__).parent / "golden"

SPAN_ERROR = (
    "error: outcome values span -1e+308 to 1e+308, a range wider than a "
    "float holds\n"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    @pytest.mark.filterwarnings("error")
    def test_a_dropped_block_is_noted_on_stdout(self, capsys, tmp_path):
        path = tmp_path / "dropped.json"
        path.write_text(json.dumps(DROPPED_BLOCK_CASE), encoding="utf-8")
        argv = ["evaluate", str(path), "--info", "h-fi", "--connection", "e-c"]
        # Every call notes both blocks, whatever ran before it.
        for _ in range(3):
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert [line.split()[1:3] for line in lines[:2]] == [
                ["a", "compensation=0"], ["b", "compensation=0"]
            ]
            assert lines[-2:] == [
                "# note: dropped zero-probability block of outcome(s) 'a'",
                "# note: dropped zero-probability block of outcome(s) 'b'",
            ]

    def test_default_policy(self, capsys, medical_file):
        code, out, err = run(capsys, ["evaluate", str(medical_file)])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("h-fi/e-c/cc-i")
        assert "bad" in lines[0] and "compensation=50000" in lines[0]
        assert "good" in lines[1] and "compensation=0" in lines[1]

    def test_explicit_combo(self, capsys, medical_file):
        code, out, _ = run(
            capsys,
            ["evaluate", str(medical_file), "--info", "l-fi",
             "--connection", "i-c", "--indemnity", "fm-i"],
        )
        assert code == 0
        assert out.splitlines()[0].startswith("l-fi/i-c/fm-i")
        assert "compensation=5000" in out

    def test_all_policies_grid(self, capsys, medical_file):
        code, out, _ = run(capsys, ["evaluate", str(medical_file), "--all-policies"])
        assert code == 0
        descriptors = {
            line.split()[0] for line in out.splitlines() if not line.startswith("#")
        }
        assert len(descriptors) == 18
        assert "l-fi/e-c/cc-i" in descriptors
        assert "h-fi/i-c/fm-i" in descriptors
        assert "skipped" not in out

    def test_all_policies_skips_evidence_without_coupling(self, capsys, bare_file):
        code, out, _ = run(capsys, ["evaluate", str(bare_file), "--all-policies"])
        assert code == 0
        descriptors = {
            line.split()[0] for line in out.splitlines() if not line.startswith("#")
        }
        assert len(descriptors) == 12
        assert not any("e-c" in d for d in descriptors)
        assert "# skipped h-fi/e-c: no evidence coupling in file" in out

    def test_csv_output_full_precision(self, capsys, medical_file):
        code, out, _ = run(
            capsys, ["evaluate", str(medical_file), "--info", "l-fi", "--csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["policy", "outcome", "compensation", "award"]
        assert len(rows) == 3
        # l-fi pays the mean gap everywhere; CSV keeps repr precision.
        for row in rows[1:]:
            assert float(row[2]) == pytest.approx(5_000.0, rel=1e-12)
            assert repr(float(row[2])) == row[2]

    def test_paper_table_flag_and_strict(self, capsys, paper_table_file):
        argv = ["evaluate", str(paper_table_file), "--connection", "paper-table"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "# FLAG published least-divergence table is not cost-minimal" in out
        assert "1125" in out and "565" in out
        code, _, _ = run(capsys, argv + ["--strict"])
        assert code == 1

    def test_strict_without_flags_passes(self, capsys, medical_file):
        code, _, _ = run(capsys, ["evaluate", str(medical_file), "--strict"])
        assert code == 0

    def test_custom_blocks(self, capsys, medical_file):
        code, out, _ = run(
            capsys,
            ["evaluate", str(medical_file), "--info", "custom",
             "--custom-blocks", "bad|good"],
        )
        assert code == 0
        assert "compensation=50000" in out
        code, _, err = run(
            capsys,
            ["evaluate", str(medical_file), "--info", "custom",
             "--custom-blocks", "bad,mythical"],
        )
        assert code == 2 and err.startswith("error:")

    def test_choice_case_default_presumption(self, capsys, matos_file):
        code, out, _ = run(capsys, ["evaluate", str(matos_file)])
        assert code == 0
        # Only the factually possible pair appears in the schedule.
        assert "refuse|500000" in out
        assert "compensation=450015" in out
        assert "# presumption(it-cp): counterfactual choice presumed 'answer'" in out

    def test_choice_case_presumption_none_needs_evidence(self, capsys, matos_file):
        code, _, err = run(
            capsys, ["evaluate", str(matos_file), "--presumption", "none"]
        )
        assert code == 2
        assert "counterfactual choice is unresolved" in err

    def test_choice_case_custom_label_checked_before_the_choice(self, capsys, matos_file):
        # Custom-block labels are resolved on the case's own outcome space
        # before the counterfactual choice is resolved, so an unknown label
        # is reported even when the choice would stay unresolved.
        code, out, err = run(
            capsys,
            ["evaluate", str(matos_file), "--presumption", "none", "--info", "custom",
             "--custom-blocks", '[["nope"]]'],
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: unknown outcome label 'nope'; 'a,b|c' splits labels at ',' "
            "and '|', so name labels that hold them in the JSON form, for example "
            "--custom-blocks '[[\"answer|300\"]]'\n"
        )

    @pytest.mark.parametrize("presumption", ["it-cp", "ii-cp"])
    def test_choice_case_presumption_keeps_the_pair_space(
        self, capsys, monkeypatch, matos_file, presumption
    ):
        # The blocks' labels are looked up on the pair space before the
        # choice is presumed; the presumed copy must not build it again.
        built = []
        post_init = OutcomeSpace.__post_init__

        def counted(space):
            built.append(space)
            post_init(space)

        monkeypatch.setattr(OutcomeSpace, "__post_init__", counted)
        argv = ["evaluate", str(matos_file), "--presumption", presumption,
                "--info", "custom", "--custom-blocks", '[["refuse|500000"]]']
        assert run(capsys, argv)[0] == 0
        assert len(built) == 1

    def test_choice_case_override_presumption(self, capsys, matos_file):
        code, _, _ = run(
            capsys, ["evaluate", str(matos_file), "--presumption", "ii-cp"]
        )
        assert code == 0

    def test_csv_labels_read_back(self, capsys, tmp_path):
        labels = ["bad\rx", 'say "hi", ok']
        path = tmp_path / "quoted.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [
                        {"label": labels[0], "value": 0.0},
                        {"label": labels[1], "value": 1.0},
                    ],
                    "counterfactual": {labels[0]: 0.5, labels[1]: 0.5},
                    "factual": {labels[0]: 0.5, labels[1]: 0.5},
                    "money": {"kind": "identity"},
                }
            ),
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["evaluate", str(path), "--connection", "i-c", "--csv"])
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert [r[1] for r in rows] == ["outcome", *labels]

    def test_award_past_money_table_extrapolates(self, capsys, table_top_file):
        code, out, err = run(
            capsys, ["evaluate", str(table_top_file), "--all-policies", "--csv"]
        )
        assert code == 0, err
        rows = {
            (r[0], r[1]): (float(r[2]), float(r[3]))
            for r in csv.reader(io.StringIO(out))
            if r and not r[0].startswith("#") and r[0] != "policy"
        }
        # 4 value units past the table's top at 10 000 money per unit.
        assert rows[("l-fi/ld-c/cc-i", "good")] == (4.0, 40000.0)
        # Inside the table nothing changes.
        assert rows[("h-fi/i-c/cc-i", "bad")] == (5.0, 50000.0)
        assert (
            "# note: the award for outcome 'good' extrapolates the money table "
            "past its last point 10, along its end segment"
        ) in out.splitlines()


class TestTable:
    def test_malpractice_table(self, capsys):
        code, out, _ = run(capsys, ["table", "2"])
        assert code == 0
        assert "8/8 cells match" in out
        assert all(
            line.startswith("table 2 | ") or line.endswith("cells match")
            for line in out.splitlines()
        )
        assert "FAIL" not in out

    def test_prize_table_flags_do_not_fail(self, capsys):
        code, out, _ = run(capsys, ["table", "4"])
        assert code == 0
        assert "40/40 cells match" in out
        flag_lines = [l for l in out.splitlines() if " FLAG" in l]
        assert len(flag_lines) == 4
        for line in flag_lines:
            assert line.count("FLAG published least-divergence table") == 1
        code, _, _ = run(capsys, ["table", "4", "--strict"])
        assert code == 1

    def test_custom_parameters(self, capsys):
        code, out, _ = run(
            capsys, ["table", "2", "--p0", "0.6", "--p1", "0.2", "--delta-v", "10"]
        )
        assert code == 0 and "8/8 cells match" in out
        code, out, _ = run(
            capsys, ["table", "5", "--v-red", "100", "--v-blue", "600"]
        )
        assert code == 0 and "8/8 cells match" in out

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["table", "4", "--p0", "0.5", "--delta-v", "3"],
                "table 4 does not read --p0, --delta-v",
            ),
            (["table", "4", "--p0", "0.95"], "table 4 does not read --p0"),
            (["table", "2", "--v-red", "7"], "table 2 does not read --v-red"),
            (["table", "5", "--p0", "0.5", "--delta-v", "1"], "table 5 does not read --delta-v"),
        ],
    )
    def test_a_flag_the_table_does_not_read_is_an_error(self, capsys, argv, error):
        assert run(capsys, argv) == (2, "", f"error: {error}\n")

    def test_unknown_table_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "3"])
        assert exc.value.code == 2


class TestSweep:
    def test_matos_sweep_deterministic(self, capsys, tmp_path):
        out_path = tmp_path / "m.csv"
        argv = [
            "sweep", "matos", "--theta-steps", "2", "--p-steps", "3",
            "--out", str(out_path),
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert f"wrote 6 rows to {out_path}" in out
        first = out_path.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "theta,p,award,band"
        assert len(lines) == 7
        assert main(argv) == 0
        capsys.readouterr()
        assert out_path.read_bytes() == first

    def test_medical_sweep_columns(self, capsys, tmp_path):
        out_path = tmp_path / "med.csv"
        code, out, _ = run(
            capsys,
            ["sweep", "medical", "--p1-steps", "2", "--p1-max", "0.5",
             "--out", str(out_path)],
        )
        assert code == 0
        # The comparison's own flag, printed once.
        assert out.splitlines()[1:] == [
            f"# rejected_formula_comparison: {RejectedFormulaComparison.flag}"
        ]
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[0] == [
            "p0", "p1", "delta_v", "award_l_fi", "award_e_c",
            "award_i_c_cc_i", "award_i_c_fm_i", "rejected_formula_comparison",
        ]
        assert len(rows) == 3
        assert float(rows[1][1]) == 0.0 and float(rows[2][1]) == 0.5

    @pytest.mark.parametrize("existing", [True, False], ids=["target", "dangling"])
    def test_out_through_a_symlink_keeps_the_link(self, capsys, tmp_path, existing):
        argv = ["sweep", "medical", "--p1-steps", "2"]
        direct = tmp_path / "direct.csv"
        assert run(capsys, [*argv, "--out", str(direct)])[0] == 0
        real = tmp_path / "real" / "med.csv"
        if existing:
            real.parent.mkdir()
            real.write_text("stale\n")
        link = tmp_path / "links" / "med.csv"
        link.parent.mkdir()
        link.symlink_to(real)
        code, out, _ = run(capsys, [*argv, "--out", str(link)])
        assert code == 0 and f"wrote 2 rows to {link}" in out
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == direct.read_bytes()
        assert [p.name for p in real.parent.iterdir()] == ["med.csv"]

    def test_empty_grid_writes_header_only(self, capsys, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, out, _ = run(
            capsys,
            ["sweep", "matos", "--theta-steps", "0", "--out", str(out_path)],
        )
        assert code == 0
        assert "wrote 0 rows" in out
        assert out_path.read_text() == "theta,p,award,band\n"

    def test_theta_outside_unit_interval_is_named_as_a_float(self, capsys, tmp_path):
        out_path = tmp_path / "matos.csv"
        argv = ["sweep", "matos", "--theta-min", "2", "--theta-steps", "1"]
        code, _, err = run(capsys, [*argv, "--out", str(out_path)])
        assert code == 2
        assert err == "error: theta must lie in [0, 1], got 2.0\n"
        assert not out_path.exists()

    def test_matos_csv_is_the_per_row_writer_on_matos_award(self, capsys, tmp_path):
        out_path = tmp_path / "matos.csv"
        argv = ["sweep", "matos", "--theta-steps", "101", "--p-steps", "201"]
        code, out, _ = run(capsys, [*argv, "--out", str(out_path)])
        assert code == 0 and out == f"wrote 20301 rows to {out_path}\n"
        table = [("theta", "p", "award", "band")]
        for theta in np.linspace(0.0, 1.0, 101):
            for p in np.linspace(0.0, 1.0, 201):
                award = matos_award(p, theta)
                table.append((float(theta), float(p), award, matos_band(award)))
        want = "".join(",".join(_csv_field(_cell(x)) for x in row) + "\n" for row in table)
        assert out_path.read_text() == want

    @pytest.mark.parametrize(
        "extra",
        [
            ["--theta-steps", "0", "--p-min", "2", "--p-max", "2"],
            ["--p-steps", "0", "--theta-min", "2", "--theta-max", "2", "--theta-steps", "1"],
        ],
    )
    def test_matos_empty_axis_checks_nothing(self, capsys, tmp_path, extra):
        out_path = tmp_path / "matos.csv"
        code, out, err = run(capsys, ["sweep", "matos", *extra, "--out", str(out_path)])
        assert (code, err) == (0, "")
        assert out == f"wrote 0 rows to {out_path}\n"
        assert out_path.read_text() == "theta,p,award,band\n"

    @pytest.mark.parametrize(
        "argv, first",
        [
            # The one point of a one-step axis is its low end, as given.
            (["matos", "--theta-min", "-0.0", "--theta-steps", "1", "--p-steps", "1"],
             "-0.0,0.0,"),
            (["medical", "--p1-max", "inf", "--p1-steps", "1"], "0.95,0.0,100000.0,"),
            # No point is read from a span past a float's range.
            (["matos", "--theta-min=1e308", "--theta-max=-1e308", "--theta-steps", "0"],
             None),
        ],
    )
    def test_an_axis_of_no_point_or_one_reads_no_span(self, capsys, tmp_path, argv, first):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, ["sweep", *argv, "--out", str(out_path)])
        assert (code, err) == (0, "")
        rows = out_path.read_text().splitlines()[1:]
        assert [row[: len(first or "")] for row in rows] == ([first] if first else [])

    def test_matos_bad_chance_wins_over_bad_theta(self, capsys, tmp_path):
        argv = ["sweep", "matos", "--theta-min", "2", "--theta-max", "2",
                "--theta-steps", "1", "--p-min", "2", "--p-max", "2", "--p-steps", "1"]
        code, _, err = run(capsys, [*argv, "--out", str(tmp_path / "matos.csv")])
        assert code == 2
        assert err == "error: success chance must lie in [0, 1], got 2.0\n"

    def test_out_dir_env_sets_default_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LOSTCHANCE_OUT_DIR", str(tmp_path))
        code, out, _ = run(
            capsys, ["sweep", "matos", "--theta-steps", "1", "--p-steps", "2"]
        )
        assert code == 0
        assert (tmp_path / "matos_sweep.csv").exists()
        assert str(tmp_path / "matos_sweep.csv") in out

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["matos", "--p0", "0.5"], "sweep matos does not read --p0"),
            (
                ["medical", "--p-min", "0.1", "--p1-steps", "2", "--theta-steps", "3"],
                "sweep medical does not read --theta-steps, --p-min",
            ),
        ],
    )
    def test_a_flag_the_scenario_does_not_read_is_an_error(
        self, capsys, tmp_path, argv, error
    ):
        out_path = tmp_path / "sweep.csv"
        assert run(capsys, ["sweep", *argv, "--out", str(out_path)]) == (
            2, "", f"error: {error}\n"
        )
        assert not out_path.exists()


class TestCsvColumns:
    def test_float_column_keeps_negative_zero(self):
        assert _csv_columns(["x"], [[-0.0, 0.0, -0.0]]) == "x\n-0.0\n0.0\n-0.0\n"

    def test_numpy_floats_go_through_cell(self):
        column = [np.float64(0.1), 1.5, np.float64(-0.0), np.float64(0.0), 3]
        assert _csv_columns(["x"], [column]) == "x\n0.1\n1.5\n-0.0\n0.0\n3.0\n"

    def test_text_fields_are_quoted_once_per_distinct_text(self):
        bands = ["(0,125000]", "zero", "(0,125000]", 'say "hi"']
        got = _csv_columns(["award", "band"], [[1.0, 0.0, 2.0, 3.0], bands])
        assert got == (
            'award,band\n1.0,"(0,125000]"\n0.0,zero\n2.0,"(0,125000]"\n'
            '3.0,"say ""hi"""\n'
        )

    def test_no_rows_gives_the_header(self):
        assert _csv_columns(["a", "b,c"], [[], []]) == 'a,"b,c"\n'


class TestVerify:
    def test_audit_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "0", "--instances", "40"])
        assert code == 0
        assert "overall: PASS" in out

    def test_seed_whose_fair_mean_root_sits_on_a_breakpoint(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "107", "--instances", "200"])
        assert code == 0
        assert "overall: PASS" in out

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_instance_count_below_one_is_an_input_error(self, capsys, count):
        code, out, err = run(capsys, ["verify", "--instances", count])
        assert (code, out) == (2, "")
        assert err == f"error: instances must be at least 1, got {count}\n"

    def test_negative_seed_is_an_input_error_before_any_suite(self, capsys, monkeypatch):
        from lostchance import verify

        def no_suites(*args):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "_run_suites", no_suites)
        code, out, err = run(capsys, ["verify", "--seed", "-1", "--instances", "5"])
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_one_instance_passes_when_no_check_fails(self, capsys):
        # Seed 0's one instance has no positive mean gap, so the fair-mean
        # suite draws on until an instance has one.
        code, out, _ = run(capsys, ["verify", "--seed", "0", "--instances", "1"])
        assert code == 0
        assert out.startswith("verification report (seed=0, instances=1)")
        assert out.rstrip().endswith("overall: PASS (13 properties)")

    def test_injected_fault_caught(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--seed", "0", "--instances", "30",
             "--inject-lambda-offset", "0.1"],
        )
        assert code == 1
        assert "FAIL" in out
        assert "fair-mean-constrained-optimal" in out


class TestParameterErrors:
    """A bad built-in scenario parameter is reported by name."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "2", "--p0", "1", "--p1", "1"],
            ["sweep", "medical", "--p0", "1", "--p1-min", "1", "--p1-max", "1",
             "--p1-steps", "1"],
        ],
    )
    def test_p1_of_one(self, capsys, tmp_path, argv):
        if argv[0] == "sweep":
            argv = argv + ["--out", str(tmp_path / "medical.csv")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: p1 must be below 1: at p1 = 1.0 the observed outcome 'bad' "
            "has zero factual probability\n"
        )

    @pytest.mark.parametrize("table, high", [("2", "good"), ("5", "blue"), ("6", "blue")])
    def test_symbolic_table_at_p1_zero(self, capsys, table, high):
        code, out, err = run(capsys, ["table", table, "--p1", "0"])
        assert (code, out) == (2, "")
        assert err == (
            f"error: table {table} needs p1 > 0: at p1 = 0.0 the outcome "
            f"'{high}' is factually impossible, so its cells have no schedule\n"
        )

    @pytest.mark.parametrize("table", ["5", "6"])
    @pytest.mark.parametrize(
        "flag, param, value",
        [("--v-blue", "v_blue", "inf"), ("--v-red", "v_red", "nan"), ("--v-red", "v_red", "-inf")],
    )
    def test_non_finite_urn_value(self, capsys, table, flag, param, value):
        # Named before the order check, which every comparison with nan fails.
        code, out, err = run(capsys, ["table", table, f"{flag}={value}"])
        assert (code, out) == (2, "")
        assert err == f"error: urn value {param} must be finite, got {float(value)!r}\n"

    def test_urn_values_wider_than_a_float(self, capsys):
        code, out, err = run(capsys, ["table", "5", "--v-red=-1e308", "--v-blue=1e308"])
        assert (code, out, err) == (2, "", SPAN_ERROR)

    def test_unknown_custom_block_label(self, capsys, medical_file):
        code, out, err = run(
            capsys,
            ["evaluate", str(medical_file), "--info", "custom",
             "--custom-blocks", "bad|nope"],
        )
        assert (code, out) == (2, "")
        assert err == "error: unknown outcome label 'nope'\n"

    def test_json_custom_blocks_name_choice_labels(self, capsys, matos_file):
        # A choice case's labels are "choice|result"; 'a,b|c' splits them.
        base = ["evaluate", str(matos_file), "--connection", "ld-c", "--csv"]
        code, out, _ = run(
            capsys, base + ["--info", "custom", "--custom-blocks", '[["refuse|500000"]]']
        )
        assert code == 0
        _, h_fi, _ = run(capsys, base + ["--info", "h-fi"])
        assert out == h_fi.replace("h-fi/", "custom/")
        code, out, err = run(
            capsys, base + ["--info", "custom", "--custom-blocks", "refuse|500000"]
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: unknown outcome label 'refuse'; 'a,b|c' splits labels at ',' "
            "and '|', so name labels that hold them in the JSON form, for example "
            "--custom-blocks '[[\"answer|300\"]]'\n"
        )

    def test_custom_blocks_off_the_support_are_named_briefly(self, capsys, tmp_path):
        # 3 choices x 400 results; the factual choice gives every fifth
        # result no weight, so its support is 320 of the 1200 pairs.
        choices = ["choice-a", "choice-b", "choice-c"]
        results = [f"result-{j}" for j in range(400)]
        uniform = {r: 1 / 400 for r in results}
        gapped = {r: 0.0 if j % 5 == 0 else 1 / 320 for j, r in enumerate(results)}
        case = tmp_path / "choice.json"
        case.write_text(json.dumps({
            "money": {"kind": "identity"},
            "choice": {
                "choices": choices,
                "duty": ["choice-a"],
                "results": results,
                "values": [[float(j) for j in range(400)]] * 3,
                "counterfactual_choice": None,
                "result_given_choice_counterfactual": {c: uniform for c in choices},
                "result_given_choice_factual": {c: gapped for c in choices},
                "factual_choice": "choice-b",
                "factual_result": "result-1",
            },
        }))
        pairs = [f"{c}|{r}" for c in choices for r in results]
        blocks = json.dumps([pairs[:600], pairs[600:]])
        code, out, err = run(
            capsys,
            ["evaluate", str(case), "--info", "custom", "--custom-blocks", blocks],
        )
        assert (code, out) == (2, "")
        assert len(err.encode()) < 400
        assert err == (
            "error: custom blocks do not tile the factual support: "
            "outcomes outside the support: 880 [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...]\n"
        )

    def test_json_custom_blocks_keep_the_plain_meaning(self, capsys, medical_file):
        base = ["evaluate", str(medical_file), "--info", "custom", "--csv"]
        plain = run(capsys, base + ["--custom-blocks", "bad|good"])
        assert run(capsys, base + ["--custom-blocks", ' [["bad"], ["good"]]']) == plain
        assert plain[0] == 0

    @pytest.mark.parametrize(
        "spec, problem",
        [
            ("[]", "expected a non-empty list of blocks"),
            ('[["bad"], []]', "blocks that are not non-empty lists of labels: 1 [1]"),
            ('[["bad", 2]]', "blocks that are not non-empty lists of labels: 1 [0]"),
            ('["bad", ["good"]]', "blocks that are not non-empty lists of labels: 1 [0]"),
        ],
    )
    def test_malformed_json_custom_blocks(self, capsys, medical_file, spec, problem):
        argv = ["evaluate", str(medical_file), "--info", "custom", "--custom-blocks", spec]
        assert run(capsys, argv) == (
            2, "", f"error: could not parse custom blocks: {problem}\n"
        )

    @pytest.mark.parametrize(
        "spec, error",
        [
            (
                "[" * 900 + "x",
                "custom blocks are not JSON: Expecting value: line 1 column 901 (char 900)",
            ),
            ("|," * 500, "could not parse custom blocks: no block names a label"),
            (
                json.dumps([["a1"]] + [5] * 300),
                "could not parse custom blocks: blocks that are not non-empty lists "
                "of labels: 300 [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...]",
            ),
            (
                json.dumps([["a1", 1] * 200]),
                "could not parse custom blocks: blocks that are not non-empty lists "
                "of labels: 1 [0]",
            ),
        ],
        ids=["deep", "empty", "numbers", "mixed"],
    )
    def test_a_custom_blocks_refusal_does_not_echo_the_spec(self, capsys, spec, error):
        argv = ["evaluate", str(GOLDEN / "paper-prize.json"), "--info", "custom",
                "--custom-blocks", spec]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {error}\n")
        assert len(err.encode()) <= 300

    @pytest.mark.parametrize(
        "argv",
        [
            ["--connection", "ld-c"],
            ["--info", "h-fi"],
            ["--info", "custom", "--all-policies"],
        ],
    )
    def test_custom_blocks_no_combination_uses(self, capsys, medical_file, argv):
        argv = ["evaluate", str(medical_file), "--custom-blocks", '[["bad"]]', *argv]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --custom-blocks is given, but no evaluated ")

    def test_custom_blocks_that_are_not_json(self, capsys, medical_file):
        argv = ["evaluate", str(medical_file), "--info", "custom",
                "--custom-blocks", '[["bad"']
        assert run(capsys, argv) == (
            2, "", "error: custom blocks are not JSON: Expecting ',' delimiter: "
            "line 1 column 8 (char 7)\n"
        )

    def test_custom_blocks_nested_past_the_parser_are_refused(self, capsys, medical_file):
        argv = ["evaluate", str(medical_file), "--info", "custom",
                "--custom-blocks", "[" * 50_000]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: custom blocks are not JSON: nested deeper than the parser allows\n"


class TestSchemaAndErrors:
    def test_schema_prints_grammar(self, capsys):
        code, out, _ = run(capsys, ["schema"])
        assert code == 0
        assert out == SCHEMA_TEXT

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["evaluate", "/nonexistent/case.json"])
        assert code == 2
        assert err.startswith("error:")

    def test_case_path_that_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, ["evaluate", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, ["evaluate", str(path)])
        assert code == 2
        assert "case file is invalid" in err
        assert "invalid JSON" in err

    def test_json_nested_past_the_parser_is_refused(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, ["evaluate", str(path)])
        assert (code, out) == (2, "")
        assert err == (
            "error: case file is invalid\n"
            "  - invalid JSON: nested deeper than the parser allows\n"
        )

    def test_invalid_case_lists_violations(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"outcomes": [{"label": "a", "value": 0}],'
            ' "counterfactual": {"a": 0.4}, "factual": {"a": 1.0},'
            ' "money": {"kind": "identity"}, "policy": "h-fi"}'
        )
        code, _, err = run(capsys, ["evaluate", str(path)])
        assert code == 2
        assert "  - " in err
        assert "--info/--connection/--indemnity" in err

    @pytest.mark.parametrize(
        "money,value,reason",
        [
            # The money difference of the one segment overflows.
            (
                {"kind": "tabulated", "points": [[0.0, -1e308], [10.0, 1e308]]},
                10.0,
                "bad money spec: tabulated money map has a slope beyond a "
                "float's range",
            ),
            # Lifting 'bad' by 400 000 value units needs 10001**100 money.
            (
                {"kind": "crra", "theta": 0.99},
                1e6,
                "error: value 400000.0 needs more money than a float holds "
                "under the theta=0.99 curve",
            ),
        ],
    )
    def test_award_beyond_float_range_is_an_input_error(
        self, capsys, tmp_path, money, value, reason
    ):
        path = tmp_path / "overflow.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [
                        {"label": "bad", "value": 0.0},
                        {"label": "good", "value": value},
                    ],
                    "counterfactual": {"bad": 0.1, "good": 0.9},
                    "factual": {"bad": 0.5, "good": 0.5},
                    "money": money,
                }
            )
        )
        code, out, err = run(
            capsys,
            ["evaluate", str(path), "--info", "l-fi", "--connection", "ld-c",
             "--indemnity", "cc-i", "--csv"],
        )
        assert (code, out) == (2, "")
        assert reason in err
        assert "inf" not in err.replace("info", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--all-policies"],
            ["--connection", "ld-c"],
            ["--info", "l-fi", "--connection", "i-c", "--indemnity", "fm-i", "--csv"],
        ],
    )
    def test_values_wider_than_a_float(self, capsys, tmp_path, argv):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [
                        {"label": "bad", "value": -1e308},
                        {"label": "good", "value": 1e308},
                    ],
                    "counterfactual": {"bad": 0.1, "good": 0.9},
                    "factual": {"bad": 0.5, "good": 0.5},
                    "money": {"kind": "identity"},
                }
            )
        )
        code, out, err = run(capsys, ["evaluate", str(path), *argv])
        assert (code, out, err) == (2, "", SPAN_ERROR)

    def test_transport_cost_past_a_float_is_flagged_without_a_warning(
        self, capsys, tmp_path
    ):
        # The values span 1.6e308, which a float holds, but the swapped
        # map's squared gap does not: its cost is inf.
        path = tmp_path / "swapped.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [
                        {"label": "lo", "value": -8e307},
                        {"label": "hi", "value": 8e307},
                    ],
                    "counterfactual": {"lo": 0.5, "hi": 0.5},
                    "factual": {"lo": 0.5, "hi": 0.5},
                    "money": {"kind": "identity"},
                    "evidence_coupling": {"map": {"lo": "hi", "hi": "lo"}},
                }
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["evaluate", str(path), "--connection", "paper-table"])
        assert (code, err) == (0, "")
        assert out.endswith(
            "# FLAG published least-divergence table is not cost-minimal: "
            "cost inf vs optimal 0\n"
        )

    @pytest.mark.parametrize(
        "matrix, problem",
        [
            (
                [[0.6, 0.0], [0.0, 0.4]],
                "counterfactual marginal mismatch at row 0 ('a'): coupling "
                "gives 0.6, case says 0.5",
            ),
            (
                [[0.4, 0.1], [0.0, 0.5]],
                "factual marginal mismatch at column 0 ('a'): coupling gives "
                "0.4, case says 0.5",
            ),
            ([[0.6, -0.1], [-0.1, 0.6]], "negative mass -0.1 at (0, 1)"),
        ],
    )
    def test_bad_evidence_matrix_names_plain_floats(self, capsys, tmp_path, matrix, problem):
        path = tmp_path / "evidence.json"
        path.write_text(
            json.dumps(
                {
                    "outcomes": [{"label": "a", "value": 0}, {"label": "b", "value": 1}],
                    "counterfactual": {"a": 0.5, "b": 0.5},
                    "factual": {"a": 0.5, "b": 0.5},
                    "money": {"kind": "identity"},
                    "evidence_coupling": {"matrix": matrix},
                }
            )
        )
        code, out, err = run(capsys, ["evaluate", str(path)])
        assert (code, out, err) == (2, "", f"error: {problem}\n")

    def test_unknown_policy_name(self, capsys, medical_file):
        code, _, err = run(
            capsys, ["evaluate", str(medical_file), "--info", "x-fi"]
        )
        assert code == 2
        assert "error:" in err


# Each weight table sums to 1 within the 1e-12 that `load_case` allows,
# but a product of two such sums does not, and the engine checks it again.
_NEAR_ONE = 0.5000000000009
_TOLERANCE_CASES = {
    "outcome": (
        {
            "outcomes": [{"label": "a", "value": 0}, {"label": "b", "value": 10}],
            "counterfactual": {"a": _NEAR_ONE, "b": 0.5},
            "factual": {"a": _NEAR_ONE, "b": 0.5},
            "money": {"kind": "identity"},
        },
        [["--connection", "i-c"], ["--all-policies"]],
    ),
    "choice": (
        {
            "money": {"kind": "identity"},
            "choice": {
                "choices": ["a", "b"],
                "duty": ["a"],
                "results": ["x", "y"],
                "values": [[0, 10], [0, 5]],
                "counterfactual_choice": {"a": _NEAR_ONE, "b": 0.5},
                "result_given_choice_counterfactual": {
                    "a": {"x": _NEAR_ONE, "y": 0.5}, "b": {"x": _NEAR_ONE, "y": 0.5}
                },
                "result_given_choice_factual": {
                    "a": {"x": 0.5, "y": 0.5}, "b": {"x": 0.5, "y": 0.5}
                },
                "factual_choice": "b",
                "factual_result": "x",
            },
        },
        [["--presumption", "none"]],
    ),
}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="load and evaluate check the same 1e-12 mass tolerance, the "
    "engine on a product of two sums that each pass it",
)
@pytest.mark.parametrize("form", sorted(_TOLERANCE_CASES))
def test_a_case_that_loads_is_evaluated(capsys, tmp_path, form):
    data, argvs = _TOLERANCE_CASES[form]
    path = tmp_path / f"{form}.json"
    path.write_text(json.dumps(data))
    load_case(path)
    for argv in argvs:
        assert run(capsys, ["evaluate", str(path), *argv])[0] == 0


class TestParserReuse:
    """main builds its argparse tree once per process and reuses it."""

    def test_one_parser_per_process(self, capsys, medical_file):
        from lostchance import cli

        run(capsys, ["schema"])
        run(capsys, ["evaluate", str(medical_file)])
        assert cli._parser.cache_info().currsize == 1
        assert cli._parser() is cli._parser()

    def test_reused_parser_matches_a_fresh_one(
        self, capsys, tmp_path, medical_file, matos_file
    ):
        from lostchance import cli

        sequence = [
            ["evaluate", str(matos_file), "--presumption", "none"],
            ["evaluate", str(matos_file)],
            ["evaluate", str(matos_file), "--presumption", "ii-cp", "--csv"],
            ["evaluate", str(medical_file), "--all-policies", "--csv"],
            ["evaluate", str(medical_file)],
            ["evaluate", str(medical_file), "--info", "custom",
             "--custom-blocks", "bad|good", "--strict"],
            ["evaluate", str(medical_file), "--connection", "nope"],
            ["table", "2", "--p1", "0.5"],
            ["table", "2"],
            ["sweep", "medical", "--p1-steps", "3", "--out", str(tmp_path / "m.csv")],
            ["sweep", "matos", "--theta-steps", "2", "--p-steps", "2",
             "--out", str(tmp_path / "t.csv")],
            ["verify", "--instances", "20", "--seed", "4"],
            ["schema"],
        ]
        cli._parser.cache_clear()
        reused = [run(capsys, argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append(run(capsys, argv))
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0]


LABEL_CHARS = st.one_of(st.sampled_from(',"\r\n é€中'), st.characters())


@given(
    labels=st.lists(st.text(LABEL_CHARS, max_size=6), min_size=1, max_size=5),
    numbers=st.lists(st.floats(), min_size=10, max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_schedule_csv_is_what_csv_writer_writes(labels, numbers):
    """Labels with delimiters, quotes, line breaks, spaces and non-ASCII
    characters read back as they were, and come out as csv.writer writes
    them.  A label holding "\\r" is left out of the byte comparison:
    csv.writer on Python 3.11 does not quote it, so its row splits in two
    when read back."""
    outcomes = tuple(labels)
    n = len(outcomes)
    schedules = [
        CompensationSchedule(
            PolicyCombo(*combo), outcomes, tuple(numbers[:n]), tuple(numbers[-n:])
        )
        for combo in (("l-fi", "e-c", "cc-i"), ("custom", "paper-table", "fm-i"))
    ]
    rows = [
        ["policy", "outcome", "compensation", "award"],
        *(
            [s.policy.descriptor, o, repr(x), repr(a)]
            for s in schedules
            for o, x, a in zip(s.outcomes, s.values, s.awards)
        ),
    ]
    got = _schedules_csv(schedules)
    assert list(csv.reader(io.StringIO(got, newline=""))) == rows
    if not any("\r" in o for o in outcomes):
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(rows)
        assert got == want.getvalue()
