"""Byte-identity gate for `evaluate --all-policies --csv`.

`tests/golden/` holds case files and, for each, the exact output of
`lostchance evaluate CASE --all-policies --csv [--presumption P]` as the
engine printed it when every combination was still evaluated on its own
(`CASE.csv`, or `CASE.P.csv` for a choice case).  `schedule_notes.json`
holds each schedule's notes in order from the same engine.  The cases
cover the paper's five examples, outcome cases with value ties, zeroed
factual support and matrix or map evidence, choice cases under every
presumption, and a money table that gets extrapolated past its last
point.  These files are reference data: a difference is a regression in
the engine, never a reason to rewrite them.

`tests/golden/human/` holds, under the same rule, each run's output
without `--csv` (`RUN.txt`), as printed before the rows were written as
one string.

`tests/golden/cli/` holds, under the same rule, what `table`, `sweep` and
`verify` printed or wrote before the two-outcome scenarios shared one
builder: each table's stdout at the defaults (and tables 5 and 6 at
shifted parameters), both sweep CSVs, and three audit reports.  The
medical sweep's edge and one-step CSVs and the stderr of two refused
medical sweeps were written by the engine that still priced that sweep
one grid per p1.
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

import lostchance.valuation as valuation
from lostchance import PolicyCombo, evaluate_grid, flatten_choice_case, load_case
from lostchance.choice import resolve_choice
from lostchance.cli import main
from lostchance.valuation import STANDARD_AXES
from test_bench_spans import literal

GOLDEN = Path(__file__).parent / "golden"
CLI_GOLDEN = GOLDEN / "cli"
HUMAN_GOLDEN = GOLDEN / "human"
RUNS = sorted(p.name[: -len(".csv")] for p in GOLDEN.glob("*.csv"))
GRID = [
    PolicyCombo(info, conn, indem)
    for info in ("l-fi", "m-fi", "h-fi")
    for conn in ("e-c", "ld-c", "i-c")
    for indem in ("cc-i", "fm-i")
]


def _case_and_presumption(run: str) -> tuple[Path, list[str]]:
    name, _, presumption = run.partition(".")
    flags = ["--presumption", presumption] if presumption else []
    return GOLDEN / f"{name}.json", flags


def test_every_kind_of_case_is_covered():
    assert len(RUNS) == 21
    assert {r.partition(".")[2] for r in RUNS} == {"", "it-cp", "ii-cp", "none"}


@pytest.mark.parametrize("run", RUNS)
def test_all_policies_csv_is_byte_identical(run, capsys):
    case, flags = _case_and_presumption(run)
    assert main(["evaluate", str(case), "--all-policies", "--csv", *flags]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{run}.csv").read_bytes()


@pytest.mark.parametrize("run", RUNS)
def test_all_policies_text_is_byte_identical(run, capsys):
    case, flags = _case_and_presumption(run)
    assert main(["evaluate", str(case), "--all-policies", *flags]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (HUMAN_GOLDEN / f"{run}.txt").read_bytes()


def test_every_human_golden_is_checked():
    assert sorted(p.name for p in HUMAN_GOLDEN.iterdir()) == [f"{r}.txt" for r in RUNS]


def _stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("run", RUNS)
def test_all_policies_is_the_union_of_single_combination_runs(run):
    """Metamorphic: the grid's CSV rows are its single-combination runs'
    rows, in grid order, and its notes are their sorted union."""
    case, flags = _case_and_presumption(run)
    loaded = load_case(case)
    has_evidence = loaded.kind == "choice" or loaded.evidence_joint is not None
    header = "policy,outcome,compensation,award\n"
    rows, notes, skipped = [], set(), []
    for info, conn, indem in itertools.product(*STANDARD_AXES):
        if conn == "e-c" and not has_evidence:
            if indem == "cc-i":
                skipped.append(f"# skipped {info}/e-c: no evidence coupling in file\n")
            continue
        argv = ["evaluate", str(case), "--info", info, "--connection", conn,
                "--indemnity", indem, "--csv", *flags]
        code, out = _stdout(argv)
        assert code == 0 and out.startswith(header)
        lines = out[len(header):].splitlines(keepends=True)
        count = sum(not line.startswith("# ") for line in lines)
        # A run prints its rows, then its notes.
        rows += lines[:count]
        notes.update(lines[count:])
        assert all(line.startswith("# ") for line in lines[count:])
    code, grid = _stdout(["evaluate", str(case), "--all-policies", "--csv", *flags])
    assert code == 0
    assert grid == header + "".join(rows) + "".join(sorted(notes)) + "".join(skipped)


@pytest.mark.parametrize(
    "run", ["paper-prize", "table-top-edge", "choice-evidence.none"]
)
def test_all_policies_prices_with_one_award_call(run, monkeypatch, capsys):
    calls = []
    award = valuation.award_from_compensation

    def counted(*args):
        calls.append(args)
        return award(*args)

    monkeypatch.setattr(valuation, "award_from_compensation", counted)
    case, flags = _case_and_presumption(run)
    assert main(["evaluate", str(case), "--all-policies", "--csv", *flags]) == 0
    assert capsys.readouterr().out.count("/") >= 15
    assert len(calls) == 1


def test_all_policies_builds_no_policy_combination(monkeypatch, capsys):
    """The standard grid is built once per process, not once per command."""
    built = []
    post_init = PolicyCombo.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PolicyCombo, "__post_init__", counted)
    case, flags = _case_and_presumption("paper-prize")
    assert main(["evaluate", str(case), "--all-policies", "--csv"]) == 0
    assert capsys.readouterr().out.count("/") >= 15
    assert built == []
    assert main(["evaluate", str(case), "--info", "H-FI "]) == 0
    assert [c.descriptor for c in built] == ["h-fi/e-c/cc-i"]


@pytest.mark.parametrize("run", RUNS)
def test_schedule_notes_keep_their_order(run):
    case, flags = _case_and_presumption(run)
    loaded = load_case(case)
    combos, evidence, notes = GRID, loaded.evidence_joint, ()
    if loaded.kind == "choice":
        resolved = resolve_choice(loaded.case, None if flags[1] == "none" else flags[1])
        model, evidence = flatten_choice_case(resolved)
        notes = resolved.notes
    else:
        model = loaded.case
        if evidence is None:
            combos = [c for c in GRID if c.connection != "e-c"]
    schedules = evaluate_grid(model, combos, evidence, extra_notes=notes)
    expected = json.loads((GOLDEN / "schedule_notes.json").read_text())[run]
    assert [[s.policy.descriptor, list(s.notes)] for s in schedules] == expected


@pytest.mark.parametrize(
    "run", ["paper-prize", "outcome-ties-matrix", "choice-evidence.none"]
)
def test_all_policies_builds_each_coupling_once(run, monkeypatch, capsys):
    """One command: one coupling per connection, and one gap pass over
    every connection's three information policies, not one per
    connection or per (connection, info) pair."""
    builds: list[str] = []
    gaps: list[tuple[object, int, list]] = []

    def counted(name):
        original = getattr(valuation, name)

        def build(*args, **kwargs):
            builds.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(valuation, name, build)

    for name in (
        "evidence_coupling",
        "coupling_from_map",
        "least_divergence_coupling",
        "independence_coupling",
    ):
        counted(name)
    conditional_gap = valuation.conditional_gap

    def counted_gap(couplings, partitions, rows):
        gaps.append((couplings, len(partitions), list(rows)))
        return conditional_gap(couplings, partitions, rows)

    monkeypatch.setattr(valuation, "conditional_gap", counted_gap)
    case, flags = _case_and_presumption(run)
    assert main(["evaluate", str(case), "--all-policies", "--csv", *flags]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 18
    assert sorted(builds) == [
        "evidence_coupling",
        "independence_coupling",
        "least_divergence_coupling",
    ]
    assert len(gaps) == 1
    couplings, tables, rows = gaps[0]
    assert len({id(c) for c in couplings.couplings}) == 3
    assert tables == 9
    assert rows == [0, 0, 0, 1, 1, 1, 2, 2, 2]


# The valuation stages `evaluate` runs, in the order it runs them.
STAGES = [
    "selective_groups",
    "build_partition",
    "conditional_gap",
    "cc_indemnity",
    "fm_indemnity",
]


def test_all_policies_runs_every_stage_the_bench_wraps(monkeypatch, capsys):
    """The benchmark's tracer times a valuation stage by wrapping its
    function where `valuation` binds it, so `evaluate` must call each
    stage through that binding, or its span reads 0."""
    wrapped = [attr for module, attr in literal("SPANS") if module == "valuation"]
    assert set(STAGES) <= set(wrapped)
    calls: list[str] = []
    for name in STAGES:
        original = getattr(valuation, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(valuation, name, counted)
    case, flags = _case_and_presumption("paper-prize")
    assert main(["evaluate", str(case), "--all-policies", "--csv", *flags]) == 0
    assert capsys.readouterr().out
    # Once per grid: the groups of every coupling, the partitions of every
    # table, one gap pass and the clamped payouts of every row; then each
    # table's fair-mean payouts.
    assert calls == [
        "selective_groups",
        "build_partition",
        "conditional_gap",
        "cc_indemnity",
        *9 * ["fm_indemnity"],
    ]


SHIFTED = ["--p0", "0.6", "--p1", "0.3", "--v-red", "3", "--v-blue", "7"]
CLI_RUNS = {
    "table-2.txt": (["table", "2"], 0),
    "table-4.txt": (["table", "4"], 0),
    "table-5.txt": (["table", "5"], 0),
    "table-6.txt": (["table", "6"], 0),
    "table-5-shifted.txt": (["table", "5", *SHIFTED], 0),
    "table-6-shifted.txt": (["table", "6", *SHIFTED], 0),
    "verify-seed0.txt": (["verify", "--seed", "0", "--instances", "200"], 0),
    "verify-seed107.txt": (["verify", "--seed", "107", "--instances", "200"], 0),
    "verify-injected.txt": (
        ["verify", "--seed", "0", "--instances", "30", "--inject-lambda-offset", "0.1"],
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_stdout_is_byte_identical(name, capsys):
    argv, status = CLI_RUNS[name]
    assert main(argv) == status
    assert capsys.readouterr().out.encode("utf-8") == (CLI_GOLDEN / name).read_bytes()


@pytest.mark.parametrize("scenario", ["matos", "medical"])
def test_sweep_csv_is_byte_identical(scenario, tmp_path, capsys):
    out = tmp_path / f"{scenario}.csv"
    assert main(["sweep", scenario, "--out", str(out)]) == 0
    assert out.read_bytes() == (CLI_GOLDEN / f"sweep-{scenario}.csv").read_bytes()


# The medical sweep at the ends of its p1 axis: its CSV, or for a refused
# sweep its stderr, by golden file.
MEDICAL_EDGE_RUNS = {
    # p1 = 0, whose factual support is the bad outcome alone, to p1 = p0.
    "sweep-medical-edge.csv": (["--p1-min", "0", "--p1-max", "0.95", "--p1-steps", "20"], 0),
    "sweep-medical-one-step.csv": (["--p1-steps", "1"], 0),
    "sweep-medical-p1-above-p0.err": (["--p0", "0.5"], 2),
    "sweep-medical-award-overflow.err": (["--delta-v", "1.7e308"], 2),
}


@pytest.mark.parametrize("name", sorted(MEDICAL_EDGE_RUNS))
def test_medical_sweep_edges_are_byte_identical(name, tmp_path, capsys):
    argv, status = MEDICAL_EDGE_RUNS[name]
    out = tmp_path / "medical.csv"
    assert main(["sweep", "medical", *argv, "--out", str(out)]) == status
    captured = capsys.readouterr()
    if status:
        assert (captured.out, out.exists()) == ("", False)
        assert captured.err.encode("utf-8") == (CLI_GOLDEN / name).read_bytes()
    else:
        assert out.read_bytes() == (CLI_GOLDEN / name).read_bytes()


def test_every_cli_golden_is_checked():
    checked = set(CLI_RUNS) | set(MEDICAL_EDGE_RUNS) | {"sweep-matos.csv", "sweep-medical.csv"}
    assert {p.name for p in CLI_GOLDEN.iterdir()} == checked
