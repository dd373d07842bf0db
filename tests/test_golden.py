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

`tests/golden/cli/` holds, under the same rule, what `table`, `sweep` and
`verify` printed or wrote before the two-outcome scenarios shared one
builder: each table's stdout at the defaults (and tables 5 and 6 at
shifted parameters), both sweep CSVs, and three audit reports.
"""

import json
from pathlib import Path

import pytest

import lostchance.valuation as valuation
from lostchance import PolicyCombo, evaluate_grid, flatten_choice_case, load_case
from lostchance.choice import resolve_choice
from lostchance.cli import main

GOLDEN = Path(__file__).parent / "golden"
CLI_GOLDEN = GOLDEN / "cli"
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
    """One command: one coupling per connection, one gap table per
    (connection, info) pair."""
    builds: list[str] = []
    gaps: list[tuple[int, str]] = []

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

    def counted_gap(coupling, partition):
        gaps.append((id(coupling), partition.origin))
        return conditional_gap(coupling, partition)

    monkeypatch.setattr(valuation, "conditional_gap", counted_gap)
    case, flags = _case_and_presumption(run)
    assert main(["evaluate", str(case), "--all-policies", "--csv", *flags]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 18
    assert sorted(builds) == [
        "evidence_coupling",
        "independence_coupling",
        "least_divergence_coupling",
    ]
    assert len(gaps) == len(set(gaps)) == 9
    assert len({c for c, _ in gaps}) == 3


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


def test_every_cli_golden_is_checked():
    checked = set(CLI_RUNS) | {"sweep-matos.csv", "sweep-medical.csv"}
    assert {p.name for p in CLI_GOLDEN.iterdir()} == checked
