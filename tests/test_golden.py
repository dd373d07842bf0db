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
"""

import json
from pathlib import Path

import pytest

import lostchance.valuation as valuation
from lostchance import PolicyCombo, evaluate_grid, flatten_choice_case, load_case
from lostchance.choice import resolve_choice
from lostchance.cli import main

GOLDEN = Path(__file__).parent / "golden"
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
