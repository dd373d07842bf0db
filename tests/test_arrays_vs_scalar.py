"""The array path against the per-outcome reference, byte for byte.

`evaluate --csv` carries a schedule's per-outcome data as arrays from the
case file to the CSV writer.  Its arithmetic is the per-outcome loops'
own, so on seeded cases of 2 to 3000 outcomes its stdout and every
schedule's notes must equal, byte for byte, what `scalar_reference.py`
(the loops as they were) produces: every information x connection x
indemnity combination, identity money, CRRA money at theta 0, 0.5 and 1,
a money table extrapolated past its last point, value ties, zeroed
factual support, a -0.0 outcome value, and choice cases.  A malformed
3000-outcome file must be refused with the reference's problems, in the
reference's order.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import scalar_reference as ref
from lostchance import load_case
from lostchance.casefile import CaseValidationError
from lostchance.choice import evaluate_choice_case, flatten_choice_case, resolve_choice
from lostchance.cli import main
from lostchance.outcome import (
    IdentityMoneyMap,
    TabulatedMoneyMap,
    award_from_compensation,
)
from lostchance.valuation import (
    PolicyCombo,
    cc_indemnity,
    evaluate_grid,
    fm_indemnity,
    solve_lambda,
)

K = 10_000_000
SIZES = (2, 50, 1500, 3000)
MONEY = {
    "identity": {"kind": "identity"},
    "crra-0": {"kind": "crra", "theta": 0.0},
    "crra-0.5": {"kind": "crra", "theta": 0.5},
    "crra-1": {"kind": "crra", "theta": 1.0},
    "tabulated": None,  # built from the case's values
}
ALL_POLICIES = [
    PolicyCombo(info, conn, indem)
    for info in ("l-fi", "m-fi", "h-fi")
    for conn in ("e-c", "ld-c", "i-c")
    for indem in ("cc-i", "fm-i")
]
# The combinations --all-policies leaves out.
SINGLES = [
    PolicyCombo(info, conn, indem)
    for info in ("l-fi", "m-fi", "h-fi", "custom")
    for conn in ("e-c", "ld-c", "i-c", "paper-table")
    for indem in ("cc-i", "fm-i")
    if info == "custom" or conn == "paper-table"
]


def _by_label(labels, counts) -> dict:
    """The positive weights counts / K, keyed by label."""
    return {lab: float(c / K) for lab, c in zip(labels, counts) if c > 0}


def outcome_case(seed: int, n: int, money: str) -> dict:
    """A seeded outcome-form case with evidence: a 2x2 matrix at n = 2,
    otherwise an outcome map that leaves part of the factual support
    empty.  Values carry ties and one -0.0."""
    rng = np.random.default_rng([seed, n])
    values = rng.uniform(0.0, 10.0, size=n)
    values[rng.random(n) < 0.2] = 5.0
    values[0] = -0.0
    labels = [f"o{i}" for i in range(n)]
    outcomes = [{"label": lab, "value": float(v)} for lab, v in zip(labels, values)]
    data = {"outcomes": outcomes}
    if n == 2:
        plan = rng.multinomial(K, rng.dirichlet(np.ones(4))).reshape(2, 2)
        cf, f = plan.sum(axis=1), plan.sum(axis=0)
        data["evidence_coupling"] = {"matrix": (plan / K).tolist()}
    else:
        cf = rng.multinomial(K, rng.dirichlet(np.ones(n)))
        dst = rng.integers(0, max(1, 2 * n // 3), size=n)
        f = np.bincount(dst, weights=cf, minlength=n).astype(np.int64)
        mapping = {labels[i]: labels[int(d)] for i, d in enumerate(dst)}
        data["evidence_coupling"] = {"map": mapping}
    data["counterfactual"] = _by_label(labels, cf)
    data["factual"] = _by_label(labels, f)
    if money == "tabulated":
        # The table ends at the top value, so every positive award on a
        # top outcome is priced past its last point.
        knots = np.linspace(min(values), max(values), 5)
        steps = rng.uniform(0.5, 3.0, size=5).cumsum()
        points = np.column_stack([knots, steps]).tolist()
        data["money"] = {"kind": "tabulated", "points": points}
    else:
        data["money"] = MONEY[money]
    return data


def choice_case(seed: int, nc: int, nr: int, evidence: bool) -> dict:
    rng = np.random.default_rng([seed, nc, nr])
    choices = [f"c{i}" for i in range(nc)]
    results = [f"r{j}" for j in range(nr)]

    def conditional():
        return {
            c: _by_label(results, rng.multinomial(K, rng.dirichlet(np.ones(nr))))
            for c in choices
        }

    block = {
        "choices": choices,
        "duty": choices[: max(1, nc - 1)],
        "results": results,
        "values": rng.uniform(0.0, 10.0, size=(nc, nr)).round(1).tolist(),
        "counterfactual_choice": (
            _by_label(choices, rng.multinomial(K, np.ones(nc) / nc))
            if evidence
            else None
        ),
        "result_given_choice_counterfactual": conditional(),
        "result_given_choice_factual": conditional(),
        "factual_choice": choices[-1],
    }
    fr = block["result_given_choice_factual"][choices[-1]]
    block["factual_result"] = max(fr, key=fr.get)
    return {"money": {"kind": "identity"}, "choice": block}


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def check_case(path, flags=(), presumption=None):
    """Every combination on one case file: the engine's stdout and notes
    against the reference's.  Returns the reference's --all-policies
    schedules."""
    loaded = load_case(path)
    case, evidence, extra = loaded.case, loaded.evidence_joint, ()
    if loaded.kind == "choice":
        # The reference prices the flattened case; the engine prices the
        # choice case through its one path.
        resolved = resolve_choice(loaded.case, presumption)
        case, evidence = flatten_choice_case(resolved)
        extra = resolved.notes

    def engine(combos, blocks):
        if loaded.kind == "choice":
            return evaluate_choice_case(loaded.case, combos, presumption, blocks)
        return evaluate_grid(case, combos, evidence, blocks)

    support_labels = [case.space.labels[k] for k in case.factual.support()]
    halves = (support_labels[::2], support_labels[1::2])
    blocks = [b for b in halves if b]
    block_ids = [[case.space.index(lab) for lab in b] for b in blocks]
    if loaded.kind == "choice":
        # Choice outcome labels hold "|", which 'a,b|c' splits on.
        custom = ["--custom-blocks", json.dumps(blocks)]
    else:
        custom = ["--custom-blocks", "|".join(",".join(b) for b in blocks)]

    grid = want = ref.schedules(case, ALL_POLICIES, evidence, None, extra)
    got = engine(ALL_POLICIES, None)
    assert got == want
    assert [s.notes for s in got] == [s.notes for s in want]
    assert run(["evaluate", str(path), "--all-policies", "--csv", *flags]) == (
        0,
        ref.evaluate_stdout(want),
    )
    for combo in SINGLES:
        want = ref.schedules(case, [combo], evidence, block_ids, extra)
        got = engine([combo], block_ids)
        assert got == want and got[0].notes == want[0].notes, combo
        argv = ["evaluate", str(path), "--info", combo.info, "--connection",
                combo.connection, "--indemnity", combo.indemnity, "--csv", *flags]
        if combo.info == "custom":
            argv += custom
        assert run(argv) == (0, ref.evaluate_stdout(want)), combo
    return grid


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("money", sorted(MONEY))
def test_outcome_cases_match_the_reference(tmp_path, n, money):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(outcome_case(7, n, money)))
    grid = check_case(path)
    if money == "tabulated" and n > 2:
        assert any("extrapolates" in note for s in grid for note in s.notes)


@pytest.mark.parametrize(
    "nc,nr,evidence,presumption",
    [
        (nc, nr, evidence, presumption)
        for nc, nr, evidence in ((2, 3, True), (3, 40, False), (4, 300, True))
        # An unresolved choice needs evidence.
        for presumption in ("it-cp", "ii-cp", "none")[: 3 if evidence else 2]
    ],
)
def test_choice_cases_match_the_reference(tmp_path, nc, nr, evidence, presumption):
    path = tmp_path / "choice.json"
    path.write_text(json.dumps(choice_case(11, nc, nr, evidence)))
    resolve = None if presumption == "none" else presumption
    check_case(path, ["--presumption", presumption], resolve)


def test_fair_mean_root_matches_the_loop_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        p = rng.dirichlet(np.ones(n))
        if rng.random() < 0.3:
            g = rng.choice([-0.0, 0.0, 1.0, 2.5], size=n)
        else:
            g = rng.normal(size=n)
        target = float(p @ g)
        if target > 0.0:
            assert solve_lambda(p, g, target) == ref.solve_lambda(p, g, target)
        rows = [((i,), p[i], g[i]) for i in range(n)]
        for rule, got in (("cc-i", cc_indemnity(g)), ("fm-i", fm_indemnity(p, g, target))):
            want = ref.indemnity(rows, rule)
            assert got.tobytes() == want.tobytes()


def test_negative_zero_gap_and_compensation():
    x = cc_indemnity(np.array([-0.0, 3.0]))
    want = ref.indemnity([((0,), 0.5, -0.0), ((1,), 0.5, 3.0)], "cc-i")
    assert x.tobytes() == want.tobytes()
    assert np.signbit(x[0])
    money = TabulatedMoneyMap(((-1.0, 0.0), (1.0, 4.0)))
    for m in (IdentityMoneyMap(), money):
        got = award_from_compensation(m, np.array([0.5, -0.0]), x)
        want = [ref.award(m, v, float(c)) for v, c in zip((0.5, -0.0), x)]
        assert got.tolist() == want
        assert [repr(a) for a in got.tolist()] == [repr(a) for a in want]


def _bad_file(n: int) -> tuple[dict, list]:
    rng = np.random.default_rng(17)
    labels = [f"o{i}" for i in range(n)]
    values = rng.uniform(0.0, 9.0, size=n).tolist()
    outcomes = [{"label": lab, "value": v} for lab, v in zip(labels, values)]
    w = {lab: 1.0 / n for lab in labels}
    return {"outcomes": outcomes, "counterfactual": dict(w), "factual": dict(w),
            "money": {"kind": "identity"}}, labels


def test_type_problems_are_listed_as_the_loops_list_them(tmp_path):
    data, labels = _bad_file(3000)
    data["outcomes"][7]["value"] = "3.5"
    data["outcomes"][911]["value"] = True
    data["outcomes"][2999] = {"label": "o2999"}
    data["counterfactual"]["o12"] = None
    data["counterfactual"]["nowhere"] = 0.0
    data["factual"]["o5"] = "0.1"
    data["factual"]["o2500"] = 1e300 * 1e300
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data).replace("Infinity", "1e400"))
    with pytest.raises(CaseValidationError) as exc:
        load_case(path)
    parsed = json.loads(path.read_text())
    got_labels, _, want = ref.outcome_problems(parsed["outcomes"])
    for name in ("counterfactual", "factual"):
        want += ref.weight_problems(parsed[name], got_labels, name)[1]
    # o2999 lost its value, so both marginals name an unknown label too.
    assert len(want) == 9
    assert list(exc.value.violations) == want


def test_case_problems_are_listed_as_the_loops_list_them(tmp_path):
    data, labels = _bad_file(3000)
    for i, label in ((40, "o3"), (41, ""), (2000, "o3")):
        data["outcomes"][i]["label"] = label
        del data["counterfactual"][f"o{i}"], data["factual"][f"o{i}"]
    data["counterfactual"]["o9"] = -0.25
    data["factual"]["o100"] = -1e-3
    data["factual"]["o101"] = -2e-3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CaseValidationError) as exc:
        load_case(path)
    parsed = json.loads(path.read_text())
    got_labels, values, _ = ref.outcome_problems(parsed["outcomes"])
    cf, f = (
        ref.weight_problems(parsed[name], got_labels, name)[0]
        for name in ("counterfactual", "factual")
    )
    want = ref.case_problems(got_labels, values, cf, f)
    assert len(want) == 8
    assert list(exc.value.violations) == want
