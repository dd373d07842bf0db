"""Seeded case-file corpora for the benchmark workloads.

Everything here is written with the benchmark's own code from the
workload seed; nothing is taken from the engine, so a change to the
engine cannot change its own inputs.  Weights are whole multiples of
1/K, as a clerk would write them, which keeps every marginal exact to
round-off and every evidence coupling consistent with its marginals.

A corpus is a list of `CaseOp`s: one case file on disk plus the flags
one operation passes with it.  `expect_exit` is the exit code a correct
engine returns for that file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

SMALL_K = 10_000
LARGE_K = 10_000_000

GRID = [
    (info, conn, indem)
    for info in ("l-fi", "m-fi", "h-fi")
    for conn in ("e-c", "ld-c", "i-c")
    for indem in ("cc-i", "fm-i")
]


@dataclass
class CaseOp:
    """One `evaluate` operation: a case file and the flags it runs with."""

    name: str
    path: Path
    data: Optional[dict]
    presumption: Optional[str] = None  # choice form only
    combos: list = field(default_factory=lambda: list(GRID))
    all_policies: bool = True
    expect_exit: int = 0

    @property
    def argv(self) -> list[str]:
        args = ["evaluate", str(self.path)]
        if self.all_policies:
            args.append("--all-policies")
        else:
            info, conn, indem = self.combos[0]
            args += ["--info", info, "--connection", conn, "--indemnity", indem]
        if self.presumption is not None:
            args += ["--presumption", self.presumption]
        args.append("--csv")
        return args


# -- money maps --------------------------------------------------------------


def crra_value(money: np.ndarray, theta: float) -> np.ndarray:
    """Constant-relative-risk-aversion value of positive money amounts."""
    m = np.asarray(money, dtype=float)
    if abs(1.0 - theta) < 1e-9:
        return np.log(m)
    if theta == 0.0:
        return m - 1.0
    eps = 1.0 - theta
    return np.expm1(eps * np.log(m)) / eps


def _money_spec(rng, kind: str, amounts: np.ndarray) -> tuple[dict, np.ndarray]:
    """Money-map spec and the outcome values it implies for `amounts`."""
    if kind == "identity":
        return {"kind": "identity"}, amounts.copy()
    if kind == "crra":
        theta = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
        return {"kind": "crra", "theta": theta}, crra_value(amounts, theta)
    # Tabulated: values are points on a scale the table converts to money.
    # A block-constant payout can lift an outcome by up to the whole value
    # range, so the table reaches that far above the top value; the engine
    # refuses to extrapolate past it.
    values = np.round(amounts / 1000.0, 3)
    lo, hi = float(values.min()), float(values.max())
    pad = max(1.0, 0.05 * (hi - lo))
    knots = np.sort(rng.uniform(lo, 2 * hi - lo, size=int(rng.integers(2, 5))))
    xs = np.unique(np.concatenate([[lo - pad], knots, [2 * hi - lo + pad]]))
    ms = np.cumsum(rng.uniform(500.0, 5000.0, size=xs.size))
    points = [[float(x), float(round(m, 2))] for x, m in zip(xs, ms)]
    return {"kind": "tabulated", "points": points}, values


def _amounts(rng, size: int, ties: bool) -> np.ndarray:
    amounts = np.round(rng.uniform(1_000.0, 500_000.0, size=size), 2)
    if ties and size >= 3:
        amounts[int(rng.integers(1, size))] = amounts[0]
    return amounts


# -- weights -----------------------------------------------------------------


def _counts(rng, n: int, k: int, zero_share: float = 0.0) -> np.ndarray:
    """Integer weights summing to k, with about zero_share of them zero."""
    p = rng.dirichlet(np.ones(n))
    if zero_share > 0.0 and n > 2:
        drop = rng.random(n) < zero_share
        drop[int(rng.integers(0, n))] = False
        p = np.where(drop, 0.0, p)
        p /= p.sum()
    return rng.multinomial(k, p)


def _weights(counts, labels, k: int) -> dict:
    return {lab: int(c) / k for lab, c in zip(labels, counts)}


def _nw_counts(rng, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Integer transport plan between two count vectors of equal total.

    Northwest-corner fill under a random ordering of each side, so the
    marginals hold exactly.
    """
    plan = np.zeros((rows.size, cols.size), dtype=np.int64)
    ro = [int(i) for i in rng.permutation(rows.size) if rows[i] > 0]
    co = [int(j) for j in rng.permutation(cols.size) if cols[j] > 0]
    r_rem, c_rem = rows.astype(np.int64).copy(), cols.astype(np.int64).copy()
    a = b = 0
    while a < len(ro) and b < len(co):
        take = min(r_rem[ro[a]], c_rem[co[b]])
        plan[ro[a], co[b]] += take
        r_rem[ro[a]] -= take
        c_rem[co[b]] -= take
        if r_rem[ro[a]] == 0:
            a += 1
        if c_rem[co[b]] == 0:
            b += 1
    return plan


# -- outcome form ------------------------------------------------------------


def outcome_case(
    rng,
    n: int,
    k: int,
    evidence: str,
    money: str,
    ties: bool = False,
    zero_share: float = 0.0,
) -> dict:
    """Outcome-form case; evidence is 'matrix', 'map' or 'none'."""
    labels = [f"outcome-{i}" for i in range(n)]
    spec, values = _money_spec(rng, money, _amounts(rng, n, ties))
    data: dict = {
        "outcomes": [
            {"label": lab, "value": float(v)} for lab, v in zip(labels, values)
        ]
    }
    if evidence == "matrix":
        mask = rng.random((n, n)) < max(0.25, 2.0 / n)
        mask[np.arange(n), rng.integers(0, n, size=n)] = True
        cells = np.where(mask, rng.dirichlet(np.ones(n * n)).reshape(n, n), 0.0)
        plan = rng.multinomial(k, (cells / cells.sum()).ravel()).reshape(n, n)
        cf, f = plan.sum(axis=1), plan.sum(axis=0)
        data["evidence_coupling"] = {
            "matrix": [[int(c) / k for c in row] for row in plan]
        }
    elif evidence == "map":
        # Harm moves each outcome to a nearby one, usually a worse one, so
        # part of the factual support goes empty.
        cf = _counts(rng, n, k)
        order = np.argsort(values, kind="stable")
        rank = np.empty(n, dtype=int)
        rank[order] = np.arange(n)
        shift = rng.integers(-1, max(2, n // 4), size=n)
        dst = order[np.clip(rank - shift, 0, n - 1)]
        f = np.bincount(dst, weights=cf, minlength=n).astype(np.int64)
        data["evidence_coupling"] = {
            "map": {labels[i]: labels[int(dst[i])] for i in range(n)}
        }
    else:
        cf = _counts(rng, n, k)
        f = _counts(rng, n, k, zero_share)
    data["counterfactual"] = _weights(cf, labels, k)
    data["factual"] = _weights(f, labels, k)
    data["money"] = spec
    if rng.random() < 0.5:
        data["observed"] = labels[int(rng.choice(np.flatnonzero(f)))]
    # Keys in the order a person would write them.
    order = ["outcomes", "counterfactual", "factual", "observed", "money",
             "evidence_coupling"]
    return {key: data[key] for key in order if key in data}


# -- choice form -------------------------------------------------------------


def choice_case(
    rng,
    nc: int,
    nr: int,
    k: int,
    money: str,
    evidence: bool,
    couplings: bool,
    choice_zeros: float = 0.2,
) -> dict:
    """Choice-form case; choice_zeros is the share of choices the
    counterfactual-choice evidence gives no weight."""
    choices = [f"choice-{chr(ord('a') + i)}" for i in range(nc)]
    results = [f"result-{j}" for j in range(nr)]
    spec, values = _money_spec(rng, money, _amounts(rng, nc * nr, False))
    values = values.reshape(nc, nr)
    duty = sorted(
        rng.choice(choices, size=int(rng.integers(1, nc + 1)), replace=False).tolist()
    )
    cf_counts = [_counts(rng, nr, k, 0.2) for _ in choices]
    f_counts = [_counts(rng, nr, k, 0.2) for _ in choices]
    fc = int(rng.integers(0, nc))
    fr = int(rng.choice(np.flatnonzero(f_counts[fc])))
    block: dict = {
        "choices": choices,
        "duty": duty,
        "results": results,
        "values": [[float(v) for v in row] for row in values],
        "counterfactual_choice": (
            _weights(_counts(rng, nc, k, choice_zeros), choices, k) if evidence else None
        ),
        "result_given_choice_counterfactual": {
            c: _weights(cnt, results, k) for c, cnt in zip(choices, cf_counts)
        },
        "result_given_choice_factual": {
            c: _weights(cnt, results, k) for c, cnt in zip(choices, f_counts)
        },
        "factual_choice": choices[fc],
        "factual_result": results[fr],
    }
    if couplings:
        picked = rng.choice(nc, size=int(rng.integers(1, nc + 1)), replace=False)
        block["result_couplings"] = {
            choices[int(i)]: [
                [int(c) / k for c in row]
                for row in _nw_counts(rng, cf_counts[int(i)], f_counts[fc])
            ]
            for i in sorted(picked)
        }
    return {"money": spec, "choice": block}


# -- the paper's worked examples, as case files ------------------------------


def _two_outcome(low: str, high: str, evidence) -> dict:
    return {
        "outcomes": [{"label": low, "value": 0.0}, {"label": high, "value": 100000.0}],
        "counterfactual": {low: 0.05, high: 0.95},
        "factual": {low: 0.1, high: 0.9},
        "observed": low,
        "money": {"kind": "identity"},
        "evidence_coupling": {"matrix": evidence},
    }


def _matos(p: float, theta: float) -> dict:
    money = np.array([300.0, 500_000.0, 1_000_000.0])
    v = [float(x) for x in crra_value(money, theta)]
    return {
        "money": {"kind": "crra", "theta": theta},
        "choice": {
            "choices": ["answer", "refuse"],
            "duty": ["answer", "refuse"],
            "results": ["300", "500000", "1000000"],
            "values": [v, v],
            "counterfactual_choice": None,
            "result_given_choice_counterfactual": {
                "answer": {"300": 1.0 - p, "500000": 0.0, "1000000": p},
                "refuse": {"300": 0.0, "500000": 1.0, "1000000": 0.0},
            },
            "result_given_choice_factual": {
                "answer": {"300": 0.75, "500000": 0.0, "1000000": 0.25},
                "refuse": {"300": 0.0, "500000": 1.0, "1000000": 0.0},
            },
            "factual_choice": "refuse",
            "factual_result": "500000",
        },
    }


def paper_cases() -> dict[str, dict]:
    """Medical, both urns, the five-prize case and Matos, from the paper."""
    values = [5.0, 30.0, 35.0, 70.0, 110.0]
    labels = ["a1", "a2", "a3", "a4", "a5"]
    return {
        "paper-medical": _two_outcome("bad", "good", [[0.05, 0.0], [0.05, 0.9]]),
        "paper-urn-painted": _two_outcome("red", "blue", [[0.05, 0.0], [0.05, 0.9]]),
        "paper-urn-independent": _two_outcome(
            "red", "blue", [[0.05 * 0.1, 0.05 * 0.9], [0.95 * 0.1, 0.95 * 0.9]]
        ),
        "paper-prize": {
            "outcomes": [{"label": a, "value": v} for a, v in zip(labels, values)],
            "counterfactual": {a: 0.2 for a in labels},
            "factual": {"a1": 0.2, "a2": 0.2, "a3": 0.4, "a4": 0.2, "a5": 0.0},
            "money": {"kind": "identity"},
            "evidence_coupling": {
                "map": {"a1": "a3", "a2": "a3", "a3": "a2", "a4": "a1", "a5": "a4"}
            },
        },
        "paper-matos": _matos(0.8, 0.5),
    }


# -- malformed files: fixed text, independent of the seed ---------------------

_BAD_BASE = """{
  "outcomes": [{"label": "bad", "value": 0.0}, {"label": "good", "value": %s}],
  "counterfactual": %s,
  "factual": %s,
  "money": {"kind": "identity"}
}
"""

MALFORMED = {
    # json.loads keeps the last of two equal keys, so this loads as 0.05/0.95.
    "malformed-duplicate-key": _BAD_BASE
    % ("100000.0", '{"bad": 0.9, "good": 0.95, "bad": 0.05}', '{"bad": 0.1, "good": 0.9}'),
    # A boolean is not a weight, but float(true) is 1.0.
    "malformed-boolean-weight": _BAD_BASE
    % ("100000.0", '{"bad": 0.05, "good": 0.95}', '{"bad": true, "good": false}'),
    # Control: a NaN literal, rejected today by case validation.
    "malformed-nan-literal": _BAD_BASE
    % ("NaN", '{"bad": 0.05, "good": 0.95}', '{"bad": 0.1, "good": 0.9}'),
}


# A well-formed case whose money table ends at the top outcome value, the
# same for every seed.  Its mean gap is 4 points, so l-fi and m-fi pay 4 to
# the good outcome too and lift it to 14, past the table's last point.  A
# correct engine still prints its schedules (exit 0).
TABLE_TOP_EDGE = {
    "outcomes": [{"label": "bad", "value": 0.0}, {"label": "good", "value": 10.0}],
    "counterfactual": {"bad": 0.5, "good": 0.5},
    "factual": {"bad": 0.9, "good": 0.1},
    "money": {"kind": "tabulated", "points": [[0.0, 0.0], [10.0, 100000.0]]},
}


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


# -- corpora -----------------------------------------------------------------

SMALL_OUTCOME_CASES = 60
SMALL_CHOICE_CASES = 36


def small_cases(seed: int, out: Path) -> list[CaseOp]:
    """Realistic small cases, the paper's examples, and four fixed files.

    The number, size and kind of the files never depend on the seed, only
    their numbers do: every round attempts the same operations, and two
    seeds cost about the same to evaluate.  Outcome cases cycle through
    2..12 outcomes, the three evidence forms and the three money maps;
    choice cases through 2..4 choices x 2..5 results, with and without
    counterfactual-choice evidence, and the three presumptions.  The
    fixed files are `TABLE_TOP_EDGE` and the three in `MALFORMED`.
    """
    rng = np.random.default_rng([int(seed), 1])
    out.mkdir(parents=True, exist_ok=True)
    ops: list[CaseOp] = []
    for i in range(SMALL_OUTCOME_CASES):
        data = outcome_case(
            rng,
            n=2 + i % 11,
            k=SMALL_K,
            evidence=("matrix", "map", "none")[i % 3],
            money=("identity", "crra", "tabulated")[(i // 3) % 3],
            ties=i % 7 == 3,
            zero_share=0.2,
        )
        path = out / f"outcome-{i:02d}.json"
        _write(path, data)
        ops.append(CaseOp(path.stem, path, data))
    for i in range(SMALL_CHOICE_CASES):
        evidence = i % 2 == 0
        data = choice_case(
            rng,
            nc=2 + i % 3,
            nr=2 + (i // 3) % 4,
            k=SMALL_K,
            money=("identity", "crra", "tabulated")[(i // 2) % 3],
            evidence=evidence,
            couplings=i % 4 == 1,
        )
        presumption = ("it-cp", "ii-cp", "none")[(i // 2) % (3 if evidence else 2)]
        path = out / f"choice-{i:02d}.json"
        _write(path, data)
        ops.append(CaseOp(path.stem, path, data, presumption))
    for name, data in paper_cases().items():
        path = out / f"{name}.json"
        _write(path, data)
        presumption = "it-cp" if "choice" in data else None
        ops.append(CaseOp(name, path, data, presumption))
    path = out / "fixed-table-top-edge.json"
    _write(path, TABLE_TOP_EDGE)
    ops.append(CaseOp(path.stem, path, TABLE_TOP_EDGE))
    for name, text in MALFORMED.items():
        path = out / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        ops.append(CaseOp(name, path, None, expect_exit=2))
    return ops


def _single(name, path, data, combo, presumption=None) -> CaseOp:
    return CaseOp(name, path, data, presumption, [combo], all_policies=False)


def large_n(seed: int, out: Path) -> list[CaseOp]:
    """A few large cases, each evaluated under a fixed list of single combos.

    Eleven distinct operations: an odd count puts the median on one
    operation.  The first four, on files of 2000 outcomes or more, are the
    heavy ones; run.py's round runs each of them once and the other seven
    three times.
    """
    rng = np.random.default_rng([int(seed), 2])
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "n3000-map-crra": outcome_case(rng, 3000, LARGE_K, "map", "crra"),
        "n3000-bare-zeroed": outcome_case(
            rng, 3000, LARGE_K, "none", "identity", zero_share=0.3
        ),
        "n2000-map-tabulated": outcome_case(rng, 2000, LARGE_K, "map", "tabulated"),
        "n1500-bare": outcome_case(rng, 1500, LARGE_K, "none", "identity"),
        "choice-4x500-evidence": choice_case(
            rng, 4, 500, LARGE_K, "identity", True, False, choice_zeros=0.0
        ),
        "choice-3x400-presumed": choice_case(rng, 3, 400, LARGE_K, "crra", False, False),
    }
    paths = {}
    for name, data in files.items():
        paths[name] = out / f"{name}.json"
        _write(paths[name], data)
    plan = [
        ("n3000-map-crra", ("h-fi", "e-c", "cc-i"), None),
        ("n3000-bare-zeroed", ("h-fi", "ld-c", "cc-i"), None),
        ("n2000-map-tabulated", ("h-fi", "e-c", "fm-i"), None),
        ("n2000-map-tabulated", ("l-fi", "i-c", "cc-i"), None),
        ("n1500-bare", ("h-fi", "ld-c", "fm-i"), None),
        ("n1500-bare", ("m-fi", "i-c", "cc-i"), None),
        ("n1500-bare", ("h-fi", "i-c", "cc-i"), None),
        ("choice-4x500-evidence", ("h-fi", "e-c", "cc-i"), "none"),
        ("choice-4x500-evidence", ("h-fi", "ld-c", "cc-i"), "it-cp"),
        ("choice-3x400-presumed", ("h-fi", "e-c", "fm-i"), "ii-cp"),
        ("choice-3x400-presumed", ("m-fi", "e-c", "cc-i"), "it-cp"),
    ]
    return [
        _single(f"{name}:{'/'.join(combo)}", paths[name], files[name], combo, pres)
        for name, combo, pres in plan
    ]
