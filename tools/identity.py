"""Byte-identity harness: one fixed command set, run through `cli.main`.

    python3 tools/identity.py --out DIR [--tree TREE]
    python3 tools/identity.py --compare A B
    python3 tools/identity.py --self-test

`--out` runs every command of the set in one process, against the
`lostchance` package under TREE/src (TREE defaults to the checkout this
file sits in), and writes one JSON record per command to
DIR/records.jsonl: its argv, exit code, stdout and stderr, and the bytes
of any CSV a sweep writes.  Paths are masked, so two trees compare equal
when they print the same bytes: TREE as <tree>, the scratch directory the
run writes its inputs and CSVs into as <tmp>, and a warning's
`path:line` and its echoed source line.

`--compare A B` lists every command whose record differs, with its first
differing line, and every command only one run holds; it exits 1 if any
command differs.  `--self-test` runs a few commands twice, changes one
digit in one copy, and checks that `--compare` names exactly that
command and line, and that the two clean copies compare equal.

To compare a commit with its parent, extract each with
`git archive <commit> | tar -x -C <dir>` and run `--out` once per tree.

The command set:

* `evaluate` on every case file in tests/golden and on a dropped-block
  case written here, choice files under each presumption: `--all-policies`
  as text, as CSV and with `--strict`, and each of the 24 single
  combinations of l-fi/m-fi/h-fi, e-c/ld-c/i-c/paper-table and cc-i/fm-i;
* `table 2/4/5/6` at defaults, with shifted parameters and with `--strict`;
* both sweeps with their CSVs, flags a sweep or table does not read, and
  an award overflow;
* `verify --instances 200` for seeds 0..19 and 107, an injected run and
  `--seed -1`;
* both benchmark corpora at seeds 1 and 2, built by TREE/bench/corpus.py.

Only the standard library and the tree's own code are used.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import itertools
import json
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

RECORDS = "records.jsonl"
HERE = Path(__file__).resolve().parent.parent

COMBOS = [
    ("--info", info, "--connection", conn, "--indemnity", indemnity)
    for info, conn, indemnity in itertools.product(
        ("l-fi", "m-fi", "h-fi"), ("e-c", "ld-c", "i-c", "paper-table"), ("cc-i", "fm-i")
    )
]
PRESUMPTIONS = ("it-cp", "ii-cp", "none")
# The flags each table reads, shifted from their defaults; table 4 reads none.
SHIFTED = {
    "2": ["--p0", "0.6", "--p1", "0.3", "--delta-v", "3"],
    "5": ["--p0", "0.6", "--p1", "0.3", "--v-red", "3", "--v-blue", "7"],
    "6": ["--p0", "0.6", "--p1", "0.3", "--v-red", "3", "--v-blue", "7"],
}

# Outcomes "a" and "b" carry factual weight 1e-17 that the evidence gives
# no mass, so h-fi/e-c drops their blocks with a warning.
DROPPED_BLOCK_CASE = {
    "outcomes": [{"label": k, "value": float(i)} for i, k in enumerate("abcd")],
    "counterfactual": {"a": 0.0, "b": 0.0, "c": 0.0, "d": 1.0},
    "factual": {"a": 1e-17, "b": 1e-17, "c": 0.5, "d": 0.5},
    "money": {"kind": "identity"},
    "evidence_coupling": {
        "matrix": [[0.0] * 4, [0.0] * 4, [0.0] * 4, [0.0, 0.0, 0.5, 0.5]]
    },
}

WARNING = re.compile(r"^.*:\d+: (\w*Warning): ")


def _evaluations(case: Path, choice: bool) -> list[list[str]]:
    runs = []
    for presumption in PRESUMPTIONS if choice else (None,):
        flags = [] if presumption is None else ["--presumption", presumption]
        base = ["evaluate", str(case), *flags]
        runs += [
            [*base, "--all-policies"],
            [*base, "--all-policies", "--csv"],
            [*base, "--all-policies", "--strict"],
        ]
        runs += [[*base, *combo, "--csv"] for combo in COMBOS]
    return runs


def command_set(tree: Path, tmp: Path) -> list[list[str]]:
    """Every command's argv.  A sweep's `--out` is a file under `tmp`."""
    runs = []
    for case in sorted((tree / "tests" / "golden").glob("*.json")):
        data = json.loads(case.read_text(encoding="utf-8"))
        if "choice" in data or "outcomes" in data:
            runs += _evaluations(case, "choice" in data)
    dropped = tmp / "dropped-block.json"
    dropped.write_text(json.dumps(DROPPED_BLOCK_CASE), encoding="utf-8")
    runs += _evaluations(dropped, False)
    for table in ("2", "4", "5", "6"):
        runs += [["table", table], ["table", table, "--strict"]]
        if table in SHIFTED:
            runs.append(["table", table, *SHIFTED[table]])
    runs += [
        ["table", "4", "--p0", "0.5", "--delta-v", "3"],
        ["table", "2", "--v-red", "7"],
    ]
    sweeps = [
        ["matos"],
        ["matos", "--theta-steps", "3", "--p-steps", "4"],
        ["matos", "--p0", "0.5"],
        ["medical"],
        ["medical", "--p1-min", "0", "--p1-max", "0.95", "--p1-steps", "20"],
        ["medical", "--p1-steps", "1"],
        ["medical", "--p0", "0.5"],
        ["medical", "--delta-v", "1.7e308"],
    ]
    runs += [["sweep", *s, "--out", str(tmp / f"sweep-{i}.csv")] for i, s in enumerate(sweeps)]
    for seed in [*range(20), 107]:
        runs.append(["verify", "--seed", str(seed), "--instances", "200"])
    runs += [
        ["verify", "--seed", "0", "--instances", "30", "--inject-lambda-offset", "0.1"],
        ["verify", "--seed", "-1"],
    ]
    sys.path.insert(0, str(tree / "bench"))
    try:
        corpus = importlib.import_module("corpus")
    finally:
        sys.path.pop(0)
    for seed in (1, 2):
        for build in (corpus.small_cases, corpus.large_n):
            runs += [op.argv for op in build(seed, tmp / f"{build.__name__}-{seed}")]
    return runs


def _mask(text: str, tree: Path, tmp: Path) -> str:
    """`text` with the scratch directory, the tree and each warning's
    location and echoed source line masked."""
    text = text.replace(str(tmp), "<tmp>").replace(str(tree), "<tree>")
    lines = text.split("\n")
    for i, line in enumerate(lines):
        header = WARNING.match(line)
        if header:
            lines[i] = f"<source>:<line>: {header[1]}: {line[header.end():]}"
            if i + 1 < len(lines) and lines[i + 1].startswith("  "):
                lines[i + 1] = "  <source line>"
    return "\n".join(lines)


def run_command(main, argv: list[str], tree: Path, tmp: Path) -> dict:
    """One command's record.  A warning shows once per command, as it
    would once per process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback: recorded, not raised
                code = f"uncaught {type(exc).__name__}"
                print(f"{code}: {exc}", file=sys.stderr)
    files = {}
    if argv[0] == "sweep":
        csv = Path(argv[argv.index("--out") + 1])
        if csv.exists():
            files[csv.name] = csv.read_bytes().decode("utf-8")
            csv.unlink()
    mask = functools.partial(_mask, tree=tree, tmp=tmp)
    return {
        "argv": [mask(a) for a in argv],
        "exit": code,
        "stdout": mask(out.getvalue()),
        "stderr": mask(err.getvalue()),
        "files": {name: mask(text) for name, text in files.items()},
    }


def _cli(tree: Path):
    """`lostchance.cli.main` from TREE/src, refusing any other copy."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("lostchance.cli")
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"lostchance was imported from {cli.__file__}, not from {src}")
    return cli.main


def write_records(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record) + "\n")


def read_records(path: Path) -> dict[str, dict]:
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    return {" ".join(r["argv"]): r for r in records}


def run_set(tree: Path, out: Path, pick=None) -> int:
    """Run the command set, or the commands `pick` keeps of it, against
    `tree`, and write their records to OUT/records.jsonl."""
    tree = tree.resolve()
    main = _cli(tree)
    tmp = Path(tempfile.mkdtemp(prefix="identity-"))
    try:
        runs = command_set(tree, tmp)
        if pick is not None:
            runs = pick(runs)
        records = [run_command(main, argv, tree, tmp) for argv in runs]
    finally:
        shutil.rmtree(tmp)
    out.mkdir(parents=True, exist_ok=True)
    write_records(out / RECORDS, records)
    return len(records)


def _lines(record: dict) -> list[str]:
    lines = [f"exit {record['exit']}", "--- stdout", *record["stdout"].split("\n")]
    lines += ["--- stderr", *record["stderr"].split("\n")]
    for name, text in sorted(record["files"].items()):
        lines += [f"--- file {name}", *text.split("\n")]
    return lines


def differences(a: dict[str, dict], b: dict[str, dict]) -> list[tuple[str, int, str, str]]:
    """(command, line number, A's line, B's line) for the first differing
    line of each command whose records differ; a command one run lacks
    differs at line 0."""
    found = []
    for key in [*a, *(k for k in b if k not in a)]:
        if key not in a or key not in b:
            held = ["present" if key in run else "absent" for run in (a, b)]
            found.append((key, 0, *held))
            continue
        left, right = _lines(a[key]), _lines(b[key])
        for i, (x, y) in enumerate(itertools.zip_longest(left, right, fillvalue="<end>"), 1):
            if x != y:
                found.append((key, i, x, y))
                break
    return found


def compare(a_dir: Path, b_dir: Path) -> int:
    a, b = read_records(a_dir / RECORDS), read_records(b_dir / RECORDS)
    found = differences(a, b)
    for key, line, x, y in found:
        print(f"DIFF {key}")
        print(f"  line {line}: A: {x}")
        print(f"  line {line}: B: {y}")
    print(f"{len(found)} of {len(set(a) | set(b))} commands differ")
    return 1 if found else 0


def self_test() -> int:
    """Run a few commands twice; one changed digit must be named, by
    command and line, and nothing else."""
    def pick(runs):
        keep = [
            ["table", "4"],
            ["verify", "--seed", "3", "--instances", "5"],
        ]
        prize = [r for r in runs if r[0] == "evaluate" and r[1].endswith("paper-prize.json")]
        sweep = [r for r in runs if r[:2] == ["sweep", "medical"]][:1]
        return keep + prize[:2] + sweep

    with tempfile.TemporaryDirectory(prefix="identity-self-test-") as scratch:
        a, b = Path(scratch, "a"), Path(scratch, "b")
        count = run_set(HERE, a, pick)
        run_set(HERE, b, pick)
        clean = differences(read_records(a / RECORDS), read_records(b / RECORDS))
        records = list(read_records(b / RECORDS).values())
        # Change the first digit of the CSV run's third stdout line.
        target = next(r for r in records if "--csv" in r["argv"])
        lines = target["stdout"].split("\n")
        digit = re.search(r"\d", lines[2])
        lines[2] = (
            lines[2][: digit.start()] + str((int(digit[0]) + 1) % 10) + lines[2][digit.end():]
        )
        target["stdout"] = "\n".join(lines)
        write_records(b / RECORDS, records)
        changed = differences(read_records(a / RECORDS), read_records(b / RECORDS))
    key = " ".join(target["argv"])
    # _lines puts "exit N" and "--- stdout" before stdout's first line.
    want = [(key, 5)]
    got = [(k, line) for k, line, _, _ in changed]
    passed = count == 5 and not clean and got == want
    print(f"clean copies: {len(clean)} differences; changed copy: {got}")
    print(f"self-test: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, metavar="DIR", help="run the command set into DIR")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    mode.add_argument("--self-test", action="store_true")
    parser.add_argument(
        "--tree", type=Path, default=HERE, help="checkout to run (default: this one)"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test()
    count = run_set(args.tree, args.out)
    print(f"wrote {count} records to {args.out / RECORDS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
