"""Command-line front end.

Verbs:
  evaluate  run one policy combination (or the full grid) on a case file
  table     reproduce a published compensation table and report PASS/FLAG
  sweep     write a parameter-sweep CSV for a built-in scenario
  verify    run the randomized oracle audit
  schema    print the case-file grammar

Exit codes: 0 success; 1 a computation flag was raised under --strict,
a table cell failed, or verification failed; 2 bad input.
Human-readable numbers use 6 significant digits; CSV output keeps full
precision.  The LOSTCHANCE_OUT_DIR environment variable sets the default
output directory for sweeps.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .casefile import NESTED_TOO_DEEP, SCHEMA_TEXT, atomic_write_text, load_case
from .choice import evaluate_choice_case
from .outcome import CaseValidationError
from .valuation import (
    STANDARD_AXES,
    STANDARD_COMBOS,
    CompensationSchedule,
    ConfigurationError,
    PolicyCombo,
    evaluate_grid,
)

OUT_DIR_ENV = "LOSTCHANCE_OUT_DIR"

# The parameters a `table` may take; each table reads some of them, with
# the defaults of its `reproduce_table_N`.
TABLE_FLAGS = ("p0", "p1", "delta_v", "v_red", "v_blue")
# The flags each `sweep` scenario reads, with their defaults.
SWEEP_FLAGS = {
    "matos": dict(theta_min=0.0, theta_max=1.0, theta_steps=11, p_min=0.0, p_max=1.0, p_steps=21),
    "medical": dict(p0=0.95, delta_v=100_000.0, p1_min=0.0, p1_max=0.90, p1_steps=19),
}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _parse_custom_blocks(spec: Optional[str]) -> Optional[list[list[str]]]:
    """Blocks of outcome labels, from 'a,b|c' or, when the spec starts
    with '[', from a JSON list of lists of labels, which can name any
    label, a choice case's 'choice|result' among them.  A refusal never
    echoes the spec: bad JSON gets the decoder's line and column, and bad
    blocks are named by their count and at most their first 10 indices."""
    if spec is None:
        return None
    if spec.lstrip().startswith("["):
        return _json_blocks(spec)
    blocks = [
        [label.strip() for label in part.split(",") if label.strip()]
        for part in spec.split("|")
    ]
    blocks = [b for b in blocks if b]
    if not blocks:
        raise ConfigurationError("could not parse custom blocks: no block names a label")
    return blocks


def _json_blocks(spec: str) -> list[list[str]]:
    try:
        blocks = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"custom blocks are not JSON: {exc}") from None
    except RecursionError:
        raise ConfigurationError(f"custom blocks are not JSON: {NESTED_TOO_DEEP}") from None
    problem = ""
    if not isinstance(blocks, list) or not blocks:
        problem = "expected a non-empty list of blocks"
    else:
        bad = [
            i
            for i, b in enumerate(blocks)
            if not (isinstance(b, list) and b and all(isinstance(x, str) for x in b))
        ]
        if bad:
            shown = ", ".join(map(str, bad[:10])) + ", ..." * (len(bad) > 10)
            problem = f"blocks that are not non-empty lists of labels: {len(bad)} [{shown}]"
    if problem:
        raise ConfigurationError(f"could not parse custom blocks: {problem}")
    return blocks


def _cell(x) -> str:
    """A CSV cell: a number at full precision, anything else as text."""
    if isinstance(x, (int, float, np.floating)) and not isinstance(x, bool):
        return repr(float(x))
    return str(x)


def _csv_field(text: str) -> str:
    """`text` as a CSV field: as it is, unless it holds a delimiter, a
    quote or a line break, "\\r" among them; then in quotes, with its
    quotes doubled."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(column: list) -> list[str]:
    """A column's CSV fields, each `_csv_field(_cell(x))`.  A column of
    Python floats is given by repr, which is what `_cell` gives a float
    and holds no character a field quotes; in any other column each
    distinct text cell is formatted once.  Numbers are never memoized,
    since -0.0 == 0.0 and the two print differently."""
    if all(type(x) is float for x in column):
        return list(map(repr, column))
    fields: dict[str, str] = {}
    out = []
    for x in column:
        if type(x) is str:
            field = fields.get(x)
            if field is None:
                field = fields[x] = _csv_field(x)
        else:
            field = _csv_field(_cell(x))
        out.append(field)
    return out


def _csv_columns(header: Sequence[str], columns: list[list]) -> str:
    """A CSV table, written one column at a time: the header's fields,
    then one line per row of the equal-length `columns`."""
    lines = [",".join(map(_csv_field, header))]
    lines.extend(map(",".join, zip(*map(_csv_column, columns))))
    return "\n".join(lines) + "\n"


def _schedules_csv(schedules: list[CompensationSchedule]) -> str:
    """Every schedule's rows as CSV, as one string.  A label is formatted
    once per outcome tuple; the floats are Python floats, so repr gives
    them at full precision."""
    lines = ["policy,outcome,compensation,award\n"]
    outcomes = cells = None
    for s in schedules:
        if s.outcomes is not outcomes:
            outcomes = s.outcomes
            cells = [_csv_field(o) for o in outcomes]
        # A policy descriptor holds no character a CSV field quotes.
        policy = s.policy.descriptor
        lines.extend(
            f"{policy},{o},{x!r},{a!r}\n" for o, x, a in zip(cells, s.values, s.awards)
        )
    return "".join(lines)


def _schedules_text(schedules: list[CompensationSchedule]) -> str:
    """Every schedule's rows as aligned text, as one string."""
    width = max(len(s.policy.descriptor) for s in schedules)
    owidth = max(len(o) for s in schedules for o in s.outcomes)
    lines = []
    outcomes = cells = None
    for s in schedules:
        if s.outcomes is not outcomes:
            outcomes = s.outcomes
            cells = [f"{o:<{owidth}}" for o in outcomes]
        policy = f"{s.policy.descriptor:<{width}}"
        lines.extend(
            f"{policy}  {o}  compensation={x:.6g}  award={a:.6g}\n"
            for o, x, a in zip(cells, s.values, s.awards)
        )
    return "".join(lines)


def _evaluate_all(
    loaded, combos: list[PolicyCombo], presumption: Optional[str], custom_blocks
) -> list[CompensationSchedule]:
    """One schedule per combo, from one policy grid."""
    blocks = None
    if custom_blocks is not None:
        blocks = _labels_to_indices(loaded.case.space, custom_blocks)
    if loaded.kind == "choice":
        return evaluate_choice_case(loaded.case, combos, presumption, blocks)
    return evaluate_grid(loaded.case, combos, loaded.evidence_joint, blocks)


def _labels_to_indices(space, blocks: list[list[str]]) -> list[list[int]]:
    try:
        return [[space.index(lab) for lab in block] for block in blocks]
    except KeyError as exc:
        if not any("," in lab or "|" in lab for lab in space.labels):
            raise
        raise KeyError(
            f"{exc.args[0]}; 'a,b|c' splits labels at ',' and '|', so name "
            f"labels that hold them in the JSON form, for example "
            f"--custom-blocks '{json.dumps([[space.labels[0]]])}'"
        ) from None


def cmd_evaluate(args) -> int:
    loaded = load_case(args.case)
    custom_blocks = _parse_custom_blocks(args.custom_blocks)
    combos: list[PolicyCombo]
    skipped: list[str] = []
    if args.all_policies:
        has_evidence = loaded.kind == "choice" or loaded.evidence_joint is not None
        combos = [c for c in STANDARD_COMBOS if has_evidence or c.connection != "e-c"]
        if not has_evidence:
            skipped = [
                f"{info}/e-c: no evidence coupling in file" for info in STANDARD_AXES[0]
            ]
    else:
        combos = [PolicyCombo(args.info, args.connection, args.indemnity)]
    if custom_blocks is not None and all(c.info != "custom" for c in combos):
        raise ConfigurationError(
            "--custom-blocks is given, but no evaluated combination has "
            "information policy 'custom' (--info custom, without --all-policies)"
        )
    schedules = _evaluate_all(loaded, combos, args.presumption, custom_blocks)
    notes = sorted({n for s in schedules for n in s.notes})
    out = [_schedules_csv(schedules) if args.csv else _schedules_text(schedules)]
    out.extend(f"# {note}\n" for note in notes)
    out.extend(f"# skipped {s}\n" for s in skipped)
    sys.stdout.write("".join(out))
    if args.strict and any(s.flags for s in schedules):
        return 1
    return 0


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _given(args, command: str, names, read) -> dict:
    """The flags among `names` given on the command line, by name; the
    parser leaves a flag it was not given unset.  A given flag that
    `command` does not `read` is an error, which names every such flag."""
    given = {name: getattr(args, name) for name in names if hasattr(args, name)}
    ignored = [_flag(name) for name in given if name not in read]
    if ignored:
        raise ConfigurationError(f"{command} does not read {', '.join(ignored)}")
    return given


def cmd_table(args) -> int:
    from .tables import TABLES, reproduce_table

    read = inspect.signature(TABLES[args.table]).parameters
    params = _given(args, f"table {args.table}", TABLE_FLAGS, read)
    cells = reproduce_table(args.table, **params)
    failed = False
    flagged = False
    for cell in cells:
        line = (
            f"table {cell.table} | {cell.row} | {cell.outcome}: "
            f"computed={_fmt(cell.computed)} printed={_fmt(cell.printed)} "
            f"{cell.status}"
        )
        if cell.note:
            line += f"  ({cell.note})"
        print(line)
        failed = failed or cell.status == "FAIL"
        flagged = flagged or cell.status == "FLAG"
    n_ok = sum(1 for c in cells if c.ok)
    print(f"{n_ok}/{len(cells)} cells match")
    if failed:
        return 1
    if flagged and args.strict:
        return 1
    return 0


def _default_out(name: str, out: Optional[str]) -> Path:
    if out is not None:
        return Path(out)
    base = os.environ.get(OUT_DIR_ENV, ".")
    return Path(base) / f"{name}_sweep.csv"


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    # linspace works out hi - lo even for no point or one, which warns
    # when the span overflows, and makes the one point nan for an infinite
    # span and 0.0 for lo = -0.0; the one point is lo.
    return np.linspace(lo, hi, steps) if steps > 1 else np.full(steps, lo)


def cmd_sweep(args) -> int:
    """Write a sweep's rows as CSV, under the column names its scenario
    exports, in their order."""
    from .scenarios import MATOS_COLUMNS, MEDICAL_COLUMNS, matos_sweep, medical_sweep
    from .scenarios import RejectedFormulaComparison

    read = SWEEP_FLAGS[args.scenario]
    names = [name for flags in SWEEP_FLAGS.values() for name in flags]
    params = {**read, **_given(args, f"sweep {args.scenario}", names, read)}
    if args.scenario == "matos":
        thetas = _grid(params["theta_min"], params["theta_max"], params["theta_steps"])
        ps = _grid(params["p_min"], params["p_max"], params["p_steps"])
        rows = list(matos_sweep(thetas, ps))
        header = MATOS_COLUMNS
    else:
        p1s = _grid(params["p1_min"], params["p1_max"], params["p1_steps"])
        rows = list(medical_sweep(params["p0"], params["delta_v"], p1s))
        header = MEDICAL_COLUMNS
    text = _csv_columns(header, [[r[h] for r in rows] for h in header])
    path = _default_out(args.scenario, args.out)
    atomic_write_text(path, text)
    print(f"wrote {len(rows)} rows to {path}")
    if args.scenario == "medical":
        print(f"# rejected_formula_comparison: {RejectedFormulaComparison.flag}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(
        seed=args.seed,
        instances=args.instances,
        lambda_offset=args.inject_lambda_offset,
    )
    print(report.render())
    return 0 if report.passed else 1


def cmd_schema(args) -> int:
    print(SCHEMA_TEXT, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lostchance",
        description="Lost-chance compensation engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate a case file")
    p_eval.add_argument("case", help="path to a JSON case file")
    p_eval.add_argument("--info", default="h-fi", help="information policy (l-fi, m-fi, h-fi, custom)")
    p_eval.add_argument(
        "--connection",
        default="e-c",
        help="connection policy (e-c, ld-c, i-c, paper-table)",
    )
    p_eval.add_argument("--indemnity", default="cc-i", help="indemnity policy (cc-i, fm-i)")
    p_eval.add_argument(
        "--all-policies",
        action="store_true",
        help="evaluate the full info x connection x indemnity grid",
    )
    p_eval.add_argument(
        "--presumption",
        choices=["it-cp", "ii-cp", "none"],
        default="it-cp",
        help="counterfactual-choice presumption for lost-choice cases",
    )
    p_eval.add_argument(
        "--custom-blocks",
        default=None,
        help="custom information blocks of outcome labels: 'a,b|c' ('|' "
        "between blocks, ',' between labels), or a JSON list of lists such as "
        "'[[\"refuse|500000\"]]', which names any label, a choice case's "
        "'choice|result' among them",
    )
    p_eval.add_argument("--csv", action="store_true", help="machine-readable output")
    p_eval.add_argument("--strict", action="store_true", help="exit 1 on flags")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_table = sub.add_parser("table", help="reproduce a published table")
    p_table.add_argument("table", choices=["2", "4", "5", "6"])
    for name in TABLE_FLAGS:
        p_table.add_argument(_flag(name), type=float, default=argparse.SUPPRESS)
    p_table.add_argument("--strict", action="store_true", help="exit 1 on flags")
    p_table.set_defaults(fn=cmd_table)

    p_sweep = sub.add_parser("sweep", help="write a scenario sweep CSV")
    p_sweep.add_argument("scenario", choices=["matos", "medical"])
    p_sweep.add_argument("--out", default=None, help="output CSV path")
    for flags in SWEEP_FLAGS.values():
        for name, default in flags.items():
            p_sweep.add_argument(_flag(name), type=type(default), default=argparse.SUPPRESS)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the randomized oracle audit")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--instances", type=int, default=200)
    p_verify.add_argument(
        "--inject-lambda-offset",
        type=float,
        default=0.0,
        help=argparse.SUPPRESS,
    )
    p_verify.set_defaults(fn=cmd_verify)

    p_schema = sub.add_parser("schema", help="print the case-file grammar")
    p_schema.set_defaults(fn=cmd_schema)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing keeps no state in the
    parser, so one tree serves every call of main."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "presumption", None) == "none":
        args.presumption = None
    try:
        return args.fn(args)
    except CaseValidationError as exc:
        print("error: case file is invalid", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # str() of a KeyError is the repr of its message; print the message.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
