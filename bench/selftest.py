#!/usr/bin/env python3
"""Self-test of the output checks: each one must catch one corrupted value.

    python3 bench/selftest.py [--seed 1]

Runs the engine once on every small-cases file and every paper-audit
command (a short seeded `verify`), confirms that each check in checks.py passes the real output, then
corrupts one value that check reads and confirms that the check reports
it.  A compensation or award is moved by 1e-5 of the case's scale, a
hundred times the checks' tolerance.  Exits 1 if a check passes a
corrupted output or fails a clean one.
"""

from __future__ import annotations

import argparse
import copy
import os
import re
import shutil
import sys

import run  # pins BLAS threads before numpy loads

import checks
import corpus

DELTA = 1e-5

# property -> (which schedules it reads, which field, direction of the change)
CORRUPT = {
    "cc-covers-fm": (lambda p: p.endswith("/cc-i"), "x", -1.0),
    "l-fi-flat": (lambda p: p.startswith("l-fi/") and p.endswith("/cc-i"), "x", 1.0),
    "h-fi-independent": (lambda p: p == "h-fi/i-c/cc-i", "x", 1.0),
    "h-fi-evidence": (lambda p: p == "h-fi/e-c/cc-i", "x", 1.0),
    "h-fi-comonotone": (lambda p: p == "h-fi/ld-c/cc-i", "x", 1.0),
    "fm-mean": (lambda p: p.endswith("/fm-i"), "x", 1.0),
    "award": (lambda p: True, "award", 1.0),
}


def corrupted_schedules(flat, scheds, name):
    """A copy of scheds with one value moved, or None if name never reads one."""
    pick, field, sign = CORRUPT[name]
    # The outcome with the most factual mass, so a shift moves means too.
    k = int(flat.f[flat.support].argmax())
    scale = max(1.0, float(abs(flat.values).max()))
    if field == "award":
        scale = max(1.0, float(abs(checks.to_money(flat.money, flat.values)).max()))
    for policy in scheds:
        if pick(policy):
            bad = copy.deepcopy(scheds)
            getattr(bad[policy], field)[k] += sign * DELTA * scale
            return bad
    return None


def selftest_properties(cli, ops) -> dict:
    caught: dict = {name: 0 for name in checks.PROPERTIES}
    caught["rejection message"] = 0
    for op in ops:
        code, out, err = run.call(cli, op.argv)
        if code != op.expect_exit:
            continue  # a known fault: the benchmark counts it as failed
        if op.expect_exit != 0:
            if checks.check_evaluate(op, out, err, code):
                raise SystemExit(f"{op.name}: the clean rejection fails its check")
            caught["rejection message"] += bool(checks.check_evaluate(op, out, "", code))
            continue
        if checks.check_evaluate(op, out, err, code):
            raise SystemExit(f"{op.name}: the clean output fails its checks")
        scheds, _ = checks.parse_evaluate(out)
        flat = checks.flat_case(op.data, op.presumption)
        for name, prop in checks.PROPERTIES.items():
            if prop(flat, scheds):
                raise SystemExit(f"{op.name}: {name} fails the clean output")
            bad = corrupted_schedules(flat, scheds, name)
            if bad is not None and prop(flat, bad):
                caught[name] += 1
    return caught


def _replace_once(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


def _bump_csv_cell(text: str, row: int, col: int, by: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + by)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def selftest_audit(cli, work) -> dict:
    out = {}

    def run_cmd(*argv):
        return run.call(cli, list(argv))

    code, t2, _ = run_cmd("table", "2")
    code4, t4, _ = run_cmd("table", "4")
    cost = re.search(r"cost (\S+) vs", t4).group(1)
    cases = {
        "table: a FAILing cell": (checks.check_table("2", t2, code),
                                  checks.check_table("2", _replace_once(t2, " PASS", " FAIL"), code)),
        "table 4: a wrong published cost": (
            checks.check_table("4", t4, code4),
            checks.check_table("4", t4.replace(f"cost {cost} vs", "cost 1126 vs"), code4)),
        "table 4: a FLAG on another row": (
            checks.check_table("4", t4, code4),
            checks.check_table("4", _replace_once(t4, " PASS", " FLAG"), code4)),
    }
    for name, check in (("matos", checks.check_matos), ("medical", checks.check_medical)):
        path = work / f"{name}.csv"
        run_cmd("sweep", name, "--out", str(path))
        text = path.read_text(encoding="utf-8")
        row = len(text.splitlines()) - 1
        col = 2 if name == "matos" else 4
        cases[f"sweep {name}: one award"] = (check(text), check(_bump_csv_cell(text, row, col, 1.0)))
    verify = ["verify", "--seed", str(run.VERIFY_SEED)]
    code, seeded, _ = run_cmd(*verify, "--instances", "20")
    instances, offset, caught_by = run.INJECTED
    icode, injected, _ = run_cmd(*verify, "--instances", instances,
                                 "--inject-lambda-offset", offset)
    first = re.search(r"  PASS \S+: (\d+)/\1", seeded).group(0)
    name = first.split()[1].rstrip(":")
    cases["verify: a FAILing property"] = (
        checks.check_verify(seeded, code),
        checks.check_verify(seeded.replace(first, first.replace("PASS", "FAIL")), code))
    cases["verify: a property with no checks"] = (
        checks.check_verify(seeded, code),
        checks.check_verify(seeded.replace(first, f"  PASS {name}: 0/0"), code))
    cases["verify injected: the fault not caught"] = (
        checks.check_verify_injected(injected, icode, caught_by),
        checks.check_verify_injected(
            re.sub(r"  FAIL (\S+): \d+/(\d+)", r"  PASS \1: \2/\2", injected), icode, caught_by))
    for name, (clean, bad) in cases.items():
        if clean:
            raise SystemExit(f"{name}: the clean output fails: {clean}")
        out[name] = int(bool(bad))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from lostchance import cli

    work = run.HERE / "_work" / f"selftest-{os.getpid()}"
    try:
        ops = corpus.small_cases(args.seed, work)
        caught = selftest_properties(cli, ops)
        caught.update(selftest_audit(cli, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missed = [name for name, n in caught.items() if n == 0]
    for name, n in caught.items():
        print(f"  {'caught' if n else 'MISSED'}  {name}" + (f" ({n} files)" if n > 1 else ""))
    print("self-test:", "FAIL" if missed else "PASS")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
