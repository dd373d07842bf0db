#!/usr/bin/env python3
"""Per-stage time of one `evaluate_policy` call, against outcome count n.

    python3 bench/stages.py

For each n in SIZES a case drawn from default_rng([SEED, n]), in outcome
form with an evidence map, is written and loaded with
`lostchance.casefile.load_case`; then every combination of
{ld-c, i-c, e-c} x {h-fi, m-fi} (with cc-i) is evaluated REPS times with
the spans of spans.py installed, and REPS times without them.  Each cell
is the median over the repetitions, in milliseconds: the untraced total,
the traced total, and the stages inside it (coupling construction with its
validation, validation alone, selective groups, partition, conditional
gap, indemnity, money awards, and the rest of `evaluate_policy`).
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
from time import perf_counter

import run  # pins BLAS threads; imported before numpy

import numpy as np

import corpus
import spans

SIZES = (2, 10, 100, 1000, 3000)
REPS = 5
SEED = 1

STAGES = [
    ("coupling", spans.BUILDERS),
    ("validate", [spans.VALIDATE]),
    ("groups", ["valuation.selective_groups"]),
    ("partition", ["valuation.build_partition"]),
    ("gap", ["valuation.conditional_gap"]),
    ("indemnity", ["valuation.cc_indemnity", "valuation.fm_indemnity"]),
    ("awards", ["outcome.award_from_compensation"]),
]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from lostchance import PolicyCombo, load_case, valuation

    work = run.HERE / "_work" / f"stages-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    header = ["n", "info", "conn", "untraced", "traced", *[s for s, _ in STAGES], "self"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    try:
        for n in SIZES:
            rng = np.random.default_rng([SEED, n])
            path = work / f"n{n}.json"
            corpus._write(path, corpus.outcome_case(rng, n, corpus.LARGE_K, "map", "identity"))
            loaded = load_case(path)
            for conn in ("ld-c", "i-c", "e-c"):
                for info in ("h-fi", "m-fi"):
                    combo = PolicyCombo(info, conn, "cc-i")

                    def once():
                        # Looked up at call time, so the spans see the call.
                        valuation.evaluate_policy(
                            loaded.case, combo, evidence_joint=loaded.evidence_joint
                        )

                    plain = []
                    for _ in range(REPS):
                        t0 = perf_counter()
                        once()
                        plain.append(perf_counter() - t0)
                    tracer = spans.Tracer()
                    tracer.install()
                    try:
                        for rep in range(REPS):
                            tracer.current_op = rep
                            once()
                    finally:
                        tracer.uninstall()
                    row = [n, info, conn, statistics.median(plain)]
                    row += per_stage(tracer, REPS)
                    print("| " + " | ".join(
                        f"{x:.3g}" if isinstance(x, float) else str(x)
                        for x in [row[0], row[1], row[2], 1e3 * row[3], *row[4:]]
                    ) + " |", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def per_stage(tracer, reps: int) -> list:
    """Traced total, each stage, and evaluate_policy's self time (ms medians)."""
    a = tracer.timings()
    dur = a["dur"]
    names = np.array(tracer.names)[a["name"]]

    def med(mask, values):
        return 1e3 * statistics.median(
            np.bincount(a["op"][mask], weights=values[mask], minlength=reps)
        )

    root = names == "valuation.evaluate_policy"
    out = [med(root, dur)]
    out += [med(np.isin(names, members), dur) for _, members in STAGES]
    out.append(med(root, a["self"]))
    return out


if __name__ == "__main__":
    sys.exit(main())
