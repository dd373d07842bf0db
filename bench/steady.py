#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics, run against the bounds they carry.

    python3 bench/steady.py --workload large-n --runs 10
    python3 bench/steady.py --workload all --runs 10 --first-seed 101

Runs the benchmark command from BENCHMARK.json once per seed, one run at a
time, with --trace 0.  For each end-to-end metric it prints the median of
the runs and the spread, the distance between the first and third
quartile (statistics.quantiles with n=4) as a share of the median, next to
the metric's bound: a spread under a third of its bound is steady.  It
also checks that every run was correct and that the share of failed
operations is the same in every run.  A summary is written to
bench/_out/steady-<workload>.json.

The bounds in BENCHMARK.json were set from this command's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def steadiness(spec: dict, workload: str, seeds: list, seconds: int) -> dict:
    results = []
    for seed in seeds:
        res = run_once(spec, workload, seed, seconds)
        results.append(res)
        print(f"  seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
    summary = {"workload": workload, "seeds": seeds, "seconds": seconds, "metrics": {}}
    print(f"{workload}: {len(seeds)} runs of {seconds} s")
    print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med, q1, q3, s = spread(values)
        if s < m["bound"] / 3:
            verdict = "steady"
        elif s <= m["bound"]:
            verdict = "within bound, not steady"
        else:
            verdict = "WIDER THAN BOUND"
        print(f"  {m['name']:<18} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.2%} "
              f"{m['bound']:6.2f}  {verdict}")
        summary["metrics"][m["name"]] = {
            "median": med, "q1": q1, "q3": q3, "spread": s, "bound": m["bound"],
            "values": values,
        }
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    correct = all(r["correct"] for r in results)
    print(f"  correct in every run: {correct}; failed share: "
          f"{', '.join(str(x) for x in sorted(shares))}"
          f"{'' if len(shares) == 1 else '  NOT THE SAME IN EVERY RUN'}")
    summary["correct"] = correct
    summary["failed_shares"] = sorted(str(x) for x in shares)
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = ROOT / "bench" / "_out"
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        summary = steadiness(spec, workload, seeds, spec["run_seconds"])
        (out / f"steady-{workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
        ok = ok and summary["correct"] and len(summary["failed_shares"]) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
