"""A/A check: do two sets of runs of the *same* commit agree within the bounds?

    python3 perf/aa_check.py [--runs 3] [--seconds 20]

Runs every workload as two alternating sets (A, B, A, B, ...) of
``--runs`` runs each, every run with its own seed, then prints per
workload x end-to-end metric both set medians, the quartiles over all
runs, the relative difference of the medians and the metric's bound.
Writes ``perf/out/aa_<sha>.json``.  Exits non-zero if any pair of
medians differs by more than its bound, if any run was incorrect, or
if ``gf_symbols_per_byte`` differs at all between any two runs of a
workload (it is an exact count).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from provenance import OUT_DIR, envelope
from run import benchmark_spec, run_child

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set (>= 3)")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    failures: list[str] = []
    report = {**envelope(), "runs_per_set": args.runs, "seconds": seconds, "rows": []}
    header = (
        f"{'workload':14} {'metric':20} {'median A':>11} {'median B':>11} "
        f"{'q1':>11} {'q3':>11} {'B vs A':>8} {'bound':>6}"
    )
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(2 * args.runs):
            result = run_child(
                "--workload", workload, "--seed", str(101 + i),
                "--seconds", str(seconds), "--trace", "0",
            )
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload}: run {i} incorrect or failed")
            sets["AB"[i % 2]].append(result["metrics"])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name]["value"] for m in sets["A"]]
            b = [m[name]["value"] for m in sets["B"]]
            q1, _, q3 = statistics.quantiles(a + b, n=4)
            med_a, med_b = statistics.median(a), statistics.median(b)
            # same code on both sides: a difference in either direction is disagreement
            diff = abs(med_b - med_a) / med_a
            ok = diff <= bound
            if name == "gf_symbols_per_byte" and len(set(a + b)) > 1:
                ok = False
                failures.append(f"{workload}: gf_symbols_per_byte is not one number: {set(a + b)}")
            elif not ok:
                failures.append(f"{workload}: {name} medians differ by {diff:.1%} > {bound:.1%}")
            print(
                f"{workload:14} {name:20} {med_a:11.5g} {med_b:11.5g} "
                f"{q1:11.5g} {q3:11.5g} {diff:8.2%} {bound:6.1%}{'' if ok else '  FAIL'}"
            )
            report["rows"].append(
                {"workload": workload, "metric": name, "a": a, "b": b,
                 "median_a": med_a, "median_b": med_b, "q1": q1, "q3": q3,
                 "rel_diff": diff, "bound": bound, "ok": ok}
            )
    report["failures"] = failures
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"aa_{report['git_sha'][:12]}.json")
    with open(path, "w") as out:
        json.dump(report, out, indent=1)
    print(f"# wrote {os.path.relpath(path)}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
