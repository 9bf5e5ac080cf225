"""Count-only perf gate: a run's exact counts must equal the tracked values.

    python3 perf/run.py --workload W --seed 1 --seconds 1 > run.txt
    python3 tools/check_perf_counts.py W run.txt
    python3 perf/run.py --workload W --seed 1 --seconds 1 --trace 1 > traced.txt
    python3 tools/check_perf_counts.py W traced.txt

Timings on a CI host are noise; the counts in ``tools/perf_counts.json``
repeat bit-identically, so any drift is a real change in the work done.
An untraced run prints ``gf_symbols_per_byte`` (GF work per payload
byte); a traced run prints the per-layer counts that pin down the plans
and programs themselves: ``core.partition_groups``, ``core.cost_ratio``,
``core.survivor_bytes_per_byte`` and ``kernels.program_ops``.  Each run
is checked on the tracked counts it prints.  Update the file only in a
change that names the new value up front; ROADMAP item 1c will redefine
``core.survivor_bytes_per_byte`` (served reads, not a whole-pattern
plan) and update its value then.  ``wire_mixed`` serves one-block reads
whose cost depends on the block (8 vs 61-62 mult_XORs on its pattern), so
its tracked ``gf_symbols_per_byte`` belongs to the command above
exactly: seed 1, and the 12 rounds a 1-second run always does.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list[str]) -> int:
    workload, run_path = argv
    with open(os.path.join(os.path.dirname(__file__), "perf_counts.json")) as fh:
        tracked = json.load(fh)[workload]
    with open(run_path) as fh:
        metrics = json.loads(fh.read().splitlines()[-1])["metrics"]
    checked = [name for name in tracked if name in metrics]
    if not checked:
        print(f"FAIL {workload}: the run prints none of {sorted(tracked)}")
        return 1
    ok = True
    for name in checked:
        got, want = metrics[name]["value"], tracked[name]
        ok &= got == want
        print(f"{'ok' if got == want else 'FAIL'} {workload}: {name} {got!r} (tracked {want!r})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
