"""Count-only perf gate: a run's GF work per byte must equal the tracked value.

    python3 perf/run.py --workload W --seed 1 --seconds 1 > run.txt
    python3 tools/check_perf_counts.py W run.txt

Timings on a CI host are noise; ``gf_symbols_per_byte`` is an exact count
that repeats bit-identically, so any drift from ``tools/perf_counts.json``
is a real change in the work done.  Update that file only in a PR whose
ISSUE names the new value.  ``wire_mixed`` serves one-block reads whose
cost depends on the block (8 vs 61-62 mult_XORs on its pattern), so its
tracked value belongs to the command above exactly: seed 1, and the 12
rounds a 1-second run always does.
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
        result = json.loads(fh.read().splitlines()[-1])
    got = result["metrics"]["gf_symbols_per_byte"]["value"]
    same = got == tracked
    print(
        f"{'ok' if same else 'FAIL'} {workload}: "
        f"gf_symbols_per_byte {got!r} (tracked {tracked!r})"
    )
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
