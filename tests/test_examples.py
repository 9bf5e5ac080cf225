"""The store and scrub examples run, and print the counts they are pinned to.

Each example runs in its own interpreter, as a user would run it.  The
pinned counts depend only on the seeded failure history and the plans,
so a change to either shows here and not only in CI's example step.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = SRC.parent / "examples"


def run_example(name: str) -> str:
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_disk_array_rebuild_counts():
    out = run_example("disk_array_rebuild.py")
    rebuilds = re.findall(
        r"(\w+): repaired (\d+) blocks in [\d.]+ s, (\d+) mult_XORs, verified=(\w+)", out
    )
    assert rebuilds == [
        ("traditional", "816", "15108", "True"),
        ("ppm", "816", "11198", "True"),
    ]


def test_degraded_read_lrc_counts():
    out = run_example("degraded_read_lrc.py")
    assert re.findall(r"(\d+) mult_XORs", out) == ["3", "32", "26"]
    assert "p = 3 local repairs in parallel + 2 via globals" in out


def test_scrub_and_repair_locates_and_restores():
    out = run_example("scrub_and_repair.py")
    assert "located block 29 (expected 29): MATCH" in out
    assert "repaired content matches original: True" in out
    assert "final scrub: clean=True" in out
