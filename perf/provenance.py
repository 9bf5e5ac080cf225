"""Where a number came from: the envelope on every run record.

Every run appends one JSON line to ``perf/out/history.jsonl`` — the
trajectory ROADMAP asks for starts with the first run of this harness.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")
HISTORY = os.path.join(OUT_DIR, "history.jsonl")


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_state() -> tuple[str, bool]:
    """``(sha, dirty)``; ``("unknown", False)`` outside a git checkout."""
    sha = _git("rev-parse", "HEAD")
    if sha is None:
        return "unknown", False
    return sha, bool(_git("status", "--porcelain", "--untracked-files=no"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def envelope() -> dict:
    import numpy

    sha, dirty = git_state()
    return {
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "argv": sys.argv[1:],
    }


def append_history(record: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(HISTORY, "a") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")
