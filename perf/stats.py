"""Small statistics and span bookkeeping for the perf harness.

Nothing here imports ``repro``: these are the rules the numbers are
reduced by, kept separate so ``perf/tests`` can pin them down.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Sequence

#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

#: Percentiles tried for the tail, highest first, in tenths of a percent
#: (integers, so "ten samples beyond" is decided without float drift).
TAIL_LADDER = (999, 995, 990, 980, 950, 900, 750)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0..100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = math.ceil(len(ordered) * p / 100.0 - 1e-9)  # 1e-9: float drift
    return ordered[min(len(ordered), max(1, rank)) - 1]


def tail_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """The highest ladder percentile with >= TAIL_SAMPLES samples beyond it.

    Returns ``(p, value)``.  With too few samples for even the lowest
    rung the median is returned as ``(50.0, median)`` — a tail nobody
    can estimate is not reported as one.
    """
    n = len(samples)
    for per_mille in TAIL_LADDER:
        if n * (1000 - per_mille) // 1000 >= TAIL_SAMPLES:
            return per_mille / 10, percentile(samples, per_mille / 10)
    return 50.0, statistics.median(samples)


def iqr_over_median(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's spread)."""
    if len(samples) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def whole_pass_rounds(rounds: int, pass_rounds: int) -> int:
    """How many leading rounds form whole passes over a workload's inputs.

    Count metrics are taken over whole passes only, so a run cut off by
    the clock mid-pass reports the same ratio as one that was not.
    """
    if pass_rounds < 1:
        raise ValueError(f"pass_rounds must be >= 1, got {pass_rounds}")
    return rounds - rounds % pass_rounds


class Tracer:
    """In-memory spans ``(id, parent, name, start, end)``; written at exit.

    Parents are passed explicitly (not kept on a stack) because the wire
    workload has two requests in flight at once.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def begin(self, name: str, parent: int | None = None, **attrs) -> int:
        span = {
            "id": len(self.spans),
            "parent": parent,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        span.update(attrs)
        self.spans.append(span)
        return span["id"]

    def end(self, span_id: int, **attrs) -> float:
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        span.update(attrs)
        return span["end"] - span["start"]

    def self_time(self, span_id: int) -> float:
        """Span duration minus the part its children cover."""
        span = self.spans[span_id]
        covered = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == span_id)
        return span["end"] - span["start"] - covered

    def child_coverage(self, name: str) -> float:
        """Median share of every ``name`` span covered by its children."""
        by_parent: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                by_parent[s["parent"]] = by_parent.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        shares = [
            by_parent.get(s["id"], 0.0) / (s["end"] - s["start"])
            for s in self.spans
            if s["name"] == name and s["end"] > s["start"]
        ]
        return statistics.median(shares) if shares else 0.0
