"""Group-to-thread assignment strategies for the parallel phase.

Algorithm 1 assigns independent sub-matrix ``p`` to thread ``p mod T``
(round-robin).  That is optimal when all groups cost the same — the SD
worst case, where every group is an m x (n-m) decode — but LRC groups
are as uneven as their group sizes, and general scenarios mix singleton
and m-wide groups.  This module adds the classic LPT
(longest-processing-time-first) greedy, which is a 4/3-approximation of
the optimal makespan, as a drop-in alternative:

- :func:`assign_round_robin` — the paper's rule;
- :func:`assign_lpt` — sort by cost descending, place each group on the
  currently least-loaded worker;
- :func:`makespan` — evaluate an assignment's bottleneck load.

The paper's rule lives in the parallel model
(:func:`repro.parallel.simulate.simulate_ppm_time` bins phase 1 with
:func:`assign_round_robin`); the decode engine places its (stage x tile)
tasks with :func:`assign_lpt`, and :func:`lpt_advantage` quantifies what
LPT buys over the paper's rule.
"""

from __future__ import annotations

import heapq
from typing import Sequence


def assign_round_robin(costs: Sequence[int], threads: int) -> list[list[int]]:
    """Group i -> worker i mod T (Algorithm 1).  Returns index buckets."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    t_eff = max(1, min(threads, len(costs)))
    buckets: list[list[int]] = [[] for _ in range(t_eff)]
    for i in range(len(costs)):
        buckets[i % t_eff].append(i)
    return buckets


def assign_lpt(costs: Sequence[int], threads: int) -> list[list[int]]:
    """Longest-processing-time-first greedy assignment."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    t_eff = max(1, min(threads, len(costs)))
    buckets: list[list[int]] = [[] for _ in range(t_eff)]
    heap = [(0, w) for w in range(t_eff)]
    heapq.heapify(heap)
    order = sorted(range(len(costs)), key=lambda i: -costs[i])
    for i in order:
        load, worker = heapq.heappop(heap)
        buckets[worker].append(i)
        heapq.heappush(heap, (load + costs[i], worker))
    return buckets


def makespan(costs: Sequence[int], buckets: Sequence[Sequence[int]]) -> int:
    """Bottleneck (maximum) worker load of an assignment."""
    if not buckets:
        return 0
    return max(sum(costs[i] for i in bucket) for bucket in buckets)


def lpt_advantage(costs: Sequence[int], threads: int) -> float:
    """Relative makespan reduction LPT achieves over round-robin.

    0.0 means round-robin was already balanced (e.g. equal-cost SD
    groups); positive values appear with skewed group costs.
    """
    rr = makespan(costs, assign_round_robin(costs, threads))
    lpt = makespan(costs, assign_lpt(costs, threads))
    if rr == 0:
        return 0.0
    return 1.0 - lpt / rr
