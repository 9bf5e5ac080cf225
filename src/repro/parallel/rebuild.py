"""Multi-stripe rebuild through the batched pipeline.

The paper's related work distinguishes *block-level* and *disk-level*
parallel reconstruction (its refs [36]-[40]) from PPM's matrix-oriented
intra-stripe parallelism.  An array rebuild touches many stripes, so the
two compose: :class:`PipelineRebuilder` hands every damaged stripe to
one :class:`~repro.pipeline.DecodePipeline` submission (stripes sharing
a failure geometry fuse into one region sweep; independent sub-matrices
spread over the pool), and ``simulate_rebuild_time`` models the
stripe-level vs intra-stripe wall-clock shapes with the same calibrated
profiles used for single-stripe decoding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..core.planner import DecodePlan
from ..stripes.array import DiskArray
from .simulate import CPUProfile, SimulatedTime, simulate_ppm_time


@dataclass
class RebuildResult:
    """Outcome of one array rebuild."""

    blocks_repaired: int
    wall_seconds: float
    strategy: str


class _BackgroundPipeline:
    """Decode adapter submitting every batch at background priority.

    :meth:`repro.stripes.DiskArray.rebuild` only knows the plain decode
    protocol; this shim forwards to a shared
    :class:`~repro.pipeline.DecodePipeline` with
    ``priority="background"`` so a bulk rebuild defers to any live
    degraded reads flowing through the same pipeline.
    """

    def __init__(self, pipeline):
        self._pipeline = pipeline

    def decode(self, code, stripe, faulty, **kwargs):
        return self._pipeline.decode(code, stripe, faulty, **kwargs)

    def decode_batch(self, code, stripes, faulty=None, **kwargs):
        kwargs.setdefault("priority", "background")
        return self._pipeline.decode_batch(code, stripes, faulty, **kwargs)


class PipelineRebuilder:
    """Batched rebuild through :class:`repro.pipeline.DecodePipeline`.

    All stripes sharing a failure geometry are fused into one region-op
    sweep, plans come from the pipeline's LRU cache, and the worker pool
    is spawned once for the whole rebuild.

    Pass ``pipeline=`` to route the rebuild through an *existing*
    pipeline (sharing its plan cache, pool and metrics with the serving
    path) instead of spinning up a private one; shared-pipeline rebuilds
    are submitted at background priority so they defer to foreground
    degraded reads.
    """

    def __init__(
        self,
        threads: int = 4,
        pool: str = "thread",
        pipeline=None,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self.pool_kind = pool
        self.pipeline = pipeline
        self.strategy = (
            "pipeline (batched)" if pipeline is None else "pipeline (batched, shared)"
        )

    def rebuild(self, array: DiskArray) -> RebuildResult:
        t0 = time.perf_counter()
        if self.pipeline is not None:
            repaired = array.rebuild(_BackgroundPipeline(self.pipeline))
        else:
            from ..pipeline import DecodePipeline  # deferred: engine imports parallel

            with DecodePipeline(workers=self.threads, pool=self.pool_kind) as pipe:
                repaired = array.rebuild(pipe)
        return RebuildResult(
            blocks_repaired=repaired,
            wall_seconds=time.perf_counter() - t0,
            strategy=self.strategy,
        )


def simulate_rebuild_time(
    plans: Sequence[DecodePlan],
    profile: CPUProfile,
    threads: int,
    sector_symbols: int,
    strategy: str = "stripe-parallel",
) -> SimulatedTime:
    """Model the rebuild wall time of many stripes under a strategy.

    ``stripe-parallel`` / ``hybrid``: each stripe is one task of its
    serial decode cost (C1 for the former, the plan's chosen cost for
    the latter), tasks binned round-robin over workers.
    ``intra-stripe``: stripes run in sequence, each with PPM's internal
    parallelism.
    """
    per_op = sector_symbols / profile.throughput
    if strategy == "intra-stripe":
        phase1 = rest = spawn = 0.0
        for plan in plans:
            sim = simulate_ppm_time(plan, profile, threads, sector_symbols)
            phase1 += sim.phase1_seconds
            rest += sim.rest_seconds
            spawn += sim.spawn_seconds
        return SimulatedTime(phase1, rest, spawn)
    if strategy == "stripe-parallel":
        costs = [plan.costs.c1 for plan in plans]
    elif strategy == "hybrid":
        costs = [plan.predicted_cost for plan in plans]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    t_eff = max(1, min(threads, len(costs), profile.cores))
    bins = [0] * t_eff
    for i, c in enumerate(costs):
        bins[i % t_eff] += c
    return SimulatedTime(
        phase1_seconds=max(bins) * per_op,
        rest_seconds=0.0,
        spawn_seconds=profile.spawn_overhead_s * (t_eff if t_eff > 1 else 0),
    )
