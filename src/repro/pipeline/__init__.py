"""The decode pipeline: the one executor of :class:`DecodePlan` objects.

:mod:`repro.core` plans; this package runs plans — one stripe or the
multi-stripe shape every array rebuild and degraded-read storm
produces:

- :mod:`repro.pipeline.pool` — persistent worker pools (the only place
  executors may be constructed; lint rule PPM007);
- :mod:`repro.pipeline.plancache` — LRU :class:`PlanCache` with
  hit/miss counters and optional static certification;
- :mod:`repro.pipeline.engine` — :class:`DecodePipeline`, which walks
  ``plan.stages`` and fuses stripes sharing an erasure pattern into one
  region-op sweep (every decoder class is a preset of it);
- :mod:`repro.pipeline.metrics` — :class:`PipelineMetrics` snapshots;
- :mod:`repro.pipeline.admission` — :class:`PriorityAdmission`, the
  foreground/background gate that keeps scrub-repair batches from
  delaying live degraded reads.
"""

from __future__ import annotations

from .admission import PriorityAdmission
from ..kernels.cache import CacheStats
from .engine import BatchStats, DecodePipeline, DecodeStats
from .metrics import LatencyTracker, PipelineMetrics
from .plancache import PlanCache
from .pool import (
    SerialPool,
    StragglerTimeout,
    ThreadWorkerPool,
    WorkerPool,
    available_pools,
    make_pool,
)

__all__ = [
    "PipelineMetrics",
    "LatencyTracker",
    "PriorityAdmission",
    "StragglerTimeout",
    "CacheStats",
    "PlanCache",
    "WorkerPool",
    "SerialPool",
    "ThreadWorkerPool",
    "available_pools",
    "make_pool",
    "BatchStats",
    "DecodeStats",
    "DecodePipeline",
]
