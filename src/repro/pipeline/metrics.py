"""Observable state of a running decode pipeline.

:class:`PipelineMetrics` is an immutable snapshot — the engine hands one
out on demand (:meth:`repro.pipeline.DecodePipeline.metrics`) so
monitoring never races the decode path.  Fields follow the paper's cost
vocabulary where one exists (``mult_xors``) and standard
throughput-engine vocabulary where it does not (stripes/sec, busy
fraction, queue depth).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


class LatencyTracker:
    """Per-key latency EWMA + sliding percentile, thread-safe.

    The hedging engine keys observations by *bucket shape* (task count
    and cost band), so the trigger compares a worker against the history
    of similar work, not against unrelated tiny buckets.  Each key keeps
    an exponentially-weighted moving average (``alpha`` weighting the
    newest sample) and a bounded ring of recent samples for percentile
    queries; both update under one lock because observations arrive from
    whatever threads run the gather loop.
    """

    def __init__(self, alpha: float = 0.2, window: int = 64):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.alpha = alpha
        self.window = window
        self._lock = threading.Lock()
        self._ewma: dict[object, float] = {}
        self._samples: dict[object, list[float]] = {}
        self._count = 0

    def observe(self, key: object, seconds: float) -> None:
        """Record one completed-work latency under ``key``."""
        with self._lock:
            previous = self._ewma.get(key)
            if previous is None:
                self._ewma[key] = seconds
            else:
                self._ewma[key] = self.alpha * seconds + (1.0 - self.alpha) * previous
            ring = self._samples.setdefault(key, [])
            ring.append(seconds)
            if len(ring) > self.window:
                del ring[0]
            self._count += 1

    def ewma(self, key: object) -> float | None:
        """Current moving average for ``key`` (None before any sample)."""
        with self._lock:
            return self._ewma.get(key)

    def percentile(self, key: object, q: float) -> float | None:
        """The ``q``-quantile (0..1) of the recent window for ``key``."""
        with self._lock:
            ring = self._samples.get(key)
            if not ring:
                return None
            ordered = sorted(ring)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def samples(self, key: object) -> int:
        """How many observations ``key`` has received (lifetime)."""
        with self._lock:
            ring = self._samples.get(key)
            return len(ring) if ring else 0

    def hedge_after(
        self,
        key: object,
        *,
        percentile: float = 0.95,
        factor: float = 2.0,
        min_samples: int = 8,
        floor: float = 0.0,
    ) -> float | None:
        """Seconds after which an in-flight ``key`` task should be hedged.

        ``None`` until ``min_samples`` observations exist — hedging
        needs a latency baseline before "slow" means anything.  The
        trigger is ``max(pX, ewma) * factor`` so one fast outlier in
        the window cannot arm a hair-trigger hedge, and never less than
        ``floor`` seconds.
        """
        with self._lock:
            ring = self._samples.get(key)
            if ring is None or len(ring) < min_samples:
                return None
            ordered = sorted(ring)
            average = self._ewma.get(key, ordered[-1])
        rank = min(len(ordered) - 1, max(0, round(percentile * (len(ordered) - 1))))
        return max(max(ordered[rank], average) * factor, floor)


@dataclass(frozen=True)
class PipelineMetrics:
    """One snapshot of pipeline throughput, cost and utilisation.

    ``worker_busy_fraction[i]`` is worker *i*'s share of the pipeline's
    decode wall time spent executing units; ``queue_depth_peak`` is the
    largest number of units (pattern batch x tile, one whole-plan
    program execution each) one batch ever ran.  ``background_batches`` counts
    ``priority="background"`` submissions (scrub/repair traffic);
    ``batches_deferred`` / ``deferred_seconds`` tally how often and how
    long admission held background work for in-flight foreground reads.
    ``blocks_read`` / ``blocks_recovered`` sum, over every decoded
    stripe, the survivor blocks its plan read and the blocks it
    recovered — their ratio is the served access bandwidth (what target
    pruning cuts for a one-block degraded read).

    Straggler tolerance: ``hedges`` counts speculative resubmissions of
    slow buckets, ``hedge_wins`` how many of those finished before
    their straggling primary; ``verify_rejects`` counts worker results
    whose syndrome check failed and were recomputed on the trusted
    serial path; ``straggler_timeouts`` counts gathers abandoned at the
    batch deadline.
    """

    stripes: int = 0
    batches: int = 0
    background_batches: int = 0
    batches_deferred: int = 0
    deferred_seconds: float = 0.0
    patterns: int = 0
    blocks_read: int = 0
    blocks_recovered: int = 0
    wall_seconds: float = 0.0
    mult_xors: int = 0
    symbols: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_evictions: int = 0
    pool_kind: str = "serial"
    workers: int = 1
    pool_spawns: int = 0
    worker_busy_fraction: tuple[float, ...] = field(default_factory=tuple)
    queue_depth_peak: int = 0
    program_cache_hits: int = 0
    program_cache_misses: int = 0
    program_cache_evictions: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    verify_rejects: int = 0
    straggler_timeouts: int = 0

    @property
    def stripes_per_sec(self) -> float:
        """Decode throughput over the pipeline's lifetime (0 when idle)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.stripes / self.wall_seconds

    @property
    def coalesce_factor(self) -> float:
        """Mean stripes fused per (pattern x batch) region sweep.

        ``patterns`` counts one per distinct erasure pattern per
        ``decode_batch`` call, so this is exactly how many stripes each
        plan application amortised over; 1.0 means no fusion happened.
        """
        if not self.patterns:
            return 0.0
        return self.stripes / self.patterns

    @property
    def evictions(self) -> int:
        """Total cache evictions (plan + program) over the lifetime."""
        return self.plan_cache_evictions + self.program_cache_evictions

    @property
    def plan_cache_hit_rate(self) -> float:
        lookups = self.plan_cache_hits + self.plan_cache_misses
        if not lookups:
            return 0.0
        return self.plan_cache_hits / lookups

    @property
    def program_cache_hit_rate(self) -> float:
        lookups = self.program_cache_hits + self.program_cache_misses
        if not lookups:
            return 0.0
        return self.program_cache_hits / lookups

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (CLI/bench output)."""
        return {
            "stripes": self.stripes,
            "batches": self.batches,
            "background_batches": self.background_batches,
            "batches_deferred": self.batches_deferred,
            "deferred_seconds": self.deferred_seconds,
            "patterns": self.patterns,
            "coalesce_factor": self.coalesce_factor,
            "blocks_read": self.blocks_read,
            "blocks_recovered": self.blocks_recovered,
            "evictions": self.evictions,
            "wall_seconds": self.wall_seconds,
            "stripes_per_sec": self.stripes_per_sec,
            "mult_xors": self.mult_xors,
            "symbols": self.symbols,
            "plan_cache": {
                "hits": self.plan_cache_hits,
                "misses": self.plan_cache_misses,
                "evictions": self.plan_cache_evictions,
                "hit_rate": self.plan_cache_hit_rate,
            },
            "pool": {
                "kind": self.pool_kind,
                "workers": self.workers,
                "spawns": self.pool_spawns,
            },
            "worker_busy_fraction": list(self.worker_busy_fraction),
            "queue_depth_peak": self.queue_depth_peak,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "verify_rejects": self.verify_rejects,
            "straggler_timeouts": self.straggler_timeouts,
            "program_cache": {
                "hits": self.program_cache_hits,
                "misses": self.program_cache_misses,
                "evictions": self.program_cache_evictions,
                "hit_rate": self.program_cache_hit_rate,
            },
        }
