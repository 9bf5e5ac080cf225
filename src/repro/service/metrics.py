"""Service-side observability: latency histograms and request counters.

The service keeps its own tallies (requests, retries, fallbacks, queue
depth, coalesce behaviour) and *merges* the pipeline's
:class:`~repro.pipeline.metrics.PipelineMetrics` snapshot into its JSON
export, so one document reconciles the serving view (requests/sec, p99)
with the paper's cost accounting (``mult_XORs``, symbols, cache hit
rates) — a speedup that came from skipping work would show up as an op
count that no longer matches the per-request sum.

Everything here is updated from the event-loop thread only (decode work
is offloaded, but its results are booked after the ``await``), so no
locks are needed; :meth:`ServiceMetrics.as_dict` hands monitoring a
plain JSON-ready dict.
"""

from __future__ import annotations

from typing import Mapping

#: Histogram bucket upper bounds (seconds): 1 us .. ~16.8 s, log2-spaced.
_BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2.0 ** i for i in range(25))


class LatencyHistogram:
    """Fixed-bucket log2 latency histogram with percentile estimates.

    Buckets span 1 us to ~16.8 s; an observation beyond the last bound
    lands in the overflow bucket.  Percentiles are reported as the
    upper bound of the bucket holding that quantile (a <= 2x
    overestimate by construction, which is the honest direction for a
    latency SLO), except ``p100`` which is the exact observed maximum.
    """

    __slots__ = ("_counts", "count", "total_seconds", "max_seconds", "min_seconds")

    def __init__(self) -> None:
        self._counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self.min_seconds = float("inf")

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        if seconds < 0:
            seconds = 0.0
        index = 0
        while index < len(_BUCKET_BOUNDS) and seconds > _BUCKET_BOUNDS[index]:
            index += 1
        self._counts[index] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        if seconds < self.min_seconds:
            self.min_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Latency at percentile ``p`` (0..100), bucket-upper-bound style."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.count:
            return 0.0
        if p >= 100.0:
            return self.max_seconds
        rank = p / 100.0 * self.count
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= rank and bucket:
                if index >= len(_BUCKET_BOUNDS):
                    return self.max_seconds
                return min(_BUCKET_BOUNDS[index], self.max_seconds)
        return self.max_seconds

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean_s": self.mean_seconds,
            "p50_s": self.percentile(50),
            "p90_s": self.percentile(90),
            "p99_s": self.percentile(99),
            "max_s": self.max_seconds,
            "min_s": self.min_seconds if self.count else 0.0,
        }


class ServiceMetrics:
    """Mutable tallies of one :class:`~repro.service.BlobService`.

    Counter semantics:

    - ``gets``/``puts``/``degraded_gets`` — requests *completed
      successfully* per type (a get served via the degraded path counts
      once under each);
    - ``rejected`` — shed by admission control;
    - ``timeouts`` — deadline expiries;
    - ``retries`` — backoff-retry round trips after a transient fault;
    - ``faults_seen`` — transient :class:`NodeFault`\\ s observed
      (each retried fault counts once);
    - ``batch_errors`` / ``fallbacks`` — coalesced decode failures and
      the single-stripe decodes that absorbed them;
    - ``failures`` — requests that ultimately raised to the caller;
    - ``flushes`` / ``flushed_reads`` — coalesce accounting: their
      ratio is the *coalesce factor* (mean degraded reads per pipeline
      submission, the amortisation the subsystem exists to create).
    """

    def __init__(self) -> None:
        self.gets = 0
        self.puts = 0
        self.degraded_gets = 0
        self.rejected = 0
        self.timeouts = 0
        self.retries = 0
        self.faults_seen = 0
        self.batch_errors = 0
        self.fallbacks = 0
        self.failures = 0
        self.flushes = 0
        self.flushed_reads = 0
        self.queue_depth = 0
        self.queue_depth_peak = 0
        #: per-stage latency: time queued awaiting a flush, the batch
        #: decode itself, and the whole request as the client saw it
        self.queue_wait = LatencyHistogram()
        self.decode = LatencyHistogram()
        self.request = LatencyHistogram()

    # -- gauge helpers -------------------------------------------------------

    def enqueue(self, n: int = 1) -> None:
        self.queue_depth += n
        if self.queue_depth > self.queue_depth_peak:
            self.queue_depth_peak = self.queue_depth

    def dequeue(self, n: int = 1) -> None:
        self.queue_depth = max(0, self.queue_depth - n)

    # -- derived -------------------------------------------------------------

    @property
    def coalesce_factor(self) -> float:
        """Mean degraded reads fused per pipeline submission."""
        return self.flushed_reads / self.flushes if self.flushes else 0.0

    @property
    def requests(self) -> int:
        """Successfully served requests of every type."""
        return self.gets + self.puts + self.degraded_gets

    def as_dict(
        self, pipeline: Mapping[str, object] | None = None
    ) -> dict[str, object]:
        """JSON-ready snapshot; pass ``pipeline.metrics().as_dict()`` to
        embed the decode-side view (cache hit rates, ``mult_XORs``)."""
        out: dict[str, object] = {
            "requests": {
                "gets": self.gets,
                "puts": self.puts,
                "degraded_gets": self.degraded_gets,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "failures": self.failures,
            },
            "resilience": {
                "faults_seen": self.faults_seen,
                "retries": self.retries,
                "batch_errors": self.batch_errors,
                "fallbacks": self.fallbacks,
            },
            "coalescing": {
                "flushes": self.flushes,
                "flushed_reads": self.flushed_reads,
                "coalesce_factor": self.coalesce_factor,
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
            },
            "latency": {
                "queue_wait": self.queue_wait.as_dict(),
                "decode": self.decode.as_dict(),
                "request": self.request.as_dict(),
            },
        }
        if pipeline is not None:
            out["pipeline"] = dict(pipeline)
        return out
