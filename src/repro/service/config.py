"""Tunable knobs of the degraded-read service, in one frozen record.

The defaults encode a latency/throughput trade: coalesce up to
:attr:`batch_trigger` same-pattern reads (the pipeline fuses them into
one region sweep) but never hold a request longer than
:attr:`flush_interval_s` waiting for riders — size-or-deadline,
whichever comes first.  Backoff is plain exponential,
``min(backoff_cap_s, backoff_base_s * 2**attempt)``; with the fault
injector bounding consecutive faults per stripe below
``max_retries`` (see :class:`repro.service.store.FaultInjector`),
retries are guaranteed to absorb every transient fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..repair.config import RepairConfig


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable configuration of a :class:`~repro.service.BlobService`.

    Parameters
    ----------
    batch_trigger:
        Flush a pattern group as soon as it holds this many degraded
        reads.  ``1`` disables coalescing (every read is its own flush).
    flush_interval_s:
        Deadline trigger: a group is flushed this many seconds after
        its *oldest* request was enqueued even if under-full, so a lone
        degraded read never waits for riders that may not come.
    max_pending:
        Admission bound on degraded reads queued in the scheduler.
        Beyond it, requests are shed immediately with
        :class:`~repro.service.errors.ServiceOverloadError`.
    default_deadline_s:
        Per-request deadline when the caller does not pass one.
    max_retries:
        How many times a request hitting a transient
        :class:`~repro.service.errors.NodeFault` is retried (with
        exponential backoff) before falling back / failing.
    backoff_base_s / backoff_cap_s:
        Exponential backoff parameters between retries.
    fallback_single:
        When the coalesced batch decode errors, re-serve the affected
        requests through an uncompiled single-stripe decode instead of
        failing them.
    repair:
        When set, the service runs a background
        :class:`~repro.repair.RepairManager` with these knobs beside
        the request path (started on ``__aenter__``/``start_repair``,
        stopped on ``close``).  ``None`` (the default) disables
        scrub-and-repair entirely.
    """

    batch_trigger: int = 8
    flush_interval_s: float = 0.002
    max_pending: int = 1024
    default_deadline_s: float = 5.0
    max_retries: int = 3
    backoff_base_s: float = 0.001
    backoff_cap_s: float = 0.050
    fallback_single: bool = True
    repair: RepairConfig | None = None

    def __post_init__(self) -> None:
        if self.batch_trigger < 1:
            raise ValueError(f"batch_trigger must be >= 1, got {self.batch_trigger}")
        if self.flush_interval_s < 0:
            raise ValueError("flush_interval_s must be >= 0")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based), in seconds."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt))
