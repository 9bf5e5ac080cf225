"""The coalescing scheduler: live degraded reads become batched decodes.

Requests arriving for stripes that share an erasure pattern are held —
briefly — in a per-pattern group and flushed through
:meth:`repro.pipeline.DecodePipeline.decode_batch` as *one* submission,
so the plan cache, the fused region sweep and the compiled program
cache built in the pipeline/kernels layers are exercised by live
traffic instead of offline scripts.  Two triggers race per group:

- **size** — the group reaches ``config.batch_trigger`` requests;
- **deadline** — ``config.flush_interval_s`` elapsed since the group's
  oldest request, so a lone read is never held hostage to riders.

Grouping uses the pattern observed *at enqueue*, but the flush
snapshots each stripe's surviving blocks *at flush time* and reads the
pattern off that snapshot — ``decode_batch`` accepts one pattern per
stripe, so a double fault arriving while a read is queued simply
decodes under the wider pattern, and one arriving after the snapshot
cannot touch the in-flight batch at all.  A rider whose block is
present in its snapshot (healed while queued) is answered from it and
never enters the batch.

Coalescing is by pattern — one flush, one worker-thread hop — but every
rider asks the decoder for its own block only (``targets``), so the
pipeline runs, per rider, just the rows of the pattern's plan that
recover that block, not the whole rebuild.

The decode itself runs off-loop (``asyncio.to_thread``); the event
loop only ever does bookkeeping.  Admission control lives here too:
beyond ``config.max_pending`` queued reads, :meth:`submit` sheds load
immediately rather than letting queues grow unboundedly.

When a batch decode *fails*, the failure is classified before any
rider sees it: decode-shaped errors (singular matrices, missing
survivors, verification failures) route every rider through the
documented uncompiled single-stripe fallback first, and only riders
whose own fallback also fails get a :class:`BatchDecodeError`;
infrastructure errors (a closed pool's ``RuntimeError``, a broken
executor) are re-raised distinctly so a dying service is never
mistaken for a poisoned batch.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Mapping, Sequence

import numpy as np

from ..config import ServiceConfig
from ..pipeline.pool import StragglerTimeout
from .errors import (
    BatchDecodeError,
    BlockUnavailableError,
    NodeFault,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from .metrics import ServiceMetrics
from .store import BlobStore

#: decode_batch-shaped callable: (blocks_per_stripe, pattern_per_stripe,
#: targets_per_stripe) -> one {block_id: region} dict per stripe, holding
#: (at least) that stripe's targets — the erased blocks its rider wants.
DecodeBatchFn = Callable[
    [
        Sequence[Mapping[int, np.ndarray]],
        Sequence[tuple[int, ...]],
        Sequence[tuple[int, ...]],
    ],
    "list[dict[int, np.ndarray]]",
]

#: single-stripe fallback callable: (stripe_id, block) -> recovered
#: region.  Matches ``BlobService._single_decode``.
SingleDecodeFn = Callable[[int, int], np.ndarray]


def _is_decode_error(exc: BaseException) -> bool:
    """Whether a batch failure is a *decode* problem the single-stripe
    fallback can plausibly recover from.

    Decode failures surface as value/lookup/arithmetic errors
    (:class:`~repro.matrix.SingularMatrixError` is a ``ValueError``,
    missing survivors raise ``KeyError``, verification failures are
    ``ValueError`` subclasses).  Infrastructure failures — a closed
    worker pool's ``RuntimeError``, ``OSError`` — are not decode
    problems: retrying the same work through the fallback path would
    mask a dying service, so they are re-raised distinctly instead of
    being wrapped as :class:`BatchDecodeError`.
    """
    if isinstance(exc, ServiceError):
        # scheduler-internal service errors (e.g. BlockUnavailableError
        # from a snapshot) keep their own type; they are not batch-path
        # infrastructure failures
        return False
    if isinstance(exc, StragglerTimeout):
        # a straggling/expired batch gather is recoverable per rider:
        # the single-stripe fallback redoes the work on the caller's
        # thread, free of whichever worker hung
        return True
    return isinstance(exc, (ValueError, LookupError, TypeError, ArithmeticError))


class _PendingRead:
    """One queued degraded read awaiting a coalesced flush."""

    __slots__ = ("stripe_id", "block", "future", "enqueued_at")

    def __init__(self, stripe_id: int, block: int, future: asyncio.Future, now: float):
        self.stripe_id = stripe_id
        self.block = block
        self.future = future
        self.enqueued_at = now


class _Batch:
    """The open group for one erasure pattern, plus its deadline timer."""

    __slots__ = ("reads", "timer")

    def __init__(self) -> None:
        self.reads: list[_PendingRead] = []
        self.timer: asyncio.TimerHandle | None = None


class CoalescingScheduler:
    """Groups in-flight degraded reads by erasure pattern and flushes
    them through a batch decode on a size-or-deadline trigger."""

    def __init__(
        self,
        store: BlobStore,
        decode_batch: DecodeBatchFn,
        config: ServiceConfig,
        metrics: ServiceMetrics,
        single_decode: SingleDecodeFn,
    ):
        self._store = store
        self._decode_batch = decode_batch
        self._config = config
        self._metrics = metrics
        self._single_decode = single_decode
        self._groups: dict[tuple[int, ...], _Batch] = {}
        self._pending = 0
        self._flushing: set[asyncio.Task] = set()
        self._closed = False

    # -- introspection -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Degraded reads currently queued (not yet flushed)."""
        return self._pending

    @property
    def open_patterns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._groups)

    # -- submission ----------------------------------------------------------

    async def submit(self, stripe_id: int, block: int) -> np.ndarray:
        """Queue one degraded read; resolves to the recovered region.

        Raises :class:`ServiceOverloadError` (admission),
        :class:`NodeFault` (transient, retry at the server layer),
        :class:`BatchDecodeError` (the batch *and* this read's
        single-stripe fallback failed) or
        :class:`BlockUnavailableError` (hard failure).
        """
        if self._closed:
            raise ServiceClosedError("scheduler is closed")
        if self._pending >= self._config.max_pending:
            self._metrics.rejected += 1
            raise ServiceOverloadError(
                f"{self._pending} degraded reads pending >= "
                f"max_pending={self._config.max_pending}"
            )
        loop = asyncio.get_running_loop()
        pattern = self._store.pattern(stripe_id)
        future: asyncio.Future = loop.create_future()
        read = _PendingRead(stripe_id, block, future, loop.time())
        group = self._groups.get(pattern)
        if group is None:
            group = self._groups[pattern] = _Batch()
            if self._config.flush_interval_s > 0:
                group.timer = loop.call_later(
                    self._config.flush_interval_s, self._spawn_flush, pattern
                )
        group.reads.append(read)
        self._pending += 1
        self._metrics.enqueue()
        if len(group.reads) >= self._config.batch_trigger:
            self._spawn_flush(pattern)
        try:
            return await future
        finally:
            if not future.done():
                future.cancel()

    # -- flushing ------------------------------------------------------------

    def _spawn_flush(self, pattern: tuple[int, ...]) -> None:
        """Detach a flush task for ``pattern`` (idempotent per group)."""
        group = self._groups.pop(pattern, None)
        if group is None:
            return
        if group.timer is not None:
            group.timer.cancel()
        self._pending -= len(group.reads)
        self._metrics.dequeue(len(group.reads))
        task = asyncio.get_running_loop().create_task(self._flush(group.reads))
        self._flushing.add(task)
        task.add_done_callback(self._flushing.discard)

    async def _flush(self, reads: list[_PendingRead]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: list[_PendingRead] = []
        snapshots: list[dict[int, np.ndarray]] = []
        patterns: list[tuple[int, ...]] = []
        for read in reads:
            if read.future.done():  # cancelled by a deadline while queued
                continue
            self._metrics.queue_wait.observe(now - read.enqueued_at)
            try:
                # snapshot at flush time: double faults arriving while
                # queued decode under the pattern the snapshot shows
                blocks = self._store.snapshot_blocks(read.stripe_id)
            except NodeFault as fault:
                read.future.set_exception(fault)
                continue
            if read.block in blocks:
                # healed (or never erased) by flush time: nothing to decode
                read.future.set_result(blocks[read.block])
                continue
            pattern = self._store.pattern_of(blocks)
            if read.block not in pattern:
                # not a block of this code: keep it out of its co-riders' batch
                read.future.set_exception(
                    BlockUnavailableError(
                        f"stripe {read.stripe_id} has no block {read.block}"
                    )
                )
                continue
            live.append(read)
            snapshots.append(blocks)
            patterns.append(pattern)
        if not live:
            return
        self._metrics.flushes += 1
        self._metrics.flushed_reads += len(live)
        t0 = loop.time()
        try:
            results = await asyncio.to_thread(
                self._decode_batch,
                snapshots,
                patterns,
                [(read.block,) for read in live],
            )
        except Exception as exc:
            self._metrics.batch_errors += 1
            if not _is_decode_error(exc):
                # infrastructure failure (closed pool, broken executor):
                # the fallback decoder cannot fix it — surface the real
                # exception distinctly instead of masking it as a
                # decode-shaped BatchDecodeError
                for read in live:
                    if not read.future.done():
                        read.future.set_exception(exc)
                return
            await self._fallback_singles(live, exc)
            return
        self._metrics.decode.observe(loop.time() - t0)
        for read, recovered in zip(live, results):
            if read.future.done():
                continue
            if read.block in recovered:
                # own the result: recovered regions are views into the
                # fused batch buffer shared by every rider
                read.future.set_result(np.array(recovered[read.block]))
            else:
                read.future.set_exception(
                    BlockUnavailableError(
                        f"stripe {read.stripe_id} block {read.block} not "
                        "recovered by the batch decode"
                    )
                )

    async def _fallback_singles(
        self, reads: list[_PendingRead], cause: BaseException
    ) -> None:
        """Serve each rider of a failed batch through the documented
        uncompiled single-stripe fallback (fault-free recovery channel);
        only riders whose *own* fallback also fails see an error."""
        for read in reads:
            if read.future.done():
                continue
            try:
                region = await asyncio.to_thread(
                    self._single_decode, read.stripe_id, read.block
                )
            except Exception as exc:
                wrapped = BatchDecodeError(
                    f"coalesced decode failed ({cause!r}) and single-stripe "
                    f"fallback for stripe {read.stripe_id} block {read.block} "
                    f"also failed: {exc!r}"
                )
                wrapped.__cause__ = exc
                if not read.future.done():
                    read.future.set_exception(wrapped)
            else:
                self._metrics.fallbacks += 1
                if not read.future.done():
                    read.future.set_result(region)

    # -- lifecycle -----------------------------------------------------------

    async def drain(self) -> None:
        """Flush every open group now and wait for in-flight decodes."""
        for pattern in list(self._groups):
            self._spawn_flush(pattern)
        while self._flushing:
            await asyncio.gather(*tuple(self._flushing), return_exceptions=True)

    async def close(self) -> None:
        """Drain, then refuse new submissions."""
        self._closed = True
        await self.drain()
