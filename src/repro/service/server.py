"""`BlobService`: the asyncio front-end over store + scheduler + pipeline.

The request path (client → service → scheduler → pipeline → kernels →
store) and its degradation ladder:

1. ``get`` reads the block straight from the store; if the block is
   *erased* the request transparently becomes a degraded read.
2. ``degraded_get`` submits to the :class:`CoalescingScheduler`, which
   batches same-pattern reads through
   :meth:`~repro.pipeline.DecodePipeline.decode_batch` (plan cache +
   fused sweep + compiled kernels) off the event loop.
3. A transient :class:`NodeFault` is retried with exponential backoff
   up to ``config.max_retries`` times (the fault injector bounds
   consecutive faults, so the retry budget always suffices).
4. If the *batch path itself* errors, the affected requests fall back
   to the independent recovery channel: a fresh ``plan_decode``
   (certified against ``H`` when the pipeline verifies plans) walked
   stage by stage through the interpreted
   :class:`~repro.gf.region.RegionOps`, reading the store fault-free —
   one poisoned batch degrades latency, never correctness.
5. The caller's deadline caps the whole ladder; expiry cancels the
   queued read and raises :class:`DeadlineExceeded`.
"""

from __future__ import annotations

import asyncio

import numpy as np

from ..config import ServiceConfig
from ..core import plan_decode
from ..gf import RegionOps
from ..pipeline import DecodePipeline
from ..repair import RepairManager
from .errors import (
    BatchDecodeError,
    BlockUnavailableError,
    DeadlineExceeded,
    NodeFault,
    ServiceClosedError,
    ServiceError,
)
from .metrics import ServiceMetrics
from .scheduler import CoalescingScheduler
from .store import BlobStore


class BlobService:
    """Async get/put/degraded-get server over an erasure-coded store.

    Parameters
    ----------
    store:
        The :class:`BlobStore` holding the stripes (and injecting
        transient faults, when configured).
    config:
        Coalescing/admission/deadline/backoff knobs.
    pipeline:
        The batch decoder behind the scheduler; a private
        ``DecodePipeline(pool="serial")`` is built (and owned) when not
        given.  Decode work always runs off-loop, so a serial pool
        inside the worker thread is the low-overhead default on small
        hosts.
    own_pipeline:
        Whether :meth:`close` shuts the pipeline down.  Defaults to
        "built it ourselves" (``pipeline is None``); pass ``True`` when
        handing over a pipeline constructed just for this service (as
        :func:`repro.config.build_service` does) so it cannot leak.
    """

    def __init__(
        self,
        store: BlobStore,
        *,
        config: ServiceConfig | None = None,
        pipeline: DecodePipeline | None = None,
        own_pipeline: bool | None = None,
    ):
        self.store = store
        self.config = config if config is not None else ServiceConfig()
        self._owns_pipeline = (
            (pipeline is None) if own_pipeline is None else own_pipeline
        )
        self.pipeline = (
            pipeline if pipeline is not None else DecodePipeline(pool="serial")
        )
        self.metrics = ServiceMetrics()
        self.scheduler = CoalescingScheduler(
            store,
            self._decode_batch,
            self.config,
            self.metrics,
            self._single_decode,
        )
        #: background scrub-and-repair, sharing this service's pipeline
        #: (so repair batches defer to foreground reads via admission);
        #: built when config.repair.enabled, started lazily on
        #: __aenter__/start_repair
        self.repair: RepairManager | None = (
            RepairManager(store, self.pipeline, self.config.repair)
            if self.config.repair.enabled
            else None
        )
        self._closed = False

    # -- decode plumbing -----------------------------------------------------

    def _decode_batch(self, snapshots, patterns, targets):
        """Worker-thread hop into the pipeline (scheduler callback)."""
        return self.pipeline.decode_batch(
            self.store.code, snapshots, patterns, targets=targets
        )

    def _single_decode(self, stripe_id: int, block: int) -> np.ndarray:
        """The independent recovery channel behind a failed batch decode.

        Re-plans every call, reads the store fault-free and walks the
        plan's stages one matrix at a time through a fresh interpreted
        :class:`~repro.gf.region.RegionOps` — it shares no plan cache,
        lowering, optimizer, program cache, backend or worker pool with
        the batch path that just failed.  Like the batch path it runs
        only the rows of the plan that recover ``block``, and certifies
        the fresh plan against ``H`` first when the pipeline verifies
        plans: a planner fault the batch path's certificate caught must
        not be served through this channel instead.
        """
        blocks = self.store.snapshot_blocks(stripe_id, inject=False)
        if block in blocks:
            return blocks[block]
        pattern = self.store.pattern_of(blocks)
        if block not in pattern:
            raise BlockUnavailableError(
                f"stripe {stripe_id} has no block {block}"
            )
        code = self.store.code
        plan = plan_decode(code, pattern, targets=(block,))
        if self.pipeline.verify:
            # deferred like PlanCache's: serving without plan
            # verification never pays for importing the verifiers
            from ..verify import assert_plan_valid

            assert_plan_valid(plan, code)
        ops = RegionOps(code.field)
        for stage in plan.stages:
            regions = [blocks[b] for b in stage.survivor_ids]
            blocks.update(zip(stage.faulty_ids, ops.matrix_chain_apply(stage.arrays, regions)))
        return blocks[block]

    # -- request API ---------------------------------------------------------

    async def _backoff_within(
        self, attempt: int, t0: float, budget: float, what: str
    ) -> None:
        """Sleep the attempt's backoff, clamped to the remaining budget.

        The unclamped ``asyncio.sleep(config.backoff(attempt))`` could
        overshoot the caller's deadline — the request then failed *after*
        its budget instead of within it.  No budget left means no point
        retrying: raise :class:`DeadlineExceeded` immediately (counted
        as a timeout and a failure).
        """
        loop = asyncio.get_running_loop()
        remaining = budget - (loop.time() - t0)
        if remaining <= 0:
            self.metrics.timeouts += 1
            self.metrics.failures += 1
            raise DeadlineExceeded(
                f"{what}: deadline of {budget:.3f}s exhausted before retry "
                f"{attempt + 1}"
            )
        self.metrics.retries += 1
        await asyncio.sleep(min(self.config.backoff(attempt), remaining))

    async def get(
        self, stripe_id: int, block: int, *, deadline_s: float | None = None
    ) -> np.ndarray:
        """Serve one block, decoding transparently if it is erased."""
        self._check_open()
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        budget = deadline_s if deadline_s is not None else self.config.default_deadline_s
        for attempt in range(self.config.max_retries + 1):
            try:
                region = self.store.read(stripe_id, block)
                self.metrics.gets += 1
                self.metrics.request.observe(loop.time() - t0)
                return region
            except NodeFault:
                self.metrics.faults_seen += 1
                if attempt >= self.config.max_retries:
                    self.metrics.failures += 1
                    raise
                await self._backoff_within(
                    attempt, t0, budget, f"get stripe {stripe_id} block {block}"
                )
            except BlockUnavailableError:
                break  # erased: decode it
        remaining = budget - (loop.time() - t0)
        region = await self.degraded_get(stripe_id, block, deadline_s=remaining)
        self.metrics.gets += 1
        return region

    async def put(
        self,
        stripe_id: int,
        block: int,
        region: np.ndarray,
        *,
        deadline_s: float | None = None,
    ) -> None:
        """Write one block through to the store (and its ground truth).

        Retries with backoff on transient faults like :meth:`get`, and
        like it is bounded by ``deadline_s`` (default
        ``config.default_deadline_s``) — a write can no longer back off
        past its caller's budget.
        """
        self._check_open()
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        budget = deadline_s if deadline_s is not None else self.config.default_deadline_s
        for attempt in range(self.config.max_retries + 1):
            try:
                self.store.write(stripe_id, block, region)
                self.metrics.puts += 1
                return
            except NodeFault:
                self.metrics.faults_seen += 1
                if attempt >= self.config.max_retries:
                    self.metrics.failures += 1
                    raise
                await self._backoff_within(
                    attempt, t0, budget, f"put stripe {stripe_id} block {block}"
                )

    async def degraded_get(
        self, stripe_id: int, block: int, *, deadline_s: float | None = None
    ) -> np.ndarray:
        """Recover one erased block within a deadline.

        The full ladder: coalesced batch decode, retry-with-backoff on
        transient faults, single-stripe fallback on batch errors —
        all capped by ``deadline_s`` (``config.default_deadline_s``
        when omitted).
        """
        self._check_open()
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        budget = deadline_s if deadline_s is not None else self.config.default_deadline_s
        if budget <= 0:
            self.metrics.timeouts += 1
            self.metrics.failures += 1
            raise DeadlineExceeded(
                f"stripe {stripe_id} block {block}: no deadline budget left"
            )
        try:
            region = await asyncio.wait_for(
                self._degraded_ladder(stripe_id, block, t0, budget), timeout=budget
            )
        except asyncio.TimeoutError:
            self.metrics.timeouts += 1
            self.metrics.failures += 1
            raise DeadlineExceeded(
                f"stripe {stripe_id} block {block}: deadline of {budget:.3f}s exceeded"
            ) from None
        except (NodeFault, BatchDecodeError, BlockUnavailableError):
            self.metrics.failures += 1
            raise
        except ServiceError:
            raise  # overload/closed: accounted where they were raised
        except Exception:
            # infrastructure failure (e.g. a closed pool's RuntimeError)
            # surfaced distinctly by the scheduler — count it, keep the type
            self.metrics.failures += 1
            raise
        self.metrics.degraded_gets += 1
        self.metrics.request.observe(loop.time() - t0)
        return region

    async def _degraded_ladder(
        self, stripe_id: int, block: int, t0: float, budget: float
    ) -> np.ndarray:
        loop = asyncio.get_running_loop()
        for attempt in range(self.config.max_retries + 1):
            try:
                # the scheduler owns the single-stripe fallback: a
                # BatchDecodeError escaping submit() means the batch
                # *and* this rider's fallback both failed
                return await self.scheduler.submit(stripe_id, block)
            except NodeFault:
                self.metrics.faults_seen += 1
                if attempt >= self.config.max_retries:
                    raise
                # clamp the backoff to the remaining budget: the outer
                # wait_for is the hard cap, but sleeping past it would
                # burn the whole budget to end in a timeout instead of
                # giving the next retry its chance within the deadline
                remaining = budget - (loop.time() - t0)
                if remaining <= 0:
                    raise asyncio.TimeoutError  # degraded_get: DeadlineExceeded
                self.metrics.retries += 1
                await asyncio.sleep(min(self.config.backoff(attempt), remaining))
        raise AssertionError("unreachable: retry loop always returns or raises")

    # -- backend protocol ----------------------------------------------------
    # (shared with repro.cluster.Cluster so repro.service.net's serve()
    # and connect() treat one service and a whole cluster identically)

    @property
    def dtype(self):
        """Element dtype regions must be encoded with on the way in."""
        return self.store.code.field.dtype

    def verify_block(self, stripe_id: int, block: int, region) -> bool:
        """Is ``region`` bit-identical to the ground truth block?"""
        return self.store.verify_block(stripe_id, block, region)

    # -- observability -------------------------------------------------------

    def metrics_dict(self) -> dict[str, object]:
        """One JSON document: serving view + pipeline/kernel cost view.

        ``pipeline.mult_xors``/``symbols`` come from the same
        :class:`~repro.gf.region.OpCounter` the offline benchmarks use,
        so the served work reconciles with the paper's accounting.
        """
        out = self.metrics.as_dict(pipeline=self.pipeline.metrics().as_dict())
        out["kernels"] = self.pipeline.executor_stats()
        if self.repair is not None:
            out["repair"] = self.repair.metrics.as_dict()
            out["repair"]["health"] = self.repair.health()
        return out

    # -- lifecycle -----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("service is closed")

    def start_repair(self) -> None:
        """Start the background repair loop (no-op when not configured)."""
        if self.repair is not None and not self.repair.running:
            self.repair.start()

    async def close(self) -> None:
        """Stop repair, drain the scheduler; shut the pipeline if owned."""
        if self._closed:
            return
        self._closed = True
        if self.repair is not None:
            await self.repair.stop()
        await self.scheduler.close()
        if self._owns_pipeline:
            self.pipeline.close()

    async def __aenter__(self) -> "BlobService":
        self.start_repair()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
