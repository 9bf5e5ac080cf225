"""CoalescingScheduler: triggers, admission, fault windows, lifecycle."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import PPMDecoder
from repro.service import CoalescingScheduler, FaultInjector, ServiceConfig, ServiceMetrics
from repro.service.errors import (
    BatchDecodeError,
    NodeFault,
    ServiceClosedError,
    ServiceOverloadError,
)

from .conftest import make_store


def make_scheduler(code, store, config, decode=None, calls=None, single=None):
    """``calls``, when given, collects every (patterns, targets)
    submission the default decode stub receives; the default fallback
    decodes the stripe fault-free."""
    metrics = ServiceMetrics()
    decoder = PPMDecoder(parallel=False)
    if decode is None:

        def decode(snapshots, patterns, targets):
            if calls is not None:
                calls.append((list(patterns), list(targets)))
            return [
                decoder.decode(code, blocks, pattern, targets=wanted)
                for blocks, pattern, wanted in zip(snapshots, patterns, targets)
            ]

    if single is None:

        def single(stripe_id, blk):
            blocks = store.snapshot_blocks(stripe_id, inject=False)
            return decoder.decode(code, blocks, store.pattern(stripe_id))[blk]

    return CoalescingScheduler(store, decode, config, metrics, single), metrics


def test_size_trigger_fuses_one_flush(code):
    """batch_trigger concurrent same-pattern reads -> exactly one flush."""
    store = make_store(code, num_stripes=3)
    config = ServiceConfig(batch_trigger=3, flush_interval_s=10.0)
    scheduler, metrics = make_scheduler(code, store, config)
    block = store.pattern(0)[0]

    async def main():
        results = await asyncio.gather(
            *(scheduler.submit(sid, block) for sid in range(3))
        )
        await scheduler.close()
        return results

    results = asyncio.run(main())
    assert metrics.flushes == 1
    assert metrics.flushed_reads == 3
    assert metrics.coalesce_factor == pytest.approx(3.0)
    for sid, region in enumerate(results):
        assert store.verify_block(sid, block, region)


def test_deadline_trigger_frees_a_lone_read(code):
    """An under-full group flushes after flush_interval_s regardless."""
    store = make_store(code, num_stripes=1)
    config = ServiceConfig(batch_trigger=100, flush_interval_s=0.005)
    scheduler, metrics = make_scheduler(code, store, config)
    block = store.pattern(0)[0]

    async def main():
        region = await asyncio.wait_for(scheduler.submit(0, block), timeout=5.0)
        await scheduler.close()
        return region

    region = asyncio.run(main())
    assert store.verify_block(0, block, region)
    assert metrics.flushes == 1
    assert metrics.flushed_reads == 1


def test_admission_control_sheds_beyond_max_pending(code):
    store = make_store(code, num_stripes=3)
    config = ServiceConfig(batch_trigger=100, flush_interval_s=10.0, max_pending=2)
    scheduler, metrics = make_scheduler(code, store, config)
    block = store.pattern(0)[0]

    async def main():
        queued = [
            asyncio.create_task(scheduler.submit(sid, block)) for sid in range(2)
        ]
        await asyncio.sleep(0)  # let both submits enqueue
        assert scheduler.pending == 2
        with pytest.raises(ServiceOverloadError):
            await scheduler.submit(2, block)
        await scheduler.drain()
        return await asyncio.gather(*queued)

    results = asyncio.run(main())
    assert metrics.rejected == 1
    assert len(results) == 2
    assert metrics.queue_depth_peak == 2


def test_distinct_patterns_get_distinct_groups(code):
    store = make_store(code, num_stripes=2, damaged=0.0)
    store.erase(0, [0])
    store.erase(1, [1])
    config = ServiceConfig(batch_trigger=100, flush_interval_s=10.0)
    scheduler, metrics = make_scheduler(code, store, config)

    async def main():
        tasks = [
            asyncio.create_task(scheduler.submit(0, 0)),
            asyncio.create_task(scheduler.submit(1, 1)),
        ]
        await asyncio.sleep(0)
        assert set(scheduler.open_patterns) == {(0,), (1,)}
        await scheduler.drain()
        return await asyncio.gather(*tasks)

    results = asyncio.run(main())
    assert metrics.flushes == 2  # one per pattern, even drained together
    assert store.verify_block(0, 0, results[0])
    assert store.verify_block(1, 1, results[1])


def test_double_fault_while_queued_decodes_under_wider_pattern(code):
    """A second erasure arriving between enqueue and flush is honoured:
    the flush re-reads the pattern, so the read still returns truth."""
    store = make_store(code, num_stripes=1, damaged=0.0)
    store.erase(0, [0])
    config = ServiceConfig(batch_trigger=100, flush_interval_s=10.0)
    scheduler, metrics = make_scheduler(code, store, config)

    async def main():
        task = asyncio.create_task(scheduler.submit(0, 0))
        await asyncio.sleep(0)  # queued under pattern (0,)
        store.erase(0, [1])  # double fault before the flush
        await scheduler.drain()
        return await task

    region = asyncio.run(main())
    assert store.verify_block(0, 0, region)
    assert metrics.flushes == 1


class _TargetedFault(FaultInjector):
    """Faults exactly one stripe's next check; everything else passes."""

    def __init__(self, victim: int):
        super().__init__(0.0)
        self.victim: int | None = victim

    def check(self, stripe_id: int) -> None:
        if stripe_id == self.victim:
            self.victim = None
            raise NodeFault(f"targeted fault on stripe {stripe_id}")


def test_fault_at_flush_time_fails_only_that_read(code):
    """A NodeFault snapshotting one stripe must not poison its riders."""
    store = make_store(code, num_stripes=2)
    block = store.pattern(0)[0]
    config = ServiceConfig(batch_trigger=100, flush_interval_s=10.0)
    scheduler, metrics = make_scheduler(code, store, config)

    async def main():
        tasks = [
            asyncio.create_task(scheduler.submit(sid, block)) for sid in range(2)
        ]
        await asyncio.sleep(0)
        # arm the injector *after* enqueue so the fault lands at flush time
        store.faults = _TargetedFault(victim=0)
        await scheduler.drain()
        return await asyncio.gather(*tasks, return_exceptions=True)

    results = asyncio.run(main())
    assert isinstance(results[0], NodeFault)  # the faulted snapshot failed
    assert isinstance(results[1], np.ndarray)  # its rider still decoded
    assert store.verify_block(1, block, results[1])
    assert metrics.flushed_reads == 1


def test_batch_decode_error_wraps_and_hits_every_rider(code):
    """Batch and fallback both failing: every rider gets a
    BatchDecodeError caused by its own fallback's error."""
    store = make_store(code, num_stripes=2)
    block = store.pattern(0)[0]
    config = ServiceConfig(batch_trigger=2, flush_interval_s=10.0)

    def broken(snapshots, patterns, targets):
        raise ValueError("poisoned batch plan")

    def broken_single(stripe_id, blk):
        raise ValueError("poisoned fallback")

    scheduler, metrics = make_scheduler(
        code, store, config, decode=broken, single=broken_single
    )

    async def main():
        return await asyncio.gather(
            *(scheduler.submit(sid, block) for sid in range(2)),
            return_exceptions=True,
        )

    results = asyncio.run(main())
    assert len(results) == 2
    for exc in results:
        assert isinstance(exc, BatchDecodeError)
        assert isinstance(exc.__cause__, ValueError)
    assert metrics.batch_errors == 1
    assert metrics.fallbacks == 0


def test_infrastructure_error_is_not_wrapped_as_decode_failure(code):
    """A RuntimeError from a dying pool reaches every rider *raw*:
    wrapping it as BatchDecodeError would tell the server layer the
    batch was poisoned and trigger a pointless fallback decode."""
    store = make_store(code, num_stripes=2)
    block = store.pattern(0)[0]
    config = ServiceConfig(batch_trigger=2, flush_interval_s=10.0)

    def dying_pool(snapshots, patterns, targets):
        raise RuntimeError("cannot schedule new futures after shutdown")

    scheduler, metrics = make_scheduler(code, store, config, decode=dying_pool)

    async def main():
        return await asyncio.gather(
            *(scheduler.submit(sid, block) for sid in range(2)),
            return_exceptions=True,
        )

    results = asyncio.run(main())
    assert len(results) == 2
    for exc in results:
        assert isinstance(exc, RuntimeError)
        assert not isinstance(exc, BatchDecodeError)
    assert metrics.batch_errors == 1


def test_decode_error_with_single_decode_falls_back_per_rider(code):
    """A decode-shaped batch failure routes every rider through the
    single_decode fallback; nobody sees an exception."""
    store = make_store(code, num_stripes=2)
    block = store.pattern(0)[0]
    config = ServiceConfig(batch_trigger=2, flush_interval_s=10.0)

    def broken(snapshots, patterns, targets):
        raise ValueError("poisoned batch plan")

    scheduler, metrics = make_scheduler(code, store, config, decode=broken)

    async def main():
        return await asyncio.gather(
            *(scheduler.submit(sid, block) for sid in range(2))
        )

    results = asyncio.run(main())
    for sid, region in enumerate(results):
        assert store.verify_block(sid, block, region)
    assert metrics.batch_errors == 1
    assert metrics.fallbacks == 2


def test_cancelled_read_is_skipped_by_the_flush(code):
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]
    config = ServiceConfig(batch_trigger=100, flush_interval_s=10.0)
    scheduler, metrics = make_scheduler(code, store, config)

    async def main():
        task = asyncio.create_task(scheduler.submit(0, block))
        await asyncio.sleep(0)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        await scheduler.drain()

    asyncio.run(main())
    assert metrics.flushes == 0  # nothing live reached the decode
    assert metrics.flushed_reads == 0


def test_closed_scheduler_refuses_submissions(code):
    store = make_store(code, num_stripes=1)
    config = ServiceConfig()
    scheduler, _ = make_scheduler(code, store, config)

    async def main():
        await scheduler.close()
        with pytest.raises(ServiceClosedError):
            await scheduler.submit(0, store.pattern(0)[0])

    asyncio.run(main())


def test_scheduler_rejects_raw_node_fault_leak(code):
    """Faults raised by the store during submit-time pattern lookup
    propagate as NodeFault (retryable), not as a generic error."""
    store = make_store(code, num_stripes=1)
    store.faults = FaultInjector(0.999999, rng=0, max_consecutive=1)
    config = ServiceConfig(batch_trigger=1, flush_interval_s=0.0)
    scheduler, _ = make_scheduler(code, store, config)
    block = store.pattern(0)[0]  # pattern() itself doesn't inject

    async def main():
        with pytest.raises(NodeFault):
            # first snapshot faults; with batch_trigger=1 the flush is
            # immediate so the fault surfaces on this submit
            await scheduler.submit(0, block)

    asyncio.run(main())


def test_straggler_timeout_classified_as_decode_error():
    """A straggling batch gather must route riders through the
    single-stripe fallback, not surface as infrastructure failure."""
    from repro.pipeline import StragglerTimeout
    from repro.service.scheduler import _is_decode_error

    assert _is_decode_error(StragglerTimeout(0.5, (0,), (1,)))
    assert not _is_decode_error(RuntimeError("pool closed"))


# -- flush hygiene: targets per rider, healed riders, stray block ids -------


def test_flush_asks_for_each_riders_own_block(code):
    """One flush, one submission — and per rider exactly its block."""
    store = make_store(code, num_stripes=3)
    pattern = store.pattern(0)
    calls: list = []
    config = ServiceConfig(batch_trigger=3, flush_interval_s=10.0)
    scheduler, metrics = make_scheduler(code, store, config, calls=calls)
    wanted = [pattern[0], pattern[-1], pattern[1]]

    async def main():
        results = await asyncio.gather(
            *(scheduler.submit(sid, block) for sid, block in enumerate(wanted))
        )
        await scheduler.close()
        return results

    results = asyncio.run(main())
    assert calls == [([pattern] * 3, [(b,) for b in wanted])]
    assert metrics.flushes == 1 and metrics.coalesce_factor == pytest.approx(3.0)
    for sid, (block, region) in enumerate(zip(wanted, results)):
        assert store.verify_block(sid, block, region)


def test_healed_rider_is_served_from_the_snapshot_and_never_decoded(code):
    """A block repaired while its read was queued comes from the flush
    snapshot; its stripe — still erased elsewhere — is not submitted."""
    store = make_store(code, num_stripes=2)
    pattern = store.pattern(0)
    block = pattern[0]
    calls: list = []
    config = ServiceConfig(batch_trigger=100, flush_interval_s=10.0)
    scheduler, metrics = make_scheduler(code, store, config, calls=calls)

    async def main():
        tasks = [asyncio.create_task(scheduler.submit(sid, block)) for sid in range(2)]
        await asyncio.sleep(0)
        # heal stripe 0's block only: the rest of its pattern stays erased
        store.repair(0, {block: store.truth(0).get(block)})
        await scheduler.drain()
        return await asyncio.gather(*tasks)

    healed, decoded = asyncio.run(main())
    assert store.verify_block(0, block, healed)
    assert store.verify_block(1, block, decoded)
    assert store.pattern(0) == pattern[1:]  # still erased elsewhere
    # the mixed batch submitted stripe 1 alone
    assert calls == [([pattern], [(block,)])]
    assert metrics.flushes == 1 and metrics.flushed_reads == 1


def test_all_riders_healed_submits_nothing(code):
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]
    calls: list = []
    config = ServiceConfig(batch_trigger=100, flush_interval_s=10.0)
    scheduler, metrics = make_scheduler(code, store, config, calls=calls)

    async def main():
        task = asyncio.create_task(scheduler.submit(0, block))
        await asyncio.sleep(0)
        store.repair(0, {block: store.truth(0).get(block)})
        await scheduler.drain()
        return await task

    assert store.verify_block(0, block, asyncio.run(main()))
    assert calls == [] and metrics.flushes == 0


def test_stray_block_id_fails_alone(code):
    """A block id the code does not have must not poison its co-riders'
    batch (it is no target of their pattern)."""
    from repro.service.errors import BlockUnavailableError

    store = make_store(code, num_stripes=2)
    block = store.pattern(0)[0]
    calls: list = []
    config = ServiceConfig(batch_trigger=2, flush_interval_s=10.0)
    scheduler, metrics = make_scheduler(code, store, config, calls=calls)

    async def main():
        return await asyncio.gather(
            scheduler.submit(0, code.num_blocks + 3),
            scheduler.submit(1, block),
            return_exceptions=True,
        )

    stray, good = asyncio.run(main())
    assert isinstance(stray, BlockUnavailableError)
    assert store.verify_block(1, block, good)
    assert metrics.batch_errors == 0 and len(calls) == 1
