"""RepairManager: the scan-queue-drain loop, its safety rails, and the
service wiring — including the scrub-vs-degraded-read race."""

from __future__ import annotations

import asyncio

import pytest

from repro.config import build_service, from_dict
from repro.pipeline import DecodePipeline
from repro.repair import RepairConfig, RepairManager, StoreScrubber
from repro.service import (
    BlobService,
    ServiceConfig,
    build_request_schedule,
    run_loadgen,
)

from .conftest import make_store


def run(coro):
    return asyncio.run(coro)


def make_manager(store, **config_kwargs):
    config_kwargs.setdefault("scrub_stripes", 64)
    pipeline = DecodePipeline(pool="serial")
    manager = RepairManager(store, pipeline, RepairConfig(**config_kwargs))
    return manager, pipeline


def store_matches_truth(store) -> bool:
    return all(
        (store.stripe(sid).get(b) == store.truth(sid).get(b)).all()
        for sid in store.stripe_ids
        for b in store.stripe(sid).present_ids
    )


def test_tick_heals_corruption_and_erasure(code):
    store = make_store(code, num_stripes=4, damaged=0.0)
    store.corrupt(1, [code.data_block_ids[2]])
    store.corrupt(3, [code.parity_block_ids[0]])
    store.erase(2, [0, 5])
    manager, pipeline = make_manager(store)

    async def main():
        with pipeline:
            findings = await manager.tick()
            assert len(findings.findings) == 3
            return await manager.wait_healthy(timeout_s=10.0)

    assert run(main())
    assert store_matches_truth(store)
    assert not any(store.stripe(sid).erased_ids for sid in store.stripe_ids)
    assert manager.metrics.corruptions_found == 2
    assert manager.metrics.erasures_found == 1
    assert manager.metrics.stripes_repaired == 3
    assert manager.metrics.blocks_repaired >= 4
    assert manager.metrics.repair_failures == 0
    assert manager.metrics.verify_failures == 0
    assert manager.unrepairable == {}
    assert len(manager.queue) == 0


def test_corruption_repairs_before_erasure(code):
    """Queue ordering end-to-end: with both kinds pending in one tick,
    the corrupt stripe (serving wrong bytes *now*) is healed first."""
    store = make_store(code, num_stripes=2, damaged=0.0)
    store.erase(0, [1])
    store.corrupt(1, [code.data_block_ids[0]])
    manager, pipeline = make_manager(store, repair_batch=1)

    order: list[int] = []
    real_write_back = manager._write_back

    def spying_write_back(task, recovered):
        order.append(task.stripe_id)
        real_write_back(task, recovered)

    manager._write_back = spying_write_back

    async def main():
        with pipeline:
            await manager.tick()

    run(main())
    assert order == [1, 0]  # corruption (stripe 1) before erasure (stripe 0)
    assert store_matches_truth(store)


def test_ambiguous_is_reported_never_repaired(code):
    """Two corruptions at online depth: the stripe must be quarantined,
    not 'repaired' onto a wrong single-block guess."""
    store = make_store(code, num_stripes=2, damaged=0.0)
    store.corrupt(0, [2, 11], rng=5)
    before = {b: store.stripe(0).get(b).copy() for b in range(code.num_blocks)}
    manager, pipeline = make_manager(store, max_errors=1)

    async def main():
        with pipeline:
            await manager.tick()
            # a second tick must not retry or double-log the same verdict
            await manager.tick()

    run(main())
    assert manager.unrepairable == {0: "ambiguous"}
    assert manager.metrics.stripes_repaired == 0
    assert len(manager.queue) == 0
    for b, region in before.items():
        assert (store.stripe(0).get(b) == region).all(), (
            f"block {b} was modified despite the ambiguous verdict"
        )

    async def barrier():
        with pipeline:
            return await manager.wait_healthy(timeout_s=2.0)

    # ambiguous is not *actionable*: the barrier reports done (nothing
    # repair can safely do) while health() still carries the quarantine
    pipeline = DecodePipeline(pool="serial")
    assert run(barrier())
    assert manager.health()["unrepairable"] == {0: "ambiguous"}


def test_changed_diagnosis_supersedes_unrepairable(code):
    store = make_store(code, num_stripes=1, damaged=0.0)
    store.corrupt(0, [2, 11], rng=5)
    manager, pipeline = make_manager(store, max_errors=1)

    async def main():
        with pipeline:
            await manager.tick()
            assert manager.unrepairable == {0: "ambiguous"}
            # one corrupt block is overwritten with truth (say, by an
            # operator restore): the stripe becomes single-corrupt and
            # the next scan must lift the quarantine and heal it
            store.stripe(0).put(2, store.truth(0).get(2).copy())
            await manager.tick()

    run(main())
    assert manager.unrepairable == {}
    assert manager.metrics.stripes_repaired == 1
    assert store_matches_truth(store)


def test_rate_limit_meters_and_records_waits(code):
    store = make_store(code, num_stripes=3, damaged=0.0)
    for sid in range(3):
        store.erase(sid, [0, 5])
    manager, pipeline = make_manager(
        store, rate_blocks_per_s=500.0, burst_blocks=1, repair_batch=1
    )

    async def main():
        with pipeline:
            await manager.tick()

    run(main())
    assert store_matches_truth(store)
    # every drain takes 2 blocks from a 1-block bucket: the first one
    # waits whatever the host's timing, so a wait is certain
    assert manager.metrics.rate_wait_seconds > 0.0
    assert manager.bucket.waited_seconds == pytest.approx(
        manager.metrics.rate_wait_seconds
    )


def test_lifecycle_background_loop(code):
    store = make_store(code, num_stripes=2, damaged=0.0)
    store.corrupt(0, [3])
    manager, pipeline = make_manager(store, scrub_interval_s=0.005)

    async def main():
        with pipeline:
            manager.start()
            assert manager.running
            with pytest.raises(RuntimeError):
                manager.start()
            manager.kick()
            deadline = asyncio.get_running_loop().time() + 5.0
            while manager.metrics.stripes_repaired < 1:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)
            await manager.stop()
            assert not manager.running
            await manager.stop()  # idempotent

    run(main())
    assert store_matches_truth(store)


def test_service_wires_repair_lifecycle_and_metrics(code):
    store = make_store(code, num_stripes=4, damaged=0.25)
    store.corrupt(0, [code.data_block_ids[1]])
    config = ServiceConfig(
        batch_trigger=2,
        flush_interval_s=0.002,
        repair=RepairConfig(enabled=True, scrub_interval_s=0.005, scrub_stripes=64),
    )

    async def main():
        async with BlobService(store, config=config) as service:
            assert service.repair is not None
            assert service.repair.running
            healed = await service.repair.wait_healthy(timeout_s=10.0)
            doc = service.metrics_dict()
            assert doc["repair"]["scrub"]["corruptions_found"] >= 1
            assert doc["repair"]["repair"]["stripes_repaired"] >= 1
            assert doc["repair"]["health"]["queue_depth"] == 0
            repair = service.repair
            return healed, repair
        # close() must have stopped the loop

    healed, repair = run(main())
    assert healed
    assert not repair.running
    assert store_matches_truth(store)


def test_heals_to_zero_under_foreground_load():
    """What the old repair benchmark uniquely proved: with erasure *and*
    silent corruption planted, the background loop scrubs and repairs to
    zero unhealthy stripes while foreground reads are being served, and
    the healed store is bit-identical to ground truth."""
    config = from_dict(
        {
            "store": {
                "n": 6, "r": 4, "m": 2, "s": 2, "stripes": 4, "symbols": 16,
                "seed": 3, "damaged": 0.25, "corrupt_fraction": 0.25,
            },
            "service": {
                "repair": {"enabled": True, "scrub_interval_s": 0.002, "scrub_stripes": 8}
            },
        }
    )
    service = build_service(config)
    store = service.store
    assert StoreScrubber(store).scan_full_pass().findings  # damage planted
    schedule = build_request_schedule(store, 30, seed=3, degraded_fraction=0.5)

    async def main():
        async with service:  # starts the repair loop beside the requests
            # verify=False: a corrupt block serves wrong bytes until the
            # scrubber reaches it; what must hold is the state afterwards
            summary = await run_loadgen(
                service, schedule, concurrency=8, verify=False
            )
            healed = await service.repair.wait_healthy(timeout_s=30.0)
            return summary, healed, service.repair.metrics.stripes_repaired

    summary, healed, repaired = run(main())
    assert summary["failed"] == 0
    assert healed
    assert repaired >= 1
    assert not StoreScrubber(store).scan_full_pass().findings
    assert not any(store.stripe(sid).erased_ids for sid in store.stripe_ids)
    assert store_matches_truth(store)


def test_unconfigured_service_has_no_repair(code):
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def main():
        async with BlobService(store, config=ServiceConfig()) as service:
            assert service.repair is None
            assert "repair" not in service.metrics_dict()

    run(main())


def test_scrub_racing_inflight_degraded_read(code):
    """A repair that lands between a degraded read's enqueue and its
    flush must not break the read: the flush re-reads the (now-empty)
    pattern and serves the healed block from its snapshot."""
    store = make_store(code, num_stripes=1, damaged=1.0)
    block = store.pattern(0)[0]
    config = ServiceConfig(
        batch_trigger=100,
        flush_interval_s=30.0,  # hold the read queued until we drain
        repair=RepairConfig(enabled=True, scrub_stripes=64),
    )

    async def main():
        async with BlobService(store, config=config) as service:
            pending = asyncio.create_task(service.degraded_get(0, block))
            deadline = asyncio.get_running_loop().time() + 5.0
            while service.scheduler.pending < 1:  # enqueued under the
                await asyncio.sleep(0.001)  # erased pattern
                assert asyncio.get_running_loop().time() < deadline
            healed = await service.repair.wait_healthy(timeout_s=10.0)
            assert healed
            assert store.pattern(0) == ()  # repair fully healed the stripe
            await service.scheduler.drain()
            region = await pending
            assert store.verify_block(0, block, region)
            assert service.metrics.failures == 0

    run(main())
    assert store_matches_truth(store)


def test_straggler_timeout_is_transient_not_unrepairable(code):
    """A timed-out repair decode is a hung worker, not a bad stripe: it
    counts as a failure but the stripe stays eligible for the next pass
    (and heals once the pipeline recovers)."""
    from repro.pipeline import StragglerTimeout

    store = make_store(code, num_stripes=2, damaged=0.0)
    store.erase(0, [1])
    manager, pipeline = make_manager(store)

    real_decode_batch = pipeline.decode_batch
    strikes = {"left": 2}  # batch attempt + single retry both time out

    def flaky_decode_batch(*args, **kwargs):
        if strikes["left"] > 0:
            strikes["left"] -= 1
            raise StragglerTimeout(0.1, (), (0,))
        return real_decode_batch(*args, **kwargs)

    pipeline.decode_batch = flaky_decode_batch

    async def main():
        with pipeline:
            await manager.tick()
            while len(manager.queue):
                await manager.tick()
            assert manager.metrics.repair_failures >= 1
            assert manager.unrepairable == {}
            # the next scrub pass re-finds the erasure and heals it
            await manager.tick()
            while len(manager.queue):
                await manager.tick()

    run(main())
    assert not store.stripe(0).erased_ids
    assert store_matches_truth(store)


def test_repair_still_writes_back_every_erased_block(code):
    """Repair is a rebuild, not a read: it never passes ``targets``, so a
    stripe leaves the queue with *all* of its erased blocks restored —
    and the pipeline's counters show whole-pattern plans only."""
    store = make_store(code, num_stripes=3)
    patterns = {sid: store.pattern(sid) for sid in store.stripe_ids}
    assert all(len(pattern) > 1 for pattern in patterns.values())
    manager, pipeline = make_manager(store)

    async def main():
        with pipeline:
            await manager.tick()
            return await manager.wait_healthy(timeout_s=10.0)

    assert run(main())
    assert not any(store.stripe(sid).erased_ids for sid in store.stripe_ids)
    assert store_matches_truth(store)
    erased = sum(len(pattern) for pattern in patterns.values())
    assert manager.metrics.blocks_repaired == erased
    metrics = pipeline.metrics()
    assert metrics.blocks_recovered == erased
    whole = pipeline.plan(code, patterns[0])
    assert whole.targets == patterns[0]
    assert metrics.blocks_read == len(whole.read_ids) * len(patterns)
