"""BlobService: the request API, the degradation ladder, observability."""

from __future__ import annotations

import asyncio
from importlib import import_module

import numpy as np
import pytest

from repro.pipeline import DecodePipeline
from repro.service import BlobService, FaultInjector, ServiceConfig
from repro.service.errors import (
    BatchDecodeError,
    DeadlineExceeded,
    NodeFault,
    ServiceClosedError,
)

from .conftest import SYMBOLS, make_store


def run(coro):
    return asyncio.run(coro)


def fast_config(**kwargs) -> ServiceConfig:
    kwargs.setdefault("batch_trigger", 2)
    kwargs.setdefault("flush_interval_s", 0.002)
    kwargs.setdefault("backoff_base_s", 0.0001)
    kwargs.setdefault("backoff_cap_s", 0.001)
    return ServiceConfig(**kwargs)


def test_get_present_block(code):
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            block = store.stripe(0).present_ids[0]
            region = await service.get(0, block)
            assert store.verify_block(0, block, region)
            assert service.metrics.gets == 1
            assert service.metrics.degraded_gets == 0

    run(main())


def test_get_erased_block_transparently_decodes(code):
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            region = await service.get(0, block)
            assert store.verify_block(0, block, region)
            # counted once as a get *and* once as a degraded read
            assert service.metrics.gets == 1
            assert service.metrics.degraded_gets == 1

    run(main())


def test_put_writes_through(code):
    store = make_store(code, num_stripes=1, damaged=0.0)
    region = np.arange(SYMBOLS, dtype=code.field.dtype)

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            await service.put(0, 0, region)
            got = await service.get(0, 0)
            assert np.array_equal(got, region)
            assert service.metrics.puts == 1

    run(main())


def test_transient_faults_absorbed_by_retries(code):
    """max_consecutive < max_retries ==> zero client-visible failures."""
    store = make_store(code, num_stripes=2, fault_rate=0.4, seed=3)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config(max_retries=3)) as service:
            for _ in range(10):
                region = await service.get(0, block)
                assert store.verify_block(0, block, region)
            assert service.metrics.failures == 0
            if service.metrics.faults_seen:
                assert service.metrics.retries == service.metrics.faults_seen

    run(main())


def test_retries_exhausted_raises_node_fault(code):
    store = make_store(code, num_stripes=1, damaged=0.0)
    store.faults = FaultInjector(0.999999, rng=0, max_consecutive=100)

    async def main():
        async with BlobService(store, config=fast_config(max_retries=1)) as service:
            with pytest.raises(NodeFault):
                await service.get(0, store.stripe(0).present_ids[0])
            assert service.metrics.failures == 1

    run(main())


def test_deadline_expiry_raises_and_counts(code):
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]
    # a flush deadline far beyond the request deadline: the queued read
    # can never resolve in time
    config = ServiceConfig(batch_trigger=100, flush_interval_s=30.0)

    async def main():
        async with BlobService(store, config=config) as service:
            with pytest.raises(DeadlineExceeded):
                await service.degraded_get(0, block, deadline_s=0.02)
            assert service.metrics.timeouts == 1
            assert service.metrics.failures == 1

    run(main())


def test_nonpositive_deadline_fails_immediately(code):
    store = make_store(code, num_stripes=1)

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            with pytest.raises(DeadlineExceeded):
                await service.degraded_get(0, store.pattern(0)[0], deadline_s=0.0)

    run(main())


def test_batch_error_falls_back_to_single_decode(code):
    """A poisoned batch path degrades latency, never correctness."""
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=1)) as service:
            def broken(snapshots, patterns, targets):
                raise ValueError("poisoned batch plan")

            service.scheduler._decode_batch = broken
            region = await service.degraded_get(0, block)
            assert store.verify_block(0, block, region)
            assert service.metrics.fallbacks == 1
            assert service.metrics.batch_errors == 1
            assert service.metrics.failures == 0

    run(main())


def test_batch_and_fallback_both_failing_surfaces(code):
    """The fallback always runs; only a rider whose own fallback also
    fails sees a BatchDecodeError."""
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=1)) as service:
            def broken(snapshots, patterns, targets):
                raise ValueError("poisoned batch plan")

            def broken_single(stripe_id, blk):
                raise ValueError("poisoned fallback")

            service.scheduler._decode_batch = broken
            service.scheduler._single_decode = broken_single
            with pytest.raises(BatchDecodeError):
                await service.degraded_get(0, block)
            assert service.metrics.fallbacks == 0
            assert service.metrics.failures == 1

    run(main())


def test_infrastructure_error_surfaces_distinctly(code):
    """A dying pool's RuntimeError must not be masked as a decode
    failure: no fallback attempt, the caller sees the real exception."""
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=1)) as service:
            def dying_pool(snapshots, patterns, targets):
                raise RuntimeError("cannot schedule new futures after shutdown")

            service.scheduler._decode_batch = dying_pool
            with pytest.raises(RuntimeError, match="after shutdown"):
                await service.degraded_get(0, block)
            # fallback was NOT exercised: it cannot fix a dead pool and
            # would only mask the shutdown from the caller
            assert service.metrics.fallbacks == 0
            assert service.metrics.batch_errors == 1
            assert service.metrics.failures == 1

    run(main())


def test_coalesced_serving_is_bit_identical_to_truth(code):
    store = make_store(code, num_stripes=4)
    pattern = store.pattern(0)

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=4)) as service:
            results = await asyncio.gather(
                *(
                    service.degraded_get(sid, block)
                    for sid in range(4)
                    for block in pattern[:2]
                )
            )
            index = 0
            for sid in range(4):
                for block in pattern[:2]:
                    assert store.verify_block(sid, block, results[index])
                    index += 1
            assert service.metrics.flushes >= 1
            assert service.metrics.coalesce_factor > 1.0

    run(main())


def test_metrics_dict_reconciles_serving_and_pipeline_views(code):
    store = make_store(code, num_stripes=2)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config()) as service:
            await asyncio.gather(
                *(service.degraded_get(sid, block) for sid in range(2))
            )
            doc = service.metrics_dict()
            assert doc["requests"]["degraded_gets"] == 2
            assert doc["pipeline"]["stripes"] == 2
            assert doc["pipeline"]["mult_xors"] > 0
            assert "kernels" in doc
            assert doc["coalescing"]["flushed_reads"] == 2

    run(main())


def test_closed_service_refuses_requests(code):
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def main():
        service = BlobService(store, config=fast_config())
        await service.close()
        with pytest.raises(ServiceClosedError):
            await service.get(0, 0)
        await service.close()  # idempotent

    run(main())


def test_external_pipeline_is_not_closed_by_the_service(code):
    from repro.pipeline import DecodePipeline

    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def main():
        with DecodePipeline(pool="serial") as pipeline:
            async with BlobService(
                store, config=fast_config(), pipeline=pipeline
            ) as service:
                await service.degraded_get(0, block)
            # service exit must leave the borrowed pipeline usable
            assert pipeline.metrics().stripes == 1

    run(main())


def test_get_backoff_is_clamped_to_the_deadline_budget(code):
    """A retry backoff larger than the remaining budget must not sleep
    through the caller's deadline: the request fails *within* it, as
    DeadlineExceeded, instead of surfacing NodeFault seconds late."""
    store = make_store(code, num_stripes=1, damaged=0.0)
    store.faults = FaultInjector(0.999999, rng=0, max_consecutive=100)
    config = fast_config(max_retries=3, backoff_base_s=30.0, backoff_cap_s=30.0)

    async def main():
        async with BlobService(store, config=config) as service:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            with pytest.raises(DeadlineExceeded):
                await service.get(0, 0, deadline_s=0.2)
            elapsed = loop.time() - t0
            assert elapsed < 2.0  # nowhere near the 30 s backoff
            assert service.metrics.timeouts >= 1
            assert service.metrics.failures >= 1

    asyncio.run(main())


def test_put_backoff_is_clamped_to_the_deadline_budget(code):
    store = make_store(code, num_stripes=1, damaged=0.0)
    store.faults = FaultInjector(0.999999, rng=0, max_consecutive=100)
    config = fast_config(max_retries=3, backoff_base_s=30.0, backoff_cap_s=30.0)
    region = np.arange(SYMBOLS, dtype=code.field.dtype)

    async def main():
        async with BlobService(store, config=config) as service:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            with pytest.raises(DeadlineExceeded):
                await service.put(0, 0, region, deadline_s=0.2)
            assert loop.time() - t0 < 2.0

    asyncio.run(main())


def test_degraded_ladder_fails_within_tight_deadline(code):
    """The ladder's retry backoff is clamped too: a tight deadline with a
    huge configured backoff still resolves (as DeadlineExceeded) within
    the budget plus scheduling slack."""
    store = make_store(code, num_stripes=1)
    store.faults = FaultInjector(0.999999, rng=0, max_consecutive=100)
    block = store.pattern(0)[0]
    config = fast_config(max_retries=3, backoff_base_s=30.0, backoff_cap_s=30.0)

    async def main():
        async with BlobService(store, config=config) as service:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            with pytest.raises(DeadlineExceeded):
                await service.degraded_get(0, block, deadline_s=0.2)
            assert loop.time() - t0 < 2.0
            assert service.metrics.timeouts >= 1

    asyncio.run(main())


# -- targeted reads: the fallback channel and worker verification -----------


def benchmark_store(num_stripes: int = 1):
    """SD(10,8,2,2) under the benchmark's worst-case pattern (2 disks +
    2 sectors = 18 erased blocks; whole-pattern decode = 292 mult_XORs)."""
    from repro.codes import SDCode
    from repro.service import BlobStore, damage_store

    store = BlobStore.build(SDCode(10, 8, 2, 2), num_stripes, SYMBOLS, rng=1)
    damage_store(store, fraction=1.0, seed=2015)
    return store


def test_single_decode_runs_only_the_targeted_plan(monkeypatch):
    """The recovery channel behind a failed batch returns one block, so it
    runs that block's row of the plan — 8 mult_XORs for a group block of
    the benchmark pattern, 61-62 for an H_rest block, never the 292."""
    from repro.core import plan_decode
    from repro.gf import RegionOps
    from repro.service import server

    made = []

    class Recording(RegionOps):
        def __init__(self, field, counter=None):
            super().__init__(field, counter)
            made.append(self)

    monkeypatch.setattr(server, "RegionOps", Recording)
    store = benchmark_store()
    code, pattern = store.code, store.pattern(0)
    whole = plan_decode(code, pattern)
    assert whole.predicted_cost == 292
    service = BlobService(store, config=fast_config())
    try:
        for block in (whole.groups[0].faulty_ids[0], whole.rest.faulty_ids[0]):
            region = service._single_decode(0, block)
            assert store.verify_block(0, block, region)
            expected = plan_decode(code, pattern, targets=[block]).predicted_cost
            assert made[-1].counter.mult_xors == expected
        costs = [ops.counter.mult_xors for ops in made]
        assert costs[0] == 8 and costs[1] in (61, 62)
    finally:
        run(service.close())


def test_fallback_shares_no_compiled_code_with_the_batch_path(code, monkeypatch):
    """With every compiled-program execution broken, a degraded read
    still returns the true block: the fallback channel never reaches
    the executor the failed batch ran on."""
    from repro.kernels import ProgramExecutor

    def broken(self, *args, **kwargs):
        raise ValueError("broken compiled executor")

    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]
    monkeypatch.setattr(ProgramExecutor, "execute", broken)

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=1)) as service:
            region = await service.degraded_get(0, block)
            assert store.verify_block(0, block, region)
            assert service.metrics.batch_errors == 1
            assert service.metrics.fallbacks == 1
            assert service.metrics.failures == 0

    run(main())


def test_fallback_certifies_its_plan_when_the_pipeline_verifies(code, monkeypatch):
    """A planner fault the batch path's certificate rejects is not served
    through the fallback instead.  The planted fault changes one
    coefficient in every group row, so every block's plan is wrong: with
    plan verification on, every degraded read fails and no wrong block
    is returned."""
    partition = import_module("repro.core.partition")
    real = partition._group_weights

    def one_coefficient_changed_per_row(*args):
        weights = real(*args).copy()  # a stack: every solved group's W
        for row in weights.reshape(-1, weights.shape[-1]):
            i = np.flatnonzero(row)[0]
            row[i] = 3 if row[i] == 2 else 2
        return weights

    monkeypatch.setattr(partition, "_group_memo", {})  # every group solve is a miss
    monkeypatch.setattr(partition, "_group_weights", one_coefficient_changed_per_row)
    store = make_store(code, num_stripes=4)
    reads = [(sid, block) for sid in range(4) for block in store.pattern(sid)]

    async def main():
        pipeline = DecodePipeline(pool="serial", verify=True)
        async with BlobService(
            store, config=fast_config(batch_trigger=1), pipeline=pipeline, own_pipeline=True
        ) as service:
            outcomes = []
            for sid, block in reads:
                try:
                    region = await service.degraded_get(sid, block)
                except BatchDecodeError:
                    outcomes.append("failed")
                else:
                    outcomes.append(store.verify_block(sid, block, region))
            assert outcomes == ["failed"] * len(reads)
            assert service.metrics.batch_errors == len(reads)
            assert service.metrics.fallbacks == 0

    run(main())


def test_failed_targeted_batch_reaches_the_single_stripe_fallback(code):
    """A batch poisoned by its *targets* is a decode-shaped failure like
    any other: every rider is served by the fallback channel."""
    store = make_store(code, num_stripes=2)
    block = store.pattern(0)[0]

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=2)) as service:
            real = service.scheduler._decode_batch

            def stray_targets(snapshots, patterns, targets):
                bad = next(b for b in range(code.num_blocks) if b not in patterns[0])
                return real(snapshots, patterns, [(bad,)] * len(targets))

            service.scheduler._decode_batch = stray_targets
            regions = await asyncio.gather(
                *(service.degraded_get(sid, block) for sid in range(2))
            )
            for sid, region in enumerate(regions):
                assert store.verify_block(sid, block, region)
            assert service.metrics.batch_errors == 1
            assert service.metrics.fallbacks == 2
            assert service.metrics.failures == 0

    run(main())


def test_targeted_reads_with_corrupt_workers_serve_no_corrupt_byte(code):
    """``verify_workers`` on targeted reads: every merged worker result
    is still syndrome-checked, so injected corruption is rejected and
    recomputed — never served."""
    from repro.pipeline import DecodePipeline

    store = make_store(code, num_stripes=4)
    pattern = store.pattern(0)
    faults = FaultInjector(rate=0.0, rng=5, corrupt_worker_rate=0.5)
    pipeline = DecodePipeline(
        workers=2, pool="thread", verify_workers=True, faults=faults
    )

    async def main():
        async with BlobService(
            store, config=fast_config(), pipeline=pipeline, own_pipeline=True
        ) as service:
            for _ in range(3):
                requests = [(sid, block) for sid in range(4) for block in pattern]
                regions = await asyncio.gather(
                    *(service.degraded_get(sid, block) for sid, block in requests)
                )
                for (sid, block), region in zip(requests, regions):
                    assert store.verify_block(sid, block, region), (sid, block)
            doc = service.metrics_dict()["pipeline"]
            assert service.metrics.failures == 0
            assert service.metrics.fallbacks == 0
            return doc

    doc = run(main())
    assert faults.corrupt_injected > 0
    assert doc["verify_rejects"] == faults.corrupt_injected
    assert doc["blocks_recovered"] >= doc["stripes"] > 0


def test_metrics_show_what_a_one_block_read_reads():
    """One read of each erased block of the benchmark pattern: the served
    survivor-blocks-per-recovered-block ratio is 358 / 18 = 19.9 (14 group
    blocks x 8 + 4 H_rest blocks x 61-62), not the whole pattern's 62."""
    store = benchmark_store()
    pattern = store.pattern(0)

    async def main():
        async with BlobService(store, config=fast_config(batch_trigger=1)) as service:
            for block in pattern:
                region = await service.degraded_get(0, block)
                assert store.verify_block(0, block, region)
            return service.metrics_dict()["pipeline"]

    doc = run(main())
    assert (doc["blocks_read"], doc["blocks_recovered"]) == (358, 18)
    assert doc["mult_xors"] == 358  # one coefficient per block read
