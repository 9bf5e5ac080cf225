"""Unit tests for failure-scenario generation (the paper's methodology)."""

import numpy as np
import pytest

from repro.codes import LRCCode, SDCode, is_decodable
from repro.stripes import (
    FailureScenario,
    StripeLayout,
    lrc_scenario,
    random_scenario,
    worst_case_sd,
)


@pytest.fixture
def code():
    return SDCode(6, 4, 2, 2)


def test_scenario_validation():
    with pytest.raises(ValueError):
        FailureScenario(faulty_blocks=(3, 1))  # unsorted
    with pytest.raises(ValueError):
        FailureScenario(faulty_blocks=(1, 1))  # duplicate
    s = FailureScenario(faulty_blocks=(1, 3), sector_faults=(1, 3))
    assert s.num_faults == 2


def test_worst_case_shape(code):
    scen = worst_case_sd(code, z=1, rng=0)
    assert len(scen.failed_disks) == code.m
    assert len(scen.sector_faults) == code.s
    assert scen.num_faults == code.m * code.r + code.s
    layout = StripeLayout.of_code(code)
    assert scen.z(layout) == 1
    # all disk blocks of the failed disks are faulty
    for d in scen.failed_disks:
        for b in layout.blocks_of_disk(d):
            assert b in scen.faulty_blocks
    # sector faults avoid failed disks
    for b in scen.sector_faults:
        assert layout.disk_of(b) not in scen.failed_disks


@pytest.mark.parametrize("z", [1, 2])
def test_worst_case_z_rows(code, z):
    layout = StripeLayout.of_code(code)
    for seed in range(10):
        scen = worst_case_sd(code, z=z, rng=seed)
        assert scen.z(layout) == z


def test_worst_case_unconstrained_z(code):
    scen = worst_case_sd(code, z=None, rng=3)
    layout = StripeLayout.of_code(code)
    assert 1 <= scen.z(layout) <= code.s


def test_worst_case_decodable(code):
    for seed in range(20):
        scen = worst_case_sd(code, z=1, rng=seed)
        assert is_decodable(code, scen.faulty_blocks)


def test_worst_case_deterministic(code):
    a = worst_case_sd(code, z=1, rng=11)
    b = worst_case_sd(code, z=1, rng=11)
    assert a == b


def test_worst_case_z_validation(code):
    with pytest.raises(ValueError):
        worst_case_sd(code, z=3, rng=0)  # z > s
    with pytest.raises(ValueError):
        worst_case_sd(code, z=0, rng=0)


def test_worst_case_requires_m():
    with pytest.raises(TypeError):
        worst_case_sd(LRCCode(4, 2, 2), rng=0)


def test_random_scenario(code):
    scen = random_scenario(code, 3, rng=5)
    assert scen.num_faults == 3
    assert is_decodable(code, scen.faulty_blocks)


def test_lrc_scenario():
    lrc = LRCCode(8, 2, 2)
    scen = lrc_scenario(lrc, local_failures=2, extra_failures=1, rng=9)
    assert scen.num_faults == 3
    assert is_decodable(lrc, scen.faulty_blocks)
    with pytest.raises(ValueError):
        lrc_scenario(lrc, local_failures=3, rng=0)
    with pytest.raises(TypeError):
        lrc_scenario(SDCode(6, 4, 2, 2), local_failures=1, rng=0)


def test_describe(code):
    scen = worst_case_sd(code, z=1, rng=0)
    layout = StripeLayout.of_code(code)
    text = scen.describe(layout)
    assert "faulty blocks" in text
    assert "z=1" in text


# -- serving-path edge cases -------------------------------------------------
# Failure scenarios interacting with the degraded-read service: transient
# fault injection overlapping an in-flight read, and a double fault landing
# in the window between the coalesce flush and the decode.


def test_overlapping_fault_injection_during_inflight_degraded_read(code):
    """A transient fault firing on the stripe an in-flight degraded read
    is recovering must be absorbed by a retry, never corrupt the answer."""
    import asyncio

    from repro.service import BlobService, BlobStore, FaultInjector, ServiceConfig
    from repro.service.errors import NodeFault

    class FaultFirstAttempt(FaultInjector):
        """Faults exactly the first flush-time snapshot, then goes quiet."""

        def __init__(self):
            super().__init__(0.0)
            self.armed = True

        def check(self, stripe_id):
            if self.armed:
                self.armed = False
                raise NodeFault(f"overlapping fault on stripe {stripe_id}")

    store = BlobStore.build(code, 1, 16, rng=0)
    scenario = worst_case_sd(code, z=1, rng=0)
    store.apply_scenario(0, scenario)
    block = scenario.faulty_blocks[0]
    config = ServiceConfig(
        batch_trigger=1, flush_interval_s=0.0, backoff_base_s=0.0001
    )

    async def main():
        async with BlobService(store, config=config) as service:
            store.faults = FaultFirstAttempt()
            region = await service.degraded_get(0, block)
            assert service.metrics.faults_seen == 1
            assert service.metrics.retries == 1
            assert service.metrics.failures == 0
            return region

    region = asyncio.run(main())
    assert store.verify_block(0, block, region)


def test_double_fault_between_coalesce_flush_and_decode(code):
    """An erasure landing after the flush snapshot — even one that makes
    the stripe undecodable — cannot touch the in-flight batch."""
    import asyncio

    from repro.core import PPMDecoder
    from repro.service import BlobStore, CoalescingScheduler, ServiceConfig, ServiceMetrics

    store = BlobStore.build(code, 1, 16, rng=1)
    scenario = worst_case_sd(code, z=1, rng=1)  # already at m disks + s sectors
    store.apply_scenario(0, scenario)
    block = scenario.faulty_blocks[0]
    survivor = store.stripe(0).present_ids[0]
    decoder = PPMDecoder(parallel=False)

    def decode_with_late_fault(snapshots, patterns, targets):
        # the double fault arrives *during* the decode window: beyond the
        # code's tolerance, so a fresh decode of the stripe would now fail
        store.erase(0, [survivor])
        return [
            decoder.decode(code, blocks, pattern, targets=wanted)
            for blocks, pattern, wanted in zip(snapshots, patterns, targets)
        ]

    config = ServiceConfig(batch_trigger=1, flush_interval_s=0.0)
    metrics = ServiceMetrics()

    def no_fallback(stripe_id, blk):
        raise AssertionError("the batch decode must not fail here")

    scheduler = CoalescingScheduler(
        store, decode_with_late_fault, config, metrics, no_fallback
    )

    async def main():
        region = await scheduler.submit(0, block)
        await scheduler.close()
        return region

    region = asyncio.run(main())
    assert store.verify_block(0, block, region)  # snapshot immunity
    assert survivor in store.pattern(0)  # the store did take the hit
    assert metrics.batch_errors == 0
