"""Batched decode engine: correctness, accounting, metrics, integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import PPMDecoder, SequencePolicy, TraditionalDecoder
from repro.gf import OpCounter
from repro.pipeline import BatchStats, DecodePipeline, PipelineMetrics, SerialPool
from repro.service import BlobStore
from repro.stripes import Stripe, StripeLayout, worst_case_sd

from ..stripes.test_array import degraded_read, fail_disk, fully_intact, rebuild


@pytest.fixture(scope="module")
def code():
    return SDCode(6, 6, 2, 2)


@pytest.fixture(scope="module")
def faulty(code):
    return list(worst_case_sd(code, z=1, rng=0).faulty_blocks)


def make_stripes(code, count, symbols=32, rng=1):
    layout = StripeLayout.of_code(code)
    gen = np.random.default_rng(rng)
    encoder = TraditionalDecoder()
    stripes = []
    for _ in range(count):
        stripe = Stripe.random(layout, code.field, symbols, gen)
        encoder.encode_into(code, stripe)
        stripes.append(stripe)
    return stripes


def reference_decode(code, stripes, faulty):
    decoder = PPMDecoder(parallel=False)
    return [decoder.decode(code, s, faulty) for s in stripes]


def assert_results_equal(expected, got):
    assert len(expected) == len(got)
    for exp, out in zip(expected, got):
        assert set(exp) == set(out)
        for bid in exp:
            assert np.array_equal(exp[bid], out[bid])


@pytest.mark.parametrize("pool", ["serial", "thread"])
def test_batch_bit_identical_to_uncached_decoder(code, faulty, pool):
    stripes = make_stripes(code, 5)
    expected = reference_decode(code, stripes, faulty)
    with DecodePipeline(workers=2, pool=pool) as pipe:
        got = pipe.decode_batch(code, stripes, faulty)
    assert_results_equal(expected, got)


def test_mixed_patterns_in_one_batch(code):
    stripes = make_stripes(code, 4)
    patterns = [[0, 7], [1, 8], [0, 7], [2, 9]]
    decoder = PPMDecoder(parallel=False)
    expected = [
        decoder.decode(code, s, pat) for s, pat in zip(stripes, patterns)
    ]
    with DecodePipeline(workers=2, pool="serial") as pipe:
        got, stats = pipe.decode_batch(code, stripes, patterns, return_stats=True)
    assert_results_equal(expected, got)
    assert stats.patterns == 3
    assert stats.plan_misses == 3
    assert stats.plan_hits == 1  # the repeated [0, 7] stripe


def test_faulty_none_reads_erased_ids(code, faulty):
    stripes = make_stripes(code, 3)
    truths = [s.copy() for s in stripes]
    for s in stripes:
        s.erase(faulty)
    with DecodePipeline(workers=1, pool="serial") as pipe:
        got = pipe.decode_batch(code, stripes)
    for truth, out in zip(truths, got):
        assert set(out) == set(faulty)
        for bid in faulty:
            assert np.array_equal(out[bid], truth.get(bid))


def test_faulty_none_rejects_plain_mappings(code):
    blocks = {b: np.zeros(4, dtype=code.field.dtype) for b in range(code.num_blocks)}
    with DecodePipeline(pool="serial") as pipe:
        with pytest.raises(TypeError, match="faulty=None requires Stripe"):
            pipe.decode_batch(code, [blocks])


def test_intact_stripes_decode_to_empty(code, faulty):
    stripes = make_stripes(code, 3)
    patterns = [list(faulty), [], list(faulty)]
    with DecodePipeline(pool="serial") as pipe:
        got, stats = pipe.decode_batch(code, stripes, patterns, return_stats=True)
    assert got[1] == {}
    assert set(got[0]) == set(faulty)
    assert stats.stripes == 3
    assert stats.patterns == 1


def test_pattern_count_mismatch_raises(code, faulty):
    stripes = make_stripes(code, 2)
    with DecodePipeline(pool="serial") as pipe:
        with pytest.raises(ValueError, match="erasure patterns for"):
            pipe.decode_batch(code, stripes, [faulty])


def test_single_decode_protocol(code, faulty):
    stripe = make_stripes(code, 1)[0]
    expected = reference_decode(code, [stripe], faulty)[0]
    with DecodePipeline(pool="serial") as pipe:
        out = pipe.decode(code, stripe, faulty)
        out2, stats = pipe.decode(code, stripe, faulty, return_stats=True)
    assert_results_equal([expected], [out])
    assert isinstance(stats, BatchStats)
    assert stats.stripes == 1
    assert stats.plan_hits == 1  # second decode reused the cached plan


def test_decode_stats_report_the_plan_that_ran(code, faulty):
    """``decode(return_stats=True)`` used to look the plan up a second
    time: a phantom cache hit (or a re-plan, had the entry been evicted)."""
    stripe = make_stripes(code, 1)[0]
    with DecodePipeline(pool="serial") as pipe:
        _, stats = pipe.decode(code, stripe, faulty, return_stats=True)
        assert (stats.plan_hits, stats.plan_misses) == (0, 1)
        assert pipe.plans.stats.hits + pipe.plans.stats.misses == 1
        assert stats.plan is pipe.plan(code, faulty)  # the cached object
        assert pipe.plans.stats.misses == 1


def test_counter_matches_batch_stats(code, faulty):
    """The shared OpCounter and BatchStats tell the same mult_XORs story."""
    counter = OpCounter()
    stripes = make_stripes(code, 4)
    with DecodePipeline(pool="serial", counter=counter) as pipe:
        _, s1 = pipe.decode_batch(code, stripes, faulty, return_stats=True)
        _, s2 = pipe.decode_batch(code, stripes, faulty, return_stats=True)
    mult_xors, _, symbols = counter.snapshot()
    assert mult_xors == s1.mult_xors + s2.mult_xors
    assert symbols == s1.symbols + s2.symbols
    assert pipe.metrics().mult_xors == mult_xors


def test_fused_batch_costs_same_region_ops_as_one_stripe(code, faulty):
    """Fusion: N stripes of one pattern cost the same *op count* as one."""
    with DecodePipeline(pool="serial") as pipe:
        _, one = pipe.decode_batch(code, make_stripes(code, 1), faulty, return_stats=True)
    with DecodePipeline(pool="serial") as pipe:
        _, many = pipe.decode_batch(code, make_stripes(code, 6), faulty, return_stats=True)
    assert many.mult_xors == one.mult_xors
    assert many.symbols == 6 * one.symbols


def test_single_stripe_ops_match_serial_ppm(code, faulty):
    """A batch of one pays exactly the serial PPM decoder's op bill."""
    stripe = make_stripes(code, 1)[0]
    _, ref_stats = PPMDecoder(parallel=False).decode(
        code, stripe, faulty, return_stats=True
    )
    with DecodePipeline(pool="serial") as pipe:
        _, stats = pipe.decode_batch(code, [stripe], faulty, return_stats=True)
    assert stats.mult_xors == ref_stats.mult_xors


def test_policy_flows_into_plans(code, faulty):
    with DecodePipeline(pool="serial", policy=SequencePolicy.NORMAL) as pipe:
        _, stats = pipe.decode(code, make_stripes(code, 1)[0], faulty, return_stats=True)
    plan = pipe.plans.get(code, faulty, SequencePolicy.NORMAL)
    assert not plan.uses_partition
    assert stats.mult_xors == plan.predicted_cost


def test_verify_mode_certifies_plans(code, faulty):
    with DecodePipeline(pool="serial", verify=True) as pipe:
        got = pipe.decode_batch(code, make_stripes(code, 2), faulty)
    assert all(set(out) == set(faulty) for out in got)


def test_metrics_snapshot(code, faulty):
    with DecodePipeline(workers=2, pool="thread") as pipe:
        assert pipe.metrics().stripes == 0
        pipe.decode_batch(code, make_stripes(code, 4), faulty)
        pipe.decode_batch(code, make_stripes(code, 4), faulty)
        m = pipe.metrics()
    assert isinstance(m, PipelineMetrics)
    assert m.stripes == 8
    assert m.batches == 2
    assert m.stripes_per_sec > 0
    assert m.plan_cache_hit_rate == 7 / 8
    assert m.pool_kind == "thread"
    assert m.workers == 2
    assert m.pool_spawns == 1  # persistent across both batches
    assert len(m.worker_busy_fraction) == 2
    assert m.queue_depth_peak >= 1
    as_dict = m.as_dict()
    assert as_dict["plan_cache"]["hits"] == 7
    assert as_dict["pool"]["spawns"] == 1


def test_metrics_coalesce_factor_and_evictions(code, faulty):
    stripes = make_stripes(code, 4)
    with DecodePipeline(pool="serial") as pipe:
        pipe.decode_batch(code, stripes, faulty)  # 4 stripes, 1 pattern
        m = pipe.metrics()
        assert m.patterns == 1
        assert m.coalesce_factor == pytest.approx(4.0)
        # two patterns in one batch halves the fusion
        pipe.decode_batch(code, stripes, [list(faulty), [0, 7], list(faulty), [0, 7]])
        m = pipe.metrics()
        assert m.patterns == 3
        assert m.coalesce_factor == pytest.approx(8 / 3)
        assert m.evictions == m.plan_cache_evictions + m.program_cache_evictions
    as_dict = m.as_dict()
    assert as_dict["patterns"] == 3
    assert as_dict["coalesce_factor"] == pytest.approx(8 / 3)
    assert as_dict["evictions"] == m.evictions


def test_metrics_coalesce_factor_idle_is_zero():
    m = PipelineMetrics()
    assert m.coalesce_factor == 0.0
    assert m.evictions == 0


def test_executor_stats_merged_across_compiled_ops(code, faulty):
    stripes = make_stripes(code, 3)
    with DecodePipeline(pool="serial") as pipe:
        assert pipe.executor_stats() == {}  # nothing compiled yet
        pipe.decode_batch(code, stripes, faulty)
        stats = pipe.executor_stats()
    assert stats["executions"] > 0
    assert stats["symbols"] > 0
    assert stats["exec_seconds"] >= 0.0
    # mult_XORs accounting reconciles: executor symbols == pipeline symbols
    assert stats["symbols"] == pipe.metrics().symbols


def test_executor_stats_does_not_race_a_new_fields_ops(code, faulty):
    """Regression: ``executor_stats`` (the ``{"op":"metrics"}`` request)
    iterated the executor cache while a decode on a worker thread could
    insert a new field's executor into it, raising "dictionary changed
    size during iteration".  The cache here pauses its iteration after
    the first entry until the other thread's insert has landed (or 1 s
    passes)."""
    import threading

    from repro.gf import GF

    paused, inserted = threading.Event(), threading.Event()

    class PausingDict(dict):
        def items(self):
            for item in super().items():
                yield item
                paused.set()
                inserted.wait(timeout=1.0)

    outcome: list[object] = []

    def read_stats():
        try:
            outcome.append(pipe.executor_stats())
        except RuntimeError as exc:
            outcome.append(exc)

    with DecodePipeline(pool="serial") as pipe:
        pipe.decode_batch(code, make_stripes(code, 2), faulty)
        pipe._executors = PausingDict(pipe._executors)
        reader = threading.Thread(target=read_stats)
        reader.start()
        assert paused.wait(timeout=5.0)
        pipe._executor_for(GF(16))  # a first decode over another field
        inserted.set()
        reader.join(timeout=10.0)
    assert not reader.is_alive()
    assert len(outcome) == 1 and isinstance(outcome[0], dict), outcome
    assert outcome[0]["executions"] > 0
    assert (id(GF(16)), False) in pipe._executors


def test_shared_pool_instance(code, faulty):
    pool = SerialPool()
    with DecodePipeline(pool=pool) as pipe:
        assert pipe.pool is pool
        assert pipe.workers == pool.workers
        pipe.decode_batch(code, make_stripes(code, 2), faulty)


def disk_loss_store(code, disk=None, num_stripes=3, symbols=16, rng=0):
    """An encoded store, with ``disk`` (if given) lost from every stripe."""
    store = BlobStore.build(code, num_stripes, symbols, rng=rng)
    if disk is not None:
        fail_disk(store, disk)
    return store


def test_array_rebuild_routes_through_decode_batch(code):
    store = disk_loss_store(code, disk=2)
    with DecodePipeline(workers=2, pool="thread") as pipe:
        repaired = rebuild(store, pipe)
    assert repaired == code.r * len(store.stripe_ids)
    assert fully_intact(store)
    # all stripes shared the disk-loss pattern: one miss, rest hits
    m = pipe.metrics()
    assert m.plan_cache_misses == 1
    assert m.plan_cache_hits == len(store.stripe_ids) - 1


def test_array_rebuild_nothing_to_do(code):
    store = disk_loss_store(code)
    with DecodePipeline(pool="serial") as pipe:
        assert rebuild(store, pipe) == 0
        assert pipe.metrics().batches == 0
    assert fully_intact(store)


def test_array_rebuild_on_default_pool(code):
    store = disk_loss_store(code, disk=1, rng=5)
    with DecodePipeline(workers=2) as pipe:
        assert rebuild(store, pipe) == code.r * len(store.stripe_ids)
    assert fully_intact(store)


def test_degraded_read_with_pipeline(code, faulty):
    store = disk_loss_store(code, rng=7)
    victim = faulty[0]
    store.erase(0, [victim])
    with DecodePipeline(pool="serial") as pipe:
        value = degraded_read(store, pipe, 0, victim)
    assert np.array_equal(value, store.truth(0).get(victim))
    assert not store.stripe(0).has(victim)  # a read, not a repair


def test_one_stripe_batch_views_its_inputs(code, faulty):
    """Regression: fusing a lone stripe used to ``np.concatenate`` — copy —
    every survivor region; a batch of one must be a view of its inputs."""
    from repro.core import plan_decode
    from repro.pipeline.engine import _PatternBatch

    stripe = make_stripes(code, 1)[0]
    blocks = {b: stripe.get(b) for b in stripe.present_ids if b not in faulty}
    batch = _PatternBatch(tuple(faulty), plan_decode(code, faulty))
    batch.indices.append(0)
    batch.fuse([blocks])
    assert batch.concat
    for b, fused in batch.concat.items():
        assert np.shares_memory(fused, blocks[b]), b
    # and the decode on top of the views is still right (and leaves them intact)
    before = {b: region.copy() for b, region in blocks.items()}
    with DecodePipeline(workers=2, pool="thread") as pipe:
        got = pipe.decode(code, blocks, faulty)
    assert_results_equal(reference_decode(code, [stripe], faulty), [got])
    for b, region in blocks.items():
        assert np.array_equal(region, before[b])


# -- targets: a read runs the rows of the plan that recover it ---------------


@pytest.mark.parametrize("pool", ["serial", "thread"])
def test_targets_fuse_per_pattern_and_target_set(code, faulty, pool):
    stripes = make_stripes(code, 5)
    expected = reference_decode(code, stripes, faulty)
    group_block, rest_block = faulty[0], faulty[-1]
    wanted = [[group_block], [rest_block], [group_block], faulty, [rest_block, group_block]]
    with DecodePipeline(workers=2, pool=pool) as pipe:
        got, stats = pipe.decode_batch(
            code, stripes, faulty, targets=wanted, return_stats=True
        )
        plans = [pipe.plan(code, faulty, targets=t) for t in wanted]
        metrics = pipe.metrics()
    for exp, out, targets in zip(expected, got, wanted):
        assert sorted(out) == sorted(targets)  # the targets and nothing else
        for b in targets:
            assert np.array_equal(out[b], exp[b])
    assert stats.patterns == 4  # stripes 0 and 2 fused; one pattern otherwise
    assert stats.plan_misses == 1 and stats.plan_hits == 4
    assert plans[0] is plans[2]
    # a fused batch applies its plan once, whatever its stripe count
    assert stats.mult_xors == sum(plan.predicted_cost for plan in plans[:2] + plans[3:])
    assert plans[0].predicted_cost < plans[3].predicted_cost
    assert metrics.blocks_recovered == sum(len(t) for t in wanted)
    assert metrics.blocks_read == sum(len(plan.read_ids) for plan in plans)
    assert metrics.as_dict()["blocks_read"] == metrics.blocks_read


def test_one_target_set_applies_to_every_stripe(code, faulty):
    stripes = make_stripes(code, 3)
    expected = reference_decode(code, stripes, faulty)
    with DecodePipeline(pool="serial") as pipe:
        got, stats = pipe.decode_batch(
            code, stripes, faulty, targets=faulty[:1], return_stats=True
        )
    assert stats.patterns == 1
    assert [list(out) for out in got] == [faulty[:1]] * 3
    assert_results_equal([{faulty[0]: exp[faulty[0]]} for exp in expected], got)


def test_target_set_count_and_membership_are_checked(code, faulty):
    stripes = make_stripes(code, 2)
    stray = next(b for b in range(code.num_blocks) if b not in faulty)
    with DecodePipeline(pool="serial") as pipe:
        with pytest.raises(ValueError, match="target sets"):
            pipe.decode_batch(code, stripes, faulty, targets=[[faulty[0]]])
        with pytest.raises(ValueError, match="not in the erasure pattern"):
            pipe.decode_batch(code, stripes, faulty, targets=[stray])


def test_degraded_read_runs_only_the_targeted_plan(code, faulty):
    """A degraded read asks for its one block: the counted work is that
    block's row of the plan, not the whole rebuild."""
    store = disk_loss_store(code, num_stripes=1, rng=3)
    store.erase(0, faulty)
    counter = OpCounter()
    with DecodePipeline(pool="serial", counter=counter) as pipe:
        block = faulty[0]
        got = degraded_read(store, pipe, 0, block)
        targeted = pipe.plan(code, faulty, targets=[block])
        whole = pipe.plan(code, faulty)
    assert np.array_equal(got, store.truth(0).get(block))
    assert counter.mult_xors == targeted.predicted_cost < whole.predicted_cost
