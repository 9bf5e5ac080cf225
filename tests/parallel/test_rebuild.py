"""Unit tests for the multi-stripe rebuild scheduler."""

import copy

import pytest

from repro.codes import SDCode
from repro.core import TraditionalDecoder, plan_decode
from repro.parallel import E5_2603, PipelineRebuilder, simulate_rebuild_time
from repro.stripes import DiskArray, worst_case_sd


@pytest.fixture(scope="module")
def failed_array():
    code = SDCode(6, 8, 2, 2)
    array = DiskArray(code, num_stripes=5, sector_symbols=32, rng=0)
    encoder = TraditionalDecoder()
    for stripe, truth in zip(array.stripes, array._truth):
        encoder.encode_into(code, stripe)
        for b in range(code.num_blocks):
            truth.put(b, stripe.get(b))
    array.fail_disk(1)
    array.fail_disk(4)
    array.inject_lse(5, rng=1)
    return array


@pytest.mark.parametrize("pool", ["serial", "thread"])
def test_all_strategies_recover(failed_array, pool):
    array = copy.deepcopy(failed_array)
    expected = sum(len(s.erased_ids) for s in array.stripes)
    result = PipelineRebuilder(threads=2, pool=pool).rebuild(array)
    assert result.blocks_repaired == expected
    assert array.fully_intact()
    assert result.wall_seconds > 0
    assert result.strategy


def test_noop_on_intact_array():
    code = SDCode(6, 4, 2, 2)
    array = DiskArray(code, num_stripes=2, sector_symbols=16, rng=3)
    encoder = TraditionalDecoder()
    for stripe, truth in zip(array.stripes, array._truth):
        encoder.encode_into(code, stripe)
        for b in range(code.num_blocks):
            truth.put(b, stripe.get(b))
    result = PipelineRebuilder(threads=2).rebuild(array)
    assert result.blocks_repaired == 0


def test_thread_validation():
    with pytest.raises(ValueError):
        PipelineRebuilder(threads=0)


def test_strategy_labels():
    assert PipelineRebuilder().strategy == "pipeline (batched)"


def test_simulated_rebuild_time_shapes():
    """With many stripes, stripe-level parallelism beats intra-stripe."""
    code = SDCode(16, 16, 2, 2)
    scen = worst_case_sd(code, z=1, rng=4)
    plan = plan_decode(code, scen.faulty_blocks)
    plans = [plan] * 32
    sym = 1 << 18
    hybrid = simulate_rebuild_time(plans, E5_2603, 4, sym, "hybrid")
    stripe_par = simulate_rebuild_time(plans, E5_2603, 4, sym, "stripe-parallel")
    intra = simulate_rebuild_time(plans, E5_2603, 4, sym, "intra-stripe")
    # hybrid keeps stripe-level parallelism AND the cheaper sequence
    assert hybrid.total_seconds < stripe_par.total_seconds
    assert hybrid.total_seconds < intra.total_seconds
    with pytest.raises(ValueError):
        simulate_rebuild_time(plans, E5_2603, 4, sym, "magic")


def test_pipeline_rebuilder_shares_a_live_pipeline(failed_array):
    from repro.pipeline import DecodePipeline

    array = copy.deepcopy(failed_array)
    expected = sum(len(s.erased_ids) for s in array.stripes)
    with DecodePipeline(pool="serial") as pipeline:
        rebuilder = PipelineRebuilder(pipeline=pipeline)
        result = rebuilder.rebuild(array)
        metrics = pipeline.metrics()
    assert result.blocks_repaired == expected
    assert array.fully_intact()
    assert result.strategy == "pipeline (batched, shared)"
    # shared-pipeline rebuilds ride the background admission class
    assert metrics.background_batches == metrics.batches > 0
