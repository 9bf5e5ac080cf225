"""The one executor, seen through the plan's stages and the PPM presets.

``repro.pipeline.DecodePipeline`` is the only code that runs a plan;
these tests pin the behaviours the old per-class executors had: a stage
decodes its own blocks, serial and thread-parallel runs agree bit for
bit and op for op, and the engine's LPT placement spreads its units
(pattern batch x tile, each running the whole-plan program) over at
most as many workers as there are units, reaching every one of them
when there are enough units.  Algorithm 1's ``p mod T`` placement of
the groups is the parallel model's (``tests/parallel``), not the
engine's.
"""

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import PPMDecoder, TraditionalDecoder, plan_decode
from repro.gf import RegionOps
from repro.pipeline.engine import MIN_TILE_SYMBOLS
from repro.stripes import Stripe, StripeLayout, worst_case_sd


@pytest.fixture(scope="module")
def setup():
    code = SDCode(6, 8, 2, 2)
    scen = worst_case_sd(code, z=1, rng=0)
    plan = plan_decode(code, scen.faulty_blocks)
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, 32, rng=1)
    TraditionalDecoder().encode_into(code, stripe)
    truth = stripe.copy()
    stripe.erase(scen.faulty_blocks)
    blocks = {b: stripe.get(b) for b in stripe.present_ids}
    return code, plan, blocks, truth


def three_patterns(code):
    """Survivor maps of one encoded ``MIN_TILE_SYMBOLS``-symbol stripe
    under three distinct worst-case patterns, the patterns and the
    stripe: a batch of three untiled units, long enough to reach three
    workers."""
    truth = Stripe.random(StripeLayout.of_code(code), code.field, MIN_TILE_SYMBOLS, rng=2)
    TraditionalDecoder().encode_into(code, truth)
    patterns = []
    for seed in range(10):
        pattern = worst_case_sd(code, z=1, rng=seed).faulty_blocks
        if pattern not in patterns:
            patterns.append(pattern)
    patterns = patterns[:3]
    assert len(patterns) == 3
    maps = [{b: truth.get(b) for b in truth.present_ids if b not in p} for p in patterns]
    return maps, patterns, truth


def test_run_group(setup):
    """An independent stage recovers its blocks from true survivors only."""
    code, plan, blocks, truth = setup
    stage = plan.stages[0]
    assert stage.independent
    (weights,) = stage.arrays
    regions = [blocks[b] for b in stage.survivor_ids]  # KeyError on a faulty id
    outs = RegionOps(code.field).matrix_apply(weights, regions)
    assert stage.faulty_ids == plan.groups[0].faulty_ids
    for b, region in zip(stage.faulty_ids, outs):
        assert np.array_equal(region, truth.get(b))


def test_serial_equals_parallel(setup):
    code, plan, blocks, truth = setup
    serial = PPMDecoder(parallel=False).decode(code, blocks, plan.faulty_ids)
    with PPMDecoder(threads=4) as decoder:
        parallel = decoder.decode(code, blocks, plan.faulty_ids)
        busy = decoder.metrics().worker_busy_fraction
    assert sorted(serial) == sorted(parallel)
    for b in serial:
        assert np.array_equal(serial[b], parallel[b])
        assert np.array_equal(serial[b], truth.get(b))
    # a short one-stripe decode is one unit: one worker runs its program
    assert len(busy) == 4 and sum(1 for fraction in busy if fraction > 0) == 1


def test_thread_count_clamped(setup):
    code = setup[0]
    maps, patterns, truth = three_patterns(code)
    # more threads than units: only as many workers as units get work
    with PPMDecoder(threads=1000) as decoder:
        _, stats = decoder.decode_batch(code, maps, patterns, return_stats=True)
        busy = decoder.metrics().worker_busy_fraction
    assert stats.queue_depth == 3
    assert sum(1 for fraction in busy if fraction > 0) == 3


def test_single_thread_short_circuits(setup):
    code, plan, blocks, _ = setup
    decoder = PPMDecoder(threads=1)
    decoder.decode(code, blocks, plan.faulty_ids)
    assert decoder.pool.kind == "serial"
    assert decoder.pool.spawn_count == 0


def test_op_counter_complete_across_threads(setup):
    """Thread-parallel execution must not lose op counts."""
    code, plan, blocks, _ = setup
    serial = PPMDecoder(parallel=False)
    serial.decode(code, blocks, plan.faulty_ids)
    with PPMDecoder(threads=4) as parallel:
        parallel.decode(code, blocks, plan.faulty_ids)
    assert serial.counter.mult_xors == parallel.counter.mult_xors
    assert serial.counter.mult_xors == plan.predicted_cost


def test_units_reach_every_worker(setup):
    """With at least T units, every one of the T workers gets one."""
    code = setup[0]
    maps, patterns, truth = three_patterns(code)
    with PPMDecoder(threads=3) as decoder:
        outs = decoder.decode_batch(code, maps, patterns)
        busy = decoder.metrics().worker_busy_fraction
    assert len(busy) == 3 and all(fraction > 0 for fraction in busy)
    for out, pattern in zip(outs, patterns):
        assert sorted(out) == sorted(pattern)
        for b in pattern:
            assert np.array_equal(out[b], truth.get(b))
