"""The one executor, seen through the plan's stages and the PPM presets.

``repro.pipeline.DecodePipeline`` is the only code that runs a plan;
these tests pin the behaviours the old per-class executors had: a stage
decodes its own blocks, serial and thread-parallel runs agree bit for
bit and op for op, and the engine's LPT placement spreads the groups
over at most as many workers as there are groups, reaching every one of
them when there are enough groups.  Algorithm 1's ``p mod T`` is the
parallel model's (``tests/parallel``), not the engine's.
"""

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import PPMDecoder, TraditionalDecoder, plan_decode
from repro.gf import RegionOps
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
    assert len(busy) == 4 and all(fraction > 0 for fraction in busy)


def test_thread_count_clamped(setup):
    code, plan, blocks, _ = setup
    # more threads than groups: only as many workers as groups get work
    with PPMDecoder(threads=1000) as decoder:
        decoder.decode(code, blocks, plan.faulty_ids)
        busy = decoder.metrics().worker_busy_fraction
    assert sum(1 for fraction in busy if fraction > 0) == len(plan.groups)


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


def test_groups_reach_every_worker(setup):
    """With at least T groups, every one of the T workers gets one."""
    code, plan, blocks, truth = setup
    with PPMDecoder(threads=3) as decoder:
        recovered = decoder.decode(code, blocks, plan.faulty_ids)
        busy = decoder.metrics().worker_busy_fraction
    assert len(plan.groups) >= 3
    assert len(busy) == 3 and all(fraction > 0 for fraction in busy)
    for b in plan.partition.independent_faulty_ids:
        assert np.array_equal(recovered[b], truth.get(b))
