"""Symbol-range tiles: a long pattern batch runs as one unit per tile.

A batch of at least ``2 * MIN_TILE_SYMBOLS`` fused symbols on a thread
pool is cut at even stripe offsets into up to one tile per worker, and
each (batch, tile) unit runs the batch's whole-plan program over its
symbol range.  These tests pin that the tiled path returns the serial
pool's bytes, books the paper's counts once per (batch, stage), runs
exactly one program execution per unit, tiles the ``PPMDecoder`` preset
like any thread pipeline, leaves short batches at one unit and keeps
the worker fault checks working per tile.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import PPMDecoder
from repro.kernels import default_backend, set_default_backend
from repro.pipeline import DecodePipeline
from repro.pipeline.engine import MIN_TILE_SYMBOLS
from repro.service.store import FaultInjector
from repro.stripes import worst_case_sd

from .test_engine import make_stripes

TILED = 2 * MIN_TILE_SYMBOLS  # the shortest fused batch that tiles


@pytest.fixture(scope="module")
def code():
    return SDCode(8, 4, 2, 2)  # worst case: two groups and an H_rest stage


@pytest.fixture(scope="module")
def faulty(code):
    return list(worst_case_sd(code, z=1, rng=7).faulty_blocks)


@pytest.fixture
def backend(request):
    previous = default_backend()
    set_default_backend(request.param)
    yield request.param
    set_default_backend(previous)


def long_batch(code, faulty, count, odd=False, rng=1, total=TILED):
    """``count`` encoded stripes fusing to at least ``total`` symbols,
    plus their survivor maps and the ground truth of ``faulty``."""
    symbols = -(-total // count)
    symbols += (symbols % 2) ^ odd  # the requested sector-length parity
    stripes = make_stripes(code, count, symbols, rng=rng)
    truth = [{b: s.get(b).copy() for b in faulty} for s in stripes]
    maps = [{b: s.get(b) for b in s.present_ids if b not in faulty} for s in stripes]
    return maps, truth


def assert_truth(truth, outs, wanted):
    for exp, out in zip(truth, outs):
        assert set(out) == set(wanted)
        for b in wanted:
            assert np.array_equal(out[b], exp[b]), f"block {b} differs"


@pytest.mark.parametrize("backend", ["numpy", "bitsliced"], indirect=True)
@pytest.mark.parametrize("count", [2, 3, 31, 33])
@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("targeted", [False, True], ids=["whole", "targeted"])
def test_tiled_batch_is_bit_identical_to_the_whole_plan(
    code, faulty, backend, count, odd, targeted
):
    maps, truth = long_batch(code, faulty, count, odd)
    with DecodePipeline(workers=2, pool="thread") as pipe:
        whole = pipe.plan(code, faulty)
        rest = next(s for s in whole.stages if not s.independent)
        targets = [rest.faulty_ids[0]] if targeted else None
        plan = pipe.plan(code, faulty, targets=targets)
        tiled, stats = pipe.decode_batch(
            code, maps, faulty, targets=targets, return_stats=True
        )
        assert pipe.executor_stats()["backends"].keys() == {backend}
    with DecodePipeline(pool="serial") as serial:
        reference = serial.decode_batch(code, maps, faulty, targets=targets)
    wanted = plan.targets
    assert_truth(truth, tiled, wanted)
    assert_truth(truth, reference, wanted)
    # two stripes of odd length meet only at an odd offset: one tile
    assert stats.queue_depth == (1 if count == 2 and odd else 2)


def test_tiled_counts_are_booked_once_per_stage(code, faulty):
    maps, _truth = long_batch(code, faulty, 8)
    with DecodePipeline(pool="serial") as serial:
        _, untiled = serial.decode_batch(code, maps, faulty, return_stats=True)
    with DecodePipeline(workers=2, pool="thread", hedge=True) as pipe:
        plan = pipe.plan(code, faulty)
        _, stats = pipe.decode_batch(code, maps, faulty, return_stats=True)
        assert stats.queue_depth == 2  # it did tile
        assert stats.mult_xors == plan.predicted_cost
        assert stats.symbols == untiled.symbols
        # every bucket hedges at once: twins run, and book nothing
        pipe.latency.hedge_after = lambda *_args, **_kw: 0.0
        _, hedged = pipe.decode_batch(code, maps, faulty, return_stats=True)
        assert pipe.metrics().hedges > 0
        assert (hedged.mult_xors, hedged.symbols) == (stats.mult_xors, stats.symbols)


def test_two_tiled_patterns_book_each_plan_once(code, faulty):
    other = list(worst_case_sd(code, z=1, rng=11).faulty_blocks)
    assert sorted(other) != sorted(faulty)
    maps_a, _ = long_batch(code, faulty, 4, rng=1)
    maps_b, _ = long_batch(code, other, 4, rng=2)
    with DecodePipeline(workers=2, pool="thread") as pipe:
        plans = [pipe.plan(code, faulty), pipe.plan(code, other)]
        _, stats = pipe.decode_batch(
            code, maps_a + maps_b, [faulty] * 4 + [other] * 4, return_stats=True
        )
    assert stats.mult_xors == sum(p.predicted_cost for p in plans)
    assert stats.queue_depth == 2 * len(plans)  # two tiles per pattern


def test_ppm_preset_tiles_and_short_batches_stay_whole(code, faulty):
    maps, truth = long_batch(code, faulty, 8)
    # the preset is the engine every pipeline runs: two tiles, the same
    # bytes and the same tallies as its serial twin
    with PPMDecoder(threads=2) as ppm:
        outs, stats = ppm.decode_batch(code, maps, faulty, return_stats=True)
    with PPMDecoder(threads=1) as serial:
        reference = serial.decode_batch(code, maps, faulty)
    assert_truth(truth, outs, faulty)
    assert stats.queue_depth == 2
    for out, ref in zip(outs, reference):
        assert out.keys() == ref.keys()
        assert all(np.array_equal(out[b], ref[b]) for b in ref)
    assert ppm.counter.snapshot() == serial.counter.snapshot()
    # a short multi-pattern batch on the LPT pool stays one unit per pattern
    other = list(worst_case_sd(code, z=1, rng=11).faulty_blocks)
    short = make_stripes(code, 4, 64)
    patterns = [faulty, other, faulty, other]
    survivors = [
        {b: s.get(b) for b in s.present_ids if b not in p} for s, p in zip(short, patterns)
    ]
    with DecodePipeline(workers=2, pool="thread") as pipe:
        _, stats = pipe.decode_batch(code, survivors, patterns, return_stats=True)
    assert stats.queue_depth == 2  # two patterns


def test_a_wide_pool_keeps_tiles_near_the_crossover(code, faulty):
    maps, truth = long_batch(code, faulty, 8)  # 2 x MIN_TILE_SYMBOLS fused
    with DecodePipeline(workers=4, pool="thread") as pipe:
        outs, stats = pipe.decode_batch(code, maps, faulty, return_stats=True)
    assert_truth(truth, outs, faulty)
    assert stats.queue_depth == 2  # two tiles, not four


def scatter_batch(code, count, symbols):
    """``count`` stripes of ``symbols`` symbols, each with its own
    worst-case pattern, as survivor maps and patterns."""
    patterns: dict[tuple[int, ...], None] = {}
    rng = np.random.default_rng(2015)
    while len(patterns) < count:
        patterns[worst_case_sd(code, rng=rng).faulty_blocks] = None
    stripes = make_stripes(code, count, symbols)
    maps = [
        {b: s.get(b) for b in s.present_ids if b not in p} for s, p in zip(stripes, patterns)
    ]
    return maps, list(patterns)


@pytest.mark.parametrize(
    "shape,pool,units",
    [
        ("scatter", "thread", 16),  # 16 patterns x 128 symbols: one unit each
        ("tiled", "thread", 2),  # one pattern cut into two tiles
        ("tiled", "serial", 1),  # the serial pool never cuts
    ],
)
def test_one_program_execution_per_unit(shape, pool, units):
    """A ``decode_batch`` runs exactly one program execution per unit
    (pattern batch x tile), and ``queue_depth`` counts those units."""
    code = SDCode(10, 8, 2, 2)
    if shape == "scatter":
        maps, patterns = scatter_batch(code, 16, 128)
    else:
        faulty = list(worst_case_sd(code, z=1, rng=7).faulty_blocks)
        maps, _truth = long_batch(code, faulty, 2)
        patterns = [faulty] * len(maps)
    with DecodePipeline(workers=2, pool=pool) as pipe:
        before = pipe.executor_stats().get("executions", 0)
        _, stats = pipe.decode_batch(code, maps, patterns, return_stats=True)
        executions = pipe.executor_stats()["executions"] - before
    assert stats.queue_depth == executions == units


def test_hedge_key_is_each_buckets_own_work(code):
    """Two patterns of 1 and 8 stripes run as two one-unit buckets (the
    eight fuse to just under ``2 * MIN_TILE_SYMBOLS``, so neither batch
    tiles, and all nine reach two buckets' worth); each bucket's latency
    key is its own ``predicted_cost`` x its own fused length, so the two
    histories never mix."""
    small = SDCode(6, 4, 2, 2)
    first = list(worst_case_sd(small, z=1, rng=7).faulty_blocks)
    second = list(worst_case_sd(small, z=1, rng=8).faulty_blocks)
    assert sorted(first) != sorted(second)
    symbols = 4000
    assert 8 * symbols < TILED <= 9 * symbols
    stripes = make_stripes(small, 9, symbols)
    patterns = [first] + [second] * 8
    maps = [
        {b: s.get(b) for b in s.present_ids if b not in p} for s, p in zip(stripes, patterns)
    ]
    seen = []
    with DecodePipeline(workers=2, pool="thread") as pipe:
        observe = pipe.latency.observe
        pipe.latency.observe = lambda key, seconds: (seen.append(key), observe(key, seconds))
        pipe.decode_batch(small, maps, patterns)
        expected = []
        for pattern, stripe_count in ((first, 1), (second, 8)):
            work = pipe.plan(small, pattern).predicted_cost * symbols * stripe_count
            expected.append(work.bit_length())
    assert expected[0] != expected[1]
    assert sorted(seen) == sorted(expected)


def test_fault_checks_hold_per_tile(code, faulty):
    maps, truth = long_batch(code, faulty, 8, odd=True)
    faults = FaultInjector(
        rate=0.0,
        rng=5,
        corrupt_worker_rate=0.5,
        slow_worker_rate=0.3,
        slow_worker_s=0.002,
    )
    with DecodePipeline(
        workers=2, pool="thread", verify_workers=True, faults=faults
    ) as pipe:
        plan = pipe.plan(code, faulty)
        for _ in range(6):
            outs, stats = pipe.decode_batch(code, maps, faulty, return_stats=True)
            assert_truth(truth, outs, faulty)  # no corrupt region reaches a caller
            assert stats.queue_depth == 2  # one unit per tile
            assert stats.mult_xors == plan.predicted_cost
        metrics = pipe.metrics()
    assert faults.corrupt_injected >= 1 and faults.slow_injected >= 1
    assert metrics.verify_rejects == faults.corrupt_injected


def test_tiles_hold_under_thread_stress(code, faulty):
    """Four workers and four tiles (more than two cores), a tiny switch
    interval and two callers at once: every tile lands in its own stripes
    and every (batch, stage) unit is booked exactly once."""
    maps, truth = long_batch(code, faulty, 8, total=4 * MIN_TILE_SYMBOLS)
    errors: list[BaseException] = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with DecodePipeline(workers=4, pool="thread") as pipe:
            plan = pipe.plan(code, faulty)

            def caller():
                try:
                    for _ in range(3):
                        outs, stats = pipe.decode_batch(code, maps, faulty, return_stats=True)
                        assert_truth(truth, outs, faulty)
                        assert stats.queue_depth == 4  # one unit per tile
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            callers = [threading.Thread(target=caller) for _ in range(2)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            metrics = pipe.metrics()
    finally:
        sys.setswitchinterval(previous)
    assert not errors, errors
    assert metrics.mult_xors == 6 * plan.predicted_cost
    fused = sum(next(iter(m.values())).shape[0] for m in maps)
    assert metrics.symbols == 6 * plan.predicted_cost * fused
