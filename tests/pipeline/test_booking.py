"""One booking rule: every pool books the paper's count alike.

Every pool runs units — one pattern batch over one symbol-range tile,
running the batch's whole-plan program.  A serial pool runs each batch
as one unit; a thread pool cuts a batch into tiles once the fused batch
reaches ``2 * MIN_TILE_SYMBOLS``.  Either way each (batch, stage) is
booked once from the plan's stage matrices, so the same batches leave
the same ``OpCounter`` tallies on both pools: ``mult_xors`` is
``predicted_cost``, ``symbols`` is ``predicted_cost`` times the fused
length, and ``xor_only`` counts the stages' unit coefficients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes import SDCode
from repro.pipeline import DecodePipeline
from repro.pipeline.engine import MIN_TILE_SYMBOLS
from repro.stripes import worst_case_sd

#: ``scatter_small``'s pattern pool: the first 512 distinct worst-case
#: SD(10,8,2,2) patterns drawn from ``default_rng(2015)``.
POOL_SIZE = 512
#: Every ``STRIDE``-th pool pattern is booked at w = 8.
STRIDE = 32


def pool(code, size: int) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(2015)
    patterns: dict[tuple[int, ...], None] = {}
    while len(patterns) < size:
        patterns[worst_case_sd(code, rng=rng).faulty_blocks] = None
    return list(patterns)


def cases() -> list:
    w8 = pool(SDCode(10, 8, 2, 2), POOL_SIZE)
    return [
        pytest.param(8, w8[i], id=f"w8-pool{i}") for i in range(0, POOL_SIZE, STRIDE)
    ] + [
        pytest.param(w, pool(SDCode(10, 8, 2, 2, w=w), 1)[0], id=f"w{w}")
        for w in (4, 16, 32)
    ]


def stage_counts(plan) -> tuple[int, int]:
    """``(mult_xors, xor_only)`` per symbol, read off the stage matrices."""
    matrices = [m.array for stage in plan.stages for m in stage.matrices]
    return (
        sum(int(np.count_nonzero(m)) for m in matrices),
        sum(int(np.count_nonzero(m == 1)) for m in matrices),
    )


def booked(pipe, code, maps, faulty, targets):
    """What one ``decode_batch`` added to the pipeline's counter, its
    outputs and its stats."""
    before = pipe.counter.snapshot()
    outs, stats = pipe.decode_batch(code, maps, faulty, targets=targets, return_stats=True)
    after = pipe.counter.snapshot()
    return tuple(a - b for a, b in zip(after, before)), outs, stats


@pytest.mark.parametrize("w,faulty", cases())
def test_both_routes_book_the_plan_stages_alike(w, faulty):
    code = SDCode(10, 8, 2, 2, w=w)
    rng = np.random.default_rng(w)
    # two stripes of MIN_TILE_SYMBOLS fuse to the shortest batch that tiles
    maps = [
        {
            b: rng.integers(0, 1 << w, size=MIN_TILE_SYMBOLS, dtype=code.field.dtype)
            for b in range(code.num_blocks)
            if b not in faulty
        }
        for _ in range(2)
    ]
    length = 2 * MIN_TILE_SYMBOLS
    with DecodePipeline(pool="serial") as serial, DecodePipeline(
        workers=2, pool="thread"
    ) as staged:
        for targets in (None, faulty[-1:]):
            plan = serial.plan(code, faulty, targets=targets)
            whole, whole_outs, whole_stats = booked(serial, code, maps, faulty, targets)
            tiled, tiled_outs, tiled_stats = booked(staged, code, maps, faulty, targets)
            assert whole_stats.queue_depth == 1  # one unit: the batch
            assert tiled_stats.queue_depth == 2  # one unit per tile
            mult_xors, xor_only = stage_counts(plan)
            assert mult_xors == plan.predicted_cost
            assert whole == tiled == (mult_xors, xor_only, mult_xors * length)
            for a, b in zip(whole_outs, tiled_outs):
                assert a.keys() == b.keys() == set(plan.targets)
                assert all(np.array_equal(a[k], b[k]) for k in a)
