"""Hedged execution, worker self-verification and decode deadlines.

Determinism notes: the SD(6,4,2,2) worst-case pattern plans into a
single parallel task, so every ``decode_batch`` call here is exactly
one worker execution — warmup counts below rely on that.  Injectors
are either seeded :class:`FaultInjector` instances or tiny scripted
doubles (the engine duck-types ``worker_delay`` /
``corrupt_worker_output``).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from repro.codes import SDCode
from repro.kernels import cache as cache_module
from repro.kernels.ir import OP_MUL, OP_MULXOR
from repro.pipeline import DecodePipeline, LatencyTracker, StragglerTimeout
from repro.pipeline.engine import (
    HEDGE_FACTOR,
    HEDGE_MIN_S,
    HEDGE_MIN_SAMPLES,
    HEDGE_PERCENTILE,
    MIN_TILE_SYMBOLS,
)
from repro.service.store import FaultInjector
from repro.stripes import worst_case_sd

from .test_engine import make_stripes

SYMBOLS = 64
WARMUP = 30  # executions before the measured call (HEDGE_MIN_SAMPLES <= 30)


@pytest.fixture(scope="module")
def workload():
    code = SDCode(6, 4, 2, 2)
    faulty = list(worst_case_sd(code, z=1, rng=7).faulty_blocks)
    stripes = make_stripes(code, 2, SYMBOLS, rng=7)
    expected = [
        {bid: np.array(stripe.get(bid)) for bid in faulty} for stripe in stripes
    ]
    return code, stripes, faulty, expected


class ScriptedInjector:
    """Stall execution number ``at`` (1-based) by ``delay_s``; no corruption."""

    def __init__(self, at: int, delay_s: float):
        self.at = at
        self.delay_s = delay_s
        self.calls = 0

    def worker_delay(self) -> float:
        self.calls += 1
        return self.delay_s if self.calls == self.at else 0.0

    def corrupt_worker_output(self, regions) -> bool:
        return False


def _assert_truth(expected, outs):
    for exp, out in zip(expected, outs):
        for bid, region in exp.items():
            assert np.array_equal(region, out[bid]), f"block {bid} corrupt"


def test_hedge_fires_on_straggler_and_wins(workload):
    code, stripes, faulty, expected = workload
    faults = ScriptedInjector(at=WARMUP + 1, delay_s=0.6)
    with DecodePipeline(
        workers=2,
        pool="thread",
        hedge=True,
        faults=faults,
    ) as pipe:
        for _ in range(WARMUP):
            _assert_truth(expected, pipe.decode_batch(code, stripes, faulty))
        assert pipe.metrics().hedges == 0  # healthy executions never hedge
        t0 = time.perf_counter()
        outs = pipe.decode_batch(code, stripes, faulty)
        wall = time.perf_counter() - t0
        metrics = pipe.metrics()
    _assert_truth(expected, outs)
    assert metrics.hedges == 1
    assert metrics.hedge_wins == 1
    # the hedge rescued the call from the 0.6 s stall
    assert wall < 0.5


def test_hedge_loser_output_is_discarded_not_merged(workload):
    """After a hedge win the stalled primary eventually finishes; its
    output must be dropped, and later calls stay correct."""
    code, stripes, faulty, expected = workload
    faults = ScriptedInjector(at=WARMUP + 1, delay_s=0.3)
    with DecodePipeline(
        workers=2,
        pool="thread",
        hedge=True,
        faults=faults,
    ) as pipe:
        for _ in range(WARMUP + 1):
            pipe.decode_batch(code, stripes, faulty)
        # the loser resolves mid-flight here; every later call must be clean
        for _ in range(5):
            _assert_truth(expected, pipe.decode_batch(code, stripes, faulty))
        assert pipe.metrics().hedge_wins == 1


def test_verify_workers_rejects_corrupted_output(workload):
    code, stripes, faulty, expected = workload
    faults = FaultInjector(rate=0.0, rng=3, corrupt_worker_rate=0.99)
    with DecodePipeline(
        workers=2, pool="thread", verify_workers=True, faults=faults
    ) as pipe:
        for _ in range(5):
            _assert_truth(expected, pipe.decode_batch(code, stripes, faulty))
        metrics = pipe.metrics()
    assert faults.corrupt_injected >= 1
    # every injected corruption was caught and recomputed on the
    # trusted path — none reached a caller (asserted above)
    assert metrics.verify_rejects == faults.corrupt_injected


def test_corruption_leaks_without_verify_workers(workload):
    """The negative control: with verification off the same injector
    demonstrably poisons results, so the syndrome check is load-bearing."""
    code, stripes, faulty, expected = workload
    faults = FaultInjector(rate=0.0, rng=3, corrupt_worker_rate=0.99)
    with DecodePipeline(workers=2, pool="thread", faults=faults) as pipe:
        outs = pipe.decode_batch(code, stripes, faulty)
    assert faults.corrupt_injected >= 1
    leaked = any(
        not np.array_equal(region, out[bid])
        for exp, out in zip(expected, outs)
        for bid, region in exp.items()
    )
    assert leaked


def plant_wrong_last_stage(monkeypatch):
    """Flip one constant in the last stage's rows (``H_rest`` when the
    plan has one) of every whole-plan program lowered from now on.

    The planted program passes the structural check and returns wrong
    bytes, so the worker check fails, and so does the trusted
    recompute, which runs the same cached program.
    """
    real = cache_module.lower_plan

    def planted(field, plan):
        compiled = real(field, plan)
        first = sum(m.size for stage in plan.stages[:-1] for m in stage.arrays)
        program = compiled.program
        instructions = list(program.instructions)
        for i, ((op, dst, src, const), origin) in enumerate(
            zip(instructions, program.origins)
        ):
            if origin >= first and op in (OP_MUL, OP_MULXOR):
                instructions[i] = (op, dst, src, 3 if const == 2 else 2)
                break
        else:
            raise AssertionError("the last stage has no multiply to flip")
        wrong = replace(program, instructions=tuple(instructions))
        wrong.validate()  # the fault is invisible to the structural check
        return replace(compiled, program=wrong)

    monkeypatch.setattr(cache_module, "lower_plan", planted)


def test_verify_workers_raises_when_the_recompute_still_fails(workload, monkeypatch):
    """A wrong cached whole-plan program fails the worker check *and*
    the trusted recompute, which runs the same program: decode_batch
    raises instead of merging the recompute."""
    code, stripes, faulty, _expected = workload
    plant_wrong_last_stage(monkeypatch)
    returned = []
    with DecodePipeline(workers=2, pool="thread", verify_workers=True) as pipe:
        with pytest.raises(ValueError, match="trusted recompute"):
            returned.append(pipe.decode_batch(code, stripes, faulty))
        assert pipe.metrics().verify_rejects >= 1
    assert returned == []


@pytest.mark.parametrize("count", [1, 8])
def test_verify_workers_checks_the_dependent_walk(count, monkeypatch):
    """``H_rest`` outputs are syndrome-checked too.  With one constant
    flipped in the ``H_rest`` rows of the whole-plan program, its output
    fails the check and the trusted recompute, which runs the same
    program: decode_batch raises and returns no wrong block.  One short
    stripe is one unit; eight fuse into a batch cut into two tiles."""
    code = SDCode(10, 8, 2, 2)
    faulty = list(worst_case_sd(code, rng=2015).faulty_blocks)
    symbols = SYMBOLS if count == 1 else 2 * MIN_TILE_SYMBOLS // count
    stripes = make_stripes(code, count, symbols, rng=3)
    plant_wrong_last_stage(monkeypatch)
    returned = []
    with DecodePipeline(workers=2, pool="thread", verify_workers=True) as pipe:
        assert not pipe.plan(code, faulty).stages[-1].independent  # H_rest
        with pytest.raises(ValueError, match="trusted recompute"):
            returned.append(pipe.decode_batch(code, stripes, faulty))
        assert pipe.metrics().verify_rejects >= 1
    assert returned == []


def test_verify_workers_clean_path_is_silent(workload):
    code, stripes, faulty, expected = workload
    with DecodePipeline(workers=2, pool="thread", verify_workers=True) as pipe:
        _assert_truth(expected, pipe.decode_batch(code, stripes, faulty))
        assert pipe.metrics().verify_rejects == 0


def test_hedge_baseline_counts_from_submission():
    """The tracker records submission-to-completion time, the clock the
    trigger reads: a bucket that waits in the pool for ``delay`` but
    reports ~0 s inside its worker is recorded as taking ``delay``."""
    delay = 0.05
    timers = []

    def submit(index, hedged):
        future = Future()
        timer = threading.Timer(delay, future.set_result, args=(({}, 0.0),))
        timers.append(timer)
        timer.start()
        return future

    with DecodePipeline(workers=2, pool="thread", hedge=True) as pipe:
        pipe._gather_hedged(submit, ["bucket"], None)
        recorded = pipe.latency.ewma("bucket")
    for timer in timers:
        timer.join()
    assert recorded >= delay


class AlwaysSlow:
    def __init__(self, delay_s: float):
        self.delay_s = delay_s

    def worker_delay(self) -> float:
        return self.delay_s

    def corrupt_worker_output(self, regions) -> bool:
        return False


def test_decode_batch_deadline_raises_straggler_timeout(workload):
    code, stripes, faulty, _expected = workload
    with DecodePipeline(
        workers=2, pool="thread", deadline_s=0.1, faults=AlwaysSlow(5.0)
    ) as pipe:
        with pytest.raises(StragglerTimeout) as exc_info:
            pipe.decode_batch(code, stripes, faulty)
        assert pipe.metrics().straggler_timeouts == 1
    assert exc_info.value.pending  # the stalled bucket is named


def test_per_call_deadline_overrides_constructor(workload):
    code, stripes, faulty, expected = workload
    with DecodePipeline(
        workers=2, pool="thread", deadline_s=0.05, faults=AlwaysSlow(0.3)
    ) as pipe:
        # a generous per-call deadline lets the stalled worker finish
        outs = pipe.decode_batch(code, stripes, faulty, deadline_s=30.0)
        assert pipe.metrics().straggler_timeouts == 0
    _assert_truth(expected, outs)


class StallAfterFirst:
    """Worker execution 1 fails (``fail=True``) or runs; every later one
    blocks until :attr:`release` is set, then runs normally."""

    def __init__(self, fail: bool):
        self.fail = fail
        self.calls = 0
        self.lock = threading.Lock()
        self.release = threading.Event()

    def worker_delay(self) -> float:
        with self.lock:
            self.calls += 1
            first = self.calls == 1
        if first and self.fail:
            raise RuntimeError("injected worker failure")
        if not first:
            self.release.wait(10.0)
        return 0.0

    def corrupt_worker_output(self, regions) -> bool:
        return False


@pytest.fixture(scope="module")
def grouped():
    """Two stripes with two different erasure patterns: two pattern
    batches of ``MIN_TILE_SYMBOLS`` each, long enough that a two-worker
    pool runs them as two concurrent buckets of one unit each.  The
    third item is one pattern per stripe."""
    code = SDCode(8, 4, 2, 2)
    patterns = [list(worst_case_sd(code, z=1, rng=seed).faulty_blocks) for seed in (7, 11)]
    assert sorted(patterns[0]) != sorted(patterns[1])
    stripes = make_stripes(code, 2, MIN_TILE_SYMBOLS, rng=7)
    expected = [
        {bid: np.array(stripe.get(bid)) for bid in pattern}
        for stripe, pattern in zip(stripes, patterns)
    ]
    return code, stripes, patterns, expected


def test_first_worker_failure_abandons_sibling_buckets(grouped):
    """A worker exception re-raises at once: the gather does not wait
    for (it cancels, or abandons if running) the sibling bucket, and the
    pipeline stays usable."""
    code, stripes, faulty, expected = grouped
    faults = StallAfterFirst(fail=True)
    with DecodePipeline(workers=2, pool="thread", faults=faults) as pipe:
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            pipe.decode_batch(code, stripes, faulty)
        assert time.perf_counter() - t0 < 5.0  # the stalled sibling is not joined
        faults.release.set()
        _assert_truth(expected, pipe.decode_batch(code, stripes, faulty))


def test_deadline_names_finished_and_pending_buckets(grouped):
    code, stripes, faulty, _expected = grouped
    faults = StallAfterFirst(fail=False)
    with DecodePipeline(workers=2, pool="thread", faults=faults) as pipe:
        try:
            with pytest.raises(StragglerTimeout) as exc_info:
                pipe.decode_batch(code, stripes, faulty, deadline_s=0.5)
        finally:
            faults.release.set()
        assert pipe.metrics().straggler_timeouts == 1
    exc = exc_info.value
    assert isinstance(exc, TimeoutError)  # catchable as the stdlib type
    assert exc.deadline_s == 0.5
    assert len(exc.completed) == 1 and len(exc.pending) == 1
    assert set(exc.completed) | set(exc.pending) == {0, 1}
    recovered, _elapsed = exc.results[exc.completed[0]]  # the finished bucket's output
    assert recovered and set(exc.results) == set(exc.completed)
    assert "1 of 2 bucket(s)" in str(exc)


def test_serial_pipeline_deadline_is_best_effort(workload):
    """A serial pool runs every bucket on the caller's thread, so there
    is no concurrent worker to abandon: a deadline can never expire
    mid-gather, but it is accepted for pool interchangeability."""
    code, stripes, faulty, expected = workload
    with DecodePipeline(pool="serial", deadline_s=0.001, faults=AlwaysSlow(0.01)) as pipe:
        _assert_truth(expected, pipe.decode_batch(code, stripes, faulty))
        assert pipe.metrics().straggler_timeouts == 0


def test_constructor_validation():
    assert HEDGE_MIN_SAMPLES <= WARMUP
    for knob in ("hedge_percentile", "hedge_factor", "hedge_min_samples"):
        with pytest.raises(TypeError, match=knob):  # constants, not parameters
            DecodePipeline(pool="serial", **{knob: 1})
    with pytest.raises(ValueError, match="deadline_s"):
        DecodePipeline(pool="serial", deadline_s=0.0)


# -- the latency tracker -----------------------------------------------------


def test_latency_tracker_ewma_and_percentile():
    tracker = LatencyTracker(alpha=0.5, window=8)
    assert tracker.ewma("k") is None
    assert tracker.percentile("k", 0.99) is None
    tracker.observe("k", 1.0)
    assert tracker.ewma("k") == pytest.approx(1.0)
    tracker.observe("k", 3.0)
    assert tracker.ewma("k") == pytest.approx(2.0)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0):
        tracker.observe("other", value)
    # nearest-rank quantile over the window
    assert tracker.percentile("other", 0.5) == pytest.approx(3.0)
    assert tracker.samples("other") == 5


def test_latency_tracker_window_slides():
    tracker = LatencyTracker(window=4)
    for _ in range(4):
        tracker.observe("k", 100.0)
    for _ in range(4):
        tracker.observe("k", 1.0)  # evicts every 100.0
    assert tracker.percentile("k", 1.0) == pytest.approx(1.0)
    assert tracker.samples("k") == 4  # ring is bounded by the window


def test_hedge_after_needs_min_samples():
    tracker = LatencyTracker()
    knobs = dict(
        percentile=HEDGE_PERCENTILE, factor=HEDGE_FACTOR, min_samples=HEDGE_MIN_SAMPLES
    )
    for _ in range(HEDGE_MIN_SAMPLES - 1):
        tracker.observe("k", 0.01)
    assert tracker.hedge_after("k", **knobs) is None
    tracker.observe("k", 0.01)
    assert tracker.hedge_after("k", **knobs) == pytest.approx(0.01 * HEDGE_FACTOR)


def test_hedge_trigger_never_undercuts_its_floor():
    """Sub-millisecond work must not arm a trigger inside host
    scheduling jitter; slow work keeps its ``factor`` trigger."""
    tracker = LatencyTracker()
    for _ in range(HEDGE_MIN_SAMPLES):
        tracker.observe("fast", 0.0005)
        tracker.observe("slow", HEDGE_MIN_S)
    assert tracker.hedge_after("fast", floor=HEDGE_MIN_S) == HEDGE_MIN_S
    assert tracker.hedge_after("slow", floor=HEDGE_MIN_S) == pytest.approx(
        HEDGE_MIN_S * HEDGE_FACTOR
    )


def test_verify_workers_still_checks_targeted_reads(workload):
    """A pruned stage's rows touch erased blocks it does not recover, so
    the syndrome check widens the targets by whole stages instead of
    being skipped: corrupt worker output is still caught, and the caller
    still gets only what it asked for."""
    code, stripes, faulty, expected = workload
    faults = FaultInjector(rate=0.0, rng=3, corrupt_worker_rate=0.99)
    with DecodePipeline(
        workers=2, pool="thread", verify_workers=True, faults=faults
    ) as pipe:
        whole = pipe.plan(code, faulty)
        for block in faulty:
            out, stats = pipe.decode(
                code, stripes[0], faulty, targets=[block], return_stats=True
            )
            assert list(out) == [block]
            assert np.array_equal(out[block], expected[0][block]), block
            # every independent stage that ran closes over its rows' blocks
            for stage in stats.plan.stages:
                if stage.independent:
                    touched = code.H.array[list(stage.row_ids)].any(axis=0)
                    assert {b for b in faulty if touched[b]} <= set(stage.faulty_ids)
        metrics = pipe.metrics()
        group_block = whole.groups[0].faulty_ids[0]
        _, stats = pipe.decode(
            code, stripes[0], faulty, targets=[group_block], return_stats=True
        )
    assert faults.corrupt_injected >= len(faulty)
    assert metrics.verify_rejects == faults.corrupt_injected - 1  # the last decode
    # stage granularity: a group target ran its group, not the pattern
    assert stats.plan.targets == whole.groups[0].faulty_ids
    assert stats.plan.predicted_cost < whole.predicted_cost
