"""Regression tests for the races the PPM010-013 analyzer surfaced.

Each test hammers one of the fixed structures from many threads and
asserts the invariant the fix restored.  Before the fixes these were
actual data races (unlocked OrderedDict reorders, lost-update
tallies); with GIL scheduling they fail only probabilistically, so the
tests assert *accounting* invariants — counts that add up exactly —
which lost updates break reliably at this iteration volume.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.codes import get_code
from repro.core.decoder import PPMDecoder
from repro.core.sequences import SequencePolicy
from repro.gf import GF
from repro.kernels import ProgramCache
from repro.kernels.executor import ProgramExecutor
from repro.kernels.lower import lower_matrix_chain
from repro.pipeline import DecodePipeline
from repro.pipeline.plancache import PlanCache
from repro.repair.scrubber import StoreScrubber
from repro.service.store import BlobStore

THREADS = 8
ROUNDS = 200


def hammer(fn, threads=THREADS):
    """Run ``fn(i)`` concurrently from ``threads`` threads."""
    barrier = threading.Barrier(threads)

    def wrapped(i):
        barrier.wait()
        return fn(i)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(wrapped, i) for i in range(threads)]
        return [f.result() for f in futures]


@pytest.fixture
def code():
    return get_code("rs", n=6, k=4)


class TestPlanCacheLocking:
    def test_concurrent_gets_account_exactly(self, code):
        cache = PlanCache(maxsize=64)
        patterns = [(0,), (1,), (2,), (0, 1), (1, 2)]

        def worker(_i):
            for r in range(ROUNDS):
                cache.get(code, patterns[r % len(patterns)], SequencePolicy.PAPER)

        hammer(worker)
        stats = cache.stats
        # every lookup is either a hit or a miss — lost updates break this
        assert stats.hits + stats.misses == THREADS * ROUNDS
        # double-checked insert keeps one entry per pattern
        assert stats.evictions == 0
        assert len(cache) == len(patterns)

    def test_same_plan_returned_across_threads(self, code):
        cache = PlanCache(maxsize=8)
        plans = hammer(lambda _i: cache.get(code, (1,), SequencePolicy.PAPER))
        assert len({id(p) for p in plans}) == 1


class TestProgramCacheAdmission:
    def test_concurrent_misses_verify_and_account(self, code):
        cache = ProgramCache(maxsize=32)
        h = code.H.array

        def worker(_i):
            for _ in range(50):
                cache.matrix_program(code.field, h)

        hammer(worker)
        assert cache.stats.hits + cache.stats.misses == THREADS * 50
        assert len(cache) == 1


class TestExecutorSmallTables:
    def test_w4_table_cache_single_instance(self):
        from repro.kernels.backends import get_backend

        field = GF(4)
        executor = ProgramExecutor(field, backend="numpy")
        rng = np.random.default_rng(7)
        matrix = rng.integers(1, 16, size=(3, 4), dtype=field.dtype)
        program = lower_matrix_chain(field, [matrix])
        inputs = [
            rng.integers(0, 16, size=64, dtype=field.dtype) for _ in range(4)
        ]
        outs = hammer(lambda _i: [executor.execute(program, inputs) for _ in range(20)])
        # all threads agree on the result and the tables were built once
        first = outs[0][0]
        for result_list in outs:
            for result in result_list:
                for a, b in zip(first, result):
                    np.testing.assert_array_equal(a, b)
        baseline = get_backend("numpy")
        for const in program.constants:
            table = baseline._tables.get((4, field.polynomial, const))
            assert table is not None and not table.flags.writeable


class TestScrubberSerialization:
    def test_overlapping_scans_never_lose_counts(self, code):
        store = BlobStore.build(code, num_stripes=12, sector_symbols=16, rng=3)
        scrubber = StoreScrubber(store)

        def worker(i):
            scanned = 0
            for _ in range(20):
                if i % 2:
                    scanned += scrubber.scan_chunk(3).scanned
                else:
                    scanned += scrubber.scan_full_pass().scanned
            return scanned

        totals = hammer(worker, threads=4)
        # the tally must equal exactly the sum of what the scans reported
        assert scrubber.stripes_scrubbed == sum(totals)


class TestPipelineTallies:
    def test_concurrent_decode_batches_account_exactly(self, code):
        store = BlobStore.build(code, num_stripes=4, sector_symbols=32, rng=11)
        stripes = [store.stripe(sid) for sid in store.stripe_ids]
        for stripe in stripes:
            stripe.erase([1])
        pipeline = DecodePipeline(workers=2, pool="thread")

        def worker(_i):
            for _ in range(10):
                pipeline.decode_batch(code, stripes)

        hammer(worker, threads=4)
        metrics = pipeline.metrics()
        assert metrics.batches == 4 * 10
        assert metrics.stripes == 4 * 10 * len(stripes)
        pipeline.close()


class TestDecoderCaches:
    def test_shared_decoder_plans_once_per_pattern(self, code):
        decoder = PPMDecoder()
        plans = hammer(lambda _i: [decoder.plan(code, (1,)) for _ in range(50)])
        flat = [p for sub in plans for p in sub]
        assert len({id(p) for p in flat}) == 1
        executors = hammer(lambda _i: decoder._executor_for(code.field))
        assert len({id(e) for e in executors}) == 1


class TestBlobStoreWrites:
    def test_concurrent_writes_stay_consistent(self, code):
        store = BlobStore.build(code, num_stripes=4, sector_symbols=16, rng=5)
        region = store.read(0, 0).copy()

        def worker(i):
            for _ in range(50):
                store.write(i % 4, 0, region)
                store.snapshot_blocks(i % 4)

        hammer(worker, threads=4)
        for sid in range(4):
            assert store.verify_block(sid, 0, store.read(sid, 0))


class TestLatencyTrackerLocking:
    """The hedge trigger's EWMA/ring state mutates from every gather
    thread; lost updates would skew the trigger silently, so the
    accounting must stay exact under contention."""

    def test_concurrent_observes_account_exactly(self):
        from repro.pipeline import LatencyTracker

        tracker = LatencyTracker(window=THREADS * ROUNDS + 1)
        keys = ("a", "b", "c")

        def worker(i):
            for r in range(ROUNDS):
                tracker.observe(keys[r % len(keys)], 0.001 * (i + 1))

        hammer(worker)
        # window is wide enough that every observation survives: a lost
        # ring append or dropped EWMA update breaks the totals
        total = sum(tracker.samples(k) for k in keys)
        assert total == THREADS * ROUNDS
        for key in keys:
            assert tracker.ewma(key) is not None
            assert tracker.percentile(key, 0.5) is not None

    def test_window_bound_holds_under_contention(self):
        from repro.pipeline import LatencyTracker

        tracker = LatencyTracker(window=16)

        def worker(_i):
            for _ in range(ROUNDS):
                tracker.observe("k", 0.001)
                tracker.hedge_after("k", min_samples=1)

        hammer(worker)
        assert tracker.samples("k") == 16  # never exceeds the window

    def test_hedge_tallies_account_exactly(self):
        """The engine's _hedges/_hedge_wins/_verify_rejects counters sit
        behind _tally_lock; hammer the lock path via metrics snapshots
        taken while tallies mutate."""
        pipe = DecodePipeline(pool="serial")

        def worker(_i):
            for _ in range(ROUNDS):
                with pipe._tally_lock:
                    pipe._hedges += 1
                    pipe._hedge_wins += 1
                    pipe._verify_rejects += 1
                pipe.metrics()

        try:
            hammer(worker)
            metrics = pipe.metrics()
        finally:
            pipe.close()
        assert metrics.hedges == THREADS * ROUNDS
        assert metrics.hedge_wins == THREADS * ROUNDS
        assert metrics.verify_rejects == THREADS * ROUNDS
