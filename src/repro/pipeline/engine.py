"""The decode engine: the one place a plan plus blocks become regions.

:mod:`repro.core` *plans* (``DecodePlan.stages`` says which matrices run
on which blocks); :class:`DecodePipeline` *executes* — it is the only
code that walks those stages over sector data, so policy is a property
of the plan and parallelism a property of the pool.  The decoder
classes of :mod:`repro.core` are presets of it.  It amortises the
paper's two fixed costs and the per-stripe dispatch cost at once:

- plans come from a shared :class:`~repro.pipeline.plancache.PlanCache`
  (LRU, hit/miss counted, optionally statically certified);
- workers live in a persistent :class:`~repro.pipeline.pool.WorkerPool`
  that is spawned once and reused across every batch;
- stripes sharing an erasure pattern are *fused*: their survivor sectors
  are concatenated per block id, so one ``F^-1 S`` region sweep recovers
  the whole batch (``u(W)`` region operations total instead of
  ``u(W) x stripes``, each over a region ``stripes`` times longer);
- a caller that wants only some of the erased blocks back says so with
  ``targets=`` and runs the plan pruned to them — the same stages walk,
  fewer rows — which is what makes a one-block degraded read cost one
  row of its group instead of the whole rebuild.

Work is scheduled in *units*: one unit is one pattern batch over one
symbol range (tile), running the batch's cached whole-plan program over
that range — decoding is symbol-wise, so the tiles' outputs are the
batch's outputs.  A thread pool cuts a batch of at least
``2 * MIN_TILE_SYMBOLS`` fused symbols into up to one tile per worker;
shorter batches, and every batch on a serial pool, are one unit.  Units
are spread over workers with the LPT greedy from
:mod:`repro.parallel.assignment`, and hedging, deadlines, fault
injection and the worker check all act on them.  The engine
parallelises by tile; Algorithm 1's ``p mod T`` placement of the
independent sub-matrices is the parallel model's
(:mod:`repro.parallel.simulate`), not the engine's.
"""

from __future__ import annotations

import bisect
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..codes.base import ErasureCode
from ..config import check_straggler_knobs
from ..core.planner import DecodePlan
from ..core.sequences import ExecutionMode, SequencePolicy
from ..gf.field import GF
from ..gf.region import OpCounter
from ..kernels import PlanProgram, ProgramCache, ProgramExecutor
from ..kernels.backends import WIDE_TABLE_SYMBOLS as MIN_TILE_SYMBOLS
from ..matrix.gfmatrix import GFMatrix
from ..parallel.assignment import assign_lpt
from ..stripes.store import Stripe
from .admission import PriorityAdmission
from .metrics import LatencyTracker, PipelineMetrics
from .plancache import PlanCache
from .pool import StragglerTimeout, WorkerPool, make_pool

#: LRU capacity of every pipeline's :class:`PlanCache`.
PLAN_CACHE_SIZE = 128

#: How long a ``priority="background"`` batch may be held waiting for
#: in-flight foreground batches to drain (see
#: :class:`~repro.pipeline.admission.PriorityAdmission`).
MAX_DEFER_S = 0.05

#: The hedge trigger: once a shape has :data:`HEDGE_MIN_SAMPLES`
#: latency observations, a primary still running after
#: ``max(pX, ewma) * HEDGE_FACTOR`` (pX at :data:`HEDGE_PERCENTILE`)
#: gets a speculative twin, but never before :data:`HEDGE_MIN_S`.
#: Below that floor a delay is host scheduling jitter (a GIL hand-off,
#: a descheduled vCPU), which a twin would suffer alike: on a 2-vCPU
#: host a 0.8 ms decode took over 5 ms in 1 call of 750 and over 20 ms
#: in 1 of 3000, so a bare ``2 * p95`` trigger twinned healthy calls.
HEDGE_PERCENTILE = 0.95
HEDGE_FACTOR = 2.0
HEDGE_MIN_SAMPLES = 8
HEDGE_MIN_S = 0.05


@dataclass(frozen=True)
class BatchStats:
    """What one ``decode_batch`` call did."""

    stripes: int
    patterns: int
    plan_hits: int
    plan_misses: int
    mult_xors: int
    symbols: int
    wall_seconds: float
    queue_depth: int


@dataclass(frozen=True)
class DecodeStats(BatchStats):
    """What one single-stripe ``decode`` did, with the plan it ran."""

    plan: DecodePlan

    @property
    def mode(self) -> ExecutionMode:
        return self.plan.mode


def _blocks_of(stripe: Stripe | Mapping[int, np.ndarray]) -> Mapping[int, np.ndarray]:
    if isinstance(stripe, Stripe):
        return {b: stripe.get(b) for b in stripe.present_ids}
    return stripe


class _PatternBatch:
    """All stripes of one batch that share one erasure pattern and one
    set of wanted blocks."""

    def __init__(self, pattern: tuple[int, ...], plan: DecodePlan):
        self.pattern = pattern
        self.targets = plan.targets  # what the caller gets back
        self.plan = plan  # may be widened to recover more (verify_workers)
        self.indices: list[int] = []  # positions in the submitted batch
        self.offsets: list[int] = [0]  # concat boundaries, len(indices)+1
        self.concat: Mapping[int, np.ndarray] = {}  # survivor id -> fused region
        self.bounds: list[int] = [0]  # tile boundaries, a subset of offsets
        self.recovered: list[dict[int, np.ndarray]] = []  # per tile: faulty id -> region

    def fuse(self, blocks_list: list[Mapping[int, np.ndarray]]) -> None:
        """Concatenate the survivor regions this plan reads, per block id.

        A lone stripe is not copied: its fused regions *are* its input
        regions (no executor writes to an input).
        """
        read_ids = self.plan.read_ids
        maps = [blocks_list[i] for i in self.indices]
        for blocks in maps:
            # each _PatternBatch belongs to exactly one decode_batch call
            self.offsets.append(  # ppm: noqa[PPM010]
                self.offsets[-1] + blocks[read_ids[0]].shape[0]
            )
        self.concat = (  # ppm: noqa[PPM010] - batch owned by one call
            {b: maps[0][b] for b in read_ids}
            if len(maps) == 1
            else {b: np.concatenate([blocks[b] for blocks in maps]) for b in read_ids}
        )

    def cut(self, tiles: int) -> None:
        """Cut the fused range into up to ``tiles`` symbol ranges of
        about ``MIN_TILE_SYMBOLS`` or more each.

        ``MIN_TILE_SYMBOLS`` is the wide-table crossover, so no tile is
        too short for the backend a long batch runs on.  Boundaries sit
        on even stripe offsets nearest the equal split: a stripe's output
        stays inside one tile, and a tile's regions stay 2-byte aligned
        for the paired-gather backend, whose uint16 views of unaligned
        memory run ~6-7% slower (they do not fail).  A batch shorter
        than ``2 * MIN_TILE_SYMBOLS`` stays one tile.
        """
        total = self.offsets[-1]
        tiles = min(tiles, total // MIN_TILE_SYMBOLS)
        inner = [o for o in self.offsets[1:-1] if o % 2 == 0]
        cuts = (
            {min(inner, key=lambda o: abs(o * tiles - total * k)) for k in range(1, tiles)}
            if inner
            else set()
        )
        # batch owned by one decode_batch call; workers only get views
        self.bounds = [0, *sorted(cuts), total]  # ppm: noqa[PPM010]
        self.recovered = [{} for _ in cuts] + [{}]  # ppm: noqa[PPM010]

    def tile(self, index: int) -> Mapping[int, np.ndarray]:
        """The fused survivors of tile ``index`` (views, no copies)."""
        if len(self.recovered) == 1:
            return self.concat
        lo, hi = self.bounds[index], self.bounds[index + 1]
        return {b: region[lo:hi] for b, region in self.concat.items()}

    def split(self, results: list[dict[int, np.ndarray]]) -> None:
        """Slice each target region back into per-stripe views of the
        tile the stripe lies in."""
        for rank, index in enumerate(self.indices):
            lo, hi = self.offsets[rank], self.offsets[rank + 1]
            t = min(bisect.bisect_right(self.bounds, lo), len(self.recovered)) - 1
            base = self.bounds[t]
            results[index] = {
                bid: self.recovered[t][bid][lo - base : hi - base] for bid in self.targets
            }


#: One unit of work: a pattern batch, one of its tiles, and the batch's
#: compiled whole-plan program.
_Unit = tuple[_PatternBatch, int, PlanProgram]


class DecodePipeline:
    """The decoder: plan cache + worker pool + the one stage executor.

    Every plan runs as compiled :class:`~repro.kernels.RegionProgram`
    kernels from the pipeline's :class:`~repro.kernels.ProgramCache`,
    whatever the pool: each unit (pattern batch x tile) runs the batch's
    whole-plan program.  On a thread pool a pattern batch of at least
    ``2 * MIN_TILE_SYMBOLS`` fused symbols is cut into up to one symbol
    range per worker; shorter batches and the serial pool run one tile.

    Its native entry point is :meth:`decode_batch`; :meth:`decode` (one
    stripe, as a degraded read asks for it) is a batch of one and the
    ``encode*`` family is a decode of the parity positions (paper,
    footnote 1).  The decoder classes of
    :mod:`repro.core` are this class with fixed ``policy`` / ``pool`` /
    ``workers`` choices.

    Parameters
    ----------
    workers:
        Pool width; ignored when ``pool`` is an existing
        :class:`~repro.pipeline.pool.WorkerPool` instance.
    pool:
        ``"thread"`` (default), ``"serial"``, or a ready-made pool to
        share between pipelines.
    policy:
        Sequence policy for every plan (part of the plan-cache key).
    verify:
        Statically certify every plan before it first executes (see
        :func:`repro.verify.verify_plan`); overridable per call.
    counter:
        Optional shared :class:`~repro.gf.region.OpCounter`.
    compile:
        Must be ``True``: the compiled program is the only executor.
        Accepted so existing ``compile=True`` callers keep working; any
        other value raises :class:`ValueError`.
    hedge:
        Speculatively resubmit a bucket of units whose worker has run
        longer than ``max(pX, ewma) * HEDGE_FACTOR`` of similar work
        (per-shape :class:`~repro.pipeline.metrics.LatencyTracker`;
        see :data:`HEDGE_PERCENTILE` / :data:`HEDGE_MIN_SAMPLES`) and
        than :data:`HEDGE_MIN_S`,
        and take whichever execution finishes first.  The loser's
        output is discarded, never merged.  Requires a concurrent pool
        (no-op on ``serial``).
    verify_workers:
        Syndrome-check every unit's output, on the worker that ran it,
        against the parity rows of every stage of its plan before
        merging; a failing unit is quarantined and recomputed on the
        caller's thread (the trusted path), counted in
        ``verify_rejects``.  EXPERIMENTS.md, "Pricing the worker check",
        prices it on the ``rebuild_large`` shape — the price of not
        merging a silently corrupt output.
        A syndrome needs every block of its rows, so ``targets`` are
        widened to whole stages here (a group block brings its group
        along); callers still get only what they asked for.
    deadline_s:
        Default per-batch bound on the gather of every unit; on expiry
        outstanding buckets are abandoned and
        :class:`~repro.pipeline.pool.StragglerTimeout` is raised.
        Overridable per call via ``decode_batch(..., deadline_s=...)``.
    faults:
        Optional :class:`~repro.service.store.FaultInjector` whose
        slow-worker/corrupt-worker modes apply to every primary unit
        execution, on any pool (hedges and trusted recomputes are not
        injected) — the test hook proving the hedging and verification
        machinery works.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        pool: str | WorkerPool = "thread",
        policy: SequencePolicy = SequencePolicy.PAPER,
        verify: bool = False,
        counter: OpCounter | None = None,
        compile: bool = True,
        hedge: bool = False,
        verify_workers: bool = False,
        deadline_s: float | None = None,
        faults=None,
    ):
        if not compile:
            raise ValueError(
                f"compile must be True (plans run only as compiled programs), got {compile!r}"
            )
        check_straggler_knobs(deadline_s)
        self.pool = pool if isinstance(pool, WorkerPool) else make_pool(pool, workers)
        self.workers = self.pool.workers
        self.policy = policy
        self.verify = verify
        self.counter = counter if counter is not None else OpCounter()
        self.plans = PlanCache(maxsize=PLAN_CACHE_SIZE, verify=verify)
        self.programs = ProgramCache()
        self.admission = PriorityAdmission(max_defer_s=MAX_DEFER_S)
        self.hedge = hedge
        self.verify_workers = verify_workers
        self.deadline_s = deadline_s
        self.faults = faults
        self.latency = LatencyTracker()
        self._executors: dict[tuple[int, bool], ProgramExecutor] = {}
        # lifetime tallies behind metrics(); decode_batch runs on
        # whatever thread calls it (several asyncio.to_thread workers
        # at once under the async service), so the tallies and the
        # executors share one lock
        self._tally_lock = threading.Lock()
        self._stripes = 0
        self._batches = 0
        self._background_batches = 0
        self._patterns = 0
        self._blocks_read = 0
        self._blocks_recovered = 0
        self._wall = 0.0
        self._busy = [0.0] * self.workers
        self._queue_peak = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._verify_rejects = 0
        self._straggler_timeouts = 0

    # -- plumbing -----------------------------------------------------------

    def _executor_for(self, field: GF, hedge: bool = False) -> ProgramExecutor:
        """The (cached) program executor for ``field``.

        ``hedge=True`` gives the private executor hedge executions run
        on, so :meth:`executor_stats` counts primaries only.  No
        execution books op counts — :meth:`_book` books each unit once,
        win or lose — so a hedged bucket running *twice* cannot inflate
        the paper's operation accounting.
        """
        key = (id(field), hedge)
        with self._tally_lock:
            executor = self._executors.get(key)
            if executor is None:
                executor = self._executors[key] = ProgramExecutor(field)
        return executor

    @staticmethod
    def _per_stripe(
        count: int, ids: Sequence[int] | Sequence[Sequence[int]], what: str
    ) -> list[tuple[int, ...]]:
        """One sorted id tuple per stripe from one shared set or one each."""
        seq = list(ids)
        if seq and isinstance(seq[0], (int, np.integer)):
            one = tuple(sorted({int(b) for b in seq}))
            return [one] * count
        if len(seq) != count:
            raise ValueError(f"{len(seq)} {what} for {count} stripes")
        return [tuple(sorted({int(b) for b in one})) for one in seq]

    @classmethod
    def _normalize_faulty(
        cls,
        stripes: Sequence[Stripe | Mapping[int, np.ndarray]],
        faulty: Sequence[int] | Sequence[Sequence[int]] | None,
    ) -> list[tuple[int, ...]]:
        """One sorted erasure pattern per stripe."""
        if faulty is None:
            patterns = []
            for stripe in stripes:
                if not isinstance(stripe, Stripe):
                    raise TypeError(
                        "faulty=None requires Stripe inputs (erased ids are "
                        "derived from the stripe); pass patterns explicitly "
                        "for plain block mappings"
                    )
                patterns.append(tuple(sorted(stripe.erased_ids)))
            return patterns
        return cls._per_stripe(len(stripes), faulty, "erasure patterns")

    def _book(self, batches: Sequence[_PatternBatch]) -> None:
        """The one booking rule: each stage of each batch's plan, over the
        batch's fused length, into the pipeline's counter — once per
        (batch, stage), whichever pool, tiles, hedges or recomputes ran
        it."""
        for batch in batches:
            length = batch.offsets[-1]
            for stage in batch.plan.stages:
                self.counter.record(stage.cost, stage.cost * length, xor_only=stage.xor_only)

    # -- the decode API ------------------------------------------------------

    def plan(
        self,
        source: ErasureCode | GFMatrix,
        faulty: Sequence[int],
        verify: bool | None = None,
        targets: Sequence[int] | None = None,
    ) -> DecodePlan:
        """Fetch (or build, certify and cache) the plan this pipeline
        would run for a scenario, pruned to ``targets`` when given."""
        return self.plans.get(
            source, faulty, self.policy, verify=verify, targets=targets
        )

    def decode(
        self,
        code: ErasureCode,
        stripe: Stripe | Mapping[int, np.ndarray],
        faulty: Sequence[int],
        *,
        targets: Sequence[int] | None = None,
        return_stats: bool = False,
        verify: bool | None = None,
    ):
        """Recover the faulty blocks of one stripe: a batch of one.

        ``code`` may also be a bare parity-check ``GFMatrix`` (it carries
        its field).

        ``targets`` are the erased blocks wanted back (default: all of
        ``faulty``): only they are returned, and only the rows of the
        plan that recover them run.  ``return_stats=True`` additionally
        returns a :class:`DecodeStats` (op counts, wall time, the plan).
        ``verify`` overrides the pipeline's construction-time default
        for this call.
        """
        results, stats, batches = self._run_batch(
            code,
            [stripe],
            [tuple(faulty)],
            None if targets is None else [tuple(targets)],
            "foreground",
            None,
            verify,
        )
        if not return_stats:
            return results[0]
        # the plan the batch resolved, not a second cache lookup (which
        # would book a phantom hit, or re-plan after an eviction); an
        # empty pattern ran no plan and raises as planning it always did
        plan = batches[0].plan if batches else self.plan(code, faulty)
        return results[0], DecodeStats(**vars(stats), plan=plan)

    def decode_batch(
        self,
        code: ErasureCode,
        stripes: Sequence[Stripe | Mapping[int, np.ndarray]],
        faulty: Sequence[int] | Sequence[Sequence[int]] | None = None,
        *,
        targets: Sequence[int] | Sequence[Sequence[int]] | None = None,
        return_stats: bool = False,
        priority: str = "foreground",
        deadline_s: float | None = None,
        verify: bool | None = None,
    ):
        """Recover the faulty blocks of many stripes in one submission.

        ``faulty`` is one pattern shared by every stripe, one pattern per
        stripe, or ``None`` to read each stripe's own erased ids.
        ``targets`` — one set for every stripe or one per stripe — names
        the erased blocks wanted back (default: all of them); stripes
        fuse per (pattern, targets) and each runs its plan pruned to
        those blocks.  Returns a list of ``{block_id: region}`` dicts
        aligned with ``stripes``, holding exactly the targets (regions
        are views into the fused batch buffers); with
        ``return_stats=True`` also a :class:`BatchStats`.

        ``priority`` classes the batch for admission: ``"foreground"``
        (live degraded reads — admitted immediately) or
        ``"background"`` (scrub/repair — deferred while foreground
        batches are in flight, bounded by :data:`MAX_DEFER_S`).

        ``deadline_s`` bounds this batch's whole decode (default: the
        pipeline's ``deadline_s``); on expiry outstanding workers are
        abandoned and :class:`~repro.pipeline.pool.StragglerTimeout`
        propagates — no partial batch is ever returned.  ``verify``
        overrides the pipeline's plan-certification default.
        """
        results, stats, _ = self._run_batch(
            code, stripes, faulty, targets, priority, deadline_s, verify
        )
        return (results, stats) if return_stats else results

    def _run_batch(
        self,
        code: ErasureCode,
        stripes: Sequence[Stripe | Mapping[int, np.ndarray]],
        faulty: Sequence[int] | Sequence[Sequence[int]] | None,
        targets: Sequence[int] | Sequence[Sequence[int]] | None,
        priority: str,
        deadline_s: float | None,
        verify: bool | None,
    ) -> tuple[list[dict[int, np.ndarray]], BatchStats, list[_PatternBatch]]:
        """:meth:`decode_batch` proper; also hands back the pattern
        batches so :meth:`decode` can report the plan that actually ran."""
        if deadline_s is None:
            deadline_s = self.deadline_s
        with self.admission.admit(priority):
            t0 = time.perf_counter()
            before = self.counter.snapshot()
            hits0, misses0 = self.plans.stats.hits, self.plans.stats.misses
            patterns = self._normalize_faulty(stripes, faulty)
            wanted = (
                [None] * len(stripes)
                if targets is None
                else self._per_stripe(len(stripes), targets, "target sets")
            )
            blocks_list = [_blocks_of(s) for s in stripes]
            results: list[dict[int, np.ndarray]] = [{} for _ in stripes]

            # group stripes by (pattern, targets); every stripe that lost
            # something resolves its plan through the cache, so the hit rate
            # reads as "stripes served by a cached plan" (the first stripe of
            # a new pattern is the one miss), and the batch's misses are
            # planned together
            batches: dict[tuple[tuple[int, ...], ...], _PatternBatch] = {}
            live = [index for index, pattern in enumerate(patterns) if pattern]
            plans = self.plans.get_many(
                code,
                [patterns[index] for index in live],
                self.policy,
                verify=verify,
                targets=[wanted[index] for index in live],
            )
            for index, plan in zip(live, plans):
                pattern = patterns[index]
                key = (pattern, plan.targets)
                batch = batches.get(key)
                if batch is None:
                    batch = batches[key] = _PatternBatch(pattern, plan)
                batch.indices.append(index)
            for batch in batches.values():
                if self.verify_workers and batch.targets != batch.pattern:
                    batch.plan = self._checkable(code, batch.plan, verify)
                batch.fuse(blocks_list)

            queue_depth = self._execute(
                code, list(batches.values()), self._executor_for(code.field), deadline_s
            )
            for batch in batches.values():
                batch.split(results)

            wall = time.perf_counter() - t0
            after = self.counter.snapshot()
            with self._tally_lock:
                self._queue_peak = max(self._queue_peak, queue_depth)
                self._stripes += len(stripes)
                self._batches += 1
                if priority == "background":
                    self._background_batches += 1
                self._patterns += len(batches)
                for batch in batches.values():
                    self._blocks_read += len(batch.plan.read_ids) * len(batch.indices)
                    self._blocks_recovered += len(batch.plan.targets) * len(batch.indices)
                self._wall += wall
            stats = BatchStats(
                stripes=len(stripes),
                patterns=len(batches),
                plan_hits=self.plans.stats.hits - hits0,
                plan_misses=self.plans.stats.misses - misses0,
                mult_xors=after[0] - before[0],
                symbols=after[2] - before[2],
                wall_seconds=wall,
                queue_depth=queue_depth,
            )
            return results, stats, list(batches.values())

    def encode(
        self, code: ErasureCode, stripe: Stripe | Mapping[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """Compute all parity blocks of one stripe from its data blocks."""
        return self.encode_batch(code, [stripe])[0]

    def encode_into(self, code: ErasureCode, stripe: Stripe) -> None:
        """Encode and write the parity blocks back into ``stripe``."""
        self.encode_into_batch(code, [stripe])

    def encode_into_batch(self, code: ErasureCode, stripes: Sequence[Stripe]) -> None:
        """Batch-encode and write the parities back into each stripe."""
        for stripe, parities in zip(stripes, self.encode_batch(code, stripes)):
            for bid, region in parities.items():
                stripe.put(bid, region)

    def encode_batch(
        self,
        code: ErasureCode,
        stripes: Sequence[Stripe | Mapping[int, np.ndarray]],
        *,
        return_stats: bool = False,
        priority: str = "foreground",
    ):
        """Compute every stripe's parity blocks in one submission.

        Encoding is decoding with every parity position faulty (paper,
        footnote 1), so this delegates to :meth:`decode_batch` with the
        parity ids as the shared erasure pattern: all stripes fuse into
        one pattern batch and the compiled program sweeps their
        concatenated data sectors at once.  Only the data blocks are
        read — stale parity in the input never leaks into the output.
        Returns one ``{parity_id: region}`` dict per stripe (plus a
        :class:`BatchStats` with ``return_stats=True``).
        """
        data_ids = code.data_block_ids
        data_only = [
            {b: blocks[b] for b in data_ids}
            for blocks in (_blocks_of(s) for s in stripes)
        ]
        return self.decode_batch(
            code,
            data_only,
            list(code.parity_block_ids),
            return_stats=return_stats,
            priority=priority,
        )

    # -- execution -------------------------------------------------------------

    def _execute(
        self,
        code: ErasureCode,
        batches: list[_PatternBatch],
        executor: ProgramExecutor,
        deadline_s: float | None,
    ) -> int:
        """Fill ``batch.recovered`` for every batch; returns the units run.

        One unit is one batch over one tile of :meth:`_PatternBatch.cut`
        (only a thread pool cuts more than one), running the batch's
        cached whole-plan program over that tile's symbol range: decoding
        is symbol-wise, so the tiles' outputs are the batch's outputs.
        :meth:`_run_units` spreads the units over the pool; a unit that
        fails its worker check is recomputed here, on the caller's
        thread, and one that fails again raises :class:`ValueError`.
        Each (batch, stage) is booked once (:meth:`_book`).
        """
        tiles = self.workers if self.pool.kind == "thread" else 1
        units: list[_Unit] = []
        for batch in batches:
            batch.cut(tiles)
            # looked up (lowered on a miss) here, not in the workers,
            # where lowering's Python contends for the GIL with the other
            # worker's units
            compiled = self.programs.plan_program(executor.field, batch.plan)
            units.extend((batch, t, compiled) for t in range(len(batch.recovered)))
        for unit, (out, closed) in zip(
            units, self._run_units(code, units, executor, deadline_s)
        ):
            if not closed:
                with self._tally_lock:
                    self._verify_rejects += 1
                out, closed = self._run_unit(code, executor, unit, inject=False)
                if not closed:
                    raise ValueError(
                        f"blocks {sorted(out)} fail their syndrome check after a "
                        "trusted recompute: their program is wrong"
                    )
            unit[0].recovered[unit[1]] = out
        self._book(batches)
        return len(units)

    def _run_unit(
        self,
        code: ErasureCode | GFMatrix,
        executor: ProgramExecutor,
        unit: _Unit,
        inject: bool,
    ) -> tuple[dict[int, np.ndarray], bool]:
        """Run a unit's whole-plan program over its tile on ``executor``;
        returns what it recovered and whether that passed the worker
        check (always, without ``verify_workers``).

        ``inject`` applies ``self.faults``' slow and corrupt modes, which
        only primary executions get.  The check runs here, on the
        executor that ran the unit: the tile's survivors plus its outputs
        must zero every stage's parity rows (see :meth:`_closed`).
        """
        faults = self.faults if inject else None
        if faults is not None:
            delay = faults.worker_delay()
            if delay > 0.0:
                time.sleep(delay)
        batch, t, compiled = unit
        view = batch.tile(t)
        out = dict(
            zip(
                compiled.output_ids,
                executor.execute(compiled.program, [view[b] for b in compiled.input_ids]),
            )
        )
        if faults is not None:
            faults.corrupt_worker_output(out)
        return out, not self.verify_workers or self._closed(
            code, executor, batch.plan, {**view, **out}
        )

    def _checkable(
        self, code: ErasureCode | GFMatrix, plan: DecodePlan, verify: bool | None
    ) -> DecodePlan:
        """``plan`` with its targets widened until every stage's parity
        rows are closed: an independent stage recovers all the erased
        blocks its rows touch, and a dependent one's rows touch no erased
        block the plan leaves unrecovered.

        :meth:`_closed` can only zero a stage's rows with every block in
        them known, and a stage pruned to single rows leaves its siblings
        unrecovered.  Widening by whole stages keeps the check (and most
        of the pruning: a group target pulls in its group, not the
        pattern).  A whole-pattern plan is already closed.  The widened
        plan's targets are every block its stages recover, so its
        whole-plan program outputs all of them.
        """
        h = (code.H if isinstance(code, ErasureCode) else code).array
        while True:
            missing: set[int] = set()
            recovered = {b for stage in plan.stages for b in stage.faulty_ids}
            for stage in plan.stages:
                known = stage.faulty_ids if stage.independent else recovered
                touched = h[list(stage.row_ids)].any(axis=0)
                missing.update(b for b in plan.faulty_ids if touched[b] and b not in known)
            if not missing:
                return plan
            plan = self.plans.get(
                code,
                plan.faulty_ids,
                self.policy,
                verify=verify,
                targets=plan.targets + tuple(missing),
            )

    def _closed(
        self,
        code: ErasureCode | GFMatrix,
        executor: ProgramExecutor,
        plan: DecodePlan,
        blocks: Mapping[int, np.ndarray],
    ) -> bool:
        """Whether ``blocks`` (a unit's survivors and outputs) zero the
        parity rows of every stage of ``plan``.

        Each stage's syndrome is ``H[rows][:, touched]`` over the blocks
        those rows touch (the identity holds per symbol of a fused
        batch), run as a chain of one on ``executor``.  Since the plan's
        ``F`` sub-matrix is invertible, *any* corruption of an output is
        caught.  The check books nothing; the unit's model count is
        booked once by :meth:`_book`.
        """
        h = (code.H if isinstance(code, ErasureCode) else code).array
        for stage in plan.stages:
            check = h[list(stage.row_ids)]
            touched = np.flatnonzero(check.any(axis=0))
            program = self.programs.chain_program(executor.field, [check[:, touched]])
            syndromes = executor.execute(program, [blocks[int(b)] for b in touched])
            if any(s.any() for s in syndromes):
                return False
        return True

    def _run_units(
        self,
        code: ErasureCode,
        units: list[_Unit],
        executor: ProgramExecutor,
        deadline_s: float | None = None,
    ) -> list[tuple[dict[int, np.ndarray], bool]]:
        """Run every unit (:meth:`_run_unit`) and return the results in
        unit order.

        Units are spread by LPT on ``predicted_cost x tile length`` over
        at most one bucket per ``MIN_TILE_SYMBOLS`` of their symbols, the
        rule :meth:`_PatternBatch.cut` tiles by: shorter programs are
        Python dispatch, which a second thread only contends for (a
        ``scatter_small`` op read a median 1.25x slower spread over two
        workers than on one).  Each bucket is one pool task; the gather
        is hedging- and deadline-aware (:meth:`_gather_hedged`).  A
        serial pool runs its one bucket on the caller's thread, where
        there is nothing to hedge or time out.
        """
        lengths = [batch.bounds[t + 1] - batch.bounds[t] for batch, t, _c in units]
        costs = [batch.plan.predicted_cost * n for (batch, _t, _c), n in zip(units, lengths)]
        spread = min(self.workers, max(1, sum(lengths) // MIN_TILE_SYMBOLS))
        buckets = [b for b in assign_lpt(costs, spread) if b]
        # latency-tracker shape key: the bucket's work, banded to powers
        # of two so similar buckets share a history
        keys = [sum(costs[i] for i in bucket).bit_length() for bucket in buckets]

        def run_bucket(bucket: list[int], local: ProgramExecutor = executor, inject: bool = True):
            t0 = time.perf_counter()
            out = {i: self._run_unit(code, local, units[i], inject) for i in bucket}
            return out, time.perf_counter() - t0

        if self.pool.kind == "serial":
            gathered = [run_bucket(bucket) for bucket in buckets]
        else:
            # hedges run uninjected on their own executor (see _executor_for)
            hedge_executor = self._executor_for(executor.field, hedge=True)

            def submit(index: int, hedged: bool) -> Future:
                if hedged:
                    return self.pool.submit(run_bucket, buckets[index], hedge_executor, False)
                return self.pool.submit(run_bucket, buckets[index])

            gathered = self._gather_hedged(submit, keys, deadline_s)
        merged: dict[int, tuple[dict[int, np.ndarray], bool]] = {}
        with self._tally_lock:
            for worker_index, (out, elapsed) in enumerate(gathered):
                self._busy[worker_index % self.workers] += elapsed
                merged.update(out)
        return [merged[i] for i in range(len(units))]

    def _gather_hedged(
        self,
        submit: Callable[[int, bool], Future],
        keys: Sequence[object],
        deadline_s: float | None,
    ) -> list[tuple[dict[int, dict[int, np.ndarray]], float]]:
        """Gather one result per bucket with hedging and a deadline.

        ``submit(index, hedged)`` starts one execution of bucket
        ``index`` and returns its future.  Every bucket gets a primary
        immediately; when hedging is on and a primary has been in
        flight longer than the latency tracker's trigger for its shape,
        a hedge is submitted and whichever execution finishes first
        becomes the bucket's result — the loser keeps running in the
        pool but its output is discarded (each execution builds its own
        output dict, so a discard can never half-merge).  A worker
        exception cancels all outstanding work and re-raises; deadline
        expiry raises :class:`StragglerTimeout` naming the finished
        buckets.  Each winner's time from submission to completion feeds
        the tracker — the clock the trigger reads, pool dispatch
        included — so the trigger adapts as the workload shifts.
        """
        n = len(keys)
        t0 = time.perf_counter()
        primaries = [submit(i, False) for i in range(n)]
        starts = [time.perf_counter() for _ in range(n)]
        owner: dict[Future, tuple[int, bool]] = {
            f: (i, False) for i, f in enumerate(primaries)
        }
        hedges: dict[int, Future] = {}
        hedge_starts: dict[int, float] = {}
        results: list[tuple[dict, float] | None] = [None] * n
        resolved = [False] * n
        outstanding = set(primaries)

        while not all(resolved):
            now = time.perf_counter()
            if deadline_s is not None and now - t0 >= deadline_s:
                for future in outstanding:
                    future.cancel()
                with self._tally_lock:
                    self._straggler_timeouts += 1
                completed = tuple(i for i in range(n) if resolved[i])
                pending = tuple(i for i in range(n) if not resolved[i])
                raise StragglerTimeout(
                    deadline_s,
                    completed,
                    pending,
                    {i: results[i] for i in completed},
                )
            # hedge every bucket past its trigger, then sleep until the
            # deadline or the earliest trigger still ahead
            timeout = None if deadline_s is None else deadline_s - (now - t0)
            for i in range(n) if self.hedge else ():
                if resolved[i] or i in hedges:
                    continue
                trigger = self.latency.hedge_after(
                    keys[i],
                    percentile=HEDGE_PERCENTILE,
                    factor=HEDGE_FACTOR,
                    min_samples=HEDGE_MIN_SAMPLES,
                    floor=HEDGE_MIN_S,
                )
                if trigger is None:
                    continue
                wait_left = starts[i] + trigger - now
                if wait_left <= 0.0:
                    hedges[i] = submit(i, True)
                    hedge_starts[i] = now
                    owner[hedges[i]] = (i, True)
                    outstanding.add(hedges[i])
                    with self._tally_lock:
                        self._hedges += 1
                elif timeout is None or wait_left < timeout:
                    timeout = wait_left
            done, _ = wait(outstanding, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                outstanding.discard(future)
                index, was_hedge = owner[future]
                if resolved[index] or future.cancelled():
                    continue  # hedge-race loser (or abandoned): discard
                if future.exception() is not None:
                    for other in outstanding:
                        other.cancel()
                    future.result()  # re-raises
                results[index] = future.result()
                resolved[index] = True
                # the trigger counts from submission, so the baseline
                # does too: the winner's submission-to-completion time
                start = hedge_starts[index] if was_hedge else starts[index]
                self.latency.observe(keys[index], time.perf_counter() - start)
                if was_hedge:
                    with self._tally_lock:
                        self._hedge_wins += 1
                twin = primaries[index] if was_hedge else hedges.get(index)
                if twin is not None and twin in outstanding:
                    twin.cancel()  # best effort; a running twin is abandoned
        return results  # type: ignore[return-value]

    # -- observability / lifecycle -------------------------------------------

    def metrics(self) -> PipelineMetrics:
        """Immutable snapshot of lifetime throughput and utilisation."""
        mult_xors, _xor_only, symbols = self.counter.snapshot()
        wall = self._wall
        programs = self.programs.stats
        busy = tuple((b / wall) if wall > 0 else 0.0 for b in self._busy)
        return PipelineMetrics(
            stripes=self._stripes,
            batches=self._batches,
            background_batches=self._background_batches,
            batches_deferred=self.admission.deferred_batches,
            deferred_seconds=self.admission.deferred_seconds,
            patterns=self._patterns,
            blocks_read=self._blocks_read,
            blocks_recovered=self._blocks_recovered,
            wall_seconds=wall,
            mult_xors=mult_xors,
            symbols=symbols,
            plan_cache_hits=self.plans.stats.hits,
            plan_cache_misses=self.plans.stats.misses,
            plan_cache_evictions=self.plans.stats.evictions,
            pool_kind=self.pool.kind,
            workers=self.workers,
            pool_spawns=self.pool.spawn_count,
            worker_busy_fraction=busy,
            queue_depth_peak=self._queue_peak,
            program_cache_hits=programs.hits,
            program_cache_misses=programs.misses,
            program_cache_evictions=programs.evictions,
            hedges=self._hedges,
            hedge_wins=self._hedge_wins,
            verify_rejects=self._verify_rejects,
            straggler_timeouts=self._straggler_timeouts,
        )

    def executor_stats(self) -> dict[str, object]:
        """Merged compiled-kernel execution tallies of primary executions.

        The ``backends`` entry nests per-backend splits; everything
        else is a flat numeric tally (see
        :meth:`repro.kernels.ProgramExecutor.stats`)."""
        # snapshot under the lock _executor_for inserts under: a decode
        # on a worker thread may add a field's executor while this iterates
        with self._tally_lock:
            primaries = [ex for (_f, hedge), ex in self._executors.items() if not hedge]
        stats: dict[str, object] = {}
        backends: dict[str, dict[str, float]] = {}
        for executor in primaries:
            for key, value in executor.stats().items():
                if key == "backends":
                    for name, split in value.items():
                        agg = backends.setdefault(name, {})
                        for k, v in split.items():
                            agg[k] = agg.get(k, 0) + v
                else:
                    stats[key] = stats.get(key, 0) + value
        if backends:
            stats["backends"] = backends
        return stats

    def close(self) -> None:
        """Shut the worker pool down (plans stay cached)."""
        self.pool.close()

    def __enter__(self) -> "DecodePipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
