"""The store behind the service: stripes by id, faults on the read path.

:class:`BlobStore` is the ``repro.stripes`` substrate re-shaped for
serving: many independently-encoded :class:`~repro.stripes.Stripe`\\ s
keyed by integer id, a ground-truth copy for end-to-end verification,
and an optional :class:`FaultInjector` that makes reads *transiently*
fail the way a loaded storage node does — distinct from *erasures*
(data that is gone and must be decoded), which are injected with
:meth:`BlobStore.apply_scenario` from the paper's failure generators in
:mod:`repro.stripes.failures`.

Reads used by an in-flight decode go through
:meth:`BlobStore.snapshot_blocks`, which captures the stripe's present
blocks as an immutable-enough mapping *at one instant*: a double fault
arriving after the snapshot cannot yank survivors out from under a
decode that already started (the region arrays themselves are never
mutated in place, only dropped from the dict).
"""

from __future__ import annotations

import threading

import numpy as np

from ..codes.base import ErasureCode
from ..core import TraditionalDecoder
from ..stripes.failures import FailureScenario, corrupt_blocks
from ..stripes.layout import StripeLayout
from ..stripes.store import Stripe
from .errors import BlockUnavailableError, NodeFault


class FaultInjector:
    """Seeded transient-fault source for store reads.

    With probability ``rate`` a checked read raises
    :class:`~repro.service.errors.NodeFault` — *except* that no stripe
    faults more than ``max_consecutive`` times in a row.  That bound is
    what turns "retries should absorb faults" into a guarantee: with
    ``ServiceConfig.max_retries >= max_consecutive`` a retried request
    always reaches a fault-free attempt, so a 10% injected fault rate
    produces exactly zero client-visible failures (the acceptance
    criterion the CI smoke job checks).

    Thread-safe: the single-stripe fallback path checks faults from
    worker threads while the scheduler checks from the event loop.

    Beyond read faults, the injector models two *worker* failure modes
    for the straggler/verification machinery (PR-10), drawn from the
    same seeded stream: with probability ``slow_worker_rate`` a decode
    worker sleeps ``slow_worker_s`` before computing (a straggler — the
    hedging trigger), and with probability ``corrupt_worker_rate`` a
    worker's recovered regions are bit-flipped after computing (a
    silently-wrong result — what syndrome verification must catch).
    Wire an injector into :class:`~repro.pipeline.DecodePipeline` via
    its ``faults=`` parameter; injection applies to the engine's primary
    worker executions.
    """

    def __init__(
        self,
        rate: float = 0.0,
        rng: np.random.Generator | int | None = None,
        max_consecutive: int = 2,
        slow_worker_rate: float = 0.0,
        slow_worker_s: float = 0.0,
        corrupt_worker_rate: float = 0.0,
    ):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"fault rate must be in [0, 1), got {rate}")
        if max_consecutive < 1:
            raise ValueError(f"max_consecutive must be >= 1, got {max_consecutive}")
        if not 0.0 <= slow_worker_rate < 1.0:
            raise ValueError(
                f"slow_worker_rate must be in [0, 1), got {slow_worker_rate}"
            )
        if slow_worker_s < 0:
            raise ValueError(f"slow_worker_s must be >= 0, got {slow_worker_s}")
        if not 0.0 <= corrupt_worker_rate < 1.0:
            raise ValueError(
                f"corrupt_worker_rate must be in [0, 1), got {corrupt_worker_rate}"
            )
        self.rate = rate
        self.max_consecutive = max_consecutive
        self.slow_worker_rate = slow_worker_rate
        self.slow_worker_s = slow_worker_s
        self.corrupt_worker_rate = corrupt_worker_rate
        self._rng = np.random.default_rng(rng)
        self._streak: dict[int, int] = {}
        self._lock = threading.Lock()
        self.injected = 0
        self.slow_injected = 0
        self.corrupt_injected = 0

    def check(self, stripe_id: int) -> None:
        """Raise :class:`NodeFault` for this read, or record a success."""
        if self.rate <= 0.0:
            return
        with self._lock:
            streak = self._streak.get(stripe_id, 0)
            if streak < self.max_consecutive and self._rng.random() < self.rate:
                self._streak[stripe_id] = streak + 1
                self.injected += 1
                raise NodeFault(
                    f"injected transient fault reading stripe {stripe_id} "
                    f"(streak {streak + 1}/{self.max_consecutive})"
                )
            self._streak[stripe_id] = 0

    def worker_delay(self) -> float:
        """Seconds this worker execution should stall (0.0 = healthy).

        The caller (the pipeline's local execution path) performs the
        actual sleep, so the injector stays side-effect-free and
        testable.
        """
        if self.slow_worker_rate <= 0.0 or self.slow_worker_s <= 0.0:
            return 0.0
        with self._lock:
            if self._rng.random() < self.slow_worker_rate:
                self.slow_injected += 1
                return self.slow_worker_s
        return 0.0

    def corrupt_worker_output(self, regions: "dict[int, np.ndarray]") -> bool:
        """Maybe bit-flip one recovered region in place (silent corruption).

        Returns True when corruption was injected.  The flip hits the
        first symbol of the first region — a minimal corruption, so any
        check that passes it would pass larger ones.
        """
        if self.corrupt_worker_rate <= 0.0 or not regions:
            return False
        with self._lock:
            if self._rng.random() >= self.corrupt_worker_rate:
                return False
            self.corrupt_injected += 1
        region = next(iter(regions.values()))
        if region.size:
            region = region.copy()
            region[..., 0] ^= 1
            first = next(iter(regions))
            regions[first] = region
        return True


class BlobStore:
    """In-memory erasure-coded blob store keyed by ``(stripe, block)``.

    All stripes share one code instance.  Ground truth is retained so
    the service and load generator can verify every served byte.
    """

    def __init__(
        self,
        code: ErasureCode,
        sector_symbols: int,
        faults: FaultInjector | None = None,
    ):
        self.code = code
        self.layout = StripeLayout.of_code(code)
        self.sector_symbols = sector_symbols
        self.faults = faults if faults is not None else FaultInjector(0.0)
        self._stripes: dict[int, Stripe] = {}
        self._truth: dict[int, Stripe] = {}
        # writes land from the event loop while decode workers and the
        # scrub thread read; serialize the mutating paths (readers stay
        # lock-free — block arrays are replaced, never edited in place)
        self._write_lock = threading.Lock()

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        code: ErasureCode,
        num_stripes: int,
        sector_symbols: int,
        rng: np.random.Generator | int | None = None,
        faults: FaultInjector | None = None,
    ) -> "BlobStore":
        """Store of ``num_stripes`` encoded random stripes (ids 0..N-1)."""
        rng = np.random.default_rng(rng)
        store = cls(code, sector_symbols, faults=faults)
        encoder = TraditionalDecoder()
        stripes = [
            Stripe.random(store.layout, code.field, sector_symbols, rng)
            for _ in range(num_stripes)
        ]
        # one fused batched encode instead of num_stripes naive calls
        encoder.encode_into_batch(code, stripes)
        for stripe_id, stripe in enumerate(stripes):
            store.add_stripe(stripe_id, stripe)
        return store

    def add_stripe(self, stripe_id: int, stripe: Stripe) -> None:
        copy = stripe.copy()
        with self._write_lock:
            self._stripes[stripe_id] = stripe
            self._truth[stripe_id] = copy

    def adopt_stripe(self, stripe_id: int, stripe: Stripe, truth: Stripe) -> None:
        """Take ownership of a migrated stripe with its *original* truth.

        Unlike :meth:`add_stripe` (which snapshots the incoming stripe
        as its own ground truth), adoption keeps the truth the stripe
        had at its previous home — so a stripe re-homed *with erasures*
        (a node-death rebuild) is still verified against the bytes it
        held before the failure, and a decode that heals it back is
        provably correct.
        """
        with self._write_lock:
            self._stripes[stripe_id] = stripe
            self._truth[stripe_id] = truth

    def remove_stripe(self, stripe_id: int) -> tuple[Stripe, Stripe]:
        """Release a stripe for migration; returns ``(stripe, truth)``."""
        with self._write_lock:
            try:
                stripe = self._stripes.pop(stripe_id)
            except KeyError:
                raise BlockUnavailableError(f"no stripe {stripe_id}") from None
            truth = self._truth.pop(stripe_id)
        return stripe, truth

    # -- lookups -------------------------------------------------------------

    @property
    def stripe_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._stripes))

    def stripe(self, stripe_id: int) -> Stripe:
        try:
            return self._stripes[stripe_id]
        except KeyError:
            raise BlockUnavailableError(f"no stripe {stripe_id}") from None

    def truth(self, stripe_id: int) -> Stripe:
        """Ground-truth copy (verification only — never the serve path)."""
        return self._truth[stripe_id]

    def pattern(self, stripe_id: int) -> tuple[int, ...]:
        """The stripe's *current* erasure pattern (sorted block ids)."""
        return tuple(self.stripe(stripe_id).erased_ids)

    def pattern_of(self, blocks: "dict[int, np.ndarray]") -> tuple[int, ...]:
        """The erasure pattern a :meth:`snapshot_blocks` mapping shows —
        the pattern a decode of exactly that snapshot must use."""
        return tuple(b for b in range(self.code.num_blocks) if b not in blocks)

    # -- the read/write path -------------------------------------------------

    def read(self, stripe_id: int, block: int) -> np.ndarray:
        """One present block; :class:`NodeFault` under injection,
        :class:`BlockUnavailableError` when erased (decode instead)."""
        stripe = self.stripe(stripe_id)
        self.faults.check(stripe_id)
        if not stripe.has(block):
            raise BlockUnavailableError(
                f"stripe {stripe_id} block {block} is erased"
            )
        return stripe.get(block)

    def write(self, stripe_id: int, block: int, region: np.ndarray) -> None:
        """Write-through put: updates the stripe *and* the ground truth
        (a client overwrite redefines what "correct" means)."""
        stripe = self.stripe(stripe_id)
        self.faults.check(stripe_id)
        with self._write_lock:
            stripe.put(block, region)
            self._truth[stripe_id].put(block, region)

    def snapshot_blocks(
        self, stripe_id: int, inject: bool = True
    ) -> dict[int, np.ndarray]:
        """Point-in-time mapping of the stripe's present blocks.

        The decode path reads through this, so faults arriving between
        a coalesce flush and the decode cannot destabilise the batch.
        ``inject=False`` is the recovery channel used by the fallback
        decoder after retries are exhausted.
        """
        stripe = self.stripe(stripe_id)
        if inject:
            self.faults.check(stripe_id)
        return {bid: stripe.get(bid) for bid in stripe.present_ids}

    # -- failure injection ---------------------------------------------------

    def erase(self, stripe_id: int, blocks) -> None:
        """Drop block data (an *erasure*, not a transient fault)."""
        self.stripe(stripe_id).erase(blocks)

    def apply_scenario(self, stripe_id: int, scenario: FailureScenario) -> None:
        """Erase one stripe's blocks per a generated failure scenario."""
        self.erase(stripe_id, scenario.faulty_blocks)

    def corrupt(
        self,
        stripe_id: int,
        blocks,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        """Silently corrupt blocks in place (bit rot; truth untouched).

        Unlike :meth:`erase`, the blocks stay *present* — reads serve the
        wrong bytes without any error, which is exactly why the repair
        subsystem scrubs syndromes instead of waiting for read failures.
        """
        corrupt_blocks(self.stripe(stripe_id), blocks, rng=rng)

    def repair(self, stripe_id: int, recovered: dict[int, np.ndarray]) -> None:
        """Write decoded blocks back (rebuild, not degraded read)."""
        stripe = self.stripe(stripe_id)
        for bid, region in recovered.items():
            stripe.put(bid, region)

    def verify_block(self, stripe_id: int, block: int, region: np.ndarray) -> bool:
        """Is ``region`` bit-identical to the ground truth block?"""
        return bool(np.array_equal(region, self._truth[stripe_id].get(block)))
