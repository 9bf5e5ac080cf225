"""LRU cache of :class:`~repro.core.planner.DecodePlan` objects.

Planning (log table, partition, ``F^-1`` inversion, ``F^-1 @ S``
products) is the per-scenario fixed cost PPM amortises: a rebuild
touching thousands of stripes with one failure geometry should plan
once.  :class:`PlanCache` makes that amortisation explicit and
observable — an LRU keyed by ``(parity-check matrix, erasure pattern,
sequence policy)`` with hit/miss/eviction counters that feed
:class:`~repro.pipeline.metrics.PipelineMetrics`.

When ``verify=True`` every *miss* is statically certified against the
parity-check matrix via :func:`repro.verify.assert_plan_valid` before it
enters the cache, so hits hand out already-proven plans for free (the
PR-1 verification layer, amortised the same way planning is).  A
``get(..., verify=True)`` on a cache built without it certifies the
entry once and remembers that it did.

:meth:`PlanCache.get_many` resolves a whole batch of stripes in one
call, counting as the per-stripe lookups it stands for and planning its
misses together (:func:`~repro.core.planner.plan_batch`).

``get(..., targets=...)`` hands out the entry's plan pruned to those
blocks (:meth:`~repro.core.planner.DecodePlan.for_targets`).  Pruned
plans are memoised *inside* their pattern's entry — capacity, hits,
misses and evictions keep counting patterns — and are certified on
first use exactly like whole ones, so each stays one long-lived object
the identity-keyed program cache can hold on to.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from ..codes.base import ErasureCode
from ..core.planner import DecodePlan, plan_batch
from ..core.sequences import SequencePolicy
from ..kernels.cache import CacheStats
from ..matrix.gfmatrix import GFMatrix

#: Cache key: (id of H, sorted erasure pattern, policy).  The matrix
#: object itself is kept alive inside the entry so the id cannot be
#: recycled while the entry exists.
PlanKey = tuple[int, tuple[int, ...], SequencePolicy]


class PlanCache:
    """Bounded LRU of decode plans, keyed by (code, pattern, policy).

    Parameters
    ----------
    maxsize:
        Entry cap; least-recently-used plans are evicted beyond it.
        Distinct failure geometries per rebuild are few (one per failed
        disk combination), so the default is generous.
    verify:
        Statically certify each freshly planned entry (see
        :mod:`repro.verify`).  Raises
        :class:`repro.verify.PlanVerificationError` on a bad plan, so
        nothing unverified is ever cached.
    """

    def __init__(self, maxsize: int = 128, verify: bool = False):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.verify = verify
        self.stats = CacheStats()
        # key -> [H (pinned), plan, certified, {targets: [pruned plan, certified]}]
        self._entries: OrderedDict[PlanKey, list] = OrderedDict()
        # decode_batch calls arrive concurrently from asyncio.to_thread
        # workers; the OrderedDict reorder + stats tallies need a lock.
        # Planning itself happens outside it (double-checked insert).
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key_of(
        source: ErasureCode | GFMatrix,
        faulty: Sequence[int],
        policy: SequencePolicy,
    ) -> PlanKey:
        h = source.H if isinstance(source, ErasureCode) else source
        return (id(h), tuple(sorted(set(faulty))), policy)

    def get(
        self,
        source: ErasureCode | GFMatrix,
        faulty: Sequence[int],
        policy: SequencePolicy = SequencePolicy.PAPER,
        verify: bool | None = None,
        targets: Sequence[int] | None = None,
    ) -> DecodePlan:
        """Fetch (hit) or build-and-insert (miss) the plan.

        ``verify`` overrides the cache-level default for this lookup; a
        plan is certified at most once while it stays cached.
        ``targets`` (default: every faulty block) selects the plan pruned
        to those blocks, derived once per entry from the whole-pattern
        plan; a target outside ``faulty`` raises ``ValueError``.
        """
        (plan,) = self.get_many(
            source, [faulty], policy, verify, None if targets is None else [targets]
        )
        return plan

    def get_many(
        self,
        source: ErasureCode | GFMatrix,
        patterns: Sequence[Sequence[int]],
        policy: SequencePolicy = SequencePolicy.PAPER,
        verify: bool | None = None,
        targets: Sequence[Sequence[int] | None] | None = None,
    ) -> list[DecodePlan]:
        """:meth:`get` for each pattern in turn — the same plans and the
        same hits, misses and evictions — with every miss planned by one
        :func:`~repro.core.planner.plan_batch`.

        ``targets`` is ``None`` or one target set (or ``None``) per
        pattern.  Misses are planned, and certified when verifying,
        outside the lock and before they are cached.

        The counts match ``get`` only when nothing raises.  A pattern
        that cannot be planned, or a plan that fails certification,
        raises before any of the batch's misses is cached or counted,
        the good ones ahead of it included, where per-stripe ``get``
        would have cached those.  A target outside its pattern raises
        only after every miss of the batch is cached.
        """
        h = source.H if isinstance(source, ErasureCode) else source
        keys = [self.key_of(h, faulty, policy) for faulty in patterns]
        wanted = [None] * len(keys) if targets is None else list(targets)
        if len(wanted) != len(keys):
            raise ValueError(f"{len(wanted)} target sets for {len(keys)} patterns")
        want_certified = self.verify if verify is None else verify
        planned: dict[PlanKey, DecodePlan] = {}
        entries: list[list] = []
        while True:
            with self._lock:
                for key in keys[len(entries) :]:
                    entry = self._entries.get(key)
                    if entry is not None:  # cached, maybe by a concurrent miss
                        self._entries.move_to_end(key)
                        self.stats.hits += 1
                    elif key in planned:
                        self.stats.misses += 1
                        entry = self._entries[key] = [h, planned[key], want_certified, {}]
                        while len(self._entries) > self.maxsize:
                            self._entries.popitem(last=False)
                            self.stats.evictions += 1
                    else:
                        break  # neither cached nor planned yet: plan it, go on
                    entries.append(entry)
                missing = list(
                    dict.fromkeys(
                        key
                        for key in keys[len(entries) :]
                        if key not in self._entries and key not in planned
                    )
                )
            if not missing:
                break
            plans = plan_batch(h, [key[1] for key in missing], policy)  # outside the lock
            if want_certified:
                for plan in plans:
                    self._certify(plan, h)  # raises before a bad plan is cached
            planned.update(zip(missing, plans))
        return [
            self._resolve(entry, key, h, want_certified, target)
            for entry, key, target in zip(entries, keys, wanted)
        ]

    def _resolve(
        self,
        entry: list,
        key: PlanKey,
        h: GFMatrix,
        want_certified: bool,
        targets: Sequence[int] | None,
    ) -> DecodePlan:
        """An entry's plan, certified if asked, pruned to ``targets``."""
        if want_certified and not entry[2]:
            self._certify(entry[1], h)
            entry[2] = True
        if targets is None:
            return entry[1]
        wanted = tuple(sorted(set(targets)))
        if wanted == key[1]:
            return entry[1]
        with self._lock:
            pruned = entry[3].get(wanted)
        if pruned is None:
            plan = entry[1].for_targets(wanted)  # row selection, outside the lock
            if want_certified:
                self._certify(plan, h)
            with self._lock:
                pruned = entry[3].setdefault(wanted, [plan, want_certified])
        if want_certified and not pruned[1]:
            self._certify(pruned[0], h)
            pruned[1] = True
        return pruned[0]

    @staticmethod
    def _certify(plan: DecodePlan, h: GFMatrix) -> None:
        from ..verify import assert_plan_valid  # deferred: verify imports core

        assert_plan_valid(plan, h)

    def clear(self) -> None:
        """Drop every entry (counters are kept; use ``reset_stats`` too)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()
