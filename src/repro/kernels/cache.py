"""LRU cache of compiled RegionPrograms, the sibling of the pipeline's PlanCache.

Two program kinds, one key family each:

- **chains**, keyed by content — ``GFMatrix.array`` returns a fresh
  read-only view on every access, so identity is useless; the key
  hashes the coefficient bytes instead (coding matrices are tiny, a few
  hundred bytes at most).  A single matrix is a chain of one;
- **plans**, keyed by identity — :class:`DecodePlan` objects are
  long-lived (pinned by the pipeline's ``PlanCache``), so ``id(plan)``
  is stable; the entry pins the plan to keep it that way.

Compilation happens *outside* the lock (lowering can take milliseconds
for large plans); a double-checked insert keeps concurrent misses
correct, at worst compiling the same program twice and keeping one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..gf.field import GF
from .ir import RegionProgram
from .lower import PlanProgram, lower_matrix_chain, lower_plan

#: Default capacity: programs are small (hundreds of instruction tuples),
#: and a rebuild workload touches a handful of failure geometries.
DEFAULT_PROGRAM_CACHE_SIZE = 256


@dataclass
class CacheStats:
    """Hit/miss/eviction tallies of an LRU cache (programs or plans)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class ProgramCache:
    """Thread-safe LRU of compiled programs (see module docstring).

    Every program it builds comes out of
    :meth:`~repro.kernels.lower.ProgramBuilder.finish`, which runs the
    one structural check (:meth:`RegionProgram.validate`) before
    returning, so a buggy builder or optimiser pass raises on the miss
    and never parks a corrupting program where every later decode would
    find it.
    """

    def __init__(self, maxsize: int = DEFAULT_PROGRAM_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        # key -> (value, pin); pin keeps identity-keyed objects alive
        self._entries: OrderedDict[tuple, tuple[object, object]] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _get_or_build(self, key: tuple, build: Callable[[], object], pin: object = None):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry[0]
        value = build()  # compile (and admission-check) outside the lock
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # a concurrent miss beat us to it
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry[0]
            self.stats.misses += 1
            self._entries[key] = (value, pin)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return value

    # -- lookups -----------------------------------------------------------

    def chain_program(self, field: GF, matrices: Sequence[np.ndarray]) -> RegionProgram:
        """The program applying ``matrices`` in order (content-keyed)."""
        key = (
            "chain",
            field.w,
            field.polynomial,
            tuple(m.shape for m in matrices),
            tuple(m.tobytes() for m in matrices),
        )
        return self._get_or_build(key, lambda: lower_matrix_chain(field, matrices))

    def matrix_program(self, field: GF, matrix: np.ndarray) -> RegionProgram:
        """One matrix: the chain of one, same entry."""
        return self.chain_program(field, [matrix])

    def plan_program(self, field: GF, plan) -> PlanProgram:
        """The whole-plan program (identity-keyed, pins ``plan``)."""
        key = ("plan", field.w, field.polynomial, id(plan))
        return self._get_or_build(key, lambda: lower_plan(field, plan), pin=plan)
