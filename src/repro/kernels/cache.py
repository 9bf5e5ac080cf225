"""LRU cache of compiled RegionPrograms, the sibling of the pipeline's PlanCache.

Two program kinds, one key family each:

- **chains**, keyed by content — ``GFMatrix.array`` returns a fresh
  read-only view on every access, so identity is useless; the key
  hashes the coefficient bytes instead (coding matrices are tiny, a few
  hundred bytes at most).  A single matrix is a chain of one;
- **plans**, keyed by identity — :class:`DecodePlan` objects are
  long-lived (pinned by the pipeline's ``PlanCache``), so ``id(plan)``
  is stable; the entry pins the plan to keep it that way.

A chain's lowered instructions depend only on its *structure* — the
matrices' shapes and which entries are 0, 1 or another constant — and
its constants only fill the ``MUL``/``MULXOR`` operands.  So a second
LRU of the same size maps structure → the first program lowered for it
(its *template*), and a content miss whose structure is there copies
the template with the new matrices' entries stamped in at the
instructions' recorded ``origins`` instead of lowering again.  Many
stripes' worst-case patterns share few structures, so a cold pattern
rarely lowers.

Compilation happens *outside* the lock (lowering can take milliseconds
for large plans); a double-checked insert keeps concurrent misses
correct, at worst compiling the same program twice and keeping one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
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

    Every program it keeps passed the one structural check
    (:meth:`RegionProgram.validate`): a lowered one in
    :meth:`~repro.kernels.lower.ProgramBuilder.finish`, a stamped one
    right after stamping.  So a buggy builder, optimiser pass or stamp
    raises on the miss and never parks a corrupting program where every
    later decode would find it.
    """

    def __init__(self, maxsize: int = DEFAULT_PROGRAM_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        # key -> (value, pin); pin keeps identity-keyed objects alive
        self._entries: OrderedDict[tuple, tuple[object, object]] = OrderedDict()
        # chain structure -> template program (same bound, no stats)
        self._templates: OrderedDict[tuple, RegionProgram] = OrderedDict()
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

    def _compile_chain(
        self, field: GF, matrices: Sequence[np.ndarray], shapes: tuple
    ) -> RegionProgram:
        """A chain's content miss: stamp its structure's template, or
        lower it and keep it as that structure's template."""
        key = (field.w, shapes, tuple(np.minimum(m, 2).tobytes() for m in matrices))
        with self._lock:
            template = self._templates.get(key)
            if template is not None:
                self._templates.move_to_end(key)
        if template is None:
            program = lower_matrix_chain(field, matrices)
            with self._lock:
                self._templates[key] = program
                if len(self._templates) > self.maxsize:
                    self._templates.popitem(last=False)
            return program
        entries = np.concatenate([m.ravel() for m in matrices])[list(template.origins)]
        program = replace(
            template,
            instructions=tuple(
                [
                    (op, dst, src, entry if origin >= 0 else const)
                    for (op, dst, src, const), origin, entry in zip(
                        template.instructions, template.origins, entries.tolist()
                    )
                ]
            ),
        )
        program.validate()
        return program

    # -- lookups -----------------------------------------------------------

    def chain_program(self, field: GF, matrices: Sequence[np.ndarray]) -> RegionProgram:
        """The program applying ``matrices`` in order (content-keyed;
        a miss stamps the structure's template when there is one)."""
        shapes = tuple(m.shape for m in matrices)
        key = ("chain", field.w, field.polynomial, shapes, tuple(m.tobytes() for m in matrices))
        return self._get_or_build(key, lambda: self._compile_chain(field, matrices, shapes))

    def matrix_program(self, field: GF, matrix: np.ndarray) -> RegionProgram:
        """One matrix: the chain of one, same entry."""
        return self.chain_program(field, [matrix])

    def plan_program(self, field: GF, plan) -> PlanProgram:
        """The whole-plan program (identity-keyed, pins ``plan``)."""
        key = ("plan", field.w, field.polynomial, id(plan))
        return self._get_or_build(key, lambda: lower_plan(field, plan), pin=plan)
