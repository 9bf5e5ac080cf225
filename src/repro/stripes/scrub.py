"""Scrubbing: syndrome checks and corruption location.

Erasure codes recover *known* losses; silent data corruption
(Bairavasundaram et al., "An Analysis of Data Corruption in the Storage
Stack" — the paper's ref [12]) presents as a stripe whose blocks are all
present but whose parity-check syndrome ``S = H @ B`` is nonzero.  A
scrub computes the syndromes; corrupt blocks ``J`` with per-symbol
errors ``E`` give ``S = H[:, J] @ E``, so the smallest ``J`` whose
columns span ``S`` names them — and they are repaired by
erasure-decoding them from the others.

:func:`scrub_stripe` classifies one stripe into a
:class:`StripeScrubReport`; :class:`ScrubCursor` provides the
incremental, resumable iteration order an *online* scrubber needs (scan
a bounded chunk per tick, survive restarts, keep going as stripes come
and go).  Repair itself is the store's: :class:`repro.repair.RepairManager`
erases what a scrub located and decodes it in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from ..codes.base import ErasureCode
from ..gf import RegionOps
from ..matrix import SingularMatrixError, select_and_invert_stack
from .store import Stripe


def syndromes(code: ErasureCode, stripe: Stripe) -> list[np.ndarray]:
    """``H @ B`` per parity row (all-zero regions iff the stripe is valid).

    Requires every block present (scrubs run on nominally-healthy data).
    """
    missing = stripe.erased_ids
    if missing:
        raise ValueError(f"cannot scrub with erased blocks {list(missing)[:4]}...")
    ops = RegionOps(code.field)
    regions = [stripe.get(b) for b in range(code.num_blocks)]
    return ops.matrix_apply(code.H.array, regions)


def partial_syndromes(
    code: ErasureCode,
    row_ids: Sequence[int],
    blocks,
    *,
    ops: RegionOps | None = None,
) -> list[np.ndarray]:
    """``H[row_ids] @ B`` using only the blocks those rows touch.

    The whole-stripe :func:`syndromes` needs every block present; a
    decode-plan sub-matrix (``GroupPlan`` / ``TraditionalPlan`` /
    ``RestPlan`` ``row_ids``) touches only its own survivor and faulty
    columns, so this variant reads just those from the ``blocks``
    mapping (``{block_id: region}``) and skips the zero columns.  This
    is the cheap per-worker check of the parity-checked-multiplication
    style: a worker's recovered regions are valid iff the rows that
    produced them still vanish over survivors + recovered.  Regions may
    be fused multi-stripe concatenations — the identity holds per
    symbol.  Ops default to a fresh uncounted :class:`RegionOps` so
    verification never perturbs the paper's operation accounting.
    """
    rows = code.H.array[np.asarray(row_ids, dtype=np.intp)]
    cols = np.nonzero(rows.any(axis=0))[0]
    if ops is None:
        ops = RegionOps(code.field)
    regions = [blocks[int(j)] for j in cols]
    return ops.matrix_apply(rows[:, cols], regions)


def verify_rows(
    code: ErasureCode,
    row_ids: Sequence[int],
    blocks,
    *,
    ops: RegionOps | None = None,
) -> bool:
    """True iff the partial syndromes of ``row_ids`` over ``blocks`` vanish.

    This is sound as a worker-output check: with ``F = H[row_ids,
    faulty]`` invertible (guaranteed by plan construction), any error
    ``e != 0`` in the recovered regions shifts the syndrome by ``F @ e
    != 0`` — a corrupt worker result cannot pass.
    """
    return all(
        not s.any() for s in partial_syndromes(code, row_ids, blocks, ops=ops)
    )


@dataclass(frozen=True)
class StripeScrubReport:
    """Uniform classification of one stripe's health.

    ``status`` is one of

    - ``"clean"``     — all blocks present, zero syndromes;
    - ``"erased"``    — blocks are missing (``erased_blocks``); the
      stripe needs erasure repair before it can be syndrome-checked;
    - ``"corrupt"``   — nonzero syndromes explained by the (located)
      ``corrupted_blocks``; repair by erasing and re-decoding them;
    - ``"ambiguous"`` — nonzero syndromes that no candidate set up to
      the search depth explains.  Repairing on a guess could write
      *more* wrong data, so an ambiguous stripe must be reported, never
      auto-repaired.
    """

    status: str
    corrupted_blocks: tuple[int, ...] = ()
    erased_blocks: tuple[int, ...] = ()

    @property
    def healthy(self) -> bool:
        return self.status == "clean"


def scrub_stripe(
    code: ErasureCode, stripe: Stripe, max_errors: int = 1
) -> StripeScrubReport:
    """Classify one stripe: clean, erased, located corruption, or ambiguous.

    One rule locates corruption of any size: a candidate block set ``J``
    explains the syndromes ``S`` iff ``S = H[:, J] @ E`` for some error
    ``E``.  With ``(R, F^-1)`` from :func:`~repro.matrix.select_and_invert`
    on ``H[:, J]`` the only such ``E`` is ``F^-1 @ S[R]``, so ``J`` is the
    answer iff ``H[:, J] @ F^-1 @ S[R] == S`` — the same verdict as
    erasure-decoding ``J`` from the other blocks and re-encoding, without
    planning or decoding anything.  Candidates are tried singles first,
    then pairs, ... up to ``max_errors``, each size in
    ``combinations`` order, and the first that explains ``S`` wins.  A
    candidate whose columns miss a nonzero syndrome row, or whose
    columns are dependent, cannot explain ``S`` and is skipped.
    ``max_errors`` bounds the search: size ``k`` tries up to C(n, k)
    small solves, and a scrub loop that stalls is worse than one that
    reports "ambiguous" and moves on.
    """
    erased = stripe.erased_ids
    if erased:
        return StripeScrubReport(status="erased", erased_blocks=tuple(erased))
    s = np.stack(syndromes(code, stripe))
    dirty = s.any(axis=1)
    if not dirty.any():
        return StripeScrubReport(status="clean")
    h = code.H.array
    ops = RegionOps(code.field)
    for k in range(1, max_errors + 1):
        candidates = [
            combo
            for combo in combinations(range(code.num_blocks), k)
            if not (dirty & ~h[:, combo].any(axis=1)).any()
        ]
        if not candidates:
            continue
        stack = h[:, candidates].transpose(1, 0, 2)
        for combo, solved in zip(candidates, select_and_invert_stack(code.field, stack)):
            if isinstance(solved, SingularMatrixError):
                continue
            rows, inverse = solved
            error = ops.matrix_apply(inverse, [s[r] for r in rows])
            if np.array_equal(ops.matrix_apply(h[:, combo], error), s):
                return StripeScrubReport(status="corrupt", corrupted_blocks=combo)
    return StripeScrubReport(status="ambiguous")


class ScrubCursor:
    """Incremental, resumable iteration order over a set of stripe keys.

    An online scrubber cannot afford to scan the whole array per tick;
    it scans ``chunk`` keys, remembers where it stopped, and resumes
    there next tick — across restarts too, via :attr:`position` /
    :meth:`resume`.  The key set may change between chunks
    (:meth:`update_keys`): the cursor keeps its place by *position in
    the sorted order*, so added and removed stripes never cause skips
    beyond the chunk granularity.
    """

    def __init__(self, keys: Sequence[int], position: int = 0):
        self._keys: list[int] = sorted(keys)
        if position < 0:
            raise ValueError(f"position must be >= 0, got {position}")
        self._position = position
        self.passes_completed = 0

    @property
    def keys(self) -> tuple[int, ...]:
        return tuple(self._keys)

    @property
    def position(self) -> int:
        """Index (into the sorted key order) of the next key to scrub."""
        return self._position

    def resume(self, position: int) -> None:
        """Restore a previously saved :attr:`position` (restart support)."""
        if position < 0:
            raise ValueError(f"position must be >= 0, got {position}")
        self._position = position

    def update_keys(self, keys: Sequence[int]) -> None:
        """Replace the key set (stripes added/removed) keeping the cursor."""
        # cursor calls are serialized by StoreScrubber._scan_lock
        self._keys = sorted(keys)  # ppm: noqa[PPM010]

    def next_chunk(self, size: int) -> list[int]:
        """The next (up to) ``size`` keys in scrub order.

        Reaching the end of the key set increments
        :attr:`passes_completed` (one full pass finished) and ends the
        chunk — a chunk never crosses the wrap boundary, so no key
        repeats within a single call.
        """
        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size}")
        if not self._keys:
            return []
        if self._position >= len(self._keys):
            # serialized by StoreScrubber._scan_lock (see update_keys)
            self._position = 0  # ppm: noqa[PPM010]
            self.passes_completed += 1  # ppm: noqa[PPM010]
        take = min(size, len(self._keys))
        chunk = []
        for _ in range(take):
            chunk.append(self._keys[self._position])
            self._position += 1
            if self._position >= len(self._keys):
                self._position = 0
                self.passes_completed += 1
                break  # never revisit a key within one chunk
        return chunk

