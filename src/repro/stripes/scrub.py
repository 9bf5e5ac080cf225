"""Scrubbing: syndrome checks and single-corruption location.

Erasure codes recover *known* losses; silent data corruption
(Bairavasundaram et al., "An Analysis of Data Corruption in the Storage
Stack" — the paper's ref [12]) presents as a stripe whose blocks are all
present but whose parity-check syndrome ``H @ B`` is nonzero.  A scrub
computes the syndromes; for a single corrupted block the syndrome is
``H[:, j] * e`` for the corrupt column ``j`` and per-symbol error ``e``,
so ``j`` is identified as the unique column whose nonzero pattern and
coefficient ratios match — and the block is repaired by erasure-decoding
it from the others.

:func:`scrub_stripe` classifies one stripe into a uniform
:class:`StripeScrubReport`; :class:`ScrubCursor` provides the
incremental, resumable iteration order an *online* scrubber needs (scan
a bounded chunk per tick, survive restarts, keep going as stripes come
and go).  Repair itself is the store's: :class:`repro.repair.RepairManager`
erases what a scrub located and decodes it in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..codes.base import ErasureCode
from ..gf import RegionOps
from .store import Stripe


@dataclass(frozen=True)
class ScrubResult:
    """Outcome of scrubbing one stripe."""

    clean: bool
    corrupted_block: int | None = None
    located: bool = False

    @property
    def needs_repair(self) -> bool:
        return not self.clean


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


def locate_single_corruption(code: ErasureCode, stripe: Stripe) -> ScrubResult:
    """Scrub and, when exactly one block is corrupt, identify which.

    Location logic: for candidate column ``j``, the syndrome must be
    nonzero exactly on rows where ``H[i, j] != 0``, and the error region
    implied by each such row — ``syndrome_i / H[i, j]`` — must be the
    same for all of them.  With one corrupted block the candidate is
    unique for any code whose columns are pairwise linearly independent
    (true of every construction here: otherwise two erasures would be
    undecodable).
    """
    s = syndromes(code, stripe)
    nonzero_rows = [i for i, region in enumerate(s) if region.any()]
    if not nonzero_rows:
        return ScrubResult(clean=True)
    field = code.field
    h = code.H.array
    pattern = set(nonzero_rows)
    for j in range(code.num_blocks):
        column_rows = set(int(i) for i in np.nonzero(h[:, j])[0])
        if column_rows != pattern:
            continue
        error = None
        consistent = True
        for i in nonzero_rows:
            candidate = field.mul(field.inv(h[i, j]), s[i])
            if error is None:
                error = candidate
            elif not np.array_equal(error, candidate):
                consistent = False
                break
        if consistent:
            return ScrubResult(clean=False, corrupted_block=j, located=True)
    return ScrubResult(clean=False, corrupted_block=None, located=False)


def locate_corruptions(
    code: ErasureCode, stripe: Stripe, max_errors: int = 2
) -> ScrubResult | list[int]:
    """Locate up to ``max_errors`` corrupted blocks.

    Generalises :func:`locate_single_corruption`: a set ``J`` of corrupt
    columns explains the syndrome iff the syndrome regions lie in the
    span of ``H[:, J]`` symbol-wise — checked by erasure-decoding ``J``
    from the (consistent) remainder and seeing whether re-encoding
    clears the syndrome.  Searches singles first, then pairs.  Returns a
    sorted list of located blocks (empty when clean), or an unlocated
    :class:`ScrubResult` when nothing up to ``max_errors`` explains it.
    """
    from itertools import combinations

    from ..core.decoder import TraditionalDecoder
    from ..matrix import SingularMatrixError

    single = locate_single_corruption(code, stripe)
    if single.clean:
        return []
    if single.located:
        return [single.corrupted_block]
    if max_errors < 2:
        return single
    ops = RegionOps(code.field)
    decoder = TraditionalDecoder()
    all_regions = [stripe.get(b) for b in range(code.num_blocks)]
    for size in range(2, max_errors + 1):
        for combo in combinations(range(code.num_blocks), size):
            survivors = {
                b: all_regions[b] for b in range(code.num_blocks) if b not in combo
            }
            try:
                recovered = decoder.decode(code, survivors, list(combo))
            except SingularMatrixError:
                continue
            trial = list(all_regions)
            changed = False
            for b, region in recovered.items():
                if not np.array_equal(region, all_regions[b]):
                    changed = True
                trial[b] = region
            if not changed:
                continue
            residual = ops.matrix_apply(code.H.array, trial)
            if all(not s.any() for s in residual):
                return sorted(combo)
    return ScrubResult(clean=False, corrupted_block=None, located=False)


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

    ``max_errors`` bounds the corruption-location search depth (pair
    search is combinatorial; online scrubbers keep it at 1 and treat
    multi-corruption as ambiguous rather than stalling the loop).
    """
    erased = stripe.erased_ids
    if erased:
        return StripeScrubReport(status="erased", erased_blocks=tuple(erased))
    located = locate_corruptions(code, stripe, max_errors=max_errors)
    if isinstance(located, ScrubResult):
        if located.clean:
            return StripeScrubReport(status="clean")
        return StripeScrubReport(status="ambiguous")
    if not located:
        return StripeScrubReport(status="clean")
    return StripeScrubReport(status="corrupt", corrupted_blocks=tuple(located))


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

