"""Parity-check matrix utilities: the F/S split and column bookkeeping.

Step 2 of the traditional decoding process extracts the faulty-block
columns of ``H`` into ``F`` and the surviving-block columns into ``S``
(paper, Section II-B).  The same split is applied per sub-matrix by PPM,
plus compaction of all-zero columns that partitioning creates
("all sub-matrices do not include the all zero columns", Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gfmatrix import GFMatrix


@dataclass(frozen=True)
class FSSplit:
    """The (F, S) pair for one (sub-)matrix decode.

    Attributes
    ----------
    F:
        Columns of the source matrix for the faulty blocks, in
        ``faulty_ids`` order.
    S:
        Columns for the surviving blocks with all-zero columns dropped,
        in ``survivor_ids`` order.
    faulty_ids / survivor_ids:
        Global block ids (column ids of the full ``H``) labelling the
        columns of ``F`` and ``S``.
    """

    F: GFMatrix
    S: GFMatrix
    faulty_ids: tuple[int, ...]
    survivor_ids: tuple[int, ...]


def split_fs(
    h: GFMatrix,
    faulty: Sequence[int],
    column_ids: Sequence[int] | None = None,
    drop_zero_survivor_columns: bool = True,
) -> FSSplit:
    """Split ``h`` into F (faulty columns) and S (surviving columns).

    Parameters
    ----------
    h:
        The parity-check matrix or a row-subset of it.
    faulty:
        Global ids of faulty blocks.  Ids not present in ``column_ids``
        are ignored (they are another sub-matrix's responsibility).
    column_ids:
        Global block id of each column of ``h``; defaults to
        ``0..cols-1`` (i.e. ``h`` is the full parity-check matrix).
    drop_zero_survivor_columns:
        Compact S by removing survivor columns that are all zero — those
        survivors do not participate in this sub-matrix at all.
    """
    cols = h.cols
    ids = np.asarray(range(cols) if column_ids is None else list(column_ids), dtype=np.intp)
    if len(ids) != cols:
        raise ValueError(f"column_ids has {len(ids)} entries for {cols} columns")
    is_faulty = (ids[:, None] == np.asarray(list(faulty), dtype=np.intp)).any(axis=1)
    faulty_pos = np.flatnonzero(is_faulty)
    survivors = ~is_faulty
    if drop_zero_survivor_columns:
        survivors &= h.array.any(axis=0)
    survivor_pos = np.flatnonzero(survivors)
    return FSSplit(
        F=h.take_columns(faulty_pos),
        S=h.take_columns(survivor_pos),
        faulty_ids=tuple(ids[faulty_pos].tolist()),
        survivor_ids=tuple(ids[survivor_pos].tolist()),
    )


def nonzero_columns(h: GFMatrix, rows: Sequence[int]) -> list[int]:
    """Column indices with at least one nonzero entry among ``rows``."""
    if not rows:
        return []
    sub = h.array[list(rows), :]
    return [int(c) for c in np.nonzero(sub.any(axis=0))[0]]
