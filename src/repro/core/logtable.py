"""The PPM Log Table (paper, Section III-A).

For a parity-check matrix ``H`` and a failure scenario, each row ``i`` of
the log table is ``(i, t_i, l_i)``:

- ``t_i`` — how many nonzero entries of row ``i`` sit in columns that
  correspond to faulty blocks;
- ``l_i`` — which faulty columns those are.

The table drives independence exploitation: a row with ``t_i == 1``
recovers its faulty block alone; ``f`` rows sharing an identical ``l`` of
size ``f`` recover those ``f`` blocks as a self-contained group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..matrix import GFMatrix


@dataclass(frozen=True)
class LogTableEntry:
    """One row of the log table: ``(i, t_i, l_i)``."""

    i: int
    t: int
    l: tuple[int, ...]

    def __post_init__(self):
        if self.t != len(self.l):
            raise ValueError(f"t={self.t} does not match |l|={len(self.l)}")


def support_groups(
    h: GFMatrix, patterns: Sequence[Sequence[int]]
) -> list[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Each pattern's log table grouped by support: ``(l, rows)`` for
    every distinct ``l``, ordered by ``(|l|, first row)``.

    ``patterns`` hold sorted, distinct faulty ids; one that is not a
    column of ``h`` is an ``IndexError``.  A batch is one array pass: the
    nonzero mask of ``H[:, faulty]`` per pattern, each row's support
    packed into bytes (``np.packbits``) behind its pattern's index, and
    one ``np.unique`` over those signatures.
    """
    count, (rows, cols) = len(patterns), h.shape
    chosen = np.zeros((count, cols), dtype=bool)
    for i, faulty in enumerate(patterns):
        for b in faulty:
            if not (0 <= b < cols):
                raise IndexError(f"faulty column {b} outside 0..{cols - 1}")
        chosen[i, list(faulty)] = True
    mask = ((h.array != 0) & chosen[:, None, :]).reshape(count * rows, cols)
    owner = np.arange(count * rows, dtype=np.int64) // rows  # each row's pattern
    signature = np.hstack((owner.view(np.uint8).reshape(-1, 8), np.packbits(mask, axis=1)))
    _, first, inverse, counts = np.unique(
        signature, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    inverse, sizes = inverse.reshape(-1), mask.sum(axis=1)
    lead = first[inverse]  # each row's group, named by its first row
    order = np.lexsort((lead, sizes, owner))  # stable: a group's rows stay in order
    heads = order[lead[order] == order]
    row_ids, col_ids = (order % rows).tolist(), mask[heads].nonzero()[1].tolist()
    grouped: list[list] = [[] for _ in patterns]
    r = c = 0
    per_group = (heads // rows, counts[inverse[heads]], sizes[heads])
    for p, n, t in zip(*(a.tolist() for a in per_group)):
        grouped[p].append((tuple(col_ids[c : c + t]), tuple(row_ids[r : r + n])))
        r, c = r + n, c + t
    return grouped


def build_log_table(h: GFMatrix, faulty: Sequence[int]) -> list[LogTableEntry]:
    """Build the log table of ``h`` for the given faulty column ids, read
    off :func:`support_groups`."""
    entries: list[LogTableEntry] = []
    for support, rows in support_groups(h, [sorted(set(faulty))])[0]:
        entries.extend(LogTableEntry(i, len(support), support) for i in rows)
    return sorted(entries, key=lambda e: e.i)


def format_log_table(entries: Sequence[LogTableEntry]) -> str:
    """Render the log table the way the paper's Figure 3 prints it."""
    lines = ["  i  t_i  l_i"]
    for e in entries:
        lines.append(f"  {e.i:<3}{e.t:<5}({', '.join(str(c) for c in e.l)})")
    return "\n".join(lines)
