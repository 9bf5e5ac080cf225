"""Independence exploitation and matrix partition (paper, Section III-A).

``partition`` is the general log-table method: group the rows of ``H`` by
their faulty-column support ``l``; a group holding at least ``t = |l|``
rows whose restriction to ``l`` has full rank becomes an *independent
sub-matrix* recovering exactly those ``t`` blocks; everything else feeds
the *remaining sub-matrix* ``H_rest``.

``partition_sd`` is the paper's SD fast path (Algorithm 1): a stripe row
with ``1 <= c <= m`` faults donates its ``m`` disk-parity rows as one
independent group.  (Algorithm 1 as printed says ``c > m`` — a typo: the
worked example, Figure 3 and the surrounding text all recover rows with
``c <= m`` independently and send rows with more faults to ``H_rest``.)
Both methods produce identical recovered-block groupings on SD scenarios,
which the test suite asserts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..gf import GF
from ..matrix import (
    GFMatrix,
    SingularMatrixError,
    matmul_stack,
    select_and_invert_stack,
    select_independent_rows,
    u,
)
from .logtable import support_groups

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (codes -> core)
    from ..codes.sd import SDCode


@dataclass(frozen=True)
class IndependentGroup:
    """One independent sub-matrix: ``row_ids`` of H recovering ``faulty_ids``.

    ``redundant_row_ids`` are surplus rows of the same support group (an
    overdetermined group, e.g. m parity rows for c < m faults); they carry
    no information beyond the selected rows and are dropped.
    """

    row_ids: tuple[int, ...]
    faulty_ids: tuple[int, ...]
    redundant_row_ids: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return len(self.faulty_ids)


@dataclass(frozen=True)
class Partition:
    """The p + 1-way split of H for one failure scenario.

    ``groups`` are the p independent sub-matrices (decodable in
    parallel); ``rest_row_ids`` form H_rest; ``rest_faulty_ids`` are the
    dependent faulty blocks it must recover; ``discarded_row_ids`` had no
    faulty support at all (pure checks, t_i == 0).
    """

    groups: tuple[IndependentGroup, ...]
    rest_row_ids: tuple[int, ...]
    rest_faulty_ids: tuple[int, ...]
    discarded_row_ids: tuple[int, ...]

    @property
    def p(self) -> int:
        """Degree of parallelism: the number of independent sub-matrices."""
        return len(self.groups)

    @property
    def independent_faulty_ids(self) -> tuple[int, ...]:
        """All blocks recovered in the parallel phase, sorted."""
        return tuple(sorted(b for g in self.groups for b in g.faulty_ids))

    @property
    def has_rest(self) -> bool:
        """True in the paper's "common case 3.2": H_rest is non-trivial."""
        return bool(self.rest_faulty_ids)


@dataclass(frozen=True)
class GroupPlan:
    """Matrix-first decode of one independent sub-matrix.

    Recover ``faulty_ids`` as ``W @ [blocks[s] for s in survivor_ids]``;
    the cost is ``u(W)`` mult_XORs.
    """

    row_ids: tuple[int, ...]
    faulty_ids: tuple[int, ...]
    survivor_ids: tuple[int, ...]
    weights: GFMatrix

    @cached_property
    def cost(self) -> int:
        return u(self.weights)


#: Candidate groups the group memo remembers.  A code has few positions:
#: 512 worst-case SD(10,8,2,2) patterns hold 3,130 groups at only 360
#: positions, one per dead-disk pair and stripe row.
GROUP_SOLVE_CACHE_SIZE = 1024

#: The one group memo, keyed by position ``(id(H), rows, support)``.  An
#: entry is ``(solved, H)``: ``(first row, IndependentGroup, GroupPlan)``,
#: or ``None`` with no full-rank pick; holding ``H`` keeps its id from
#: being reused.  Writes take the lock; a full memo drops its oldest entry.
_group_memo: dict[tuple, tuple] = {}
_group_memo_lock = threading.Lock()


def solve_squares(h: GFMatrix, systems: Sequence[tuple], product=matmul_stack) -> list[Any]:
    """Each square system ``(rows, faulty)`` of ``h`` solved: its plan
    fields with ``u(F^-1) + u(S)`` and ``u(W)``, or its
    :class:`~repro.matrix.SingularMatrixError`.  Systems of one shape are
    one stack: one first-wins elimination picks each member's rows, then
    one ``product`` gives ``W = F^-1 S`` over ``H[picked]``'s non-faulty
    columns, and each member drops the columns where its ``S`` is zero.
    Every matrix is read-only: a cached plan serves every stripe of its
    pattern.
    """

    def frozen(array: np.ndarray) -> GFMatrix:
        array.setflags(write=False)
        return GFMatrix(h.field, array, copy=False)

    solved: list[Any] = [None] * len(systems)
    stacks: dict[tuple[int, int], list[int]] = {}
    for i, (rows, faulty) in enumerate(systems):
        stacks.setdefault((len(rows), len(faulty)), []).append(i)
    for members in stacks.values():
        rows = np.array([systems[i][0] for i in members], dtype=np.intp)
        faulty = np.array([systems[i][1] for i in members], dtype=np.intp)
        eliminated = select_and_invert_stack(h.field, h.array[rows[:, :, None], faulty[:, None, :]])
        full = {j: result for j, result in enumerate(eliminated) if isinstance(result, tuple)}
        for i, result in zip(members, eliminated):
            solved[i] = result  # a full-rank member's is replaced below
        if not full:
            continue
        at = np.arange(len(full))[:, None]
        picked = rows[list(full)][at, [chosen for chosen, _ in full.values()]]
        f_inv = np.stack([inverse for _, inverse in full.values()])
        free = np.ones((len(full), h.cols), dtype=bool)
        free[at, faulty[list(full)]] = False
        others = free.nonzero()[1].reshape(len(full), -1)  # non-faulty columns
        s = h.array[picked[:, :, None], others[:, None, :]]
        w, kept = product(h.field, f_inv, s), s.any(axis=1)
        normal = np.count_nonzero(f_inv, axis=(1, 2)) + np.count_nonzero(s, axis=(1, 2))
        first = np.count_nonzero(w, axis=(1, 2))
        for j, i in enumerate(np.take(members, list(full)).tolist()):
            keep = kept[j]
            fields = dict(
                row_ids=tuple(picked[j].tolist()),
                faulty_ids=systems[i][1],
                survivor_ids=tuple(others[j, keep].tolist()),
                f_inv=frozen(f_inv[j]),
                s=frozen(s[j][:, keep]),
                weights=frozen(w[j][:, keep]),
            )
            solved[i] = (fields, int(normal[j]), int(first[j]))
    return solved


def _group_weights(field: GF, f_inv: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The stacked groups' ``W_i = F_i^-1 S_i``: the product behind memo misses."""
    return matmul_stack(field, f_inv, s)


def _solve_groups(h: GFMatrix, keys: Sequence[tuple]) -> list[tuple]:
    """Group-memo misses, solved together (:func:`solve_squares`) and
    remembered: a key's first-wins ``len(support)`` rows whose ``F_i``
    has full rank, and ``W_i`` from :func:`_group_weights`."""
    entries = []
    solved = solve_squares(h, [key[1:] for key in keys], _group_weights)
    with _group_memo_lock:
        for (_, rows, support), result in zip(keys, solved):
            group = None
            if isinstance(result, tuple):
                fields = result[0]
                picked, survivors = fields["row_ids"], fields["survivor_ids"]
                independent = IndependentGroup(
                    picked, support, tuple(rid for rid in rows if rid not in picked)
                )
                group = (
                    picked[0], independent,
                    GroupPlan(picked, support, survivors, fields["weights"]),
                )
            if len(_group_memo) >= GROUP_SOLVE_CACHE_SIZE:
                del _group_memo[next(iter(_group_memo))]
            entries.append((group, h))
            _group_memo[(id(h), rows, support)] = entries[-1]
    return entries


def partition(h: GFMatrix, faulty: Sequence[int]) -> Partition:
    """General log-table partition of ``h`` for a failure scenario."""
    return solve_partitions(h, [sorted(set(faulty))])[0][0]


def solve_partitions(
    h: GFMatrix, patterns: Sequence[Sequence[int]]
) -> list[tuple[Partition, tuple[GroupPlan, ...]]]:
    """:func:`partition` of each pattern (sorted, in-range faulty ids)
    and each of its groups' sub-plans, in group order.

    The patterns' log tables are grouped in one array pass
    (:func:`~repro.core.logtable.support_groups`).  Candidate groups are
    taken smallest support first, so singletons claim their blocks
    before any larger overlapping group; each one's rows are picked, and
    its ``W_i`` solved, by one lookup in the position-keyed group memo.
    The batch's misses are solved first, together.
    """
    grouped, hid = support_groups(h, patterns), id(h)
    keys = {
        (hid, rows, support): None
        for groups in grouped
        for support, rows in groups
        if len(rows) >= len(support) > 0
    }
    _solve_groups(h, [key for key in keys if key not in _group_memo])
    partitions = []
    for faulty, groups in zip(patterns, grouped):
        solved: list[tuple] = []
        covered: set[int] = set()
        rest_rows: list[int] = []
        discarded: tuple[int, ...] = ()
        for support, rows in groups:
            if not support:
                discarded = rows
                continue
            group: tuple | None = None
            if len(rows) >= len(support) and covered.isdisjoint(support):
                key = (hid, rows, support)
                group = (_group_memo.get(key) or _solve_groups(h, [key])[0])[0]
            if group is None:
                # overlaps an accepted group, underdetermined or singular: H_rest decides
                rest_rows.extend(rows)
                continue
            solved.append(group)
            covered.update(support)
        solved.sort()  # by first row: rows belong to one group each
        part = Partition(
            groups=tuple([g for _, g, _ in solved]),
            rest_row_ids=tuple(sorted(rest_rows)),
            rest_faulty_ids=tuple([b for b in faulty if b not in covered]),
            discarded_row_ids=discarded,
        )
        partitions.append((part, tuple([p for _, _, p in solved])))
    return partitions


def partition_sd(code: "SDCode", faulty: Sequence[int]) -> Partition:
    """SD fast path (Algorithm 1): partition by per-stripe-row fault count.

    For each stripe row ``i`` with ``c`` faults: ``c == 0`` discards the
    row's parity rows, ``1 <= c <= m`` makes them an independent group,
    ``c > m`` sends them to H_rest.  Sector-parity rows always belong to
    H_rest (they span the whole stripe).
    """
    faulty = sorted(set(faulty))
    m, s, n, r = code.m, code.s, code.n, code.r
    h = code.H
    faulty_by_row: dict[int, list[int]] = {}
    for b in faulty:
        faulty_by_row.setdefault(b // n, []).append(b)
    groups: list[IndependentGroup] = []
    rest_rows: list[int] = []
    discarded: list[int] = []
    covered: set[int] = set()
    for i in range(r):
        parity_rows = list(range(m * i, m * i + m))
        row_faults = faulty_by_row.get(i, [])
        c = len(row_faults)
        if c == 0:
            discarded.extend(parity_rows)
        elif c <= m:
            restricted = h.take_rows(parity_rows).take_columns(row_faults)
            try:
                picked = select_independent_rows(restricted, c)
            except SingularMatrixError:
                rest_rows.extend(parity_rows)
                continue
            selected = tuple(parity_rows[j] for j in picked)
            groups.append(
                IndependentGroup(
                    row_ids=selected,
                    faulty_ids=tuple(row_faults),
                    redundant_row_ids=tuple(
                        rid for rid in parity_rows if rid not in selected
                    ),
                )
            )
            covered.update(row_faults)
        else:
            rest_rows.extend(parity_rows)
    rest_rows.extend(range(m * r, m * r + s))  # sector rows span everything
    rest_faulty = tuple(b for b in faulty if b not in covered)
    return Partition(
        groups=tuple(groups),
        rest_row_ids=tuple(sorted(rest_rows)),
        rest_faulty_ids=rest_faulty,
        discarded_row_ids=tuple(sorted(discarded)),
    )
