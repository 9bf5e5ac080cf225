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

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..gf import GF
from ..matrix import (
    GFMatrix,
    SingularMatrixError,
    invert,
    select_independent_rows,
    split_fs,
    u,
)
from .logtable import LogTableEntry, build_log_table

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

    @property
    def cost(self) -> int:
        return u(self.weights)


#: Distinct group coefficient blocks remembered by :func:`_group_weights`.
#: A code has few: 512 worst-case SD(10,8,2,2) patterns hold 3,130 groups
#: but only 45 distinct ``(F_i, S_i)`` pairs, one per dead-disk pair.
GROUP_SOLVE_CACHE_SIZE = 1024


@lru_cache(maxsize=GROUP_SOLVE_CACHE_SIZE)
def _group_weights(
    field: GF, f_shape: tuple, f_bytes: bytes, s_shape: tuple, s_bytes: bytes
) -> np.ndarray | None:
    """``F_i^-1 S_i`` of one independent group, memoised by content, or
    ``None`` when ``F_i`` is singular.

    The key is the coefficients alone, with no block ids: groups in
    different stripe rows of one code solve the same matrices.  Returns
    a read-only array; callers wrap it in their own matrix.
    """
    f = np.frombuffer(f_bytes, dtype=field.dtype).reshape(f_shape)
    s = np.frombuffer(s_bytes, dtype=field.dtype).reshape(s_shape)
    try:
        f_inv = invert(GFMatrix(field, f, copy=False))
    except SingularMatrixError:
        return None
    return (f_inv @ GFMatrix(field, s, copy=False)).array


def _solve_group(h: GFMatrix, rows: Sequence[int], support: tuple[int, ...]) -> GroupPlan:
    """One candidate group's sub-plan: the first-wins ``len(support)`` of
    ``rows`` whose restriction to ``support`` has full rank, and
    ``W_i = F_i^-1 S_i``.

    The first ``t`` rows are that pick whenever their ``F_i`` is
    invertible, which the memo answers by content, so the row selection
    is a memo lookup.  Only when it is not does the elimination choose
    the rows, raising :class:`~repro.matrix.SingularMatrixError` if none
    will do.
    """

    def lookup(picked: tuple[int, ...]) -> GroupPlan | None:
        split = split_fs(h.take_rows(picked), support)
        f, s = split.F.array, split.S.array
        w = _group_weights(h.field, f.shape, f.tobytes(), s.shape, s.tobytes())
        if w is None:
            return None
        return GroupPlan(picked, split.faulty_ids, split.survivor_ids, GFMatrix(h.field, w))

    group = lookup(tuple(rows[: len(support)]))
    if group is None:
        f = GFMatrix(h.field, h.array[np.ix_(rows, support)], copy=False)
        chosen = select_independent_rows(f, len(support))
        group = lookup(tuple(rows[i] for i in chosen))
    assert group is not None  # first-wins rows are independent by construction
    return group


def partition(
    h: GFMatrix,
    faulty: Sequence[int],
    log_table: Sequence[LogTableEntry] | None = None,
) -> Partition:
    """General log-table partition of ``h`` for a failure scenario."""
    return solve_partition(h, faulty, log_table)[0]


def solve_partition(
    h: GFMatrix,
    faulty: Sequence[int],
    log_table: Sequence[LogTableEntry] | None = None,
) -> tuple[Partition, tuple[GroupPlan, ...]]:
    """:func:`partition` and each group's sub-plan, in group order.

    A candidate group's rows are picked, and its ``W_i`` solved, by one
    lookup in the content-keyed group memo.
    """
    faulty = sorted(set(faulty))
    entries = build_log_table(h, faulty) if log_table is None else list(log_table)
    discarded = [e.i for e in entries if e.t == 0]
    by_support: dict[tuple[int, ...], list[int]] = {}
    for e in entries:
        if e.t > 0:
            by_support.setdefault(e.l, []).append(e.i)
    # smaller supports first so singletons claim their blocks before any
    # larger overlapping group; ties broken by first row id for determinism
    ordered = sorted(by_support.items(), key=lambda kv: (len(kv[0]), kv[1][0]))
    solved: list[tuple[IndependentGroup, GroupPlan]] = []
    covered: set[int] = set()
    rest_rows: list[int] = []
    for support, rows in ordered:
        t = len(support)
        if covered.intersection(support) or len(rows) < t:
            # overlaps an accepted group, or underdetermined: H_rest decides
            rest_rows.extend(rows)
            continue
        try:
            plan = _solve_group(h, rows, tuple(support))
        except SingularMatrixError:
            rest_rows.extend(rows)
            continue
        redundant = tuple(rid for rid in rows if rid not in plan.row_ids)
        group = IndependentGroup(
            row_ids=plan.row_ids, faulty_ids=tuple(support), redundant_row_ids=redundant
        )
        solved.append((group, plan))
        covered.update(support)
    solved.sort(key=lambda pair: pair[0].row_ids[0])
    rest_faulty = tuple(b for b in faulty if b not in covered)
    part = Partition(
        groups=tuple(group for group, _ in solved),
        rest_row_ids=tuple(sorted(rest_rows)),
        rest_faulty_ids=rest_faulty,
        discarded_row_ids=tuple(discarded),
    )
    return part, tuple(plan for _, plan in solved)


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
