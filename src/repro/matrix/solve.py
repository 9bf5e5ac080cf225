"""Gaussian elimination over GF(2^w): inversion, rank, row selection.

Decoding (Steps 2-4 of the paper's process) needs ``F`` inverted; the PPM
partition additionally needs to *select* an invertible square submatrix
from an overdetermined group of parity rows (e.g. an SD stripe row with
fewer faults than coding disks contributes m rows for v < m faults).
Both are one row-ordered Gauss-Jordan pass (:func:`select_and_invert`),
which picks the rows and inverts the square matrix they form together.
The pass runs over a stack of same-shape matrices at once
(:func:`select_and_invert_stack`: the planner eliminates every square
system of a batch of patterns together); a single matrix is a stack of
one.  :func:`rank` and :func:`reduced_row_echelon` are separate: they are the
verifier's own primitives.
"""

from __future__ import annotations

import numpy as np

from ..gf import GF
from .gfmatrix import GFMatrix


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is rank-deficient.

    In decoding terms: the failure scenario is not recoverable by this
    code instance (more erasures than the code tolerates, or a coefficient
    set without the required independence).
    """


def _eliminate(
    field: GF, stack: np.ndarray, need: int
) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
    """Row-ordered Gauss-Jordan elimination: the one elimination loop.

    ``stack`` is ``B`` matrices of one shape, ``(B, rows, cols)``.  Each
    member runs the same first-wins pass: rows are taken in order, each
    is reduced against the member's rows kept so far and kept if
    anything is left of it, until ``need`` rows are kept.  The kept rows
    stay in reduced row-echelon form beside the transform that made
    them: ``[E | T]`` with ``E = T @ matrix[chosen]``.  Every member
    advances one row per iteration, so a stack costs ``rows`` Python
    iterations whatever ``B`` is; a stack of one is the single-matrix
    pass.

    Returns ``(chosen, pivots, T)``: per member the kept row indices —
    fewer than ``need`` when its rank falls short, which the caller
    turns into :class:`SingularMatrixError` — then the ``(B, need)``
    pivot column of each row of ``E`` and the ``(B, need, need)``
    transforms (meaningful for full-rank members only).  When ``need ==
    cols``, ``E`` is a permutation matrix, so the inverse of
    ``matrix[chosen]`` is ``T`` with its rows moved to ``pivots``.
    """
    f = field
    count, rows, cols = stack.shape
    # [M | I], reduced in place: row i arrives carrying e_i, a kept row
    # stays in its own slot and a dropped one is zeroed, so the rows
    # above i are exactly the kept basis (zeros reduce nothing) and the
    # transform is read back from the kept rows' columns at the end
    work = f.zeros((count, rows, cols + rows))
    work[:, :, :cols] = stack
    work[:, :, cols:] = f.eye(rows)
    pivots = np.zeros((count, rows), dtype=np.intp)
    taken = np.zeros((count, rows), dtype=bool)
    members = np.arange(count, dtype=np.intp)
    for i in range(rows):
        if i >= need or need < cols:
            kept = np.count_nonzero(taken[:, :i], axis=1)
            if kept.min() == need:
                break  # every member has its rows
        row = work[:, i]
        if i:
            factors = row[members[:, None], pivots[:, :i]]
            row ^= np.bitwise_xor.reduce(f.mul(factors[:, :, None], work[:, :i]), axis=1)
        lead = row[:, :cols] != 0
        pivot = lead.argmax(axis=1)
        found = lead[members, pivot]
        if need < cols:
            found &= kept < need  # a member with need rows takes no more
        if np.count_nonzero(found) == count:
            # every member keeps this row: whole-stack slices, no masking
            at, sel = slice(None), members
        else:
            row[~found] = 0  # dropped: the slot stays an all-zero row
            at = sel = np.flatnonzero(found)
            if not at.size:
                continue
            pivot = pivot[at]
        kept_row = f.mul(f.inv(row[sel, pivot])[:, None], row[at])
        row[at] = kept_row
        if i:
            # clear the new pivot column from the kept rows (reduced form)
            above = work[sel, :i, pivot]
            work[at, :i] ^= f.mul(above[:, :, None], kept_row[:, None, :])
        pivots[at, i] = pivot
        taken[:, i] = found
    chosen = [t.nonzero()[0].tolist() for t in taken]
    if not rows:  # nothing to read back: every member is short
        return chosen, np.zeros((count, need), dtype=np.intp), f.zeros((count, need, need))
    # full-rank members' kept rows; a short member reads row 0 instead
    rows_of = np.array([c if len(c) == need else [0] * need for c in chosen], dtype=np.intp)
    rows_of = rows_of.reshape(count, need)
    index = members[:, None]
    transforms = work[index[:, :, None], rows_of[:, :, None], cols + rows_of[:, None, :]]
    return chosen, pivots[index, rows_of], transforms


def _short_rank(found: int, need: int) -> SingularMatrixError:
    return SingularMatrixError(
        f"only {found} independent rows available, {need} required"
    )


def select_and_invert_stack(
    field: GF, stack: np.ndarray
) -> list[tuple[list[int], np.ndarray] | SingularMatrixError]:
    """:func:`select_and_invert` for every member of a ``(B, rows, cols)``
    stack in one elimination.

    Each entry is the member's ``(rows, inverse array)``, or the
    :class:`SingularMatrixError` :func:`select_and_invert` would raise
    for it — returned, not raised, so one singular member does not stop
    the others.
    """
    need = stack.shape[2]
    chosen, pivots, transforms = _eliminate(field, stack, need)
    results: list[tuple[list[int], np.ndarray] | SingularMatrixError] = []
    for rows, pivot, transform in zip(chosen, pivots, transforms):
        if len(rows) < need:
            results.append(_short_rank(len(rows), need))
            continue
        inverse = np.empty_like(transform)
        inverse[pivot] = transform
        results.append((rows, inverse))
    return results


def select_and_invert(matrix: GFMatrix) -> tuple[list[int], GFMatrix]:
    """First-wins independent rows making ``matrix`` square, and the
    inverse of the square matrix they form — one elimination.

    ``matrix`` has at least as many rows as columns (an overdetermined
    ``F``).  Raises :class:`SingularMatrixError` if its rank is below its
    column count.
    """
    (result,) = select_and_invert_stack(matrix.field, matrix.array[None])
    if isinstance(result, SingularMatrixError):
        raise result
    rows, inverse = result
    return rows, GFMatrix(matrix.field, inverse, copy=False)


def invert(matrix: GFMatrix) -> GFMatrix:
    """Inverse of a square GF matrix by Gauss-Jordan elimination.

    Raises :class:`SingularMatrixError` if the matrix is singular.
    """
    if matrix.rows != matrix.cols:
        raise ValueError(f"cannot invert non-square matrix {matrix.shape}")
    return select_and_invert(matrix)[1]


def _find_pivot(a: np.ndarray, col: int, start_row: int) -> int | None:
    rows = np.nonzero(a[start_row:, col])[0]
    if rows.size == 0:
        return None
    return start_row + int(rows[0])


def _echelon(matrix: GFMatrix, reduced: bool) -> tuple[list[int], np.ndarray]:
    """Row echelon form by elimination, pivots scaled to 1: the pivot
    columns, and the array whose first ``len(pivots)`` rows hold the
    form.  ``reduced`` also clears each pivot column above its pivot."""
    f = matrix.field
    a = matrix.array.copy()
    pivots: list[int] = []
    for col in range(matrix.cols):
        r = len(pivots)
        if r == matrix.rows:
            break
        pivot = _find_pivot(a, col, r)
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        pv = a[r, col]
        if pv != 1:
            a[r] = f.mul(f.inv(pv), a[r])
        factors = a[:, col].copy()
        factors[r if reduced else 0 : r + 1] = 0
        nz = np.nonzero(factors)[0]
        if nz.size:
            a[nz] ^= f.mul(factors[nz][:, None], a[r][None, :])
        pivots.append(col)
    return pivots, a


def rank(matrix: GFMatrix) -> int:
    """Rank of a GF matrix via row echelon reduction."""
    return len(_echelon(matrix, reduced=False)[0])


def reduced_row_echelon(matrix: GFMatrix) -> tuple[list[int], np.ndarray]:
    """Pivot columns and the ``(rank, cols)`` reduced row-echelon basis of
    the row space: a vector ``v`` lies in it iff
    ``v - v[pivots] @ basis`` is zero."""
    pivots, a = _echelon(matrix, reduced=True)
    return pivots, a[: len(pivots)]


def select_independent_rows(matrix: GFMatrix, need: int | None = None) -> list[int]:
    """Indices of rows forming a full-rank subset (greedy, first-wins).

    Used to pick ``need`` rows whose restriction to the faulty columns is
    invertible out of an overdetermined parity group.  Raises
    :class:`SingularMatrixError` if fewer than ``need`` independent rows
    exist.
    """
    need = matrix.cols if need is None else need
    (chosen,), _, _ = _eliminate(matrix.field, matrix.array[None], need)
    if len(chosen) < need:
        raise _short_rank(len(chosen), need)
    return chosen


def solve(a: GFMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for a square invertible ``a`` (symbol vectors)."""
    return invert(a).matvec(b)


def is_invertible(matrix: GFMatrix) -> bool:
    """True iff the square matrix has full rank."""
    if matrix.rows != matrix.cols:
        return False
    return rank(matrix) == matrix.rows
