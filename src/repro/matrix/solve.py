"""Gaussian elimination over GF(2^w): inversion, rank, row selection.

Decoding (Steps 2-4 of the paper's process) needs ``F`` inverted; the PPM
partition additionally needs to *select* an invertible square submatrix
from an overdetermined group of parity rows (e.g. an SD stripe row with
fewer faults than coding disks contributes m rows for v < m faults).
Both are one row-ordered Gauss-Jordan pass (:func:`select_and_invert`),
which picks the rows and inverts the square matrix they form together.
:func:`rank` is separate: it is the verifier's own primitive.
"""

from __future__ import annotations

import numpy as np

from .gfmatrix import GFMatrix


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is rank-deficient.

    In decoding terms: the failure scenario is not recoverable by this
    code instance (more erasures than the code tolerates, or a coefficient
    set without the required independence).
    """


def _eliminate(matrix: GFMatrix, need: int) -> tuple[list[int], list[int], np.ndarray]:
    """Row-ordered Gauss-Jordan elimination: the one elimination loop.

    Rows are taken in order.  Each is reduced against the rows kept so
    far and kept if anything is left of it (first wins), until ``need``
    rows are kept.  The kept rows stay in reduced row-echelon form beside
    the transform that made them: ``aug = [E | T]`` with
    ``E = T @ matrix[chosen]``.

    Returns ``(chosen, pivots, T)``: the kept row indices, the pivot
    column of each row of ``E`` and the ``need x need`` transform.  When
    ``need == cols``, ``E`` is a permutation matrix, so the inverse of
    ``matrix[chosen]`` is ``T`` with its rows moved to ``pivots``.
    Raises :class:`SingularMatrixError` if fewer than ``need`` rows are
    independent.
    """
    f = matrix.field
    cols = matrix.cols
    a = matrix.array
    aug = f.zeros((need, cols + need))
    chosen: list[int] = []
    pivots: list[int] = []
    for i in range(matrix.rows):
        k = len(chosen)
        if k == need:
            break
        row = f.zeros(cols + need)
        row[:cols] = a[i]
        row[cols + k] = 1
        factors = row[pivots]
        nz = np.flatnonzero(factors)
        if nz.size:
            row ^= np.bitwise_xor.reduce(f.mul(factors[nz][:, None], aug[nz]), axis=0)
        lead = np.flatnonzero(row[:cols])
        if not lead.size:
            continue  # in the span of the rows already kept
        pivot = int(lead[0])
        if row[pivot] != 1:
            row = f.mul(f.inv(row[pivot]), row)
        # clear the new pivot column from the kept rows (reduced form)
        above = aug[:k, pivot]
        nz = np.flatnonzero(above)
        if nz.size:
            aug[nz] ^= f.mul(above[nz][:, None], row[None, :])
        aug[k] = row
        chosen.append(i)
        pivots.append(pivot)
    if len(chosen) < need:
        raise SingularMatrixError(
            f"only {len(chosen)} independent rows available, {need} required"
        )
    return chosen, pivots, aug[:, cols:]


def select_and_invert(matrix: GFMatrix) -> tuple[list[int], GFMatrix]:
    """First-wins independent rows making ``matrix`` square, and the
    inverse of the square matrix they form — one elimination.

    ``matrix`` has at least as many rows as columns (an overdetermined
    ``F``).  Raises :class:`SingularMatrixError` if its rank is below its
    column count.
    """
    chosen, pivots, transform = _eliminate(matrix, matrix.cols)
    inverse = np.empty_like(transform)
    inverse[pivots] = transform
    return chosen, GFMatrix(matrix.field, inverse, copy=False)


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


def rank(matrix: GFMatrix) -> int:
    """Rank of a GF matrix via row echelon reduction."""
    f = matrix.field
    a = matrix.array.copy()
    r = 0
    for col in range(matrix.cols):
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
        below = a[r + 1 :, col].copy()
        nz = np.nonzero(below)[0]
        if nz.size:
            a[r + 1 + nz] ^= f.mul(below[nz][:, None], a[r][None, :])
        r += 1
    return r


def select_independent_rows(matrix: GFMatrix, need: int | None = None) -> list[int]:
    """Indices of rows forming a full-rank subset (greedy, first-wins).

    Used to pick ``need`` rows whose restriction to the faulty columns is
    invertible out of an overdetermined parity group.  Raises
    :class:`SingularMatrixError` if fewer than ``need`` independent rows
    exist.
    """
    return _eliminate(matrix, matrix.cols if need is None else need)[0]


def solve(a: GFMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for a square invertible ``a`` (symbol vectors)."""
    return invert(a).matvec(b)


def is_invertible(matrix: GFMatrix) -> bool:
    """True iff the square matrix has full rank."""
    if matrix.rows != matrix.cols:
        return False
    return rank(matrix) == matrix.rows
