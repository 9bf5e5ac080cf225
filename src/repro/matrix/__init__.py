"""Dense matrix algebra over GF(2^w).

Public surface: :class:`GFMatrix` and its stacked product
(:func:`matmul_stack`), Gaussian tools (:func:`invert`,
:func:`rank`, :func:`reduced_row_echelon`, :func:`select_independent_rows`,
:func:`select_and_invert`, :func:`select_and_invert_stack`,
:func:`is_invertible`, :func:`solve`,
:class:`SingularMatrixError`), the F/S split (:func:`split_fs`,
:class:`FSSplit`) and sparsity analysis (:func:`u`).
"""

from __future__ import annotations

from .gfmatrix import GFMatrix, matmul_stack
from .paritycheck import FSSplit, nonzero_columns, split_fs
from .solve import (
    SingularMatrixError,
    invert,
    is_invertible,
    rank,
    reduced_row_echelon,
    select_and_invert,
    select_and_invert_stack,
    select_independent_rows,
    solve,
)
from .sparsity import column_weights, density, row_support, row_weights, u

__all__ = [
    "GFMatrix",
    "matmul_stack",
    "FSSplit",
    "split_fs",
    "nonzero_columns",
    "SingularMatrixError",
    "invert",
    "is_invertible",
    "rank",
    "reduced_row_echelon",
    "select_and_invert",
    "select_and_invert_stack",
    "select_independent_rows",
    "solve",
    "u",
    "row_weights",
    "column_weights",
    "row_support",
    "density",
]
