"""Dense matrices over GF(2^w).

:class:`GFMatrix` wraps a 2-D NumPy array of field symbols together with
its field.  The matrices involved in erasure decoding are tiny compared to
the data regions (the paper: ``w <= 4`` bytes per coefficient vs sectors of
512+ bytes), so this module favours clarity over micro-optimisation;
the field's own ``mul`` decides how a product is computed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..gf import GF

#: Most products :func:`matmul_stack` holds at once (one row of its
#: right operand when that row alone is longer).
MATMUL_BLOCK = 1 << 16


def matmul_stack(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` over ``field`` for a ``(B, n, k)`` and a ``(B, k, m)``
    stack (:meth:`GFMatrix.__matmul__` is a stack of one): broadcast
    ``field.mul`` products XOR-reduced over ``k``, in blocks of members,
    rows and ``k`` of at most :data:`MATMUL_BLOCK` products."""
    count, rows, inner = a.shape
    cols = max(1, b.shape[2])
    out = field.zeros((count, rows, b.shape[2]))
    k_step = max(1, min(inner, MATMUL_BLOCK // cols))
    step = max(1, MATMUL_BLOCK // (k_step * cols))  # (member, row) pairs per block
    r_step, m_step = min(rows, step) or 1, max(1, step // max(1, rows))
    for m in range(0, count, m_step):
        for lo in range(0, rows, r_step):
            at = (slice(m, m + m_step), slice(lo, lo + r_step))
            for k in range(0, inner, k_step):
                ks = slice(k, k + k_step)
                terms = field.mul(a[at + (ks, None)], b[m : m + m_step, None, ks])
                out[at] ^= np.bitwise_xor.reduce(terms, axis=2)
    return out


class GFMatrix:
    """A rows x cols matrix of GF(2^w) symbols.

    The underlying array is private to the instance (constructors copy by
    default); indexing returns plain symbols / NumPy views of a copy-safe
    kind via :meth:`row`, :meth:`take_rows`, :meth:`take_columns`.
    """

    __slots__ = ("field", "_data")

    def __init__(self, field: GF, data, copy: bool = True):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError(f"GFMatrix requires a 2-D array, got shape {arr.shape}")
        if arr.dtype != field.dtype:
            arr = arr.astype(field.dtype)
        elif copy:
            arr = arr.copy()
        # only a dtype wider than w bits (w = 4) can hold a non-symbol
        if arr.dtype.itemsize * 8 > field.w and arr.size and int(arr.max()) > field.order:
            raise ValueError("matrix entries exceed the field order")
        self.field = field
        self._data = arr

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, field: GF, rows: int, cols: int) -> "GFMatrix":
        """All-zero matrix."""
        return cls(field, field.zeros((rows, cols)), copy=False)

    @classmethod
    def identity(cls, field: GF, size: int) -> "GFMatrix":
        """Identity matrix."""
        return cls(field, field.eye(size), copy=False)

    @classmethod
    def from_rows(cls, field: GF, rows: Iterable[Sequence[int]]) -> "GFMatrix":
        """Matrix from an iterable of coefficient rows."""
        return cls(field, np.array(list(rows), dtype=field.dtype), copy=False)

    # -- basic accessors ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the coefficient array."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    def __getitem__(self, idx):
        return self._data[idx]

    def __setitem__(self, idx, value):
        self._data[idx] = value

    def __eq__(self, other) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.field is other.field and np.array_equal(self._data, other._data)

    def __hash__(self):
        return hash((self.field.w, self.field.polynomial, self._data.tobytes(), self.shape))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GFMatrix(GF(2^{self.field.w}), {self.rows}x{self.cols})"

    def copy(self) -> "GFMatrix":
        return GFMatrix(self.field, self._data, copy=True)

    # -- structure ---------------------------------------------------------

    @property
    def nonzero_count(self) -> int:
        """u(M): the number of nonzero coefficients (the paper's cost unit)."""
        return int(np.count_nonzero(self._data))

    def row(self, i: int) -> np.ndarray:
        """Copy of row ``i``."""
        return self._data[i].copy()

    def take_rows(self, indices: Sequence[int]) -> "GFMatrix":
        """New matrix from the given rows, in the given order."""
        return GFMatrix(self.field, self._data[list(indices), :], copy=False)

    def take_columns(self, indices: Sequence[int]) -> "GFMatrix":
        """New matrix from the given columns, in the given order."""
        return GFMatrix(self.field, self._data[:, list(indices)], copy=False)

    def hstack(self, other: "GFMatrix") -> "GFMatrix":
        """Horizontal concatenation ``[self | other]``."""
        if other.field is not self.field:
            raise ValueError("cannot hstack matrices over different fields")
        return GFMatrix(self.field, np.hstack([self._data, other._data]), copy=False)

    def vstack(self, other: "GFMatrix") -> "GFMatrix":
        """Vertical concatenation."""
        if other.field is not self.field:
            raise ValueError("cannot vstack matrices over different fields")
        return GFMatrix(self.field, np.vstack([self._data, other._data]), copy=False)

    @property
    def T(self) -> "GFMatrix":
        return GFMatrix(self.field, self._data.T, copy=True)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "GFMatrix") -> "GFMatrix":
        """Matrix addition (XOR)."""
        if not isinstance(other, GFMatrix):
            return NotImplemented
        if other.field is not self.field or other.shape != self.shape:
            raise ValueError("shape/field mismatch in matrix addition")
        return GFMatrix(self.field, self._data ^ other._data, copy=False)

    __sub__ = __add__  # characteristic 2: subtraction == addition

    def scale(self, a: int) -> "GFMatrix":
        """Multiply every entry by the scalar ``a``."""
        return GFMatrix(
            self.field, self.field.mul(self.field.dtype.type(a), self._data), copy=False
        )

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        """Matrix product over the field."""
        if not isinstance(other, GFMatrix):
            return NotImplemented
        if other.field is not self.field:
            raise ValueError("cannot multiply matrices over different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        product = matmul_stack(self.field, self._data[None], other._data[None])
        return GFMatrix(self.field, product[0], copy=False)

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """Matrix times a symbol vector (not a region; used in tests)."""
        v = np.asarray(vector, dtype=self.field.dtype).reshape(-1, 1)
        return (self @ GFMatrix(self.field, v, copy=False))._data.ravel()
