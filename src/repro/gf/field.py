"""Finite-field GF(2^w) arithmetic on scalars and NumPy arrays.

The :class:`GF` object is the root of the arithmetic stack: matrices
(:mod:`repro.matrix`), region operations (:mod:`repro.gf.region`) and the
erasure codes all hold a reference to one.  Supported word sizes are
4, 8 and 16 (log/exp tables; w = 8 multiplies by indexing its full
product table) and 32 (vectorised Russian-peasant multiply plus
per-constant SPLIT tables for region work).

Addition in GF(2^w) is XOR; ``GF`` therefore only implements the
multiplicative structure.
"""

from __future__ import annotations

import numpy as np

from .polynomials import default_polynomial
from .tables import build_logexp, build_mul8, dtype_for

_FIELD_CACHE: dict[tuple[int, int], "GF"] = {}


class GF:
    """GF(2^w) with vectorised multiply/divide/inverse/power.

    Instances are interned per ``(w, polynomial)``: ``GF(8) is GF(8)``.

    Parameters
    ----------
    w:
        Word size in bits; one of 4, 8, 16, 32.
    polynomial:
        Defining primitive polynomial (bit ``i`` = coefficient of x^i,
        including the leading x^w term).  Defaults to the library-wide
        polynomial for ``w``.
    """

    def __new__(cls, w: int, polynomial: int | None = None) -> "GF":
        poly = default_polynomial(w) if polynomial is None else polynomial
        key = (w, poly)
        cached = _FIELD_CACHE.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self._init(w, poly)
        _FIELD_CACHE[key] = self
        return self

    def _init(self, w: int, poly: int) -> None:
        self.w = w
        self.polynomial = poly
        self.dtype = dtype_for(w)
        self.order = (1 << w) - 1  # multiplicative group order
        self.size = 1 << w if w < 63 else None
        if w in (4, 8, 16):
            t = build_logexp(w, poly)
            self._log = t.log
            self._exp = t.exp
            # inverse table: index 0 is never read (inv(0) raises first)
            self._inv = np.zeros(1 << w, dtype=self.dtype)
            self._inv[1:] = t.exp[self.order - t.log[1:].astype(np.int64)]
        else:
            self._log = None
            self._exp = None
            self._inv = None
        self.mul8_table = build_mul8(poly) if w == 8 else None
        # lazy per-constant split-table cache, managed by repro.gf.split
        self._split_cache: dict[int, tuple[np.ndarray, ...]] = {}

    # -- representation ------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GF(2^{self.w}, poly={self.polynomial:#x})"

    def __reduce__(self):
        # Pickle as a constructor call so interning survives round-trips.
        return (GF, (self.w, self.polynomial))

    # -- helpers ---------------------------------------------------------

    def _as_array(self, a) -> np.ndarray:
        arr = np.asarray(a)
        if arr.dtype != self.dtype:
            arr = arr.astype(self.dtype)
        return arr

    def _ret(self, arr: np.ndarray, scalar: bool):
        return arr[()] if scalar or arr.ndim == 0 else arr

    # -- core operations -------------------------------------------------

    def add(self, a, b):
        """Field addition (== subtraction): bitwise XOR."""
        return np.bitwise_xor(self._as_array(a), self._as_array(b))[()]

    def mul(self, a, b):
        """Element-wise field product of scalars or broadcastable arrays."""
        a_arr, b_arr = self._as_array(a), self._as_array(b)
        if self.mul8_table is not None:
            # one gather; 0-d operands index out a scalar of the field dtype
            return self.mul8_table[a_arr, b_arr]
        scalar = a_arr.ndim == 0 and b_arr.ndim == 0
        if self._log is not None:
            a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
            out = self._exp[self._log[a_arr] + self._log[b_arr]]
            if out.ndim:
                zero = (a_arr == 0) | (b_arr == 0)
                out = np.where(zero, 0, out).astype(self.dtype)
            else:
                out = self.dtype.type(0 if (a_arr == 0 or b_arr == 0) else out)
            return self._ret(np.asarray(out), scalar)
        return self._ret(self._mul32(a_arr, b_arr), scalar)

    def _mul32(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Russian-peasant GF(2^32) multiply, vectorised over arrays.

        32 shift/xor rounds in uint64, reduced by the defining polynomial
        on the fly.  Only used for matrix coefficients (tiny arrays);
        bulk region work goes through SPLIT tables instead.
        """
        a64 = a.astype(np.uint64)
        b64 = b.astype(np.uint64)
        a64, b64 = np.broadcast_arrays(a64, b64)
        a64 = a64.copy()
        b64 = b64.copy()
        result = np.zeros(a64.shape, dtype=np.uint64)
        poly = np.uint64(self.polynomial)
        top = np.uint64(1) << np.uint64(self.w)
        one = np.uint64(1)
        for _ in range(self.w):
            result ^= np.where(b64 & one, a64, np.uint64(0))
            b64 >>= one
            a64 <<= one
            a64 ^= np.where(a64 & top, poly, np.uint64(0))
        return result.astype(self.dtype)

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        a_arr = self._as_array(a)
        if not a_arr.all():
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self._inv is not None:
            # one gather; a 0-d operand indexes out a scalar of the field dtype
            return self._inv[a_arr]
        scalar = a_arr.ndim == 0
        # a^(2^w - 2) == a^-1 by Lagrange; square-and-multiply on arrays.
        return self._ret(self._pow32(a_arr, self.order - 1), scalar)

    def div(self, a, b):
        """Element-wise field division ``a / b``."""
        return self.mul(a, self.inv(b))

    def _pow32(self, a: np.ndarray, e: int) -> np.ndarray:
        result = np.ones(a.shape, dtype=self.dtype)
        base = a.copy()
        while e:
            if e & 1:
                result = self._mul32(result, base)
            base = self._mul32(base, base)
            e >>= 1
        return result

    def pow(self, a, e: int):
        """``a ** e`` in the field, with ``a**0 == 1`` (including a == 0)."""
        a_arr = self._as_array(a)
        scalar = a_arr.ndim == 0
        e = int(e)
        if e < 0:
            return self.pow(self.inv(a_arr), -e)
        if e == 0:
            return self._ret(np.ones(a_arr.shape, dtype=self.dtype), scalar)
        if self._log is not None:
            la = self._log[a_arr].astype(np.int64) * e % self.order
            out = self._exp[la].astype(self.dtype)
            if out.ndim:
                out = np.where(a_arr == 0, 0, out).astype(self.dtype)
            elif a_arr == 0:
                out = self.dtype.type(0)
            return self._ret(np.asarray(out), scalar)
        return self._ret(self._pow32(a_arr, e), scalar)

    def generator_powers(self, count: int, start: int = 0) -> np.ndarray:
        """First ``count`` powers of the primitive element 2, from 2**start."""
        if self._log is not None:
            idx = (np.arange(start, start + count, dtype=np.int64)) % self.order
            return self._exp[idx].astype(self.dtype)
        out = np.empty(count, dtype=self.dtype)
        value = self.pow(self.dtype.type(2), start)
        for i in range(count):
            out[i] = value
            value = self.mul(value, self.dtype.type(2))
        return out

    # -- conveniences used by matrix code ---------------------------------

    def zeros(self, shape) -> np.ndarray:
        """Zero array with the field's symbol dtype."""
        return np.zeros(shape, dtype=self.dtype)

    def eye(self, size: int) -> np.ndarray:
        """Identity matrix with the field's symbol dtype."""
        return np.eye(size, dtype=self.dtype)
