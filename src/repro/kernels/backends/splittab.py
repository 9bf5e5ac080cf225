"""Split-table backend for wide words: fused 16-bit-lane gathers.

The baseline executes w=16/32 multiplies through *byte*-lane SPLIT
tables: ``w/8`` strided gathers plus as many XORs per ``MULXOR``.  This
backend fuses adjacent byte lanes into halfword lanes, halving both:

- **w=16** — one 64K-entry table per constant, built through the
  field's log/antilog tables (``T[v] = exp[log[c] + log[v]]``,
  vectorised by :meth:`repro.gf.field.GF.mul`): a ``MULXOR`` is a
  single ``take`` + XOR instead of two gathers + two XORs;
- **w=32** — GF(2^32) has no practical log table (2^32 entries), so the
  two halfword tables are composed from the byte-lane SPLIT products
  instead: ``T_lo[b1*256+b0] = c*(b1<<8) ^ c*b0`` is the XOR-outer of
  the two low byte-lane tables (and ``T_hi`` of the two high ones) —
  two gathers + two XORs per ``MULXOR`` instead of four of each.

Tables are 128 KiB (w=16) / 2 x 256 KiB (w=32) per constant, cached per
``(w, polynomial, constant)``.  Indices for w=32 are computed with two
in-place mask/shift passes into a uint32 scratch; w=16 regions index
their table directly, so any length and alignment is fine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ...gf.split import split_tables
from ..ir import OP_COPY, OP_MUL, OP_MULXOR, OP_XOR
from .base import ExecutorBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...gf.field import GF
    from ..ir import RegionProgram


def halfword_tables(field: "GF", const: int) -> tuple[np.ndarray, ...]:
    """The fused halfword-lane tables for ``const`` (1 for w=16, 2 for
    w=32), each read-only with 65536 entries in the field dtype."""
    if field.w == 16:
        # log/antilog build: field.mul vectorises exp[log[c] + log[v]]
        table = field.mul(
            field.dtype.type(const), np.arange(65536, dtype=field.dtype)
        )
        table.setflags(write=False)
        return (table,)
    lanes = split_tables(field, const)  # 4 byte-lane tables for w=32
    lo = np.bitwise_xor.outer(lanes[1], lanes[0]).ravel()
    hi = np.bitwise_xor.outer(lanes[3], lanes[2]).ravel()
    lo.setflags(write=False)
    hi.setflags(write=False)
    return (lo, hi)


class SplitTableBackend(ExecutorBackend):
    """Halfword split-table backend for w=16/32 (see module docstring)."""

    name = "splittab"

    def supports(self, field: "GF", program: "RegionProgram") -> bool:
        return field.w in (16, 32)

    def _tables_for(self, field: "GF", const: int) -> tuple[np.ndarray, ...]:
        key = (field.w, field.polynomial, const)
        return self._cached_table(key, lambda: halfword_tables(field, const))

    def bind(self, field: "GF", program: "RegionProgram") -> tuple:
        bound = []
        for op, dst, src, const in program.instructions:
            if op in (OP_MUL, OP_MULXOR):
                bound.append((op, dst, src, self._tables_for(field, const)))
            else:
                bound.append((op, dst, src, None))
        return tuple(bound)

    def make_scratch(self, field: "GF", chunk_symbols: int) -> object:
        # multiply buffer + (for w=32) an index buffer for the mask/shift
        return (
            np.empty(chunk_symbols, dtype=field.dtype),
            np.empty(chunk_symbols, dtype=field.dtype),
        )

    def execute_chunk(
        self,
        bound: tuple,
        pool: Sequence[np.ndarray],
        n: int,
        scratch: object,
    ) -> None:
        ms = scratch[0][:n]
        idx = scratch[1][:n]
        for op, dst, src, tables in bound:
            d = pool[dst]
            if op == OP_XOR:
                np.bitwise_xor(d, pool[src], out=d)
            elif op == OP_MULXOR:
                if len(tables) == 1:  # w=16: the value is the index
                    tables[0].take(pool[src], out=ms)
                    np.bitwise_xor(d, ms, out=d)
                else:  # w=32: low then high halfword lanes
                    np.bitwise_and(pool[src], 0xFFFF, out=idx)
                    tables[0].take(idx, out=ms)
                    np.bitwise_xor(d, ms, out=d)
                    np.right_shift(pool[src], 16, out=idx)
                    tables[1].take(idx, out=ms)
                    np.bitwise_xor(d, ms, out=d)
            elif op == OP_MUL:
                if len(tables) == 1:
                    tables[0].take(pool[src], out=d)
                else:
                    np.bitwise_and(pool[src], 0xFFFF, out=idx)
                    tables[0].take(idx, out=d)
                    np.right_shift(pool[src], 16, out=idx)
                    tables[1].take(idx, out=ms)
                    np.bitwise_xor(d, ms, out=d)
            elif op == OP_COPY:
                np.copyto(d, pool[src])
            else:  # OP_ZERO
                d.fill(0)
