"""The baseline backend: per-constant lookup tables + ``ndarray.take``.

This is the executor's original strategy, extracted verbatim: every
``MUL``/``MULXOR`` constant binds to its lookup table (the
``mul8_table`` row for w=8, a 16-entry table for w=4, the SPLIT
byte-lane tables for w=16/32) and execution is pure
``table.take``/``np.bitwise_xor`` with ``out=``.  It supports every field
width and every program, so it runs wherever
:func:`~repro.kernels.backends.choose` picks no wide-table backend, and
every program a forced backend does not support.
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


class NumpyTablesBackend(ExecutorBackend):
    """Table-gather baseline; supports every width (see module doc)."""

    name = "numpy"

    def supports(self, field: "GF", program: "RegionProgram") -> bool:
        return True

    def _table_for(self, field: "GF", const: int):
        if field.w == 8:
            return field.mul8_table[const]
        if field.w == 4:
            def build() -> np.ndarray:
                table = field.mul(
                    field.dtype.type(const), np.arange(16, dtype=field.dtype)
                )
                table.setflags(write=False)
                return table

            return self._cached_table((4, field.polynomial, const), build)
        return split_tables(field, const)

    def bind(self, field: "GF", program: "RegionProgram") -> tuple:
        return tuple(
            (
                op,
                dst,
                src,
                self._table_for(field, const) if op in (OP_MUL, OP_MULXOR) else None,
            )
            for op, dst, src, const in program.instructions
        )

    def execute_chunk(
        self,
        bound: tuple,
        pool: Sequence[np.ndarray],
        n: int,
        scratch: object,
    ) -> None:
        ms = scratch[:n]
        nbytes = ms.dtype.itemsize if ms.dtype.itemsize > 1 else 0
        for op, dst, src, table in bound:
            d = pool[dst]
            if op == OP_XOR:
                np.bitwise_xor(d, pool[src], out=d)
            elif op == OP_MULXOR:
                if nbytes >= 2:
                    lanes = pool[src].view(np.uint8).reshape(n, nbytes)
                    for i in range(nbytes):
                        table[i].take(lanes[:, i], out=ms)
                        np.bitwise_xor(d, ms, out=d)
                else:
                    table.take(pool[src], out=ms)
                    np.bitwise_xor(d, ms, out=d)
            elif op == OP_MUL:
                if nbytes >= 2:
                    lanes = pool[src].view(np.uint8).reshape(n, nbytes)
                    table[0].take(lanes[:, 0], out=d)
                    for i in range(1, nbytes):
                        table[i].take(lanes[:, i], out=ms)
                        np.bitwise_xor(d, ms, out=d)
                else:
                    table.take(pool[src], out=d)
            elif op == OP_COPY:
                np.copyto(d, pool[src])
            else:  # OP_ZERO
                d.fill(0)
