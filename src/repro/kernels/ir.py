"""The RegionProgram IR: flat GF(2^w) region programs.

A :class:`RegionProgram` is the compiled form of a decode computation —
a flat list of ``(op, dst, src, const)`` instructions over a slot pool
whose first ``num_inputs`` slots are the input regions (survivor
sectors).  The opcodes mirror :class:`~repro.gf.region.RegionOps` but
with every per-call decision (``a == 0/1`` branching, table-row lookup,
argument checking, op accounting) hoisted to compile time:

==========  ======================================  =================
opcode      semantics                               table bound
==========  ======================================  =================
``ZERO``    ``pool[dst] = 0``                       —
``COPY``    ``pool[dst] = pool[src]``               —
``XOR``     ``pool[dst] ^= pool[src]``              —
``MUL``     ``pool[dst] = const * pool[src]``       once per program
``MULXOR``  ``pool[dst] ^= const * pool[src]``      once per program
==========  ======================================  =================

A program carries two op counts.  ``mult_xors``/``xor_only`` are the
*paper-model* counts — the number of nonzero coefficient applications
the source matrices contain, identical to what the interpreted
:class:`~repro.gf.region.RegionOps` path records and to what the engine
books per plan stage; the executor's ``stats()`` weighs work by them.  The
*executed* instruction counts (:attr:`RegionProgram.gathers`,
:attr:`RegionProgram.xors`) reflect the optimised program and may be
lower after dead-code elimination; they are diagnostics, not
cost-model quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

#: Opcodes (stable small ints: programs are pure data).
OP_ZERO = 0
OP_COPY = 1
OP_XOR = 2
OP_MUL = 3
OP_MULXOR = 4

OP_NAMES = ("zero", "copy", "xor", "mul", "mulxor")

_KNOWN_OPS = frozenset({OP_ZERO, OP_COPY, OP_XOR, OP_MUL, OP_MULXOR})
_ACCUMULATING_OPS = frozenset({OP_XOR, OP_MULXOR})
_GATHER_OPS = frozenset({OP_MUL, OP_MULXOR})

#: One instruction: ``(op, dst, src, const)``.  ``src`` is ``-1`` and
#: ``const`` is 0 for ``ZERO``; ``const`` is 1 for ``COPY``/``XOR``.
Instruction = tuple[int, int, int, int]


@dataclass(frozen=True)
class RegionProgram:
    """An executable flat region program (see module docstring).

    Attributes
    ----------
    w:
        Field word size the constants live in.
    num_inputs:
        Pool slots ``0 .. num_inputs-1`` are bound to the input regions.
    pool_size:
        Total slot count (inputs + temporaries + outputs).
    instructions:
        The flat ``(op, dst, src, const)`` sequence, in execution order.
    outputs:
        Pool slots holding the results, in output order.
    mult_xors / xor_only:
        Paper-model op counts of the *source* computation (see module
        docstring); ``xor_only`` is the subset with coefficient 1.
    label:
        Human-readable tag for diagnostics (``"plan"``, ``"matrix"``...).
    origins:
        Per instruction, the row-major index of the source-matrix entry
        that supplied its constant (``-1`` for none), across the
        lowered matrices in order; empty for hand-built programs.
        Compile-time provenance, not part of the program's identity.
    """

    w: int
    num_inputs: int
    pool_size: int
    instructions: tuple[Instruction, ...]
    outputs: tuple[int, ...]
    mult_xors: int
    xor_only: int
    label: str = ""
    origins: tuple[int, ...] = field(default=(), compare=False, repr=False)

    @property
    def gathers(self) -> int:
        """Executed table-gather instructions (``MUL`` + ``MULXOR``)."""
        return sum(1 for op, _d, _s, _c in self.instructions if op in (OP_MUL, OP_MULXOR))

    @property
    def xors(self) -> int:
        """Executed region-XOR passes (``XOR`` + ``MULXOR``)."""
        return sum(1 for op, _d, _s, _c in self.instructions if op in (OP_XOR, OP_MULXOR))

    @property
    def executed_ops(self) -> int:
        """Total executed instructions (post-optimisation)."""
        return len(self.instructions)

    @property
    def constants(self) -> tuple[int, ...]:
        """Distinct multiply constants, sorted — one table binding each."""
        return tuple(
            sorted(
                {c for op, _d, _s, c in self.instructions if op in (OP_MUL, OP_MULXOR)}
            )
        )

    def validate(self) -> None:
        """Structural soundness; raises :class:`ValueError` on the first
        violation of :func:`structural_violations`.

        The program is frozen, so the check runs once per program object:
        the compiler's admission and the executor's first bind share it.
        The *semantic* check (does the program compute the plan's
        transfer matrix) lives in :func:`repro.verify.verify_plan_program`.
        """
        if self._violation is not None:
            raise ValueError(self._violation)

    @cached_property
    def _violation(self) -> str | None:
        for _check, message, where in structural_violations(self):
            return f"{where}: {message}" if where else message
        return None


def _op_name(op: int) -> str:
    return OP_NAMES[op] if 0 <= op < len(OP_NAMES) else f"op{op}"


def _inst(index: int, op: int) -> str:
    return f"inst[{index}]({_op_name(op)})"


def structural_violations(program: RegionProgram) -> Iterator[tuple[str, str, str]]:
    """Every structural rule a program breaks, as ``(check, message, where)``.

    The one forward pass behind both :meth:`RegionProgram.validate` (which
    stops at the first violation) and
    :func:`repro.verify.dataflow.analyze_program` (which reports each as
    ``dataflow/<check>``):

    - ``no-inputs`` / ``slot-range`` — at least one input; every ``dst``
      in the temp/output range ``[num_inputs, pool_size)`` (inputs are
      immutable); every ``src`` inside the pool; every output in the
      temp/output range, since the executor hands outputs their own
      full-length buffers and never treats an input as one;
    - ``unknown-opcode`` — opcodes are in the ISA;
    - ``aliasing`` — no instruction reads the slot it writes (the
      executor's ``table.take(src, out=dst)`` would clobber the source);
    - ``uninit-read`` / ``accumulate-undefined`` / ``undefined-output``
      — no slot is read, accumulated into, or output before an
      instruction defines it (the executor would consume stale scratch);
    - ``missing-binding`` — ``MUL``/``MULXOR`` constants lie in
      ``[2, 2^w)``: 0/1 have no table row and must lower to
      ``ZERO``/``COPY``/``XOR``;
    - ``duplicate-output`` — no slot is output twice (two outputs
      cannot share one buffer).

    An instruction with an unknown opcode or an out-of-range slot
    defines nothing; any other instruction defines its ``dst`` even when
    it breaks a rule, so one bad read is reported once, not again at
    every later read of that slot.
    """
    num_inputs = program.num_inputs
    pool = program.pool_size
    if num_inputs < 1:
        yield "no-inputs", "a region program needs at least one input", ""
        return
    if pool < num_inputs:
        yield "slot-range", f"pool_size {pool} < num_inputs {num_inputs}", ""
        return
    order = 1 << program.w
    defined = bytearray(pool)
    defined[:num_inputs] = b"\x01" * num_inputs
    for index, (op, dst, src, const) in enumerate(program.instructions):
        if op not in _KNOWN_OPS:
            yield "unknown-opcode", f"unknown opcode {op}", _inst(index, op)
            continue
        if not (num_inputs <= dst < pool):
            yield (
                "slot-range",
                f"dst {dst} outside temp/output range [{num_inputs}, {pool})",
                _inst(index, op),
            )
            continue
        if op != OP_ZERO:
            if not (0 <= src < pool):
                yield (
                    "slot-range",
                    f"src {src} out of range [0, {pool})",
                    _inst(index, op),
                )
                continue
            if src == dst:
                yield (
                    "aliasing",
                    f"dst {dst} aliases src {src}: the executor overwrites "
                    "dst before the instruction finishes reading src",
                    _inst(index, op),
                )
            elif not defined[src]:
                yield (
                    "uninit-read",
                    f"src {src} read before definition "
                    "(the executor would consume stale scratch)",
                    _inst(index, op),
                )
        if op in _ACCUMULATING_OPS and not defined[dst]:
            yield (
                "accumulate-undefined",
                f"{_op_name(op)} would accumulate into undefined slot {dst}",
                _inst(index, op),
            )
        if op in _GATHER_OPS and not (2 <= const < order):
            yield (
                "missing-binding",
                f"constant {const} has no w={program.w} table binding "
                f"(must lie in [2, {order}); 0/1 lower to zero/copy/xor)",
                _inst(index, op),
            )
        defined[dst] = 1
    seen: set[int] = set()
    for position, slot in enumerate(program.outputs):
        if not (num_inputs <= slot < pool):
            yield (
                "slot-range",
                f"output slot {slot} outside temp/output range [{num_inputs}, {pool})",
                f"output[{position}]",
            )
            continue
        if not defined[slot]:
            yield "undefined-output", f"output slot {slot} never defined", f"output[{position}]"
        if slot in seen:
            yield (
                "duplicate-output",
                f"output slot {slot} appears more than once in the output list",
                f"output[{position}]",
            )
        seen.add(slot)
