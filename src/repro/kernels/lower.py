"""Lowering: matrix chains and DecodePlans → RegionProgram IR.

Exactly two shapes of work are lowered, the two the paper executes:
a *matrix chain* (:func:`lower_matrix_chain`) — one independent
sub-matrix applying ``W_i``, or ``S_i`` then ``F_i^-1``; a single matrix
is a chain of one — and a whole *plan* (:func:`lower_plan`), the
serial decode.  Every program is dead-code-eliminated and
slot-compacted, and admitted by one structural pass
(:meth:`RegionProgram.validate`).

Lowering is where the paper's cost model is frozen into the program:
every nonzero coefficient of every applied matrix becomes exactly one
*model* ``mult_XOR`` (recorded in :attr:`RegionProgram.mult_xors`
before dead-code elimination), so a compiled program books the same counts the
interpreted :class:`~repro.gf.region.RegionOps` path would.  A full
:class:`~repro.core.planner.DecodePlan` lowers to ONE fused program:
group stages feed their recovered slots straight into the rest stage
(the paper's Step 4) with no intermediate block dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..gf.field import GF
from .ir import (
    OP_COPY,
    OP_MUL,
    OP_MULXOR,
    OP_XOR,
    OP_ZERO,
    Instruction,
    RegionProgram,
)
from .optimize import optimize_program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports kernels)
    from ..core.planner import DecodePlan


class ProgramBuilder:
    """Incrementally assemble a :class:`RegionProgram`.

    A *stage* is one matrix application over a list of slots: one
    instruction per nonzero entry, or a ``ZERO`` for an all-zero row.
    The model op counts are therefore read off the emitted instructions
    before dead-code elimination.

    Each instruction records its *origin*: the index of the entry that
    supplied its constant in the row-major concatenation of every matrix
    emitted so far (``-1`` for ``ZERO``), so a program of the same
    structure can be re-stamped with another chain's constants.
    """

    def __init__(self, field: GF, num_inputs: int, label: str = ""):
        if num_inputs < 1:
            raise ValueError("a region program needs at least one input")
        self.field = field
        self.num_inputs = num_inputs
        self.next_slot = num_inputs
        self.instructions: list[Instruction] = []
        self.origins: list[int] = []
        self.entries = 0
        self.label = label

    def emit_stage(self, matrix: np.ndarray, slots: Sequence[int]) -> list[int]:
        """Emit ``pool[out_i] = XOR_j matrix[i, j] * pool[slots[j]]`` for
        every row ``i``, terms in column order; returns the ``out_i``."""
        rows, cols = matrix.shape
        nz_rows, nz_cols = np.nonzero(matrix)
        consts = matrix[nz_rows, nz_cols].tolist()
        srcs = np.asarray(slots)[nz_cols].tolist()
        origins = (nz_rows * cols + nz_cols + self.entries).tolist()
        out_slots = list(range(self.next_slot, self.next_slot + rows))
        insts: list[Instruction] = []
        stamps: list[int] = []
        start = 0
        for dst, count in zip(out_slots, np.bincount(nz_rows, minlength=rows).tolist()):
            if not count:
                insts.append((OP_ZERO, dst, -1, 0))
                stamps.append(-1)
                continue
            end = start + count
            const = consts[start]
            insts.append((OP_COPY if const == 1 else OP_MUL, dst, srcs[start], const))
            insts += [
                (OP_XOR if c == 1 else OP_MULXOR, dst, src, c)
                for c, src in zip(consts[start + 1 : end], srcs[start + 1 : end])
            ]
            stamps += origins[start:end]
            start = end
        # builders are call-local to one lower_* invocation, never shared
        self.instructions.extend(insts)  # ppm: noqa[PPM010]
        self.origins.extend(stamps)  # ppm: noqa[PPM010]
        self.next_slot, self.entries = (  # ppm: noqa[PPM010]
            self.next_slot + rows,
            self.entries + matrix.size,
        )
        return out_slots

    def finish(self, outputs: Sequence[int]) -> RegionProgram:
        """The optimised program, admitted by the one structural check
        (a builder or optimiser bug raises here, before any cache can
        keep the program)."""
        ops = [inst[0] for inst in self.instructions]
        program = optimize_program(
            RegionProgram(
                w=self.field.w,
                num_inputs=self.num_inputs,
                pool_size=self.next_slot,
                instructions=tuple(self.instructions),
                outputs=tuple(outputs),
                mult_xors=len(ops) - ops.count(OP_ZERO),
                xor_only=ops.count(OP_COPY) + ops.count(OP_XOR),
                label=self.label,
                origins=tuple(self.origins),
            )
        )
        program.validate()
        return program


def lower_matrix_chain(field: GF, matrices: Sequence[np.ndarray]) -> RegionProgram:
    """Compile ``regions -> m1 -> m2 -> ...`` as one fused program.

    The unit one worker runs: ``(W,)`` matrix-first, or the *normal*
    sequence ``(S, F^-1)`` without the intermediate block lists the
    interpreted path allocates.
    """
    mats = [np.asarray(m) for m in matrices]
    if not mats:
        raise ValueError("cannot lower an empty matrix chain")
    if any(m.ndim != 2 for m in mats):
        raise ValueError(
            f"expected 2-D coefficient matrices, got shapes {[m.shape for m in mats]}"
        )
    if mats[0].shape[1] == 0:
        raise ValueError("cannot lower a matrix with zero input columns")
    builder = ProgramBuilder(field, mats[0].shape[1], label="chain")
    current = list(range(mats[0].shape[1]))
    for m in mats:
        if m.shape[1] != len(current):
            raise ValueError(
                f"matrix shape {m.shape} incompatible with {len(current)} inputs"
            )
        current = builder.emit_stage(m, current)
    return builder.finish(current)


@dataclass(frozen=True)
class PlanProgram:
    """A compiled :class:`~repro.core.planner.DecodePlan`.

    ``input_ids`` are the block ids the program reads (the true
    survivors — blocks the group stages recover internally are *not*
    inputs), in slot order; ``output_ids`` are the recovered block ids
    (the plan's ``targets``), aligned with ``program.outputs``.
    """

    program: RegionProgram
    input_ids: tuple[int, ...]
    output_ids: tuple[int, ...]


def lower_plan(field: GF, plan: "DecodePlan") -> PlanProgram:
    """Fuse an entire decode plan into one region program.

    One IR stage per matrix of every :attr:`DecodePlan.stages` entry, in
    order; each plan stage's outputs become slots later stages may read
    (the paper's Step 4: recovered sectors join the survivors of
    ``H_rest``).  The program outputs ``plan.targets`` — every faulty
    block unless the plan was pruned.  By construction
    ``program.mult_xors == plan.predicted_cost``.
    """
    input_ids = plan.read_ids
    if not input_ids:
        raise ValueError("plan reads no survivor blocks; nothing to compile")
    slot_of = {block_id: slot for slot, block_id in enumerate(input_ids)}
    builder = ProgramBuilder(
        field, len(input_ids), label=f"plan:{plan.mode.value}"
    )
    for stage in plan.stages:
        slots = [slot_of[b] for b in stage.survivor_ids]
        for matrix in stage.arrays:
            slots = builder.emit_stage(matrix, slots)
        slot_of.update(zip(stage.faulty_ids, slots))

    output_ids = plan.targets
    program = builder.finish([slot_of[b] for b in output_ids])
    return PlanProgram(program=program, input_ids=input_ids, output_ids=output_ids)
