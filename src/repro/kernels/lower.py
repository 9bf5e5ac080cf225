"""Lowering: matrix chains and DecodePlans → RegionProgram IR.

Exactly two shapes of work are lowered, the two the paper executes:
a *matrix chain* (:func:`lower_matrix_chain`) — one independent
sub-matrix applying ``W_i``, or ``S_i`` then ``F_i^-1``; a single matrix
is a chain of one — and a whole *plan* (:func:`lower_plan`), the
serial decode.  Every program is pair-shared, dead-code-eliminated and
slot-compacted, and admitted by one structural pass
(:meth:`RegionProgram.validate`).

Lowering is where the paper's cost model is frozen into the program:
every nonzero coefficient of every applied matrix becomes exactly one
*model* ``mult_XOR`` (recorded in :attr:`RegionProgram.mult_xors`
before any CSE), so a compiled program books the same counts the
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
from .optimize import Term, optimize_program, share_pairs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports kernels)
    from ..core.planner import DecodePlan


class ProgramBuilder:
    """Incrementally assemble a :class:`RegionProgram`.

    A *stage* is one matrix application: a list of rows, each row a list
    of ``(slot, const)`` terms with nonzero constants.  Model op counts
    are taken from the rows as given — i.e. before pair sharing — so
    optimisation never changes what the counter will report.
    """

    def __init__(self, field: GF, num_inputs: int, label: str = ""):
        if num_inputs < 1:
            raise ValueError("a region program needs at least one input")
        self.field = field
        self.num_inputs = num_inputs
        self.next_slot = num_inputs
        self.instructions: list[Instruction] = []
        self.mult_xors = 0
        self.xor_only = 0
        self.label = label

    def new_slot(self) -> int:
        slot = self.next_slot
        # builders are call-local to one lower_* invocation, never shared
        self.next_slot += 1  # ppm: noqa[PPM010]
        return slot

    def emit_terms(self, dst: int, terms: Sequence[Term]) -> None:
        """Emit ``pool[dst] = XOR_j const_j * pool[slot_j]`` (uncounted)."""
        if not terms:
            self.instructions.append((OP_ZERO, dst, -1, 0))  # ppm: noqa[PPM010]
            return
        slot, const = terms[0]
        if const == 1:
            self.instructions.append((OP_COPY, dst, slot, 1))
        else:
            self.instructions.append((OP_MUL, dst, slot, const))
        for slot, const in terms[1:]:
            if const == 1:
                self.instructions.append((OP_XOR, dst, slot, 1))
            else:
                self.instructions.append((OP_MULXOR, dst, slot, const))

    def emit_stage(self, rows: list[list[Term]]) -> list[int]:
        """Emit one matrix application; returns the output slot per row."""
        for row in rows:
            self.mult_xors += len(row)  # ppm: noqa[PPM010] - call-local builder
            self.xor_only += sum(  # ppm: noqa[PPM010] - call-local builder
                1 for _slot, const in row if const == 1
            )
        pair_defs, rows, self.next_slot = share_pairs(rows, self.next_slot)
        for slot, pair in pair_defs:
            self.emit_terms(slot, pair)
        out_slots = []
        for row in rows:
            dst = self.new_slot()
            self.emit_terms(dst, row)
            out_slots.append(dst)
        return out_slots

    def finish(self, outputs: Sequence[int]) -> RegionProgram:
        """The optimised program, admitted by the one structural check
        (a builder or optimiser bug raises here, before any cache can
        keep the program)."""
        program = optimize_program(
            RegionProgram(
                w=self.field.w,
                num_inputs=self.num_inputs,
                pool_size=self.next_slot,
                instructions=tuple(self.instructions),
                outputs=tuple(outputs),
                mult_xors=self.mult_xors,
                xor_only=self.xor_only,
                label=self.label,
            )
        )
        program.validate()
        return program


def _matrix_rows(matrix: np.ndarray, slots: Sequence[int]) -> list[list[Term]]:
    """Rows of (slot, const) terms, one per matrix row, zeros dropped."""
    rows: list[list[Term]] = []
    for i in range(matrix.shape[0]):
        rows.append(
            [
                (slots[j], int(matrix[i, j]))
                for j in range(matrix.shape[1])
                if int(matrix[i, j]) != 0
            ]
        )
    return rows


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
        current = builder.emit_stage(_matrix_rows(m, current))
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
            slots = builder.emit_stage(_matrix_rows(matrix, slots))
        slot_of.update(zip(stage.faulty_ids, slots))

    output_ids = plan.targets
    program = builder.finish([slot_of[b] for b in output_ids])
    return PlanProgram(program=program, input_ids=input_ids, output_ids=output_ids)
