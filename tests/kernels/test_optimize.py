"""Optimisation passes: dead-code elimination, slot compaction.

Semantic preservation is checked with the symbolic transfer matrix from
:mod:`repro.verify.program` — an optimised program must compute exactly
the same GF(2^w) linear map as the program it came from.
"""

import numpy as np

from repro.gf import GF
from repro.kernels import (
    OP_MUL,
    OP_MULXOR,
    ProgramBuilder,
    RegionProgram,
    compact_slots,
    eliminate_dead,
    optimize_program,
)
from repro.verify import transfer_matrix


def test_eliminate_dead_drops_unread_definition():
    program = RegionProgram(
        w=8,
        num_inputs=1,
        pool_size=3,
        instructions=(
            (OP_MUL, 1, 0, 5),  # dead: never read, not an output
            (OP_MUL, 2, 0, 7),
        ),
        outputs=(2,),
        mult_xors=2,
        xor_only=0,
    )
    slim = eliminate_dead(program)
    assert slim.instructions == ((OP_MUL, 2, 0, 7),)
    # model counts are untouched by optimisation
    assert slim.mult_xors == 2


def test_eliminate_dead_keeps_accumulation_chains():
    program = RegionProgram(
        w=8,
        num_inputs=2,
        pool_size=3,
        instructions=(
            (OP_MUL, 2, 0, 5),
            (OP_MULXOR, 2, 1, 7),
        ),
        outputs=(2,),
        mult_xors=2,
        xor_only=0,
    )
    assert eliminate_dead(program).instructions == program.instructions


def test_compact_slots_reuses_dead_temporaries():
    # t=2 dies after feeding t=3; t=4 should reuse its id
    program = RegionProgram(
        w=8,
        num_inputs=1,
        pool_size=5,
        instructions=(
            (OP_MUL, 2, 0, 5),
            (OP_MUL, 3, 2, 7),  # last read of 2
            (OP_MUL, 4, 3, 9),
        ),
        outputs=(4,),
        mult_xors=3,
        xor_only=0,
    )
    packed = compact_slots(program)
    packed.validate()
    assert packed.pool_size < program.pool_size
    field = GF(8)
    assert np.array_equal(
        transfer_matrix(packed, field), transfer_matrix(program, field)
    )


def test_compact_slots_never_recycles_output_slots():
    program = RegionProgram(
        w=8,
        num_inputs=1,
        pool_size=4,
        instructions=(
            (OP_MUL, 2, 0, 5),  # an output, read later
            (OP_MUL, 3, 2, 7),  # also an output
        ),
        outputs=(2, 3),
        mult_xors=2,
        xor_only=0,
    )
    packed = compact_slots(program)
    packed.validate()
    assert len(set(packed.outputs)) == 2
    field = GF(8)
    assert np.array_equal(
        transfer_matrix(packed, field), transfer_matrix(program, field)
    )


def _raw_program(field, matrix):
    """What the builder emits for one matrix before optimisation."""
    builder = ProgramBuilder(field, matrix.shape[1])
    outputs = builder.emit_stage(matrix, range(matrix.shape[1]))
    return RegionProgram(
        w=field.w,
        num_inputs=builder.num_inputs,
        pool_size=builder.next_slot,
        instructions=tuple(builder.instructions),
        outputs=tuple(outputs),
        mult_xors=int(np.count_nonzero(matrix)),
        xor_only=int(np.count_nonzero(matrix == 1)),
    )


def test_optimize_program_preserves_semantics_on_random_matrices():
    rng = np.random.default_rng(7)
    field = GF(8)
    for _ in range(10):
        matrix = rng.integers(0, 256, size=(4, 6), dtype=field.dtype)
        raw = _raw_program(field, matrix)
        raw.validate()
        slim = optimize_program(raw)
        slim.validate()
        assert np.array_equal(
            transfer_matrix(slim, field), transfer_matrix(raw, field)
        )
        assert slim.pool_size <= raw.pool_size
        assert (slim.mult_xors, slim.xor_only) == (raw.mult_xors, raw.xor_only)
