"""RegionProgram IR: structural invariants and derived properties."""

import pytest

from repro.kernels import (
    OP_COPY,
    OP_MUL,
    OP_MULXOR,
    OP_XOR,
    OP_ZERO,
    RegionProgram,
)


def make(instructions, *, num_inputs=2, pool_size=4, outputs=(2,), w=8,
         mult_xors=0, xor_only=0):
    return RegionProgram(
        w=w,
        num_inputs=num_inputs,
        pool_size=pool_size,
        instructions=tuple(instructions),
        outputs=tuple(outputs),
        mult_xors=mult_xors,
        xor_only=xor_only,
    )


def test_valid_program_and_derived_counts():
    program = make(
        [
            (OP_MUL, 2, 0, 5),
            (OP_MULXOR, 2, 1, 7),
            (OP_COPY, 3, 2, 1),
            (OP_XOR, 3, 0, 1),
        ],
        outputs=(2, 3),
        mult_xors=4,
        xor_only=1,
    )
    program.validate()
    assert program.gathers == 2  # MUL + MULXOR
    assert program.xors == 2  # XOR + MULXOR
    assert program.executed_ops == 4
    assert program.constants == (5, 7)


def test_zero_copy_chain_validates():
    program = make([(OP_ZERO, 2, -1, 0), (OP_COPY, 3, 2, 1)], outputs=(3,))
    program.validate()
    assert program.constants == ()


def test_dst_in_input_range_rejected():
    with pytest.raises(ValueError, match="outside temp/output range"):
        make([(OP_COPY, 0, 1, 1)]).validate()


def test_src_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        make([(OP_COPY, 2, 9, 1)]).validate()


def test_src_aliasing_dst_rejected():
    with pytest.raises(ValueError, match="aliases"):
        make([(OP_ZERO, 2, -1, 0), (OP_XOR, 2, 2, 1)]).validate()


def test_read_before_definition_rejected():
    with pytest.raises(ValueError, match="read before definition"):
        make([(OP_COPY, 2, 3, 1)], outputs=(2,)).validate()


def test_accumulate_into_undefined_slot_rejected():
    with pytest.raises(ValueError, match="accumulate into undefined"):
        make([(OP_XOR, 2, 0, 1)]).validate()


@pytest.mark.parametrize("const", [0, 1, 256])
def test_mul_constant_out_of_range_rejected(const):
    with pytest.raises(ValueError, match="constant"):
        make([(OP_MUL, 2, 0, const)], w=8).validate()


def test_wide_field_admits_wide_constants():
    make([(OP_MUL, 2, 0, 40_000)], w=16).validate()


def test_undefined_output_rejected():
    with pytest.raises(ValueError, match="never defined"):
        make([(OP_COPY, 2, 0, 1)], outputs=(3,)).validate()


def test_input_slot_output_rejected():
    # the executor gives every output its own buffer and never maps an
    # input onto one, so a passthrough output would read back garbage
    with pytest.raises(ValueError, match="output slot 0 outside temp/output range"):
        make([(OP_COPY, 2, 0, 1)], outputs=(0,)).validate()


def test_duplicate_output_rejected():
    with pytest.raises(ValueError, match="more than once"):
        make([(OP_COPY, 2, 0, 1)], outputs=(2, 2)).validate()


def test_unknown_opcode_rejected():
    with pytest.raises(ValueError, match="unknown opcode"):
        make([(9, 2, 0, 1)]).validate()


def test_pool_smaller_than_inputs_rejected():
    with pytest.raises(ValueError, match="pool_size"):
        make([], num_inputs=4, pool_size=2, outputs=(0,)).validate()


def test_no_inputs_rejected():
    with pytest.raises(ValueError, match="at least one input"):
        make([], num_inputs=0, pool_size=1, outputs=()).validate()
