"""Lowering: matrix chains (a single matrix is a chain of one) and whole
decode plans to RegionPrograms."""

import numpy as np
import pytest

from repro.codes import LRCCode, RSCode, SDCode
from repro.core import SequencePolicy
from repro.core.planner import plan_decode
from repro.gf import GF
from repro.kernels import lower_matrix_chain, lower_plan
from repro.verify import transfer_matrix, verify_plan_program

WORD_SIZES = [4, 8, 16, 32]


def random_matrix(field, rows, cols, rng):
    return rng.integers(0, 1 << field.w, size=(rows, cols), dtype=field.dtype)


@pytest.mark.parametrize("w", WORD_SIZES)
def test_lower_matrix_transfer_and_model_counts(w):
    field = GF(w)
    rng = np.random.default_rng(w)
    matrix = random_matrix(field, 3, 5, rng)
    program = lower_matrix_chain(field, [matrix])
    assert program.w == w
    assert program.num_inputs == 5
    assert len(program.outputs) == 3
    assert np.array_equal(transfer_matrix(program, field), matrix)
    assert program.mult_xors == int(np.count_nonzero(matrix))
    assert program.xor_only == int(np.count_nonzero(matrix == 1))


def test_lower_matrix_rejects_bad_shapes():
    field = GF(8)
    with pytest.raises(ValueError, match="2-D"):
        lower_matrix_chain(field, [np.zeros(4, dtype=field.dtype)])
    with pytest.raises(ValueError, match="zero input columns"):
        lower_matrix_chain(field, [np.zeros((2, 0), dtype=field.dtype)])


def test_lower_matrix_zero_rows_emit_zero_outputs():
    field = GF(8)
    matrix = np.array([[0, 0], [3, 0]], dtype=field.dtype)
    program = lower_matrix_chain(field, [matrix])
    expected = np.array([[0, 0], [3, 0]], dtype=field.dtype)
    assert np.array_equal(transfer_matrix(program, field), expected)


@pytest.mark.parametrize("w", WORD_SIZES)
def test_lower_matrix_chain_equals_gf_product(w):
    field = GF(w)
    rng = np.random.default_rng(w + 1)
    m1 = random_matrix(field, 4, 6, rng)
    m2 = random_matrix(field, 3, 4, rng)
    program = lower_matrix_chain(field, [m1, m2])
    # transfer of (m1 then m2) is the field product m2 @ m1
    expected = np.zeros((3, 6), dtype=field.dtype)
    for i in range(3):
        for j in range(6):
            acc = field.dtype.type(0)
            for k in range(4):
                acc ^= field.mul(m2[i, k], m1[k, j])
            expected[i, j] = acc
    assert np.array_equal(transfer_matrix(program, field), expected)
    assert program.mult_xors == int(np.count_nonzero(m1)) + int(
        np.count_nonzero(m2)
    )


def test_lower_matrix_chain_rejects_empty_and_mismatched():
    field = GF(8)
    with pytest.raises(ValueError, match="empty matrix chain"):
        lower_matrix_chain(field, [])
    m1 = np.ones((2, 3), dtype=field.dtype)
    m2 = np.ones((2, 4), dtype=field.dtype)  # needs 2 inputs, not 4
    with pytest.raises(ValueError, match="incompatible"):
        lower_matrix_chain(field, [m1, m2])


def scenarios():
    sd = SDCode(10, 8, 2, 2)
    yield sd, (5, 7, 12, 15), SequencePolicy.PAPER
    yield sd, (5, 7, 12, 15), SequencePolicy.NORMAL
    yield sd, (0, 1), SequencePolicy.MATRIX_FIRST
    yield RSCode(8, 4), (0, 3), SequencePolicy.PAPER
    yield LRCCode(8, 2, 2), (0, 9), SequencePolicy.PAPER


@pytest.mark.parametrize("code,faulty,policy", list(scenarios()))
def test_lower_plan_matches_plan_semantics(code, faulty, policy):
    plan = plan_decode(code, list(faulty), policy=policy)
    compiled = lower_plan(code.field, plan)
    program = compiled.program
    assert compiled.output_ids == tuple(plan.faulty_ids)
    assert not set(compiled.input_ids) & set(plan.faulty_ids)
    assert program.mult_xors == plan.predicted_cost
    # every output row of the transfer matrix is a relation H implies
    report = verify_plan_program(compiled, code, plan)
    assert report.ok, report.format()
