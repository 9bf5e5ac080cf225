"""ProgramExecutor: chunked table-bound execution over 1-D regions."""

import numpy as np
import pytest

from repro.gf import GF, RegionOps
from repro.kernels import ProgramExecutor, RegionProgram, lower_matrix_chain
from repro.kernels.ir import OP_COPY
from repro.kernels.executor import DEFAULT_CHUNK_SYMBOLS

WORD_SIZES = [4, 8, 16, 32]


def random_case(w, rows=3, cols=5, length=257, seed=None):
    field = GF(w)
    rng = np.random.default_rng(w if seed is None else seed)
    matrix = rng.integers(0, 1 << w, size=(rows, cols), dtype=field.dtype)
    regions = [
        rng.integers(0, 1 << w, size=length, dtype=field.dtype)
        for _ in range(cols)
    ]
    return field, matrix, regions


@pytest.mark.parametrize("w", WORD_SIZES)
def test_execute_matches_interpreted_matrix_apply(w):
    field, matrix, regions = random_case(w)
    program = lower_matrix_chain(field, [matrix])
    got = ProgramExecutor(field).execute(program, regions)
    expected = RegionOps(field).matrix_apply(matrix, regions)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("w", WORD_SIZES)
def test_chunked_execution_equals_unchunked(w):
    field, matrix, regions = random_case(w, length=1000)
    program = lower_matrix_chain(field, [matrix])
    whole = ProgramExecutor(field).execute(program, regions)
    # chunk size that does not divide the length exercises the tail chunk
    chunked = ProgramExecutor(field, chunk_symbols=77).execute(program, regions)
    for g, e in zip(chunked, whole):
        assert np.array_equal(g, e)


def test_outs_buffers_are_written_in_place():
    field, matrix, regions = random_case(8)
    program = lower_matrix_chain(field, [matrix])
    outs = [np.empty_like(regions[0]) for _ in program.outputs]
    got = ProgramExecutor(field).execute(program, regions, outs=outs)
    assert all(g is o for g, o in zip(got, outs))
    expected = RegionOps(field).matrix_apply(matrix, regions)
    for o, e in zip(outs, expected):
        assert np.array_equal(o, e)


def test_non_contiguous_out_rejected():
    field, matrix, regions = random_case(8)
    program = lower_matrix_chain(field, [matrix])
    backing = np.empty((len(regions[0]), 2), dtype=field.dtype)
    outs = [backing[:, 0] for _ in program.outputs]
    with pytest.raises(ValueError, match="C-contiguous"):
        ProgramExecutor(field).execute(program, regions, outs=outs)


def test_input_validation():
    field, matrix, regions = random_case(8)
    program = lower_matrix_chain(field, [matrix])
    executor = ProgramExecutor(field)
    with pytest.raises(ValueError, match="input regions"):
        executor.execute(program, regions[:-1])
    short = list(regions)
    short[0] = short[0][:-1]
    with pytest.raises(ValueError, match="equal length"):
        executor.execute(program, short)
    wrong_dtype = list(regions)
    wrong_dtype[0] = wrong_dtype[0].astype(np.uint32)
    with pytest.raises(TypeError, match="dtype"):
        executor.execute(program, wrong_dtype)


def test_field_width_mismatch_rejected():
    field8, matrix, _regions = random_case(8)
    program = lower_matrix_chain(field8, [matrix])
    field16 = GF(16)
    regions16 = [np.zeros(8, dtype=field16.dtype) for _ in range(matrix.shape[1])]
    with pytest.raises(ValueError, match="w="):
        ProgramExecutor(field16).execute(program, regions16)


def test_binding_is_reused_across_calls():
    field, matrix, regions = random_case(8)
    program = lower_matrix_chain(field, [matrix])
    executor = ProgramExecutor(field)
    executor.execute(program, regions)
    keys = [key for key in executor._bound if key[0] == id(program)]
    assert keys  # bound at least once (for whichever backend ran)
    before = {key: executor._bound[key] for key in keys}
    executor.execute(program, regions)
    for key, entry in before.items():
        assert executor._bound[key] is entry


def test_rejects_nonpositive_chunk():
    with pytest.raises(ValueError, match="chunk_symbols"):
        ProgramExecutor(GF(8), chunk_symbols=0)


def test_default_chunk_is_reasonable():
    assert 1 << 12 <= DEFAULT_CHUNK_SYMBOLS <= 1 << 20


def _copy_program(outputs):
    """One input, one copy into slot 1, then the given output list."""
    return RegionProgram(
        w=8,
        num_inputs=1,
        pool_size=2,
        instructions=((OP_COPY, 1, 0, 1),),
        outputs=outputs,
        mult_xors=0,
        xor_only=0,
    )


@pytest.mark.parametrize(
    "outputs",
    [
        (0,),  # an input slot is never handed an output buffer
        (1, 1),  # two outputs cannot share one buffer
    ],
    ids=["input-as-output", "duplicate-output"],
)
def test_executor_refuses_programs_it_cannot_run(outputs):
    # executing either would hand back uninitialised or recycled bytes
    field = GF(8)
    x = np.arange(1, 9, dtype=field.dtype)
    executor = ProgramExecutor(field, backend="numpy")
    program = _copy_program(outputs)  # hand-built: the bind is its only check
    for _ in range(2):  # and a remembered verdict keeps refusing
        with pytest.raises(ValueError, match="output"):
            executor.execute(program, [x])


def test_a_cold_program_is_checked_once(monkeypatch):
    from repro.kernels import ProgramCache, ir

    passes = []
    real = ir.structural_violations

    def counted(program):
        passes.append(program)
        return real(program)

    monkeypatch.setattr(ir, "structural_violations", counted)
    field = GF(8)
    matrix = np.array([[1, 2], [3, 4]], dtype=field.dtype)
    program = ProgramCache().chain_program(field, [matrix])
    x = [np.arange(1, 9, dtype=field.dtype), np.arange(9, 17, dtype=field.dtype)]
    ProgramExecutor(field, backend="numpy").execute(program, x)
    assert passes == [program]  # admitted by the compiler, trusted at bind
