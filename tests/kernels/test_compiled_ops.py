"""Compiled programs: equality with the interpreted RegionOps.

Both lowered shapes — a matrix chain and a whole plan — run from a
:class:`~repro.kernels.ProgramCache` on a
:class:`~repro.kernels.ProgramExecutor`, as the engine runs them, and
must produce bit-identical regions AND model op counts equal to the
:class:`~repro.gf.OpCounter` snapshot of the interpreted path; the
compiler may only change *how fast* the answer arrives.
"""

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import ExecutionMode, SequencePolicy
from repro.core.planner import plan_decode
from repro.gf import GF, OpCounter, RegionOps
from repro.kernels import ProgramCache, ProgramExecutor

WORD_SIZES = [4, 8, 16, 32]


def pair(w):
    """Interpreted ops with a fresh counter, and a program cache plus an
    executor over the same field."""
    field = GF(w)
    return RegionOps(field, OpCounter()), ProgramCache(), ProgramExecutor(field)


def chain(programs, executor, matrices, regions):
    """One matrix chain as the engine runs it: ``(program, outputs)``."""
    program = programs.chain_program(executor.field, matrices)
    return program, executor.execute(program, list(regions))


def booked(program, length):
    """The ``(mult_xors, xor_only, symbols)`` a run of ``program`` over
    ``length`` symbols is worth in the paper's model."""
    return (program.mult_xors, program.xor_only, program.mult_xors * length)


def random_regions(field, count, length, rng):
    return [
        rng.integers(0, 1 << field.w, size=length, dtype=field.dtype)
        for _ in range(count)
    ]


@pytest.mark.parametrize("w", WORD_SIZES)
def test_matrix_apply_matches_interpreted(w):
    interp, programs, executor = pair(w)
    rng = np.random.default_rng(w)
    matrix = rng.integers(0, 1 << w, size=(4, 6), dtype=interp.field.dtype)
    regions = random_regions(interp.field, 6, 333, rng)
    expected = interp.matrix_apply(matrix, regions)
    program, got = chain(programs, executor, [matrix], regions)  # a chain of one
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)
    assert booked(program, 333) == interp.counter.snapshot()


@pytest.mark.parametrize("w", WORD_SIZES)
def test_matrix_chain_apply_matches_interpreted(w):
    interp, programs, executor = pair(w)
    rng = np.random.default_rng(w + 10)
    m1 = rng.integers(0, 1 << w, size=(5, 6), dtype=interp.field.dtype)
    m2 = rng.integers(0, 1 << w, size=(3, 5), dtype=interp.field.dtype)
    regions = random_regions(interp.field, 6, 257, rng)
    expected = interp.matrix_chain_apply([m1, m2], regions)
    program, got = chain(programs, executor, [m1, m2], regions)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)
    assert booked(program, 257) == interp.counter.snapshot()


@pytest.mark.parametrize("w", WORD_SIZES)
def test_linear_combination_matches_interpreted(w):
    interp, programs, executor = pair(w)
    rng = np.random.default_rng(w + 20)
    coefficients = rng.integers(0, 1 << w, size=5, dtype=interp.field.dtype)
    regions = random_regions(interp.field, 5, 100, rng)
    expected = interp.linear_combination(coefficients, regions)
    # one linear combination is a one-row chain
    program, (got,) = chain(programs, executor, [coefficients.reshape(1, -1)], regions)
    assert np.array_equal(got, expected)
    assert booked(program, 100) == interp.counter.snapshot()


def test_linear_combination_zero_coefficients_zero_cost():
    interp, programs, executor = pair(8)
    rng = np.random.default_rng(4)
    regions = random_regions(interp.field, 3, 32, rng)
    zeros = np.zeros(3, dtype=interp.field.dtype)
    expected = interp.linear_combination(zeros, regions)
    program, (got,) = chain(programs, executor, [zeros.reshape(1, -1)], regions)
    assert np.array_equal(got, expected)
    assert booked(program, 32) == interp.counter.snapshot() == (0, 0, 0)


def test_zero_row_chains_compile_like_any_other():
    interp, programs, executor = pair(8)
    rng = np.random.default_rng(5)
    regions = random_regions(interp.field, 3, 16, rng)
    empty = np.zeros((0, 3), dtype=interp.field.dtype)
    program, got = chain(programs, executor, [empty], regions)
    assert got == []
    assert interp.matrix_chain_apply([empty], regions) == []
    assert booked(program, 16) == interp.counter.snapshot()
    assert len(programs) == 1  # compiled, not routed around


def test_program_cache_hits_on_repeat_and_on_equal_content():
    field = GF(8)
    cache = ProgramCache()
    executor = ProgramExecutor(field)
    rng = np.random.default_rng(6)
    matrix = rng.integers(0, 256, size=(3, 4), dtype=field.dtype)
    regions = random_regions(field, 4, 50, rng)
    chain(cache, executor, [matrix], regions)
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    chain(cache, executor, [matrix], regions)
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    # a distinct array object with equal bytes is the same program
    chain(cache, executor, [matrix.copy()], regions)
    assert (cache.stats.hits, cache.stats.misses) == (2, 1)
    # and a single matrix is the same entry as its chain of one
    cache.matrix_program(field, matrix)
    assert (cache.stats.hits, cache.stats.misses) == (3, 1)


def test_program_cache_lru_eviction():
    field = GF(8)
    cache = ProgramCache(maxsize=2)
    executor = ProgramExecutor(field)
    rng = np.random.default_rng(7)
    regions = random_regions(field, 2, 16, rng)
    mats = [
        np.full((1, 2), fill, dtype=field.dtype) for fill in (3, 5, 7)
    ]
    for m in mats:
        chain(cache, executor, [m], regions)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    chain(cache, executor, [mats[0]], regions)  # evicted -> recompiled
    assert cache.stats.misses == 4


def test_program_cache_miss_runs_one_dataflow_pass(monkeypatch):
    from repro.kernels import ir

    passes = []
    real = ir.structural_violations
    monkeypatch.setattr(
        ir,
        "structural_violations",
        lambda program: (passes.append(program), real(program))[1],
    )
    code = SDCode(6, 4, 2, 2)
    plan = plan_decode(code, [0, 7, 14])
    programs, executor = ProgramCache(), ProgramExecutor(code.field)
    program = programs.plan_program(code.field, plan).program
    assert passes == [program]  # once, in ProgramBuilder.finish
    programs.plan_program(code.field, plan)
    assert len(passes) == 1  # a hit runs none
    blocks = {b: np.zeros(8, dtype=code.field.dtype) for b in range(code.num_blocks)}
    run_plan(programs, executor, plan, blocks)
    run_plan(programs, executor, plan, blocks)
    # the bind trusts the program the builder admitted: one structural
    # pass per cold program, and nothing on a warm run
    assert executor._bound
    assert passes == [program]


def run_plan(programs, executor, plan, blocks):
    """A whole plan as the serial engine runs it: ``(program, {id: region})``."""
    compiled = programs.plan_program(executor.field, plan)
    outs = executor.execute(compiled.program, [blocks[b] for b in compiled.input_ids])
    return compiled.program, dict(zip(compiled.output_ids, outs))


@pytest.mark.parametrize(
    "faulty,policy",
    [
        ((5, 7, 12, 15), SequencePolicy.PAPER),
        ((5, 7, 12, 15), SequencePolicy.NORMAL),
        ((0, 1), SequencePolicy.MATRIX_FIRST),
        ((5, 7, 12, 15, 17, 18), SequencePolicy.PAPER),
    ],
)
def test_run_plan_matches_stage_by_stage_decode(faulty, policy):
    code = SDCode(10, 8, 2, 2)
    plan = plan_decode(code, list(faulty), policy=policy)
    rng = np.random.default_rng(8)
    blocks = {
        b: rng.integers(0, 256, size=128, dtype=code.field.dtype)
        for b in range(code.num_blocks)
        if b not in faulty
    }
    interp = RegionOps(code.field, OpCounter())

    program, got = run_plan(ProgramCache(), ProgramExecutor(code.field), plan, blocks)
    assert set(got) == set(faulty)
    # interpreted reference: the plan's classic fields executed by hand,
    # independently of DecodePlan.stages (which lower_plan lowers)
    def run(sub, known, matrix_first):
        regions = [known[b] for b in sub.survivor_ids]
        if matrix_first:
            outs = interp.matrix_apply(sub.weights.array, regions)
        else:
            outs = interp.matrix_chain_apply((sub.s.array, sub.f_inv.array), regions)
        return dict(zip(sub.faulty_ids, outs))

    reference = dict(blocks)
    if plan.uses_partition:
        for group in plan.groups:
            reference.update(run(group, reference, True))
        if plan.rest is not None:
            rest_mf = plan.mode is ExecutionMode.PPM_REST_MATRIX_FIRST
            reference.update(run(plan.rest, reference, rest_mf))
    else:
        trad_mf = plan.mode is ExecutionMode.TRADITIONAL_MATRIX_FIRST
        reference.update(run(plan.traditional, reference, trad_mf))
    recovered = {b: reference[b] for b in faulty}
    for b in faulty:
        assert np.array_equal(got[b], recovered[b])
    assert booked(program, 128) == interp.counter.snapshot()


def test_run_plan_program_cache_is_identity_keyed():
    code = SDCode(10, 8, 2, 2)
    plan = plan_decode(code, [5, 7], policy=SequencePolicy.PAPER)
    programs = ProgramCache()
    first = programs.plan_program(code.field, plan)
    assert programs.plan_program(code.field, plan) is first
    assert programs.stats.hits == 1
