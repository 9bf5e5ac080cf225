"""CompiledRegionOps: equality with the interpreted RegionOps.

Both compiled entry points — a matrix chain and a whole plan — must
produce bit-identical regions AND identical
:class:`~repro.gf.OpCounter` snapshots to the interpreted path; the
compiler may only change *how fast* the answer arrives.
"""

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import ExecutionMode, SequencePolicy
from repro.core.planner import plan_decode
from repro.gf import GF, OpCounter, RegionOps
from repro.kernels import CompiledRegionOps, ProgramCache

WORD_SIZES = [4, 8, 16, 32]


def pair(w):
    """(interpreted, compiled) ops over the same field, fresh counters."""
    field = GF(w)
    return RegionOps(field, OpCounter()), CompiledRegionOps(field, OpCounter())


def random_regions(field, count, length, rng):
    return [
        rng.integers(0, 1 << field.w, size=length, dtype=field.dtype)
        for _ in range(count)
    ]


@pytest.mark.parametrize("w", WORD_SIZES)
def test_matrix_apply_matches_interpreted(w):
    interp, compiled = pair(w)
    rng = np.random.default_rng(w)
    matrix = rng.integers(0, 1 << w, size=(4, 6), dtype=interp.field.dtype)
    regions = random_regions(interp.field, 6, 333, rng)
    expected = interp.matrix_apply(matrix, regions)
    got = compiled.matrix_chain_apply([matrix], regions)  # a chain of one
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)
    assert compiled.counter.snapshot() == interp.counter.snapshot()


@pytest.mark.parametrize("w", WORD_SIZES)
def test_matrix_chain_apply_matches_interpreted(w):
    interp, compiled = pair(w)
    rng = np.random.default_rng(w + 10)
    m1 = rng.integers(0, 1 << w, size=(5, 6), dtype=interp.field.dtype)
    m2 = rng.integers(0, 1 << w, size=(3, 5), dtype=interp.field.dtype)
    regions = random_regions(interp.field, 6, 257, rng)
    expected = interp.matrix_chain_apply([m1, m2], regions)
    got = compiled.matrix_chain_apply([m1, m2], regions)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)
    assert compiled.counter.snapshot() == interp.counter.snapshot()


@pytest.mark.parametrize("w", WORD_SIZES)
def test_linear_combination_matches_interpreted(w):
    interp, compiled = pair(w)
    rng = np.random.default_rng(w + 20)
    coefficients = rng.integers(0, 1 << w, size=5, dtype=interp.field.dtype)
    regions = random_regions(interp.field, 5, 100, rng)
    expected = interp.linear_combination(coefficients, regions)
    # one linear combination is a one-row chain
    (got,) = compiled.matrix_chain_apply([coefficients.reshape(1, -1)], regions)
    assert np.array_equal(got, expected)
    assert compiled.counter.snapshot() == interp.counter.snapshot()


def test_linear_combination_zero_coefficients_zero_cost():
    interp, compiled = pair(8)
    rng = np.random.default_rng(4)
    regions = random_regions(interp.field, 3, 32, rng)
    zeros = np.zeros(3, dtype=interp.field.dtype)
    expected = interp.linear_combination(zeros, regions)
    (got,) = compiled.matrix_chain_apply([zeros.reshape(1, -1)], regions)
    assert np.array_equal(got, expected)
    assert compiled.counter.snapshot() == interp.counter.snapshot()


def test_zero_row_chains_compile_like_any_other():
    interp, compiled = pair(8)
    rng = np.random.default_rng(5)
    regions = random_regions(interp.field, 3, 16, rng)
    empty = np.zeros((0, 3), dtype=interp.field.dtype)
    assert compiled.matrix_chain_apply([empty], regions) == []
    assert interp.matrix_chain_apply([empty], regions) == []
    assert compiled.counter.snapshot() == interp.counter.snapshot()
    assert len(compiled.programs) == 1  # compiled, not routed around


def test_program_cache_hits_on_repeat_and_on_equal_content():
    field = GF(8)
    cache = ProgramCache()
    compiled = CompiledRegionOps(field, OpCounter(), programs=cache)
    rng = np.random.default_rng(6)
    matrix = rng.integers(0, 256, size=(3, 4), dtype=field.dtype)
    regions = random_regions(field, 4, 50, rng)
    compiled.matrix_chain_apply([matrix], regions)
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    compiled.matrix_chain_apply([matrix], regions)
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    # a distinct array object with equal bytes is the same program
    compiled.matrix_chain_apply([matrix.copy()], regions)
    assert (cache.stats.hits, cache.stats.misses) == (2, 1)
    # and a single matrix is the same entry as its chain of one
    cache.matrix_program(field, matrix)
    assert (cache.stats.hits, cache.stats.misses) == (3, 1)


def test_program_cache_lru_eviction():
    field = GF(8)
    cache = ProgramCache(maxsize=2)
    compiled = CompiledRegionOps(field, OpCounter(), programs=cache)
    rng = np.random.default_rng(7)
    regions = random_regions(field, 2, 16, rng)
    mats = [
        np.full((1, 2), fill, dtype=field.dtype) for fill in (3, 5, 7)
    ]
    for m in mats:
        compiled.matrix_chain_apply([m], regions)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    compiled.matrix_chain_apply([mats[0]], regions)  # evicted -> recompiled
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
    compiled = CompiledRegionOps(code.field)
    program = compiled.programs.plan_program(code.field, plan).program
    assert passes == [program]  # once, in ProgramBuilder.finish
    compiled.programs.plan_program(code.field, plan)
    assert len(passes) == 1  # a hit runs none
    blocks = {b: np.zeros(8, dtype=code.field.dtype) for b in range(code.num_blocks)}
    compiled.run_plan(plan, blocks)
    compiled.run_plan(plan, blocks)
    # the bind trusts the program the builder admitted: one structural
    # pass per cold program, and nothing on a warm run
    assert compiled.executor._bound
    assert passes == [program]


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
    compiled = CompiledRegionOps(code.field, OpCounter())

    got = compiled.run_plan(plan, blocks)
    assert set(got) == set(faulty)
    # interpreted reference: the plan's classic fields executed by hand,
    # independently of DecodePlan.stages (which run_plan lowers)
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
    assert compiled.counter.snapshot() == interp.counter.snapshot()


def test_run_plan_program_cache_is_identity_keyed():
    code = SDCode(10, 8, 2, 2)
    plan = plan_decode(code, [5, 7], policy=SequencePolicy.PAPER)
    compiled = CompiledRegionOps(code.field, OpCounter())
    first = compiled.programs.plan_program(code.field, plan)
    assert compiled.programs.plan_program(code.field, plan) is first
    assert compiled.programs.stats.hits == 1
