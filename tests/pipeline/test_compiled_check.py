"""The worker check runs on the executor it checks.

``verify_workers`` zeroes each stage's parity rows of a unit's plan,
``H[rows][:, touched]`` over the blocks those rows touch, as a compiled
chain of one on the pipeline's own program cache and the executor that
ran the unit; the scrubber's whole-stripe
syndromes are one compiled program too.  These tests pin that neither
reaches the interpreted ``RegionOps``, that a wrong *check* program
fails closed, that the check books nothing, and that a bare
parity-check matrix decodes checked like a code.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.codes import SDCode
from repro.gf import RegionOps
from repro.kernels import ProgramCache
from repro.kernels.ir import OP_MUL, OP_MULXOR
from repro.pipeline import DecodePipeline
from repro.stripes import syndromes, worst_case_sd

from .test_engine import make_stripes
from .test_tiles import assert_truth, long_batch

REGION_METHODS = (
    "mul_region",
    "mult_xors",
    "linear_combination",
    "matrix_apply",
    "matrix_chain_apply",
)


@pytest.fixture(scope="module")
def code():
    return SDCode(8, 4, 2, 2)  # worst case: two groups and an H_rest stage


@pytest.fixture(scope="module")
def faulty(code):
    return list(worst_case_sd(code, z=1, rng=7).faulty_blocks)


def check_matrices(code, plan) -> set[tuple]:
    """The shape and bytes of every stage's ``H[rows][:, touched]`` slice."""
    h = code.H.array
    out = set()
    for stage in plan.stages:
        rows = h[list(stage.row_ids)]
        check = rows[:, np.flatnonzero(rows.any(axis=0))]
        out.add((check.shape, check.tobytes()))
    return out


def test_checks_make_no_interpreted_region_calls(code, faulty, monkeypatch):
    """The exact metric: interpreted region calls per checked op is 0,
    over a tiled checked batch, a one-target checked read and a scrub."""
    calls: list[str] = []

    def refuse(name):
        def call(self, *args, **kwargs):
            calls.append(name)
            raise AssertionError(f"interpreted RegionOps.{name} on a checked path")

        return call

    for name in REGION_METHODS:
        monkeypatch.setattr(RegionOps, name, refuse(name))
    maps, truth = long_batch(code, faulty, 4)
    with DecodePipeline(workers=2, pool="thread", verify_workers=True) as pipe:
        outs, stats = pipe.decode_batch(code, maps, faulty, return_stats=True)
        assert_truth(truth, outs, faulty)
        assert stats.queue_depth == 2  # it tiled: one unit per tile
        out = pipe.decode(code, maps[0], faulty, targets=[faulty[0]])
        assert np.array_equal(out[faulty[0]], truth[0][faulty[0]])
        assert pipe.metrics().verify_rejects == 0
    stripe = make_stripes(code, 1, 512)[0]
    assert not any(s.any() for s in syndromes(code, stripe))
    assert calls == []


@pytest.mark.parametrize("count", [1, 4])
def test_a_wrong_check_program_fails_closed(code, faulty, count, monkeypatch):
    """One constant flipped only in the check programs (chains of one
    whose matrix is an ``H[rows][:, touched]`` slice of the plan): the
    decode is right but its check cannot close, so the recompute fails
    it too and decode_batch raises instead of returning a block.  One
    stripe runs as one unit; four cut into two tiles."""
    planted = check_matrices(code, DecodePipeline(pool="serial").plan(code, faulty))
    real = ProgramCache._compile_chain
    flipped = []

    def flip_check_programs(self, field, matrices, shapes):
        program = real(self, field, matrices, shapes)
        matrix = np.asarray(matrices[0])
        if len(matrices) != 1 or (matrix.shape, matrix.tobytes()) not in planted:
            return program
        instructions = list(program.instructions)
        for i, (op, dst, src, const) in enumerate(instructions):
            if op in (OP_MUL, OP_MULXOR):
                instructions[i] = (op, dst, src, 3 if const == 2 else 2)
                flipped.append(i)
                break
        return replace(program, instructions=tuple(instructions))

    monkeypatch.setattr(ProgramCache, "_compile_chain", flip_check_programs)
    maps, _truth = long_batch(code, faulty, count)
    returned = []
    with DecodePipeline(workers=2, pool="thread", verify_workers=True) as pipe:
        with pytest.raises(ValueError, match="trusted recompute"):
            returned.append(pipe.decode_batch(code, maps, faulty))
        assert pipe.metrics().verify_rejects >= 1
    assert flipped and returned == []


def test_a_checked_decode_books_what_an_unchecked_one_does(code, faulty):
    maps, truth = long_batch(code, faulty, 4)
    booked = []
    for verify_workers in (False, True):
        with DecodePipeline(workers=2, pool="thread", verify_workers=verify_workers) as pipe:
            assert_truth(truth, pipe.decode_batch(code, maps, faulty), faulty)
            booked.append(pipe.counter.snapshot())
    assert booked[0] == booked[1]
    assert booked[0][0] > 0


@pytest.mark.parametrize("verify_workers", [False, True], ids=["plain", "checked"])
def test_a_bare_parity_check_matrix_decodes_like_its_code(code, faulty, verify_workers):
    stripe = make_stripes(code, 1, 64, rng=3)[0]
    blocks = {b: stripe.get(b) for b in stripe.present_ids if b not in faulty}
    truth = {b: stripe.get(b).copy() for b in faulty}
    with DecodePipeline(workers=2, pool="thread", verify_workers=verify_workers) as pipe:
        assert_truth([truth], [pipe.decode(code.H, blocks, faulty)], faulty)
        target = faulty[-1]
        assert_truth([truth], [pipe.decode(code.H, blocks, faulty, targets=[target])], [target])


def test_a_widened_plan_program_outputs_every_block_its_stages_recover():
    """The check zeroes each stage's rows over a unit's survivors and
    outputs, so a checked unit's whole-plan program must output every
    block its stages recover: it does for every widened one-target plan
    of SD(10,8,2,2) over 40 worst-case z=1 patterns (720 plans)."""
    code = SDCode(10, 8, 2, 2)
    plans = 0
    with DecodePipeline(pool="serial", verify_workers=True) as pipe:
        for seed in range(40):
            faulty = worst_case_sd(code, z=1, rng=seed).faulty_blocks
            for block in faulty:
                plan = pipe._checkable(code, pipe.plan(code, faulty, targets=[block]), None)
                compiled = pipe.programs.plan_program(code.field, plan)
                recovered = {b for stage in plan.stages for b in stage.faulty_ids}
                assert set(compiled.output_ids) == recovered, (seed, block)
                plans += 1
    assert plans == 720
