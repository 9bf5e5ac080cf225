"""Mutation tests for the compiled-program verifier.

Clean lowerings certify; every class of corruption — wrong transfer
coefficients, dropped/reordered instructions, mis-declared I/O, cooked
op counts, a plan corrupted before lowering — produces its specific
finding.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.codes import LRCCode, RSCode, SDCode
from repro.core import SequencePolicy
from repro.core.planner import plan_decode
from repro.gf import GF
from repro.kernels import OP_MUL, OP_MULXOR, lower_plan
from repro.matrix import GFMatrix
from repro.verify import (
    ProgramVerificationError,
    assert_program_valid,
    sweep_code,
    verify_plan_program,
)


def compiled_case(faulty=(5, 7, 12, 15), policy=SequencePolicy.PAPER):
    code = SDCode(10, 8, 2, 2)
    plan = plan_decode(code, list(faulty), policy=policy)
    return code, plan, lower_plan(code.field, plan)


def mutate_program(compiled, **changes):
    return replace(compiled, program=replace(compiled.program, **changes))


@pytest.mark.parametrize(
    "code,faulty",
    [
        (SDCode(10, 8, 2, 2), [5, 7, 12, 15]),
        (RSCode(8, 4), [0, 3]),
        (LRCCode(8, 2, 2), [0, 9]),
    ],
)
@pytest.mark.parametrize(
    "policy",
    [SequencePolicy.PAPER, SequencePolicy.NORMAL, SequencePolicy.MATRIX_FIRST],
)
def test_clean_lowerings_certify(code, faulty, policy):
    plan = plan_decode(code, faulty, policy=policy)
    compiled = lower_plan(code.field, plan)
    report = verify_plan_program(compiled, code, plan)
    assert report.ok, report.format()
    assert_program_valid(compiled, code.H, plan)  # must not raise


def test_corrupted_constant_is_caught_as_transfer_mismatch():
    code, plan, compiled = compiled_case()
    instructions = list(compiled.program.instructions)
    for i, (op, dst, src, const) in enumerate(instructions):
        if op in (OP_MUL, OP_MULXOR):
            flipped = const ^ 1 if const ^ 1 >= 2 else const + 1
            instructions[i] = (op, dst, src, flipped)
            break
    bad = mutate_program(compiled, instructions=tuple(instructions))
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/certificate"), report.format()


def test_dropped_instruction_is_caught():
    code, plan, compiled = compiled_case()
    bad = mutate_program(
        compiled, instructions=compiled.program.instructions[:-1]
    )
    report = verify_plan_program(bad, code, plan)
    assert not report.ok
    assert report.has("program/structure") or report.has("program/certificate")


def test_swapped_outputs_are_caught():
    code, plan, compiled = compiled_case()
    outputs = compiled.program.outputs
    bad = mutate_program(
        compiled, outputs=(outputs[1], outputs[0]) + outputs[2:]
    )
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/certificate"), report.format()


def test_misdeclared_output_ids_are_caught():
    code, plan, compiled = compiled_case()
    bad = replace(compiled, output_ids=tuple(reversed(compiled.output_ids)))
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/io-outputs"), report.format()


def test_dropped_output_slot_is_caught():
    """Every target needs a row: a program one output short is not
    certified on the rows it does have."""
    code, plan, compiled = compiled_case()
    bad = mutate_program(compiled, outputs=compiled.program.outputs[:-1])
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/io-outputs"), report.format()


def test_faulty_block_listed_as_input_is_caught():
    code, plan, compiled = compiled_case()
    ids = (plan.faulty_ids[0],) + compiled.input_ids[1:]
    bad = replace(compiled, input_ids=ids)
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/io-inputs"), report.format()


def test_cooked_mult_xors_count_is_caught():
    code, plan, compiled = compiled_case()
    bad = mutate_program(compiled, mult_xors=compiled.program.mult_xors - 1)
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/op-count"), report.format()


def test_cooked_xor_only_count_is_caught():
    code, plan, compiled = compiled_case()
    bad = mutate_program(compiled, xor_only=compiled.program.xor_only + 1)
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/xor-only"), report.format()


def test_field_width_mismatch_is_caught():
    code, plan, compiled = compiled_case()
    h16 = GFMatrix(GF(16), code.H.array.astype(GF(16).dtype))
    report = verify_plan_program(compiled, h16, plan)
    assert report.has("program/width"), report.format()


def test_assert_program_valid_raises_with_report():
    code, plan, compiled = compiled_case()
    bad = mutate_program(compiled, mult_xors=0)
    with pytest.raises(ProgramVerificationError) as excinfo:
        assert_program_valid(bad, code, plan)
    assert excinfo.value.report.has("program/op-count")


def test_sweep_counts_and_certifies_programs():
    code = SDCode(6, 4, 2, 2)
    result = sweep_code(code, samples=6)
    assert result.ok, result.report.format()
    assert result.programs > 0
    skipped = sweep_code(code, samples=6, check_programs=False)
    assert skipped.programs == 0


# -- programs compiled from target-pruned plans ------------------------------


def pruned_case(targets=(5, 12)):
    code = SDCode(10, 8, 2, 2)
    plan = plan_decode(code, [5, 7, 12, 15], targets=list(targets))
    return code, plan, lower_plan(code.field, plan)


@pytest.mark.parametrize("targets", [(5,), (12,), (5, 12), (7, 12, 15)])
@pytest.mark.parametrize("policy", list(SequencePolicy), ids=lambda p: p.value)
def test_clean_pruned_lowerings_certify(targets, policy):
    code = SDCode(10, 8, 2, 2)
    plan = plan_decode(code, [5, 7, 12, 15], policy=policy, targets=targets)
    compiled = lower_plan(code.field, plan)
    assert compiled.output_ids == targets
    assert compiled.program.mult_xors == plan.predicted_cost
    report = verify_plan_program(compiled, code, plan)
    assert report.ok, report.format()


def test_pruned_program_with_wrong_output_ids_is_caught():
    """A pruned program must output the targets — not the pattern."""
    code, plan, compiled = pruned_case()
    whole = lower_plan(code.field, plan_decode(code, [5, 7, 12, 15]))
    report = verify_plan_program(whole, code, plan)
    assert report.has("program/io-outputs"), report.format()
    bad = replace(compiled, output_ids=(5, 15))
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/io-outputs"), report.format()


def test_pruned_program_missing_a_needed_input_is_caught():
    code, plan, compiled = pruned_case()
    stranger = next(
        b for b in range(code.num_blocks)
        if b not in compiled.input_ids and b not in plan.faulty_ids
    )
    bad = replace(compiled, input_ids=(stranger,) + compiled.input_ids[1:])
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/certificate"), report.format()


def test_pruned_program_booking_the_whole_cost_is_caught():
    code, plan, compiled = pruned_case()
    whole_cost = plan_decode(code, [5, 7, 12, 15]).predicted_cost
    assert whole_cost > plan.predicted_cost
    bad = mutate_program(compiled, mult_xors=whole_cost)
    report = verify_plan_program(bad, code, plan)
    assert report.has("program/op-count"), report.format()


def test_sweep_certifies_pruned_plans():
    code = SDCode(6, 4, 2, 2)
    result = sweep_code(code, samples=6, check_backends=True)
    assert result.ok, result.report.format()
    # per scenario with t > 1 faults: t single-block plans (+ one random
    # multi-block subset when t > 2), under both policies
    assert result.pruned_plans == 2 * sum(
        (t if t > 1 else 0) + (t > 2) for t in range(1, 7)
    )
    assert result.programs == result.pruned_plans + 2 * result.scenarios
    assert "pruned plan(s)" in result.summary()


# -- a plan corrupted before lowering ----------------------------------------

#: SD(10,8,2,2)'s worst-case pattern: two dead disks (5 and 7) plus two
#: sectors, 18 blocks, recovered by 7 groups then ``H_rest``.
WORST_FAULTY = [5, 7, 12, 15, 17, 18] + [r * 10 + d for r in range(2, 8) for d in (5, 7)]


def test_program_from_corrupt_group_weights_is_caught():
    """One group coefficient changed to another nonzero value keeps every
    count, and the program lowered from the plan carries it: only a check
    against H (not against the plan) can see the wrong bytes."""
    code = SDCode(10, 8, 2, 2)
    plan = plan_decode(code, WORST_FAULTY, policy=SequencePolicy.PPM_NORMAL_REST)
    assert len(plan.groups) == 7 and plan.mode.value == "ppm_rest_normal"
    group = plan.groups[0]
    arr = group.weights.array.copy()
    i, j = np.argwhere(arr != 0)[0]
    arr[i, j] = 2 if arr[i, j] != 2 else 3
    groups = (replace(group, weights=GFMatrix(code.field, arr)),) + plan.groups[1:]
    bad = replace(plan, groups=groups)
    assert bad.costs == plan.costs and bad.predicted_cost == plan.predicted_cost
    compiled = lower_plan(code.field, bad)
    report = verify_plan_program(compiled, code, bad)
    assert {f.check for f in report.findings} == {"program/certificate"}
    assert f"output {group.faulty_ids[i]}" in {f.context for f in report.findings}
