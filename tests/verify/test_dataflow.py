"""Mutation + property tests for the static IR dataflow verifier.

The mutation half constructs deliberately broken
:class:`~repro.kernels.RegionProgram` objects — one seeded bug each —
and asserts the analyzer reports exactly the right check id.  The
property half proves the *absence* of false positives: every program
the real lowering pipeline emits (whole and pruned plans, across every
registered code and policy) must pass strict analysis with zero
findings, warnings included.  The structural rules are the ones
:meth:`RegionProgram.validate` enforces, so each mutation must also
make ``validate`` raise.
"""

from __future__ import annotations

import pytest

from repro.codes import get_code, is_decodable
from repro.core.planner import plan_decode
from repro.core.sequences import SequencePolicy
from repro.kernels import lower_matrix_chain, lower_plan
from repro.kernels.ir import (
    OP_COPY,
    OP_MUL,
    OP_MULXOR,
    OP_XOR,
    OP_ZERO,
    RegionProgram,
)
from repro.verify import DEFAULT_INSTANCES, analyze_program, assert_dataflow_valid
from repro.verify.findings import DataflowVerificationError
from repro.verify.sweep import iter_scenarios


def make_program(instructions, *, num_inputs=2, pool=4, outputs=(3,), w=8):
    """A raw program, bypassing the builder (and its admission gate)."""
    return RegionProgram(
        w=w,
        num_inputs=num_inputs,
        pool_size=pool,
        instructions=tuple(instructions),
        outputs=tuple(outputs),
        mult_xors=0,
        xor_only=0,
        label="test",
    )


GOOD = [
    (OP_COPY, 2, 0, 1),  # t = in0
    (OP_XOR, 2, 1, 1),  # t ^= in1
    (OP_MUL, 3, 2, 3),  # out = 3 * t
]


def checks_of(report):
    return {f.check for f in report.findings}


class TestMutationsCaught:
    """Each seeded IR bug must produce its dedicated check id."""

    def test_good_program_is_clean(self):
        report = analyze_program(make_program(GOOD), strict=True)
        assert report.findings == []

    def test_uninitialized_read(self):
        bad = [(OP_COPY, 3, 2, 1)]  # slot 2 never written
        report = analyze_program(make_program(bad))
        assert "dataflow/uninit-read" in checks_of(report)

    def test_dst_aliases_src(self):
        bad = [(OP_COPY, 2, 0, 1), (OP_MUL, 2, 2, 3)]
        report = analyze_program(make_program(bad, outputs=(2,)))
        assert "dataflow/aliasing" in checks_of(report)

    def test_missing_table_binding(self):
        # const 1 has no gather table; the builder emits COPY instead
        bad = [(OP_MUL, 3, 0, 1)]
        report = analyze_program(make_program(bad))
        assert "dataflow/missing-binding" in checks_of(report)

    def test_const_exceeds_field(self):
        bad = [(OP_MUL, 3, 0, 256)]  # >= 2^8
        report = analyze_program(make_program(bad))
        assert "dataflow/missing-binding" in checks_of(report)

    def test_accumulate_into_undefined_slot(self):
        bad = [(OP_MULXOR, 3, 0, 3)]  # ^= into a slot never initialised
        report = analyze_program(make_program(bad))
        assert "dataflow/accumulate-undefined" in checks_of(report)

    def test_write_to_input_slot(self):
        bad = [(OP_ZERO, 0, -1, 0), (OP_COPY, 3, 0, 1)]
        report = analyze_program(make_program(bad))
        assert "dataflow/slot-range" in checks_of(report)

    def test_unknown_opcode(self):
        report = analyze_program(make_program([(9, 3, 0, 0)]))
        assert "dataflow/unknown-opcode" in checks_of(report)

    def test_undefined_output(self):
        report = analyze_program(make_program([(OP_COPY, 2, 0, 1)], outputs=(3,)))
        assert "dataflow/undefined-output" in checks_of(report)

    def test_duplicate_output(self):
        program = make_program(GOOD, outputs=(3, 3))
        report = analyze_program(program)
        assert "dataflow/duplicate-output" in checks_of(report)

    def test_input_slot_output(self):
        report = analyze_program(make_program(GOOD, outputs=(0,)))
        assert "dataflow/slot-range" in checks_of(report)

    @pytest.mark.parametrize(
        "program",
        [
            make_program([(OP_COPY, 3, 2, 1)]),
            make_program([(OP_COPY, 2, 0, 1), (OP_MUL, 2, 2, 3)], outputs=(2,)),
            make_program([(OP_MUL, 3, 0, 1)]),
            make_program([(OP_MULXOR, 3, 0, 3)]),
            make_program([(OP_ZERO, 0, -1, 0), (OP_COPY, 3, 0, 1)]),
            make_program([(9, 3, 0, 0)]),
            make_program([(OP_COPY, 2, 0, 1)], outputs=(3,)),
            make_program(GOOD, outputs=(3, 3)),
            make_program(GOOD, outputs=(0,)),
            make_program([], num_inputs=0, pool=1, outputs=()),
            make_program([], num_inputs=4, pool=2, outputs=()),
        ],
    )
    def test_validate_raises_on_what_analysis_reports(self, program):
        # one rule set: the first reported violation is what validate raises
        first = analyze_program(program).errors[0]
        with pytest.raises(ValueError) as exc_info:
            program.validate()
        assert first.message in str(exc_info.value)

    def test_assert_dataflow_valid_strict(self):
        assert_dataflow_valid(make_program(GOOD))
        with pytest.raises(DataflowVerificationError):
            assert_dataflow_valid(make_program([(9, 3, 0, 0)]))


class TestStrictLiveness:
    """Warnings only strict mode can see."""

    def test_dead_store_reported(self):
        dead = [
            (OP_COPY, 2, 0, 1),  # t written ...
            (OP_COPY, 3, 1, 1),  # ... but the output never reads it
        ]
        report = analyze_program(make_program(dead), strict=True)
        assert "dataflow/dead-store" in checks_of(report)
        assert report.ok  # a warning, not an error

    def test_unused_input_reported(self):
        one_input = [(OP_COPY, 2, 0, 1), (OP_MUL, 3, 2, 3)]
        report = analyze_program(make_program(one_input), strict=True)
        assert "dataflow/unused-input" in checks_of(report)

    def test_pool_slack_reported(self):
        slack = make_program(
            [(OP_COPY, 2, 0, 1), (OP_XOR, 2, 1, 1)],
            pool=6,
            outputs=(2,),
        )
        report = analyze_program(slack, strict=True)
        assert "dataflow/pool-slack" in checks_of(report)

    def test_cheap_mode_stays_silent_on_liveness(self):
        dead = [(OP_COPY, 2, 0, 1), (OP_COPY, 3, 1, 1)]
        report = analyze_program(make_program(dead), strict=False)
        assert report.findings == []


class TestNoFalsePositives:
    """Every real compiled program is strict-clean (warnings included)."""

    @pytest.mark.parametrize("kind", sorted(DEFAULT_INSTANCES))
    @pytest.mark.parametrize("pruned", [False, True])
    def test_lowered_plans_pass_strict(self, kind, pruned):
        code = get_code(kind, **DEFAULT_INSTANCES[kind])
        seen = 0
        for faulty in iter_scenarios(code, samples=6, seed=7):
            if not is_decodable(code, faulty):
                continue
            for policy in (SequencePolicy.PAPER, SequencePolicy.AUTO):
                plan = plan_decode(code, faulty, policy=policy)
                if pruned:  # what a one-block degraded read compiles
                    plan = plan.for_targets(plan.faulty_ids[-1:])
                compiled = lower_plan(code.field, plan)
                report = analyze_program(compiled.program, strict=True)
                # warning-free too: compact_slots recycled every temp,
                # CSE and dead-code elimination left no dead stores
                assert report.findings == [], (
                    f"{kind} faulty={faulty} policy={policy}: "
                    + "; ".join(f.format() for f in report.findings)
                )
                seen += 1
        assert seen > 0

    @pytest.mark.parametrize("kind", ["rs", "evenodd"])
    def test_lowered_matrices_pass_strict(self, kind):
        code = get_code(kind, **DEFAULT_INSTANCES[kind])
        program = lower_matrix_chain(code.field, [code.H.array])
        report = analyze_program(program, strict=True)
        assert report.findings == []
