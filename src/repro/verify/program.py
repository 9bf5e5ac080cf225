"""Symbolic verification of compiled :class:`~repro.kernels.RegionProgram`.

A compiled program is straight-line code over region slots, so its full
semantics collapse to one GF(2^w) *transfer matrix*: output ``i`` of the
program equals ``XOR_j T[i, j] * input_j``.  :func:`transfer_matrix`
recovers ``T`` by symbolically executing the instruction stream over
coefficient vectors (input ``j`` starts as the ``j``-th unit vector;
XOR is vector addition over the field, MUL scales by the instruction
constant).  No stripe data is touched and every optimisation the
compiler performed — dead-code elimination, slot reuse, constants
stamped into a cached template — is checked *semantically* rather than
trusted.

:func:`verify_plan_program` certifies a fused
:class:`~repro.kernels.PlanProgram` against the
:class:`~repro.core.planner.DecodePlan` it was lowered from:

1. **Structure** — the IR invariants (:meth:`RegionProgram.validate`)
   and the field width match.
2. **I/O contract** — the program reads only true survivors, every one
   the plan's targets need, and writes exactly ``plan.targets`` in
   order (all of ``plan.faulty_ids`` unless the plan is pruned).
3. **Transfer equality** — ``T`` equals the matrix the plan's own
   sub-plans dictate (group weights feeding the rest stage, or the
   traditional ``W`` / ``F^-1 S`` per the execution mode, cut down to
   the targets by the verifier's own pruning), recomputed here from
   the plan's matrices without consulting the lowering.
4. **Op accounting** — the program's *model* counts
   (``mult_xors`` / ``xor_only``) equal the nonzero/one coefficient
   counts of the applied matrices, so a compiled decode books exactly
   what the interpreted path would (and ``mult_xors`` matches
   ``plan.predicted_cost``).
"""

from __future__ import annotations

import numpy as np

from ..gf.field import GF
from ..matrix import GFMatrix
from ..kernels import (
    OP_COPY,
    OP_MUL,
    OP_MULXOR,
    OP_XOR,
    OP_ZERO,
    PlanProgram,
    RegionProgram,
)
from .findings import ProgramVerificationError, VerificationReport
from .plan import reference_walk


def transfer_matrix(program: RegionProgram, field: GF) -> np.ndarray:
    """Symbolically execute a program; row ``i`` maps inputs to output ``i``.

    The returned array has shape ``(len(outputs), num_inputs)`` with
    entries in GF(2^w): applying the program to concrete regions is
    exactly a matrix-vector product with this matrix.
    """
    if field.w != program.w:
        raise ValueError(
            f"program compiled for w={program.w} but field has w={field.w}"
        )
    n = program.num_inputs
    vecs = np.zeros((program.pool_size, n), dtype=field.dtype)
    for j in range(n):
        vecs[j, j] = 1
    for op, dst, src, const in program.instructions:
        if op == OP_ZERO:
            vecs[dst] = 0
        elif op == OP_COPY:
            vecs[dst] = vecs[src]
        elif op == OP_XOR:
            vecs[dst] ^= vecs[src]
        elif op == OP_MUL:
            vecs[dst] = field.mul(field.dtype.type(const), vecs[src])
        elif op == OP_MULXOR:
            vecs[dst] ^= field.mul(field.dtype.type(const), vecs[src])
        else:  # pragma: no cover - validate() rejects unknown opcodes
            raise ValueError(f"unknown opcode {op}")
    out = np.zeros((len(program.outputs), n), dtype=field.dtype)
    for i, slot in enumerate(program.outputs):
        out[i] = vecs[slot]
    return out


def expected_transfer(field: GF, plan, input_ids: tuple[int, ...]) -> np.ndarray:
    """The transfer matrix the plan dictates for its targets over
    ``input_ids``.

    Composed from :func:`~repro.verify.plan.reference_walk` — the plan's
    sub-plans read per execution mode, never its ``stages`` or the
    lowering.  A normal-sequence chain (``S`` then ``F^-1``) folds into
    the same linear map as its product, so chains are simply applied in
    order.
    """
    vec_of: dict[int, np.ndarray] = dict(zip(input_ids, field.eye(len(input_ids))))
    for chain, src_ids, dst_ids in reference_walk(plan, plan.mode):
        value = GFMatrix(field, np.stack([vec_of[b] for b in src_ids]), copy=False)
        for matrix in chain:
            value = GFMatrix(field, matrix, copy=False) @ value
        vec_of.update(zip(dst_ids, value.array))
    return np.stack([vec_of[b] for b in plan.targets])


def _expected_model_counts(walk) -> tuple[int, int]:
    """(mult_xors, xor_only) the applied matrices dictate, per mode.

    The model counts every nonzero coefficient of every applied matrix —
    for normal modes that is ``S`` and ``F^-1`` *separately* (the
    interpreted path applies them as two sweeps), not their product.
    """
    mats = [m for chain, _src, _dst in walk for m in chain]
    mult_xors = sum(int(np.count_nonzero(m)) for m in mats)
    xor_only = sum(int(np.count_nonzero(m == 1)) for m in mats)
    return mult_xors, xor_only


def verify_plan_program(
    plan_program: PlanProgram, field: GF, plan
) -> VerificationReport:
    """Certify a compiled plan program against the plan it came from."""
    program = plan_program.program
    report = VerificationReport(
        subject=f"PlanProgram(targets={list(plan.targets)} of "
        f"faulty={list(plan.faulty_ids)}, mode={plan.mode.value})"
    )

    if program.w != field.w:
        report.add(
            "program/width",
            f"program compiled for w={program.w} but the field has w={field.w}",
        )
        return report
    try:
        program.validate()
    except ValueError as exc:
        report.add(
            "program/structure",
            f"IR invariant violated: {exc}",
        )
        return report

    # -- I/O contract ------------------------------------------------------
    faulty_set = set(plan.faulty_ids)
    if plan_program.output_ids != tuple(plan.targets):
        report.add(
            "program/io-outputs",
            f"program outputs blocks {list(plan_program.output_ids)} but the "
            f"plan recovers {list(plan.targets)}",
        )
    overlap = sorted(set(plan_program.input_ids) & faulty_set)
    if overlap:
        report.add(
            "program/io-inputs",
            f"program reads faulty block(s) {overlap} as inputs; a fused "
            "program may only read true survivors",
        )
    if len(plan_program.input_ids) != program.num_inputs:
        report.add(
            "program/io-inputs",
            f"{len(plan_program.input_ids)} input ids for a program with "
            f"{program.num_inputs} input slots",
        )
    walk = reference_walk(plan, plan.mode)
    needed = {b for _chain, src_ids, _dst in walk for b in src_ids} - faulty_set
    unread = sorted(needed - set(plan_program.input_ids))
    if unread:
        report.add(
            "program/io-inputs",
            f"program does not read survivor block(s) {unread} the plan's "
            "targets depend on",
        )
    if report.findings:
        return report

    # -- transfer equality -------------------------------------------------
    got = transfer_matrix(program, field)
    expected = expected_transfer(field, plan, plan_program.input_ids)
    if got.shape != expected.shape:
        report.add(
            "program/transfer",
            f"transfer matrix is {got.shape[0]}x{got.shape[1]} but the plan "
            f"dictates {expected.shape[0]}x{expected.shape[1]}",
        )
    elif not np.array_equal(got, expected):
        diff = got != expected
        i, j = (int(x) for x in next(zip(*diff.nonzero())))
        report.add(
            "program/transfer",
            f"program computes a different linear map than the plan at "
            f"{int(np.count_nonzero(diff))} position(s); first mismatch: "
            f"output {plan_program.output_ids[i]} x input "
            f"{plan_program.input_ids[j]} is {int(got[i, j])}, plan dictates "
            f"{int(expected[i, j])} (the compiled decode would produce "
            "wrong bytes)",
        )

    # -- op accounting -----------------------------------------------------
    want_mult, want_xor = _expected_model_counts(walk)
    if program.mult_xors != want_mult:
        report.add(
            "program/op-count",
            f"program books {program.mult_xors} mult_XORs but the plan's "
            f"matrices contain {want_mult} nonzero coefficients; compiled "
            "and interpreted decodes would report different costs",
        )
    if program.mult_xors != plan.predicted_cost:
        report.add(
            "program/op-count",
            f"program books {program.mult_xors} mult_XORs but the plan "
            f"predicts {plan.predicted_cost}",
        )
    if program.xor_only != want_xor:
        report.add(
            "program/xor-only",
            f"program books {program.xor_only} XOR-only ops but the plan's "
            f"matrices contain {want_xor} unit coefficients",
        )
    return report


def assert_program_valid(plan_program: PlanProgram, field: GF, plan) -> None:
    """Raise :class:`ProgramVerificationError` unless the program verifies."""
    report = verify_plan_program(plan_program, field, plan)
    if not report.ok:
        raise ProgramVerificationError(report)
