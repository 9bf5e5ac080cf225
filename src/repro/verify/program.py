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
:class:`~repro.kernels.PlanProgram` lowered from a
:class:`~repro.core.planner.DecodePlan` against the parity-check matrix
itself, not against a second reading of the plan:

1. **Structure** — the IR invariants (:meth:`RegionProgram.validate`)
   and the field width match.
2. **I/O contract** — the program writes exactly ``plan.targets`` in
   order and reads no erased block.
3. **Certificate** — each row of ``T``, placed on ``H``'s columns, is a
   relation ``H`` implies (:func:`~repro.verify.plan.certify_relations`),
   so the program recovers every target right for every codeword even
   when the plan it came from is corrupt.
4. **Op accounting** — the program's *model* counts
   (``mult_xors`` / ``xor_only``) equal the nonzero/one coefficient
   counts of the applied matrices, so a compiled decode books exactly
   what the interpreted path would (and ``mult_xors`` matches
   ``plan.predicted_cost``).
"""

from __future__ import annotations

import numpy as np

from ..codes.base import ErasureCode
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
from .plan import certify_relations, reference_walk


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


def verify_plan_program(
    plan_program: PlanProgram, source: ErasureCode | GFMatrix, plan
) -> VerificationReport:
    """Certify a compiled plan program against ``H``.

    ``source`` is the code (its ``H`` is used) or the matrix the plan was
    built from; ``plan`` supplies the erasure pattern, the targets and
    the costs the program must book.
    """
    h = source.H if isinstance(source, ErasureCode) else source
    field = h.field
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
        report.add("program/structure", f"IR invariant violated: {exc}")
        return report

    # -- I/O contract ------------------------------------------------------
    faulty_set = set(plan.faulty_ids)
    if plan_program.output_ids != tuple(plan.targets):
        report.add(
            "program/io-outputs",
            f"program outputs blocks {list(plan_program.output_ids)} but the "
            f"plan recovers {list(plan.targets)}",
        )
    if len(plan_program.output_ids) != len(program.outputs):
        report.add(
            "program/io-outputs",
            f"{len(plan_program.output_ids)} output ids for a program with "
            f"{len(program.outputs)} output slots",
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
    if report.findings:
        return report

    # -- the certificate: every output row against H -----------------------
    got = transfer_matrix(program, field)
    coeffs = field.zeros((got.shape[0], h.cols))
    for j, b in enumerate(plan_program.input_ids):
        coeffs[:, b] ^= got[:, j]
    certify_relations(
        report,
        h,
        faulty_set,
        [(f"output {b}", b, row) for b, row in zip(plan_program.output_ids, coeffs)],
        "program/certificate",
    )

    # -- op accounting: every nonzero of every applied matrix — S and F^-1
    # *separately* for normal modes (two sweeps), not their product -------
    mats = [m for chain, _src, _dst in reference_walk(plan, plan.mode) for m in chain]
    want_mult = sum(int(np.count_nonzero(m)) for m in mats)
    want_xor = sum(int(np.count_nonzero(m == 1)) for m in mats)
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


def assert_program_valid(
    plan_program: PlanProgram, source: ErasureCode | GFMatrix, plan
) -> None:
    """Raise :class:`ProgramVerificationError` unless the program verifies."""
    report = verify_plan_program(plan_program, source, plan)
    if not report.ok:
        raise ProgramVerificationError(report)
