"""Static dataflow verification of :class:`~repro.kernels.RegionProgram`.

The compiled IR is straight-line code over a flat slot pool, so its
dataflow facts are decidable by two linear passes — no execution, no
block data.  This module *proves* the structural half of what
:func:`repro.verify.verify_plan_program` proves semantically.

The forward pass is the one structural rule set,
:func:`repro.kernels.ir.structural_violations` — the same rules
:meth:`RegionProgram.validate` enforces when the builder admits a
program and when the executor binds one.  :func:`analyze_program`
reports every violation rather than the first, as
``dataflow/<check>`` ERRORs: ``no-inputs``, ``slot-range``,
``unknown-opcode``, ``aliasing``, ``uninit-read``,
``accumulate-undefined``, ``missing-binding``, ``undefined-output`` and
``duplicate-output``.

Strict mode adds a backward liveness pass for the audits that need
whole-program facts (run inside ``ppm verify`` / ``ppm check`` sweeps,
not on the compile hot path):

- **dead stores** (``dataflow/dead-store``, warning) — an instruction
  whose destination value is never read and never output; the optimiser
  (:func:`repro.kernels.optimize.eliminate_dead`) should have removed
  it;
- **unreachable slots** (``dataflow/unreachable-slot``, warning) — pool
  ids no instruction or output ever touches, i.e. wasted scratch the
  slot compactor should have reclaimed (unused *inputs* are reported
  separately as ``dataflow/unused-input`` since they change the
  program's I/O contract, not just its footprint);
- **pool/peak-live audit** (``dataflow/pool-slack``, warning) — the
  slot pool must be exactly inputs + outputs + the peak number of
  simultaneously-live temporaries; slack means
  :func:`repro.kernels.optimize.compact_slots` failed to recycle.

Entry points mirror the other verifiers: :func:`analyze_program`
returns a :class:`~repro.verify.findings.VerificationReport`,
:func:`assert_dataflow_valid` raises :class:`DataflowVerificationError`
on a bad program.
"""

from __future__ import annotations

from ..kernels.ir import (
    OP_COPY,
    OP_MUL,
    OP_NAMES,
    OP_ZERO,
    RegionProgram,
    structural_violations,
)
from .findings import DataflowVerificationError, Severity, VerificationReport

#: Opcodes that fully (re)define their destination slot.
_DEFINING_OPS = frozenset({OP_ZERO, OP_COPY, OP_MUL})


def analyze_program(
    program: RegionProgram, strict: bool = False
) -> VerificationReport:
    """Statically verify a program's dataflow; see the module docstring.

    ``strict=False`` reports every structural violation
    (:func:`repro.kernels.ir.structural_violations`, the rules
    :meth:`RegionProgram.validate` enforces) as a ``dataflow/*`` ERROR;
    ``strict=True`` adds the backward liveness audits, reported as
    WARNINGs so the semantic sweeps can keep distinguishing "wrong
    bytes" from "wasted work".
    """
    report = VerificationReport(
        subject=f"dataflow of {program.label or 'program'}"
    )
    for check, message, where in structural_violations(program):
        report.add(f"dataflow/{check}", message, where)

    if not strict or not report.ok:
        return report

    # -- backward pass: liveness audits (strict mode only) -----------------
    pool = program.pool_size
    live = set(program.outputs)
    peak_temps = _count_live_temps(program, live)
    touched = bytearray(pool)
    for slot in program.outputs:
        touched[slot] = 1
    dead_stores: list[tuple[int, int, int]] = []
    for index in range(len(program.instructions) - 1, -1, -1):
        op, dst, src, _const = program.instructions[index]
        touched[dst] = 1
        if src >= 0:
            touched[src] = 1
        if dst not in live:
            dead_stores.append((index, op, dst))
            continue
        if op in _DEFINING_OPS:
            live.discard(dst)
        if src >= 0:
            live.add(src)
        # While this instruction executes, a slot allocator must hold dst
        # *and* every slot live before it (src is freed only after its
        # last read completes), so peak demand is live_before ∪ {dst}.
        peak_temps = max(peak_temps, _count_live_temps(program, live | {dst}))
    for index, op, dst in reversed(dead_stores):
        report.add(
            "dataflow/dead-store",
            f"value written to slot {dst} is never read and never output "
            "(eliminate_dead should have dropped it)",
            f"inst[{index}]({OP_NAMES[op]})",
            severity=Severity.WARNING,
        )

    unused_inputs = [
        slot for slot in range(program.num_inputs) if not touched[slot]
    ]
    if unused_inputs:
        report.add(
            "dataflow/unused-input",
            f"input slot(s) {unused_inputs} are never read; the program's "
            "I/O contract claims survivors it does not use",
            severity=Severity.WARNING,
        )
    unreachable = [
        slot for slot in range(program.num_inputs, pool) if not touched[slot]
    ]
    if unreachable:
        report.add(
            "dataflow/unreachable-slot",
            f"pool slot(s) {unreachable} are never touched by any "
            "instruction or output (wasted scratch)",
            severity=Severity.WARNING,
        )

    # pool audit: inputs keep their ids, outputs get dedicated buffers,
    # and the compactor recycles temporaries — so a fully-compacted pool
    # is exactly inputs + outputs + peak simultaneously-live temps.
    expected_pool = program.num_inputs + len(set(program.outputs)) + peak_temps
    if pool > expected_pool:
        report.add(
            "dataflow/pool-slack",
            f"pool has {pool} slots but peak liveness needs only "
            f"{expected_pool} ({program.num_inputs} inputs + "
            f"{len(set(program.outputs))} outputs + {peak_temps} peak live "
            "temps); compact_slots left slack",
            severity=Severity.WARNING,
        )
    return report


def _count_live_temps(program: RegionProgram, live: set[int]) -> int:
    """Live slots that are neither inputs nor outputs (recyclable)."""
    outputs = set(program.outputs)
    return sum(
        1 for slot in live if slot >= program.num_inputs and slot not in outputs
    )


def assert_dataflow_valid(program: RegionProgram, strict: bool = True) -> None:
    """Raise :class:`DataflowVerificationError` unless the program's
    dataflow verifies (strict by default; warnings do not raise)."""
    report = analyze_program(program, strict=strict)
    if not report.ok:
        raise DataflowVerificationError(report)
