"""Optimisation passes over :class:`~repro.kernels.ir.RegionProgram`.

Two passes, run in this order by :func:`optimize_program`:

1. **Dead-temporary elimination** (:func:`eliminate_dead`) — reverse
   liveness walk dropping instructions whose destination is never read
   and never output (e.g. an ``S``-stage row whose column in ``F^-1`` is
   all zero).
2. **Slot compaction** (:func:`compact_slots`) — renumber slots with a
   free-list so temporaries reuse buffers once dead.  Input slots keep
   their identity; output slots always get dedicated buffers (the
   executor hands them full-length arrays, not chunk scratch).

Neither pass touches the program's *model* op counts
(``mult_xors``/``xor_only``): those describe the source matrices, not
the executed instructions.  Neither looks at a constant either, so the
optimised instruction list depends only on the source matrices'
structure (see :class:`~repro.kernels.cache.ProgramCache`).
"""

from __future__ import annotations

from dataclasses import replace

from .ir import OP_MULXOR, OP_XOR, Instruction, RegionProgram


def eliminate_dead(program: RegionProgram) -> RegionProgram:
    """Drop instructions whose destination is never read or output.

    Reverse liveness: ``ZERO``/``COPY``/``MUL`` fully define their
    destination (a live destination becomes dead above them); ``XOR`` /
    ``MULXOR`` accumulate, so the destination stays live upward.  The
    program's per-instruction ``origins`` are kept aligned.
    """
    live = set(program.outputs)
    kept: list[int] = []
    for index in range(len(program.instructions) - 1, -1, -1):
        op, dst, src, _const = program.instructions[index]
        if dst not in live:
            continue
        kept.append(index)
        if op not in (OP_XOR, OP_MULXOR):
            live.discard(dst)
        if src >= 0:
            live.add(src)
    if len(kept) == len(program.instructions):
        return program
    kept.reverse()
    origins = program.origins
    return replace(
        program,
        instructions=tuple(program.instructions[i] for i in kept),
        origins=tuple(origins[i] for i in kept) if origins else (),
    )


def compact_slots(program: RegionProgram) -> RegionProgram:
    """Renumber slots, reusing dead temporaries' ids via a free list.

    Inputs keep ids ``0..num_inputs-1``.  Output slots are allocated
    fresh ids and never recycled (they are real result buffers, not
    chunk scratch).  A temporary's id returns to the free list after the
    instruction containing its last appearance, so the id can never
    alias a source of that same instruction.
    """
    last_seen: dict[int, int] = {}
    for index, (_op, dst, src, _const) in enumerate(program.instructions):
        if src >= 0:
            last_seen[src] = index
        last_seen[dst] = index
    out_set = set(program.outputs)
    remap = {slot: slot for slot in range(program.num_inputs)}
    free: list[int] = []
    next_id = program.num_inputs
    new_insts: list[Instruction] = []
    for index, (op, dst, src, const) in enumerate(program.instructions):
        new_src = remap[src] if src >= 0 else -1
        if dst not in remap:
            if dst in out_set or not free:
                remap[dst] = next_id
                next_id += 1
            else:
                remap[dst] = free.pop()
        new_insts.append((op, remap[dst], new_src, const))
        for slot in (src, dst):
            if (
                slot >= program.num_inputs
                and slot not in out_set
                and last_seen.get(slot) == index
            ):
                free.append(remap[slot])
    return replace(
        program,
        pool_size=next_id,
        instructions=tuple(new_insts),
        outputs=tuple(remap[slot] for slot in program.outputs),
    )


def optimize_program(program: RegionProgram) -> RegionProgram:
    """Dead-code elimination followed by slot compaction."""
    return compact_slots(eliminate_dead(program))
