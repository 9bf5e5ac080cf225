"""Optimisation passes over :class:`~repro.kernels.ir.RegionProgram`.

Three passes, run in this order by :func:`optimize_program`:

1. **Pair sharing** (:func:`share_pairs`) — greedy common-subexpression
   elimination over one stage's rows, the GF(2^w) form of classic
   XOR-schedule pair reuse: the *(slot, const)* term pair shared by the
   most rows is materialised once into a temporary and every row
   rewrites to XOR that temporary instead.  Only terms present in two
   or more rows are paired up when counting.  This
   pass runs at lowering time (it needs the row structure), the other
   two on the flat program.
2. **Dead-temporary elimination** (:func:`eliminate_dead`) — reverse
   liveness walk dropping instructions whose destination is never read
   and never output (e.g. an ``S``-stage row whose column in ``F^-1`` is
   all zero).
3. **Slot compaction** (:func:`compact_slots`) — renumber slots with a
   free-list so temporaries reuse buffers once dead.  Input slots keep
   their identity; output slots always get dedicated buffers (the
   executor hands them full-length arrays, not chunk scratch).

None of the passes touch the program's *model* op counts
(``mult_xors``/``xor_only``): those describe the source matrices, not
the executed instructions.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .ir import (
    OP_MUL,
    OP_MULXOR,
    OP_XOR,
    OP_ZERO,
    Instruction,
    RegionProgram,
)

#: One linear-combination term: ``(slot, const)`` with ``const != 0``.
Term = tuple[int, int]


def share_pairs(
    rows: list[list[Term]], next_slot: int
) -> tuple[list[tuple[int, tuple[Term, Term]]], list[list[Term]], int]:
    """Greedy pair-reuse CSE across the rows of one stage.

    While some term pair appears in >= 2 rows, materialise the most
    frequent pair (smallest pair wins ties) as a new temporary slot and
    rewrite every row containing it to the single term ``(temp, 1)``.

    Returns ``(pair_defs, rewritten_rows, next_slot)`` where each pair
    definition is ``(slot, (term_a, term_b))`` meaning
    ``pool[slot] = a_const * pool[a_slot] ^ b_const * pool[b_slot]``.

    A pair can appear in two rows only if both its terms do, so each
    round counts pairs among the terms found in >= 2 rows and nothing
    else: every pair that could be chosen is counted in full.
    """
    row_sets = [set(row) for row in rows]
    pair_defs: list[tuple[int, tuple[Term, Term]]] = []
    while True:
        rows_with = Counter(term for row in row_sets for term in row)
        counts: dict[tuple[Term, Term], int] = {}
        for row in row_sets:
            shareable = sorted(term for term in row if rows_with[term] >= 2)
            for pair in combinations(shareable, 2):
                counts[pair] = counts.get(pair, 0) + 1
        if not counts:
            break
        pair, freq = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if freq < 2:
            break
        slot = next_slot
        next_slot += 1
        pair_defs.append((slot, pair))
        term_a, term_b = pair
        shared: Term = (slot, 1)
        for row in row_sets:
            if term_a in row and term_b in row:
                row.discard(term_a)
                row.discard(term_b)
                row.add(shared)
    return pair_defs, [sorted(row) for row in row_sets], next_slot


def eliminate_dead(program: RegionProgram) -> RegionProgram:
    """Drop instructions whose destination is never read or output.

    Reverse liveness: ``ZERO``/``COPY``/``MUL`` fully define their
    destination (a live destination becomes dead above them); ``XOR`` /
    ``MULXOR`` accumulate, so the destination stays live upward.
    """
    live = set(program.outputs)
    kept_reversed: list[Instruction] = []
    for inst in reversed(program.instructions):
        op, dst, src, _const = inst
        if dst not in live:
            continue
        kept_reversed.append(inst)
        if op not in (OP_XOR, OP_MULXOR):
            live.discard(dst)
        if src >= 0:
            live.add(src)
    return RegionProgram(
        w=program.w,
        num_inputs=program.num_inputs,
        pool_size=program.pool_size,
        instructions=tuple(reversed(kept_reversed)),
        outputs=program.outputs,
        mult_xors=program.mult_xors,
        xor_only=program.xor_only,
        label=program.label,
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
    return RegionProgram(
        w=program.w,
        num_inputs=program.num_inputs,
        pool_size=next_id,
        instructions=tuple(new_insts),
        outputs=tuple(remap[slot] for slot in program.outputs),
        mult_xors=program.mult_xors,
        xor_only=program.xor_only,
        label=program.label,
    )


def optimize_program(program: RegionProgram) -> RegionProgram:
    """Dead-code elimination followed by slot compaction."""
    return compact_slots(eliminate_dead(program))
