"""Optimisation passes: pair CSE, dead-code elimination, slot compaction.

Semantic preservation is checked with the symbolic transfer matrix from
:mod:`repro.verify.program` — an optimised program must compute exactly
the same GF(2^w) linear map as the program it came from.
"""

from itertools import combinations

import numpy as np

from repro.codes import get_code, is_decodable
from repro.core import SequencePolicy, plan_decode
from repro.gf import GF
from repro.kernels import (
    OP_COPY,
    OP_MUL,
    OP_MULXOR,
    OP_XOR,
    ProgramBuilder,
    RegionProgram,
    compact_slots,
    eliminate_dead,
    lower_matrix_chain,
    lower_plan,
    optimize_program,
    share_pairs,
)
from repro.kernels import lower as lower_module
from repro.verify import transfer_matrix
from repro.verify.sweep import DEFAULT_INSTANCES, iter_scenarios


def test_share_pairs_materialises_common_pair():
    # rows 0 and 1 share the pair ((0,3),(1,5)); row 2 shares nothing
    rows = [
        [(0, 3), (1, 5), (2, 1)],
        [(0, 3), (1, 5)],
        [(0, 7)],
    ]
    pair_defs, rewritten, next_slot = share_pairs(rows, next_slot=4)
    assert pair_defs == [(4, ((0, 3), (1, 5)))]
    assert next_slot == 5
    assert rewritten[0] == [(2, 1), (4, 1)]
    assert rewritten[1] == [(4, 1)]
    assert rewritten[2] == [(0, 7)]


def test_share_pairs_tie_break_is_smallest_pair():
    # both pairs appear twice; the lexicographically smallest wins first
    rows = [
        [(0, 2), (1, 2)],
        [(0, 2), (1, 2)],
        [(0, 2), (2, 2)],
        [(0, 2), (2, 2)],
    ]
    pair_defs, _rewritten, _next = share_pairs(rows, next_slot=3)
    assert pair_defs[0][1] == ((0, 2), (1, 2))
    assert len(pair_defs) == 2


def test_share_pairs_unique_pairs_untouched():
    rows = [[(0, 3), (1, 5)], [(0, 9), (1, 11)]]
    pair_defs, rewritten, next_slot = share_pairs(rows, next_slot=2)
    assert pair_defs == []
    assert rewritten == [sorted(r) for r in rows]
    assert next_slot == 2


def _reference_share_pairs(rows, next_slot):
    """Reference: the greedy that recounts every pair of every row."""
    row_sets = [set(row) for row in rows]
    pair_defs = []
    while True:
        counts = {}
        for row in row_sets:
            if len(row) < 2:
                continue
            for pair in combinations(sorted(row), 2):
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
        for row in row_sets:
            if term_a in row and term_b in row:
                row.discard(term_a)
                row.discard(term_b)
                row.add((slot, 1))
    return pair_defs, [sorted(row) for row in row_sets], next_slot


def test_share_pairs_equals_reference_on_random_rows():
    rng = np.random.default_rng(28)
    for _ in range(300):
        slots = int(rng.integers(1, 9))
        consts = int(rng.integers(1, 4))  # few constants: many shared pairs
        rows = []
        for _ in range(int(rng.integers(0, 7))):
            width = int(rng.integers(0, slots + 1))
            picked = rng.choice(slots, size=width, replace=False)
            rows.append([(int(s), int(rng.integers(1, consts + 1))) for s in picked])
        assert share_pairs(rows, slots) == _reference_share_pairs(rows, slots)


def test_share_pairs_equals_reference_on_every_registered_stage(monkeypatch):
    calls = []

    def checked(rows, next_slot):
        got = share_pairs(rows, next_slot)
        assert got == _reference_share_pairs(rows, next_slot)
        calls.append(len(got[0]))
        return got

    monkeypatch.setattr(lower_module, "share_pairs", checked)
    for kind, params in DEFAULT_INSTANCES.items():
        code = get_code(kind, **params)
        patterns = [f for f in iter_scenarios(code, 6, seed=28) if is_decodable(code, f)]
        for faulty in patterns:
            for policy in SequencePolicy:
                lower_plan(code.field, plan_decode(code, faulty, policy))
        lower_plan(code.field, plan_decode(code, code.parity_block_ids))
    assert calls and any(calls)  # some stage really shared a pair


def test_eliminate_dead_drops_unread_definition():
    program = RegionProgram(
        w=8,
        num_inputs=1,
        pool_size=3,
        instructions=(
            (OP_MUL, 1, 0, 5),  # dead: never read, not an output
            (OP_MUL, 2, 0, 7),
        ),
        outputs=(2,),
        mult_xors=2,
        xor_only=0,
    )
    slim = eliminate_dead(program)
    assert slim.instructions == ((OP_MUL, 2, 0, 7),)
    # model counts are untouched by optimisation
    assert slim.mult_xors == 2


def test_eliminate_dead_keeps_accumulation_chains():
    program = RegionProgram(
        w=8,
        num_inputs=2,
        pool_size=3,
        instructions=(
            (OP_MUL, 2, 0, 5),
            (OP_MULXOR, 2, 1, 7),
        ),
        outputs=(2,),
        mult_xors=2,
        xor_only=0,
    )
    assert eliminate_dead(program).instructions == program.instructions


def test_compact_slots_reuses_dead_temporaries():
    # t=2 dies after feeding t=3; t=4 should reuse its id
    program = RegionProgram(
        w=8,
        num_inputs=1,
        pool_size=5,
        instructions=(
            (OP_MUL, 2, 0, 5),
            (OP_MUL, 3, 2, 7),  # last read of 2
            (OP_MUL, 4, 3, 9),
        ),
        outputs=(4,),
        mult_xors=3,
        xor_only=0,
    )
    packed = compact_slots(program)
    packed.validate()
    assert packed.pool_size < program.pool_size
    field = GF(8)
    assert np.array_equal(
        transfer_matrix(packed, field), transfer_matrix(program, field)
    )


def test_compact_slots_never_recycles_output_slots():
    program = RegionProgram(
        w=8,
        num_inputs=1,
        pool_size=4,
        instructions=(
            (OP_MUL, 2, 0, 5),  # an output, read later
            (OP_MUL, 3, 2, 7),  # also an output
        ),
        outputs=(2, 3),
        mult_xors=2,
        xor_only=0,
    )
    packed = compact_slots(program)
    packed.validate()
    assert len(set(packed.outputs)) == 2
    field = GF(8)
    assert np.array_equal(
        transfer_matrix(packed, field), transfer_matrix(program, field)
    )


def _raw_program(field, matrix):
    """What the builder emits for one matrix before optimisation."""
    builder = ProgramBuilder(field, matrix.shape[1])
    rows = [[(j, int(c)) for j, c in enumerate(row) if c] for row in matrix]
    outputs = builder.emit_stage(rows)
    return RegionProgram(
        w=field.w,
        num_inputs=builder.num_inputs,
        pool_size=builder.next_slot,
        instructions=tuple(builder.instructions),
        outputs=tuple(outputs),
        mult_xors=builder.mult_xors,
        xor_only=builder.xor_only,
    )


def test_optimize_program_preserves_semantics_on_random_matrices():
    rng = np.random.default_rng(7)
    field = GF(8)
    for _ in range(10):
        matrix = rng.integers(0, 256, size=(4, 6), dtype=field.dtype)
        raw = _raw_program(field, matrix)
        raw.validate()
        slim = optimize_program(raw)
        slim.validate()
        assert np.array_equal(
            transfer_matrix(slim, field), transfer_matrix(raw, field)
        )
        assert slim.pool_size <= raw.pool_size
        assert (slim.mult_xors, slim.xor_only) == (raw.mult_xors, raw.xor_only)


def test_shared_pairs_reduce_executed_ops_but_not_model_counts():
    field = GF(8)
    # every row contains the pair (col0 * 3, col1 * 5)
    matrix = np.array(
        [[3, 5, 1], [3, 5, 2], [3, 5, 4]], dtype=field.dtype
    )
    shared = lower_matrix_chain(field, [matrix])
    assert shared.mult_xors == 9
    # unshared, every nonzero coefficient is one instruction
    assert shared.executed_ops < int(np.count_nonzero(matrix))
    assert np.array_equal(transfer_matrix(shared, field), matrix)
