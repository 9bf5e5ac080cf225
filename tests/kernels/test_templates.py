"""Structure templates: a chain stamped from a cached template of the same
sparsity is the program a fresh lowering emits.

A chain's *structure* is its matrices' shapes plus which entries are 0, 1
or another constant.  :class:`~repro.kernels.ProgramCache` lowers the
first chain of each structure and stamps the constants of every later
one into a copy of that template; these tests pin that the copy is
exact, that a warm cache stops lowering, and that concurrent misses stay
correct.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import SDCode, get_code, is_decodable
from repro.core import SequencePolicy, plan_decode
from repro.gf import GF
from repro.kernels import ProgramCache, lower_matrix_chain
from repro.kernels import cache as cache_module
from repro.stripes.failures import worst_case_sd
from repro.verify.sweep import DEFAULT_INSTANCES, iter_scenarios


def _identity(program):
    return (
        program.w,
        program.num_inputs,
        program.pool_size,
        program.instructions,
        program.outputs,
        program.mult_xors,
        program.xor_only,
    )


def _restamp(field, matrix, rng):
    """``matrix`` with every entry other than 0 and 1 redrawn at random."""
    other = np.asarray(matrix).copy()
    mask = other > 1
    drawn = rng.integers(2, 1 << field.w, size=int(mask.sum()), dtype=np.uint64)
    other[mask] = drawn.astype(other.dtype)
    return other


def _counting_lowerings(monkeypatch):
    calls = []

    def counted(field, matrices):
        calls.append(len(matrices))
        return lower_matrix_chain(field, matrices)

    monkeypatch.setattr(cache_module, "lower_matrix_chain", counted)
    return calls


def _assert_stamp_is_fresh(field, matrices, rng, calls):
    """Lower a same-structure chain first, then ``matrices`` from its template."""
    cache = ProgramCache()
    cache.chain_program(field, [_restamp(field, m, rng) for m in matrices])
    before = len(calls)
    stamped = cache.chain_program(field, matrices)
    assert len(calls) == before  # stamped, not lowered
    assert _identity(stamped) == _identity(lower_matrix_chain(field, matrices))


def test_stamped_chain_equals_fresh_on_every_registered_stage(monkeypatch):
    calls = _counting_lowerings(monkeypatch)
    rng = np.random.default_rng(36)
    checked = 0
    for kind, params in DEFAULT_INSTANCES.items():
        code = get_code(kind, **params)
        patterns = [f for f in iter_scenarios(code, 6, seed=28) if is_decodable(code, f)]
        plans = [plan_decode(code, f, policy) for f in patterns for policy in SequencePolicy]
        plans.append(plan_decode(code, code.parity_block_ids))  # encode
        for plan in plans:
            for stage in plan.stages:
                _assert_stamp_is_fresh(code.field, stage.arrays, rng, calls)
                checked += 1
    assert checked


def test_stamped_chain_equals_fresh_on_the_digest_pool(monkeypatch):
    calls = _counting_lowerings(monkeypatch)
    rng = np.random.default_rng(36)
    code = SDCode(10, 8, 2, 2)
    for seed in range(32):
        faulty = worst_case_sd(code, z=1, rng=seed).faulty_blocks
        for policy in SequencePolicy:
            whole = plan_decode(code, faulty, policy=policy)
            for plan in (whole, whole.for_targets(whole.faulty_ids[:1])):
                for stage in plan.stages:
                    _assert_stamp_is_fresh(code.field, stage.arrays, rng, calls)


@st.composite
def _shared_mask_chains(draw):
    """A chain's 0/1/other mask, then two constant draws over it."""
    w = draw(st.sampled_from([4, 8, 16, 32]))
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    masks = [
        np.array(
            draw(st.lists(st.integers(0, 2), min_size=rows * cols, max_size=rows * cols))
        ).reshape(rows, cols)
        for cols, rows in zip(dims, dims[1:])
    ]
    seeds = draw(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    return w, masks, seeds


@settings(max_examples=80, deadline=None)
@given(_shared_mask_chains())
def test_stamped_chain_equals_fresh_on_random_masks(case):
    w, masks, (seed_a, seed_b) = case
    field = GF(w)

    def chain(seed):
        rng = np.random.default_rng(seed)
        return [_restamp(field, mask.astype(field.dtype), rng) for mask in masks]

    cache = ProgramCache()
    cache.chain_program(field, chain(seed_a))
    second = chain(seed_b)
    assert _identity(cache.chain_program(field, second)) == _identity(
        lower_matrix_chain(field, second)
    )


def test_second_scatter_pass_lowers_no_chain(monkeypatch):
    code = SDCode(10, 8, 2, 2)
    rng = np.random.default_rng(7)
    patterns = [worst_case_sd(code, rng=rng).faulty_blocks for _ in range(16)]
    chains = [
        stage.arrays
        for faulty in patterns
        for stage in plan_decode(code, faulty, policy=SequencePolicy.PAPER).stages
    ]
    distinct = {tuple(m.tobytes() for m in chain) for chain in chains}
    cache = ProgramCache(maxsize=20)
    assert cache.maxsize < len(distinct)  # the content LRU alone must thrash
    calls = _counting_lowerings(monkeypatch)
    for chain in chains:
        cache.chain_program(code.field, chain)
    first_pass = len(calls)
    for chain in chains:
        cache.chain_program(code.field, chain)
    assert first_pass and len(calls) == first_pass


def test_threads_missing_one_structure_both_get_their_program(monkeypatch):
    field = GF(8)
    rng = np.random.default_rng(5)
    template = rng.integers(0, 256, size=(4, 9), dtype=field.dtype)
    ours, theirs = (_restamp(field, template, rng) for _ in range(2))
    both_lowering = threading.Barrier(2, timeout=10)

    def lower_together(field, matrices):
        both_lowering.wait()  # both threads missed the template
        return lower_matrix_chain(field, matrices)

    monkeypatch.setattr(cache_module, "lower_matrix_chain", lower_together)
    cache = ProgramCache()
    results = {}

    def compile_chain(name, matrix):
        results[name] = cache.chain_program(field, [matrix])

    threads = [
        threading.Thread(target=compile_chain, args=(name, m))
        for name, m in (("ours", ours), ("theirs", theirs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert _identity(results["ours"]) == _identity(lower_matrix_chain(field, [ours]))
    assert _identity(results["theirs"]) == _identity(lower_matrix_chain(field, [theirs]))
    monkeypatch.setattr(cache_module, "lower_matrix_chain", None)  # a third must stamp
    third = _restamp(field, template, rng)
    assert _identity(cache.chain_program(field, [third])) == _identity(
        lower_matrix_chain(field, [third])
    )


def test_threads_stamping_through_a_small_cache_stay_exact():
    """More threads than cores, a fast switch interval, and a cache small
    enough that both LRUs evict while others stamp: every program must
    still be the fresh lowering of its own chain."""
    field = GF(8)
    rng = np.random.default_rng(11)
    masks = [rng.integers(0, 3, size=(3, 7)) for _ in range(5)]
    chains = [
        [_restamp(field, mask.astype(field.dtype), rng)] for mask in masks for _ in range(4)
    ]
    fresh = [_identity(lower_matrix_chain(field, chain)) for chain in chains]
    cache = ProgramCache(maxsize=3)
    wrong: list[int] = []

    def hammer(seed):
        order = np.random.default_rng(seed).permutation(len(chains) * 5) % len(chains)
        for index in order.tolist():
            if _identity(cache.chain_program(field, chains[index])) != fresh[index]:
                wrong.append(index)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert wrong == []
    assert len(cache) <= cache.maxsize
    assert len(cache._templates) <= cache.maxsize  # no knob: the same bound
