"""End-to-end integration tests crossing every layer of the stack."""

import copy

import numpy as np
import pytest

from repro.codes import (
    EvenOddCode,
    LRCCode,
    PMDSCode,
    RDPCode,
    RSCode,
    SDCode,
    StarCode,
    available_codes,
    get_code,
)
from repro.core import PPMDecoder, RowParallelDecoder, TraditionalDecoder
from repro.gf import OpCounter, RegionOps
from repro.pipeline import DecodePipeline
from repro.stripes import DiskArray, Stripe, StripeLayout, worst_case_sd


def encoded_stripe(code, symbols=24, rng=0):
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, symbols, rng=rng)
    TraditionalDecoder().encode_into(code, stripe)
    return stripe


ALL_CODES = [
    SDCode(6, 8, 2, 2),
    PMDSCode(6, 4, 2, 1),
    LRCCode(8, 2, 2),
    RSCode(8, 6, r=4),
    EvenOddCode(5),
    RDPCode(5),
    StarCode(5),
]


@pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: c.kind)
def test_every_code_satisfies_its_parity_check(code):
    """H @ B == 0 for an encoded stripe of every registered code kind."""
    stripe = encoded_stripe(code)
    ops = RegionOps(code.field)
    regions = [stripe.get(b) for b in range(code.num_blocks)]
    syndromes = ops.matrix_apply(code.H.array, regions)
    assert all(not s.any() for s in syndromes), code.kind


@pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: c.kind)
def test_every_code_survives_single_failure_everywhere(code):
    """Any single lost block of any code is recoverable by every decoder."""
    stripe = encoded_stripe(code, rng=1)
    truth = stripe.copy()
    # sample a handful of positions incl. data and parity
    blocks = [0, code.parity_block_ids[0], code.num_blocks - 1]
    for b in set(blocks):
        working = truth.copy()
        working.erase([b])
        for decoder in (TraditionalDecoder(), PPMDecoder(threads=2), DecodePipeline(workers=2)):
            recovered = decoder.decode(code, working, [b])
            assert np.array_equal(recovered[b], truth.get(b)), (code.kind, b)


def test_registry_covers_all_tested_kinds():
    assert {c.kind for c in ALL_CODES} == set(available_codes())


def test_four_decoders_agree_on_worst_case():
    code = SDCode(8, 8, 2, 2)
    scen = worst_case_sd(code, z=2, rng=5)
    stripe = encoded_stripe(code, rng=6)
    truth = stripe.copy()
    stripe.erase(scen.faulty_blocks)
    outputs = []
    for decoder in (
        TraditionalDecoder(policy="normal"),
        PPMDecoder(threads=3),
        RowParallelDecoder(threads=3),
        DecodePipeline(workers=2, pool="serial"),
    ):
        outputs.append(decoder.decode(code, stripe, scen.faulty_blocks))
    for b in scen.faulty_blocks:
        for out in outputs:
            assert np.array_equal(out[b], truth.get(b))


def test_full_array_lifecycle():
    """Create, encode, degrade, read-degraded, rebuild, verify — end to end."""
    code = SDCode(6, 8, 2, 2)
    array = DiskArray(code, num_stripes=4, sector_symbols=48, rng=7)
    encoder = TraditionalDecoder()
    for stripe, truth in zip(array.stripes, array._truth):
        encoder.encode_into(code, stripe)
        for b in range(code.num_blocks):
            truth.put(b, stripe.get(b))
    # degrade
    array.fail_disk(0)
    for stripe_index, block in [(1, 9), (2, 14), (2, 27), (3, 4)]:
        array.corrupt_sector(stripe_index, block)
    # serve a degraded read before repair
    target_stripe, target_block = 0, array.layout.block_id(3, 0)
    value = array.degraded_read(PPMDecoder(threads=2), target_stripe, target_block)
    assert np.array_equal(value, array._truth[0].get(target_block))
    # rebuild with the batched pipeline scheduler
    expected = sum(len(s.erased_ids) for s in array.stripes)
    with DecodePipeline(workers=2) as pipe:
        assert array.rebuild(pipe) == expected
    assert array.fully_intact()


def test_shared_counter_across_decoders_and_backends():
    """One OpCounter can audit a whole heterogeneous pipeline."""
    counter = OpCounter()
    code = SDCode(6, 4, 2, 2)
    stripe = encoded_stripe(code, rng=9)
    stripe2 = stripe.copy()
    scen = worst_case_sd(code, z=1, rng=10)
    stripe.erase(scen.faulty_blocks)
    stripe2.erase(scen.faulty_blocks)
    ppm = PPMDecoder(parallel=False, counter=counter)
    traditional = TraditionalDecoder(counter=counter)
    ppm.decode(code, stripe, scen.faulty_blocks)
    after_ppm = counter.mult_xors
    traditional.decode(code, stripe2, scen.faulty_blocks)
    assert counter.mult_xors > after_ppm > 0


def test_deep_copied_arrays_rebuild_identically():
    code = SDCode(6, 4, 2, 1)
    array = DiskArray(code, num_stripes=2, sector_symbols=16, rng=11)
    encoder = TraditionalDecoder()
    for stripe, truth in zip(array.stripes, array._truth):
        encoder.encode_into(code, stripe)
        for b in range(code.num_blocks):
            truth.put(b, stripe.get(b))
    array.fail_disk(2)
    clone = copy.deepcopy(array)
    array.rebuild(TraditionalDecoder())
    clone.rebuild(PPMDecoder(threads=2))
    for a, b in zip(array.stripes, clone.stripes):
        assert a.equals_on(b, range(code.num_blocks))
