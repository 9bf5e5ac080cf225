"""End-to-end integration tests crossing every layer of the stack."""

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
from repro.core import PPMDecoder, TraditionalDecoder
from repro.gf import OpCounter, RegionOps
from repro.pipeline import DecodePipeline
from repro.service import BlobStore
from repro.stripes import Stripe, StripeLayout, worst_case_sd

from ..stripes.test_array import degraded_read, fail_disk, fully_intact, rebuild


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
        TraditionalDecoder(policy="matrix_first"),
        PPMDecoder(threads=3),
        DecodePipeline(workers=2, pool="serial"),
    ):
        outputs.append(decoder.decode(code, stripe, scen.faulty_blocks))
    for b in scen.faulty_blocks:
        for out in outputs:
            assert np.array_equal(out[b], truth.get(b))


def test_full_array_lifecycle():
    """Create, encode, degrade, read-degraded, rebuild, verify — end to end."""
    code = SDCode(6, 8, 2, 2)
    store = BlobStore.build(code, 4, 48, rng=7)
    # degrade
    fail_disk(store, 0)
    for sid, block in [(1, 9), (2, 14), (2, 27), (3, 4)]:
        store.erase(sid, [block])
    # serve a degraded read before repair
    target = store.layout.block_id(3, 0)
    with PPMDecoder(threads=2) as ppm:
        value = degraded_read(store, ppm, 0, target)
    assert np.array_equal(value, store.truth(0).get(target))
    # rebuild with the batched pipeline scheduler
    expected = sum(len(store.pattern(sid)) for sid in store.stripe_ids)
    with DecodePipeline(workers=2) as pipe:
        assert rebuild(store, pipe) == expected
    assert fully_intact(store)


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


def test_same_seed_stores_rebuild_identically():
    code = SDCode(6, 4, 2, 1)
    stores = [BlobStore.build(code, 2, 16, rng=11) for _ in range(2)]
    for store in stores:
        fail_disk(store, 2)
    rebuild(stores[0], TraditionalDecoder())
    with PPMDecoder(threads=2) as ppm:
        rebuild(stores[1], ppm)
    for sid in stores[0].stripe_ids:
        assert stores[0].stripe(sid).equals_on(stores[1].stripe(sid), range(code.num_blocks))
