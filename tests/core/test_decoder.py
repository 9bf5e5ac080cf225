"""Unit tests for the traditional and PPM decoders."""

import numpy as np
import pytest

from repro.codes import LRCCode, RSCode, SDCode
from repro.core import (
    ExecutionMode,
    PPMDecoder,
    SequencePolicy,
    TraditionalDecoder,
)
from repro.gf import OpCounter
from repro.stripes import Stripe, StripeLayout, lrc_scenario, worst_case_sd


def valid_stripe(code, symbols=32, rng=0):
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, symbols, rng=rng)
    TraditionalDecoder().encode_into(code, stripe)
    return stripe


@pytest.fixture(scope="module")
def sd_code():
    return SDCode(6, 8, 2, 2)


def check_recovery(code, decoder, faulty, symbols=32, rng=1):
    stripe = valid_stripe(code, symbols, rng)
    truth = stripe.copy()
    stripe.erase(faulty)
    recovered = decoder.decode(code, stripe, faulty)
    assert sorted(recovered) == sorted(faulty)
    for b in faulty:
        assert np.array_equal(recovered[b], truth.get(b)), b
    # survivors untouched
    for b in stripe.present_ids:
        assert np.array_equal(stripe.get(b), truth.get(b))


def test_traditional_both_sequences(sd_code):
    scen = worst_case_sd(sd_code, z=1, rng=2)
    check_recovery(sd_code, TraditionalDecoder(policy="normal"), scen.faulty_blocks)
    check_recovery(sd_code, TraditionalDecoder(policy="matrix_first"), scen.faulty_blocks)


def test_traditional_rejects_unknown_sequence():
    with pytest.raises(ValueError):
        TraditionalDecoder(policy="fastest")


@pytest.mark.parametrize("threads", [1, 2, 4, 8])
def test_ppm_thread_counts(sd_code, threads):
    scen = worst_case_sd(sd_code, z=1, rng=3)
    check_recovery(sd_code, PPMDecoder(threads=threads), scen.faulty_blocks)


def test_ppm_serial_mode(sd_code):
    scen = worst_case_sd(sd_code, z=2, rng=4)
    check_recovery(sd_code, PPMDecoder(parallel=False), scen.faulty_blocks)


def test_ppm_thread_validation():
    with pytest.raises(ValueError):
        PPMDecoder(threads=0)


@pytest.fixture
def erased(sd_code):
    """``(faulty, erased stripe, pre-erase truth)`` on ``sd_code``."""
    faulty = worst_case_sd(sd_code, z=1, rng=0).faulty_blocks
    stripe = valid_stripe(sd_code, rng=1)
    truth = stripe.copy()
    stripe.erase(faulty)
    return faulty, stripe, truth


def test_ppm_pool_spawned_once_across_decodes(sd_code, erased):
    """The worker pool persists across decode calls: worker start-up is
    paid once per decoder, not once per stripe."""
    faulty, stripe, truth = erased
    with PPMDecoder(threads=2) as decoder:
        for _ in range(3):
            recovered = decoder.decode(sd_code, stripe, faulty)
        assert decoder.pool.spawn_count == 1
    for b in faulty:
        assert np.array_equal(recovered[b], truth.get(b))


def test_ppm_pool_respawns_after_close(sd_code, erased):
    faulty, stripe, _ = erased
    decoder = PPMDecoder(threads=2)
    decoder.decode(sd_code, stripe, faulty)
    decoder.close()
    assert not decoder.pool.alive
    decoder.decode(sd_code, stripe, faulty)
    assert decoder.pool.spawn_count == 2
    decoder.close()


def test_ppm_deadline_raises_on_stalled_pool(sd_code, erased):
    """With ``deadline_s`` set, a decode behind a stalled pool raises a
    typed timeout instead of waiting the stall out."""
    import time

    from repro.pipeline import StragglerTimeout

    faulty, stripe, _ = erased
    with PPMDecoder(threads=2, deadline_s=0.1) as decoder:
        stalls = [decoder.pool.submit(time.sleep, 1.0) for _ in range(2)]
        with pytest.raises(StragglerTimeout) as exc_info:
            decoder.decode(sd_code, stripe, faulty)
        assert exc_info.value.pending
        assert decoder.metrics().straggler_timeouts == 1
        for future in stalls:
            future.result(timeout=10)


def test_ppm_and_traditional_agree(sd_code):
    scen = worst_case_sd(sd_code, z=1, rng=5)
    stripe = valid_stripe(sd_code, rng=6)
    stripe_b = stripe.copy()
    stripe.erase(scen.faulty_blocks)
    stripe_b.erase(scen.faulty_blocks)
    a = TraditionalDecoder().decode(sd_code, stripe, scen.faulty_blocks)
    b = PPMDecoder(threads=3).decode(sd_code, stripe_b, scen.faulty_blocks)
    for bid in scen.faulty_blocks:
        assert np.array_equal(a[bid], b[bid])


def test_stats_costs_match_plan(sd_code):
    scen = worst_case_sd(sd_code, z=1, rng=7)
    stripe = valid_stripe(sd_code, symbols=16, rng=8)
    stripe.erase(scen.faulty_blocks)
    decoder = PPMDecoder(parallel=False)
    _, stats = decoder.decode(sd_code, stripe, scen.faulty_blocks, return_stats=True)
    assert stats.mult_xors == stats.plan.predicted_cost
    assert stats.symbols == stats.mult_xors * 16
    assert stats.wall_seconds > 0


def test_ppm_cheaper_than_traditional(sd_code):
    """The headline: PPM's op count beats the traditional baseline."""
    scen = worst_case_sd(sd_code, z=1, rng=9)
    stripe = valid_stripe(sd_code, symbols=16, rng=10)
    stripe.erase(scen.faulty_blocks)
    _, t_stats = TraditionalDecoder().decode(
        sd_code, stripe, scen.faulty_blocks,
        return_stats=True)
    _, p_stats = PPMDecoder(parallel=False).decode(
        sd_code, stripe, scen.faulty_blocks,
        return_stats=True)
    assert p_stats.mult_xors < t_stats.mult_xors


def test_plan_cache_reused(sd_code):
    scen = worst_case_sd(sd_code, z=1, rng=11)
    decoder = PPMDecoder(parallel=False)
    p1 = decoder.plan(sd_code, scen.faulty_blocks)
    p2 = decoder.plan(sd_code, list(scen.faulty_blocks))
    assert p1 is p2


def test_shared_counter():
    code = SDCode(4, 4, 1, 1)
    counter = OpCounter()
    decoder = PPMDecoder(parallel=False, counter=counter)
    stripe = valid_stripe(code, rng=12)
    stripe.erase([2, 6])
    decoder.decode(code, stripe, [2, 6])
    assert counter.mult_xors > 0


def test_encode_matches_reference(sd_code):
    """PPM encoding (parity as faults) equals traditional encoding."""
    layout = StripeLayout.of_code(sd_code)
    stripe = Stripe.random(layout, sd_code.field, 16, rng=13)
    a = TraditionalDecoder().encode(sd_code, stripe)
    b = PPMDecoder(threads=2).encode(sd_code, stripe)
    assert sorted(a) == sorted(b) == sorted(sd_code.parity_block_ids)
    for bid in a:
        assert np.array_equal(a[bid], b[bid])


def test_encode_into(sd_code):
    layout = StripeLayout.of_code(sd_code)
    stripe = Stripe.random(layout, sd_code.field, 8, rng=14)
    PPMDecoder(threads=2).encode_into(sd_code, stripe)
    # resulting stripe satisfies H @ B == 0
    from repro.gf import RegionOps

    ops = RegionOps(sd_code.field)
    regions = [stripe.get(b) for b in range(sd_code.num_blocks)]
    syndromes = ops.matrix_apply(sd_code.H.array, regions)
    assert all(not s.any() for s in syndromes)


def test_lrc_decode():
    lrc = LRCCode(8, 2, 2)
    scen = lrc_scenario(lrc, local_failures=2, extra_failures=1, rng=15)
    check_recovery(lrc, PPMDecoder(threads=2), scen.faulty_blocks, rng=16)
    check_recovery(lrc, TraditionalDecoder(), scen.faulty_blocks, rng=17)


def test_rs_decode():
    rs = RSCode(6, 4, r=4)
    faulty = [rs.block_id(i, j) for j in (1, 4) for i in range(4)]
    check_recovery(rs, TraditionalDecoder(), faulty, rng=18)
    check_recovery(rs, PPMDecoder(threads=2), faulty, rng=19)


def test_word_sizes_roundtrip():
    for w in (16, 32):
        code = SDCode(6, 4, 2, 1, w)
        scen = worst_case_sd(code, z=1, rng=20)
        check_recovery(code, PPMDecoder(threads=2), scen.faulty_blocks, rng=21)


def test_ppm_falls_back_to_whole_matrix_when_c2_wins(sd_code):
    """If policy AUTO finds C2 < C4, PPM must execute the whole-matrix MF."""
    # craft costs where C2 wins by using a scenario with tiny parallel phase:
    # all faults in one stripe row -> single group, no rest.
    plan_faulty = [0, 1]
    decoder = PPMDecoder(policy=SequencePolicy.MATRIX_FIRST, parallel=False)
    stripe = valid_stripe(sd_code, rng=22)
    truth = stripe.copy()
    stripe.erase(plan_faulty)
    recovered, stats = decoder.decode(sd_code, stripe, plan_faulty, return_stats=True)
    assert stats.mode is ExecutionMode.TRADITIONAL_MATRIX_FIRST
    for b in plan_faulty:
        assert np.array_equal(recovered[b], truth.get(b))
