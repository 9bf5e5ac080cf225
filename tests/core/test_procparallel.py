"""Unit tests for the process-parallel decoder."""

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import ProcessParallelDecoder, SequencePolicy, TraditionalDecoder
from repro.stripes import Stripe, StripeLayout, worst_case_sd


@pytest.fixture(scope="module")
def setup():
    code = SDCode(6, 6, 2, 2)
    scen = worst_case_sd(code, z=1, rng=0)
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, 64, rng=1)
    TraditionalDecoder().encode_into(code, stripe)
    truth = stripe.copy()
    stripe.erase(scen.faulty_blocks)
    return code, scen, stripe, truth


@pytest.mark.parametrize("threads", [1, 2])
def test_recovers_exact_data(setup, threads):
    code, scen, stripe, truth = setup
    with ProcessParallelDecoder(threads=threads) as decoder:
        recovered = decoder.decode(code, stripe, scen.faulty_blocks)
    for b in scen.faulty_blocks:
        assert np.array_equal(recovered[b], truth.get(b))


def test_agrees_with_thread_decoder(setup):
    from repro.core import PPMDecoder

    code, scen, stripe, _ = setup
    with ProcessParallelDecoder(threads=2) as decoder:
        a = decoder.decode(code, stripe, scen.faulty_blocks)
    b = PPMDecoder(threads=2).decode(code, stripe, scen.faulty_blocks)
    for bid in scen.faulty_blocks:
        assert np.array_equal(a[bid], b[bid])


def test_op_accounting(setup):
    """Child work is accounted in the parent counter."""
    code, scen, stripe, _ = setup
    with ProcessParallelDecoder(threads=2) as decoder:
        _, stats = decoder.decode(code, stripe, scen.faulty_blocks, return_stats=True)
    assert stats.mult_xors == stats.plan.predicted_cost


def test_whole_matrix_fallback(setup):
    code, scen, stripe, truth = setup
    with ProcessParallelDecoder(threads=2, policy=SequencePolicy.MATRIX_FIRST) as decoder:
        recovered, stats = decoder.decode(code, stripe, scen.faulty_blocks, return_stats=True)
    assert stats.plan.mode.value == "traditional_matrix_first"
    for b in scen.faulty_blocks:
        assert np.array_equal(recovered[b], truth.get(b))


def test_thread_validation():
    with pytest.raises(ValueError):
        ProcessParallelDecoder(threads=0)


def test_pool_spawned_once_across_batch(setup):
    """Regression: the worker pool must persist across decode calls.

    The pre-redesign implementation rebuilt a ProcessPoolExecutor inside
    every ``decode``, paying the fork cost per stripe.
    """
    code, scen, stripe, truth = setup
    with ProcessParallelDecoder(threads=2) as decoder:
        for _ in range(3):
            recovered = decoder.decode(code, stripe, scen.faulty_blocks)
        assert decoder.pool.spawn_count == 1
    for b in scen.faulty_blocks:
        assert np.array_equal(recovered[b], truth.get(b))


def test_pool_respawns_after_close(setup):
    code, scen, stripe, _ = setup
    decoder = ProcessParallelDecoder(threads=2)
    decoder.decode(code, stripe, scen.faulty_blocks)
    decoder.close()
    assert not decoder.pool.alive
    decoder.decode(code, stripe, scen.faulty_blocks)
    assert decoder.pool.spawn_count == 2
    decoder.close()


def test_decode_honours_deadline(setup):
    """Regression: a process-pool decode used to wait on ``future.result()``
    forever; through the engine a stalled pool raises a typed timeout."""
    import time

    from repro.pipeline import StragglerTimeout

    code, scen, stripe, _ = setup
    with ProcessParallelDecoder(threads=2) as decoder:
        stalls = [decoder.pool.submit(time.sleep, 1.0) for _ in range(2)]
        # waiting the stall out would return a result instead of raising
        with pytest.raises(StragglerTimeout) as exc_info:
            decoder.decode_batch(code, [stripe], scen.faulty_blocks, deadline_s=0.1)
        assert exc_info.value.pending
        assert decoder.metrics().straggler_timeouts == 1
        for future in stalls:
            future.result(timeout=10)
