"""Unit tests for the equation-oriented (row-parallel) baseline decoder."""

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import PPMDecoder, RowParallelDecoder, TraditionalDecoder
from repro.stripes import Stripe, StripeLayout, worst_case_sd


@pytest.fixture(scope="module")
def setup():
    code = SDCode(6, 8, 2, 2)
    scen = worst_case_sd(code, z=1, rng=0)
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, 32, rng=1)
    TraditionalDecoder().encode_into(code, stripe)
    truth = stripe.copy()
    stripe.erase(scen.faulty_blocks)
    return code, scen, stripe, truth


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_recovers_exact_data(setup, threads):
    code, scen, stripe, truth = setup
    decoder = RowParallelDecoder(threads=threads)
    recovered = decoder.decode(code, stripe, scen.faulty_blocks)
    for b in scen.faulty_blocks:
        assert np.array_equal(recovered[b], truth.get(b))


def test_cost_is_c2(setup):
    """The baseline always pays the whole-matrix matrix-first cost."""
    code, scen, stripe, _ = setup
    decoder = RowParallelDecoder(threads=2)
    _, stats = decoder.decode(code, stripe, scen.faulty_blocks, return_stats=True)
    assert stats.mult_xors == stats.plan.costs.c2


def test_no_cost_reduction_vs_ppm(setup):
    """PPM's op count beats the equation-oriented baseline (C4 < C2 here)."""
    code, scen, stripe, _ = setup
    _, rp_stats = RowParallelDecoder(threads=2).decode(
        code, stripe, scen.faulty_blocks,
        return_stats=True)
    _, ppm_stats = PPMDecoder(parallel=False).decode(
        code, stripe, scen.faulty_blocks,
        return_stats=True)
    assert ppm_stats.mult_xors < rp_stats.mult_xors


def test_timing_reported(setup):
    code, scen, stripe, _ = setup
    with RowParallelDecoder(threads=3) as decoder:
        _, stats = decoder.decode(code, stripe, scen.faulty_blocks, return_stats=True)
        busy = decoder.metrics().worker_busy_fraction
    assert stats.wall_seconds > 0
    # row i runs on worker i mod T: all three workers report time
    assert len(busy) == 3 and all(fraction > 0 for fraction in busy)


def test_thread_validation():
    with pytest.raises(ValueError):
        RowParallelDecoder(threads=0)

