"""Unit tests for scrubbing and corruption location."""

import importlib
from math import comb

import numpy as np
import pytest

from repro.codes import LRCCode, SDCode
from repro.core import TraditionalDecoder
from repro.stripes import (
    Stripe,
    StripeLayout,
    locate_corruptions,
    locate_single_corruption,
    scrub_stripe,
    syndromes,
)


def valid_stripe(code, symbols=16, rng=0):
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, symbols, rng=rng)
    TraditionalDecoder().encode_into(code, stripe)
    return stripe


@pytest.fixture
def code():
    return SDCode(6, 4, 2, 2)


def corrupt(stripe, block, seed=3):
    rng = np.random.default_rng(seed)
    region = stripe.get(block).copy()
    noise = rng.integers(1, 256, size=region.shape).astype(region.dtype)
    stripe.put(block, region ^ noise)


def erase_and_decode(code, stripe, block):
    """Repair a located corruption: erase the block, decode it back."""
    stripe.erase([block])
    stripe.put(block, TraditionalDecoder().decode(code, stripe, [block])[block])


def test_clean_stripe(code):
    stripe = valid_stripe(code)
    assert all(not s.any() for s in syndromes(code, stripe))
    result = locate_single_corruption(code, stripe)
    assert result.clean
    assert not result.needs_repair


def test_syndromes_require_full_stripe(code):
    stripe = valid_stripe(code)
    stripe.erase([0])
    with pytest.raises(ValueError):
        syndromes(code, stripe)


@pytest.mark.parametrize("block", [0, 5, 14, 22])
def test_locate_single_corruption(code, block):
    stripe = valid_stripe(code, rng=1)
    corrupt(stripe, block)
    result = locate_single_corruption(code, stripe)
    assert result.needs_repair
    assert result.located
    assert result.corrupted_block == block


def test_located_corruption_is_restored_by_erase_and_decode(code):
    stripe = valid_stripe(code, rng=2)
    truth = stripe.copy()
    corrupt(stripe, 7)
    result = locate_single_corruption(code, stripe)
    assert result.located and result.corrupted_block == 7
    erase_and_decode(code, stripe, 7)
    assert np.array_equal(stripe.get(7), truth.get(7))
    # stripe is clean again
    assert locate_single_corruption(code, stripe).clean


def test_double_corruption_detected_but_not_located(code):
    stripe = valid_stripe(code, rng=4)
    corrupt(stripe, 1, seed=5)
    corrupt(stripe, 8, seed=6)
    result = locate_single_corruption(code, stripe)
    assert result.needs_repair
    # two corrupted columns generally match no single-column signature
    assert not result.located or result.corrupted_block in (1, 8)


def test_lrc_scrub():
    lrc = LRCCode(8, 2, 2)
    stripe = valid_stripe(lrc, rng=7)
    truth = stripe.copy()
    corrupt(stripe, 3, seed=8)
    result = locate_single_corruption(lrc, stripe)
    assert result.located and result.corrupted_block == 3
    erase_and_decode(lrc, stripe, 3)
    assert stripe.equals_on(truth, range(lrc.num_blocks))


def test_scrub_stripe_classifies_each_stripe(code):
    stripes = [valid_stripe(code, rng=seed) for seed in (10, 11, 12)]
    truths = [s.copy() for s in stripes]
    corrupt(stripes[1], 4, seed=13)
    reports = [scrub_stripe(code, stripe) for stripe in stripes]
    assert [r.status for r in reports] == ["clean", "corrupt", "clean"]
    assert reports[1].corrupted_blocks == (4,)
    erase_and_decode(code, stripes[1], 4)
    for stripe, truth in zip(stripes, truths):
        assert stripe.equals_on(truth, range(code.num_blocks))


def test_pair_search_plans_each_candidate_once(code, monkeypatch):
    """A pair search plans every candidate pair once: the decode that
    tests the pair is also what finds a singular one."""
    stripe = valid_stripe(code, rng=14)
    last_pair = (code.num_blocks - 2, code.num_blocks - 1)
    for b in last_pair:
        corrupt(stripe, b, seed=15 + b)
    calls = []
    for name in ("repro.core.planner", "repro.pipeline.plancache"):
        module = importlib.import_module(name)
        real = module.plan_batch

        def counting(*args, real=real, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "plan_batch", counting)
    assert locate_corruptions(code, stripe, max_errors=2) == list(last_pair)
    # the pair is the last candidate, so every pair was tried
    assert len(calls) == comb(code.num_blocks, 2)
