"""Unit tests for multi-corruption location."""

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import TraditionalDecoder
from repro.stripes import Stripe, StripeLayout, scrub_stripe


@pytest.fixture
def code():
    return SDCode(6, 4, 2, 2)


def valid_stripe(code, rng=0):
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, 8, rng=rng)
    TraditionalDecoder().encode_into(code, stripe)
    return stripe


def corrupt(stripe, block, seed):
    rng = np.random.default_rng(seed)
    region = stripe.get(block).copy()
    region ^= rng.integers(1, 256, size=region.shape).astype(region.dtype)
    stripe.put(block, region)


def test_clean_returns_empty(code):
    report = scrub_stripe(code, valid_stripe(code), max_errors=2)
    assert report.status == "clean" and report.corrupted_blocks == ()


def test_single_located_via_fast_path(code):
    """Singles are tried before any pair."""
    stripe = valid_stripe(code, rng=1)
    corrupt(stripe, 9, seed=2)
    assert scrub_stripe(code, stripe, max_errors=2).corrupted_blocks == (9,)


@pytest.mark.parametrize("pair", [(3, 17), (0, 1), (5, 23)])
def test_pairs_located(code, pair):
    stripe = valid_stripe(code, rng=3)
    for b in pair:
        corrupt(stripe, b, seed=10 + b)
    report = scrub_stripe(code, stripe, max_errors=2)
    assert report.status == "corrupt" and report.corrupted_blocks == pair


def test_max_errors_one_gives_up_on_pairs(code):
    stripe = valid_stripe(code, rng=4)
    corrupt(stripe, 2, seed=5)
    corrupt(stripe, 11, seed=6)
    assert scrub_stripe(code, stripe, max_errors=1).status == "ambiguous"
    assert scrub_stripe(code, stripe, max_errors=2).corrupted_blocks == (2, 11)


def test_beyond_capability_unlocated(code):
    """More corruptions than the search bound: detected, not located."""
    stripe = valid_stripe(code, rng=7)
    for b, s in [(1, 8), (6, 9), (14, 10), (20, 11)]:
        corrupt(stripe, b, seed=s)
    # a false pair explanation is combinatorially possible; with 4 random
    # corruptions on this code it does not occur
    assert scrub_stripe(code, stripe, max_errors=2).status == "ambiguous"
