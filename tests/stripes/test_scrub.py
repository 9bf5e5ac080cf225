"""Unit tests for scrubbing and corruption location."""

import importlib
from itertools import combinations

import numpy as np
import pytest

from repro.codes import LRCCode, SDCode
from repro.core import TraditionalDecoder
from repro.gf import RegionOps
from repro.matrix import SingularMatrixError
from repro.stripes import Stripe, StripeLayout, scrub_stripe, syndromes


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
    report = scrub_stripe(code, stripe)
    assert report.status == "clean" and report.healthy


def test_syndromes_require_full_stripe(code):
    stripe = valid_stripe(code)
    stripe.erase([0])
    with pytest.raises(ValueError):
        syndromes(code, stripe)


@pytest.mark.parametrize("block", [0, 5, 14, 22])
def test_locate_single_corruption(code, block):
    stripe = valid_stripe(code, rng=1)
    corrupt(stripe, block)
    report = scrub_stripe(code, stripe)
    assert not report.healthy
    assert report.status == "corrupt"
    assert report.corrupted_blocks == (block,)


def test_located_corruption_is_restored_by_erase_and_decode(code):
    stripe = valid_stripe(code, rng=2)
    truth = stripe.copy()
    corrupt(stripe, 7)
    assert scrub_stripe(code, stripe).corrupted_blocks == (7,)
    erase_and_decode(code, stripe, 7)
    assert np.array_equal(stripe.get(7), truth.get(7))
    # stripe is clean again
    assert scrub_stripe(code, stripe).healthy


def test_double_corruption_detected_but_not_located(code):
    stripe = valid_stripe(code, rng=4)
    corrupt(stripe, 1, seed=5)
    corrupt(stripe, 8, seed=6)
    report = scrub_stripe(code, stripe)
    assert not report.healthy
    # no single column generally explains two corrupted columns
    assert report.status == "ambiguous" or report.corrupted_blocks in ((1,), (8,))


def test_lrc_scrub():
    lrc = LRCCode(8, 2, 2)
    stripe = valid_stripe(lrc, rng=7)
    truth = stripe.copy()
    corrupt(stripe, 3, seed=8)
    assert scrub_stripe(lrc, stripe).corrupted_blocks == (3,)
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


def test_location_never_plans(code, monkeypatch):
    """Location solves each candidate against the syndromes: even a
    search that reaches the last pair calls no planner."""
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
    assert scrub_stripe(code, stripe, max_errors=2).corrupted_blocks == last_pair
    assert calls == []


def trial_decode_scrub(code, stripe, max_errors):
    """The trial-decode oracle: erasure-decode each candidate set from
    the other blocks and accept the first whose re-encoded stripe has
    zero syndromes (singles first, then pairs, ...)."""
    all_regions = [stripe.get(b) for b in range(code.num_blocks)]
    if all(not s.any() for s in syndromes(code, stripe)):
        return "clean", ()
    ops = RegionOps(code.field)
    decoder = TraditionalDecoder()
    for size in range(1, max_errors + 1):
        for combo in combinations(range(code.num_blocks), size):
            survivors = {
                b: all_regions[b] for b in range(code.num_blocks) if b not in combo
            }
            try:
                recovered = decoder.decode(code, survivors, list(combo))
            except SingularMatrixError:
                continue
            trial = list(all_regions)
            for b, region in recovered.items():
                trial[b] = region
            residual = ops.matrix_apply(code.H.array, trial)
            if all(not s.any() for s in residual):
                return "corrupt", combo
    return "ambiguous", ()


@pytest.mark.parametrize(
    "make_code",
    [lambda: SDCode(6, 4, 2, 2), lambda: SDCode(8, 4, 2, 2), lambda: LRCCode(8, 2, 2)],
    ids=["sd6422", "sd8422", "lrc822"],
)
def test_scrub_matches_trial_decode_oracle(make_code):
    code = make_code()
    cases = 0
    for seed in range(2):
        rng = np.random.default_rng(seed)
        for count in range(4):
            stripe = valid_stripe(code, symbols=8, rng=seed)
            for b in rng.choice(code.num_blocks, count, replace=False):
                corrupt(stripe, int(b), seed=int(rng.integers(1 << 30)))
            for max_errors in (1, 2):
                report = scrub_stripe(code, stripe, max_errors=max_errors)
                expected = trial_decode_scrub(code, stripe, max_errors)
                assert (report.status, report.corrupted_blocks) == expected
                cases += 1
    assert cases == 16
