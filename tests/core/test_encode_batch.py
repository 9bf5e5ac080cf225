"""Compiled encode path: the parity plan's program, encode_batch, stale-parity safety.

Encoding is decoding with every parity position faulty (paper, footnote
1); the compiled path lowers that plan once per code and runs all
stripes of a batch through one fused program.  The contract: byte
identity with the naive per-stripe encode, parity consistency (H @ B ==
0), and — the stale-parity regression — complete independence from
whatever bytes happen to sit in the parity blocks before encoding.
"""

import numpy as np
import pytest

from repro.codes import RSCode, SDCode
from repro.core import PPMDecoder, SequencePolicy, TraditionalDecoder
from repro.gf import GF, RegionOps
from repro.core.planner import plan_decode
from repro.kernels import lower_plan
from repro.pipeline import DecodePipeline
from repro.stripes import Stripe, StripeLayout


@pytest.fixture(scope="module")
def sd_code():
    return SDCode(6, 8, 2, 2)


@pytest.fixture(scope="module")
def rs_code():
    return RSCode(n=6, k=4, r=2, w=8)


def data_stripes(code, count, symbols=32, rng=0):
    """Stripes with random data blocks and *garbage* parity blocks."""
    layout = StripeLayout.of_code(code)
    gen = np.random.default_rng(rng)
    stripes = []
    for _ in range(count):
        stripe = Stripe.random(layout, code.field, symbols, gen)
        stripes.append(stripe)
    return stripes


def naive_encode(code, stripe):
    return TraditionalDecoder().encode(code, stripe)


def encode_program(code):
    """The fused encode program: the decode plan of every parity block."""
    plan = plan_decode(code, code.parity_block_ids, policy=SequencePolicy.MATRIX_FIRST)
    return plan, lower_plan(code.field, plan)


class TestLowerEncode:
    """The parity-pattern plan lowered to one program."""

    def test_ids_partition_the_code(self, sd_code):
        plan, compiled = encode_program(sd_code)
        assert tuple(compiled.output_ids) == tuple(sd_code.parity_block_ids)
        assert set(compiled.input_ids) <= set(sd_code.data_block_ids)
        assert compiled.program.mult_xors == plan.predicted_cost

    def test_program_encodes_correctly(self, sd_code):
        from repro.kernels import ProgramExecutor

        _plan, compiled = encode_program(sd_code)
        stripe = data_stripes(sd_code, 1, rng=3)[0]
        inputs = [stripe.get(b) for b in compiled.input_ids]
        outputs = ProgramExecutor(sd_code.field).execute(
            compiled.program, inputs
        )
        expected = naive_encode(sd_code, stripe)
        for bid, region in zip(compiled.output_ids, outputs):
            assert np.array_equal(region, expected[bid]), bid


    def test_cache_returns_same_program(self, sd_code):
        # encoding is the parity-pattern decode plan: compiled once per code
        with DecodePipeline(pool="serial") as pipeline:
            for rng in (1, 2, 3):
                pipeline.encode_batch(sd_code, data_stripes(sd_code, 2, rng=rng))
            stats = pipeline.programs.stats
        assert (stats.misses, stats.hits) == (1, 2)


class TestEncodeBatch:
    @pytest.mark.parametrize("count", [1, 4])
    def test_matches_per_stripe_encode(self, sd_code, count):
        stripes = data_stripes(sd_code, count, rng=count)
        decoder = PPMDecoder(parallel=False)
        got = decoder.encode_batch(sd_code, stripes)
        assert len(got) == count
        for stripe, parities in zip(stripes, got):
            expected = naive_encode(sd_code, stripe)
            assert sorted(parities) == sorted(expected)
            for bid in expected:
                assert np.array_equal(parities[bid], expected[bid]), bid

    def test_traditional_decoder_batch(self, rs_code):
        stripes = data_stripes(rs_code, 3, rng=9)
        got = TraditionalDecoder().encode_batch(rs_code, stripes)
        for stripe, parities in zip(stripes, got):
            expected = naive_encode(rs_code, stripe)
            for bid in expected:
                assert np.array_equal(parities[bid], expected[bid]), bid

    def test_varying_stripe_lengths(self, sd_code):
        # the fused program must slice each stripe back at its own length
        layout = StripeLayout.of_code(sd_code)
        gen = np.random.default_rng(21)
        stripes = [
            Stripe.random(layout, sd_code.field, symbols, gen)
            for symbols in (16, 33, 64)
        ]
        got = PPMDecoder(parallel=False).encode_batch(sd_code, stripes)
        for stripe, parities in zip(stripes, got):
            expected = naive_encode(sd_code, stripe)
            for bid in expected:
                assert np.array_equal(parities[bid], expected[bid]), bid

    def test_encode_into_batch_satisfies_parity_check(self, sd_code):
        stripes = data_stripes(sd_code, 3, rng=5)
        PPMDecoder(parallel=False).encode_into_batch(sd_code, stripes)
        ops = RegionOps(sd_code.field)
        for stripe in stripes:
            regions = [stripe.get(b) for b in range(sd_code.num_blocks)]
            syndromes = ops.matrix_apply(sd_code.H.array, regions)
            assert all(not s.any() for s in syndromes)

    def test_policy_respected(self, sd_code):
        stripes = data_stripes(sd_code, 2, rng=11)
        for policy in (SequencePolicy.PAPER, SequencePolicy.MATRIX_FIRST):
            decoder = PPMDecoder(parallel=False, policy=policy)
            got = decoder.encode_batch(sd_code, stripes)
            for stripe, parities in zip(stripes, got):
                expected = naive_encode(sd_code, stripe)
                for bid in expected:
                    assert np.array_equal(parities[bid], expected[bid]), (
                        policy,
                        bid,
                    )


class TestStaleParityRegression:
    """Encode must only read data blocks, never resident parity bytes."""

    def test_encode_ignores_stale_parity(self, sd_code):
        stripes = data_stripes(sd_code, 2, rng=7)
        decoder = PPMDecoder(parallel=False)
        clean = decoder.encode_batch(sd_code, stripes)
        # poison every parity block with garbage, re-encode: identical
        gen = np.random.default_rng(8)
        for stripe in stripes:
            for bid in sd_code.parity_block_ids:
                stripe.put(
                    bid,
                    gen.integers(
                        0, 256, size=stripe.get(bid).shape, dtype=np.uint8
                    ),
                )
        poisoned = decoder.encode_batch(sd_code, stripes)
        for a, b in zip(clean, poisoned):
            for bid in a:
                assert np.array_equal(a[bid], b[bid]), bid

    def test_single_stripe_encode_ignores_stale_parity(self, sd_code):
        stripe = data_stripes(sd_code, 1, rng=17)[0]
        decoder = PPMDecoder(parallel=False)
        clean = decoder.encode(sd_code, stripe)
        for bid in sd_code.parity_block_ids:
            stripe.put(bid, np.full_like(stripe.get(bid), 0xAB))
        poisoned = decoder.encode(sd_code, stripe)
        for bid in clean:
            assert np.array_equal(clean[bid], poisoned[bid]), bid

    def test_encode_program_never_reads_parity_slots(self, sd_code):
        _plan, compiled = encode_program(sd_code)
        assert not set(compiled.input_ids) & set(sd_code.parity_block_ids)


class TestPipelineEncodeBatch:
    def test_matches_decoder_batch(self, sd_code):
        stripes = data_stripes(sd_code, 4, rng=13)
        with DecodePipeline(pool="serial") as pipeline:
            got = pipeline.encode_batch(sd_code, stripes)
        expected = PPMDecoder(parallel=False).encode_batch(sd_code, stripes)
        assert len(got) == len(expected)
        for a, b in zip(expected, got):
            assert sorted(a) == sorted(b)
            for bid in a:
                assert np.array_equal(a[bid], b[bid]), bid

    def test_return_stats(self, sd_code):
        stripes = data_stripes(sd_code, 2, rng=14)
        with DecodePipeline(pool="serial") as pipeline:
            results, stats = pipeline.encode_batch(
                sd_code, stripes, return_stats=True
            )
        assert len(results) == 2
        assert stats.stripes == 2
