#!/usr/bin/env python3
"""Scrubbing: catching silent data corruption with the parity check.

Erasure decoding handles *known* losses; silent corruption (bit rot,
misdirected writes — the paper's ref [12]) leaves every block present
but the stripe inconsistent.  A scrub recomputes the syndromes
``H @ B``; a single corrupted block is *located* by matching the
syndrome against column signatures and then repaired by erasure-decoding
it from the rest.

Run:  python examples/scrub_and_repair.py
"""

import numpy as np

from repro.codes import SDCode
from repro.core import TraditionalDecoder
from repro.stripes import (
    Stripe,
    StripeLayout,
    locate_single_corruption,
    syndromes,
)


def main() -> None:
    code = SDCode(n=8, r=8, m=2, s=2)
    print(code.describe())
    layout = StripeLayout.of_code(code)
    stripe = Stripe.random(layout, code.field, sector_symbols=1024, rng=5)
    TraditionalDecoder().encode_into(code, stripe)
    truth = stripe.copy()

    # a clean scrub
    clean = locate_single_corruption(code, stripe)
    print(f"\ninitial scrub: clean={clean.clean}")

    # bit rot flips part of one sector, silently
    victim = layout.block_id(3, 5)
    rng = np.random.default_rng(9)
    region = stripe.get(victim).copy()
    region[100:200] ^= rng.integers(1, 256, size=100).astype(region.dtype)
    stripe.put(victim, region)
    print(f"injected silent corruption into block {victim} (row 3, disk 5)")

    # the syndromes light up...
    dirty = [i for i, s in enumerate(syndromes(code, stripe)) if s.any()]
    print(f"scrub: nonzero syndromes on parity rows {dirty}")

    # ...the scrubber locates the block, then erases and decodes it
    result = locate_single_corruption(code, stripe)
    print(
        f"located block {result.corrupted_block} "
        f"(expected {victim}): {'MATCH' if result.corrupted_block == victim else 'MISS'}"
    )
    stripe.erase([result.corrupted_block])
    recovered = TraditionalDecoder().decode(code, stripe, [result.corrupted_block])
    stripe.put(result.corrupted_block, recovered[result.corrupted_block])
    restored = np.array_equal(stripe.get(victim), truth.get(victim))
    print(f"repaired content matches original: {restored}")
    final = locate_single_corruption(code, stripe)
    print(f"final scrub: clean={final.clean}")
    assert restored and final.clean


if __name__ == "__main__":
    main()
