#!/usr/bin/env python3
"""Scrubbing: catching silent data corruption with the parity check.

Erasure decoding handles *known* losses; silent corruption (bit rot,
misdirected writes — the paper's ref [12]) leaves every block present
but the stripe inconsistent.  A scrub recomputes the syndromes
``H @ B``; the corrupted block is *located* as the one column of ``H``
that explains them, and then repaired by erasure-decoding it from the
rest.

Run:  python examples/scrub_and_repair.py
"""

import numpy as np

from repro.codes import SDCode
from repro.core import TraditionalDecoder
from repro.stripes import Stripe, StripeLayout, scrub_stripe, syndromes


def main() -> None:
    code = SDCode(n=8, r=8, m=2, s=2)
    print(code.describe())
    layout = StripeLayout.of_code(code)
    stripe = Stripe.random(layout, code.field, sector_symbols=1024, rng=5)
    TraditionalDecoder().encode_into(code, stripe)
    truth = stripe.copy()

    # a clean scrub
    print(f"\ninitial scrub: clean={scrub_stripe(code, stripe).healthy}")

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
    (located,) = scrub_stripe(code, stripe).corrupted_blocks
    print(
        f"located block {located} "
        f"(expected {victim}): {'MATCH' if located == victim else 'MISS'}"
    )
    stripe.erase([located])
    recovered = TraditionalDecoder().decode(code, stripe, [located])
    stripe.put(located, recovered[located])
    restored = np.array_equal(stripe.get(victim), truth.get(victim))
    print(f"repaired content matches original: {restored}")
    final = scrub_stripe(code, stripe)
    print(f"final scrub: clean={final.healthy}")
    assert restored and final.healthy


if __name__ == "__main__":
    main()
