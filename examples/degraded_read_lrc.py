#!/usr/bin/env python3
"""LRC degraded reads: the cloud workload that motivates local parities.

Transient unavailability accounts for ~90% of datacenter failure events
(paper, Section I); reads of unavailable blocks trigger on-the-fly
decoding.  This example builds a (12, 4, 2)-LRC store, takes blocks
offline, and serves degraded reads three ways:

- single failure: repaired from one local group (tiny cost);
- multi-group failure, traditional decode: one big matrix;
- multi-group failure, PPM: the local repairs run as independent
  sub-matrices in parallel, the global parities clean up the rest.

Run:  python examples/degraded_read_lrc.py
"""

import numpy as np

from repro.codes import LRCCode
from repro.core import PPMDecoder, TraditionalDecoder, plan_decode
from repro.service import BlobStore
from repro.stripes import lrc_scenario


def degraded_read(store: BlobStore, decoder, sid: int, block: int) -> np.ndarray:
    """Decode just ``block`` from the stripe's survivors; nothing is
    written back (a read, not a repair)."""
    snapshot = store.snapshot_blocks(sid)
    return decoder.decode(store.code, snapshot, store.pattern(sid), targets=(block,))[block]


def main() -> None:
    code = LRCCode(k=12, l=4, g=2, w=8)
    print(code.describe())
    print(f"local groups: {[list(g) for g in code.groups]}")

    store = BlobStore.build(code, num_stripes=4, sector_symbols=4096, rng=3)

    # --- single-block unavailability: a local repair --------------------
    victim = 5
    group = code.group_of(victim)
    store.erase(0, [victim])
    decoder = TraditionalDecoder(policy="matrix_first")
    value = degraded_read(store, decoder, 0, victim)
    assert np.array_equal(value, store.truth(0).get(victim))
    plan = plan_decode(code, [victim])
    print(
        f"\nsingle failure (block {victim}, group {group}): "
        f"{plan.predicted_cost} mult_XORs — touches only its "
        f"{code.group_sizes[group]}-block group"
    )

    # --- multi-group unavailability ------------------------------------------
    scenario = lrc_scenario(code, local_failures=4, extra_failures=1, rng=11)
    stripe_idx = 1
    store.apply_scenario(stripe_idx, scenario)
    print(f"\nmulti failure: blocks {list(scenario.faulty_blocks)}")

    for name, dec in [
        ("traditional", TraditionalDecoder(policy="normal")),
        ("ppm", PPMDecoder(threads=4)),
    ]:
        target = scenario.faulty_blocks[0]
        value = degraded_read(store, dec, stripe_idx, target)
        assert np.array_equal(value, store.truth(stripe_idx).get(target))
        plan = dec.plan(code, store.pattern(stripe_idx))
        extra = ""
        if plan.uses_partition:
            extra = (
                f", p = {plan.p} local repairs in parallel + "
                f"{len(plan.rest.faulty_ids) if plan.rest else 0} via globals"
            )
        print(f"  {name:>12}: {plan.predicted_cost} mult_XORs{extra}")


if __name__ == "__main__":
    main()
