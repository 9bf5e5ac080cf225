#!/usr/bin/env python3
"""Disk-array rebuild: the failure mode SD codes were designed for.

Simulates the storage system of the paper's introduction: an array of
disks holding many stripes, hit by simultaneous whole-disk failures and
latent sector errors (how "today's storage systems actually fail",
Plank et al., FAST'13).  The array is rebuilt twice from the same failure
history — once with the traditional decoder, once with PPM — and the op
counts and wall times are compared.  The array is a
:class:`repro.service.BlobStore`, the store the service, repair and
cluster layers run on.  Every stripe loses the same two disks but its
own latent sectors, so each stripe has its own erasure pattern: one
``decode_batch`` plans them all together and runs them in one
submission.

Run:  python examples/disk_array_rebuild.py [num_stripes]
"""

import sys
import time

import numpy as np

from repro.codes import SDCode
from repro.core import PPMDecoder, TraditionalDecoder
from repro.gf import OpCounter
from repro.service import BlobStore

CODE = SDCode(n=8, r=16, m=2, s=2, w=8)


def build_failed_store(num_stripes: int) -> BlobStore:
    store = BlobStore.build(CODE, num_stripes, sector_symbols=2048, rng=1)
    # two whole disks die...
    for sid in store.stripe_ids:
        for disk in (2, 5):
            store.erase(sid, store.layout.blocks_of_disk(disk))
    # ...and scrubbing uncovers latent sector errors elsewhere: up to s
    # per stripe, which is exactly what the SD code tolerates on top of
    # the m disk failures
    rng = np.random.default_rng(9)
    for sid in store.stripe_ids:
        survivors = store.stripe(sid).present_ids
        picks = rng.choice(len(survivors), size=CODE.s, replace=False)
        store.erase(sid, [survivors[int(p)] for p in picks])
    return store


def rebuild_with(store: BlobStore, decoder, label: str) -> None:
    """Every damaged stripe goes down in one ``decode_batch``; stripes
    sharing a pattern would be fused into a single region-op sweep."""
    t0 = time.perf_counter()
    damaged = [sid for sid in store.stripe_ids if store.pattern(sid)]
    results = decoder.decode_batch(
        CODE,
        [store.snapshot_blocks(sid, inject=False) for sid in damaged],
        [store.pattern(sid) for sid in damaged],
    )
    for sid, recovered in zip(damaged, results):
        store.repair(sid, recovered)
    elapsed = time.perf_counter() - t0
    repaired = sum(len(recovered) for recovered in results)
    ok = all(
        store.stripe(sid).equals_on(store.truth(sid), range(CODE.num_blocks))
        for sid in store.stripe_ids
    )
    print(
        f"{label:>12}: repaired {repaired} blocks in {elapsed:.3f} s, "
        f"{decoder.counter.mult_xors} mult_XORs, verified={ok}"
    )
    assert ok


def main() -> None:
    num_stripes = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    print(
        f"array: {CODE.describe()}\n"
        f"failures: disks 2 and 5 + {num_stripes * CODE.s} latent sector errors "
        f"across {num_stripes} stripes"
    )
    # the same seeds give both decoders the same failure history
    with TraditionalDecoder(counter=OpCounter()) as traditional:
        rebuild_with(build_failed_store(num_stripes), traditional, "traditional")
    with PPMDecoder(threads=4, counter=OpCounter()) as ppm:
        rebuild_with(build_failed_store(num_stripes), ppm, "ppm")


if __name__ == "__main__":
    main()
