"""Disk-array substrate: many stripes, device-level failure injection.

This is the storage-system view the paper's introduction motivates: an
array of ``n`` disks holding many independently-encoded stripes, subject
to whole-disk failures and latent sector errors (LSEs), with two repair
paths:

- :meth:`DiskArray.rebuild` — recover every lost sector (a full rebuild);
- :meth:`DiskArray.degraded_read` — recover just enough to serve one
  block (what LRC local parities are designed to make cheap).

Decoding itself is delegated to a :class:`Decoder` — in practice a
:class:`repro.pipeline.DecodePipeline` or one of its presets
(:class:`repro.core.TraditionalDecoder`, :class:`repro.core.PPMDecoder`,
…), which is how the examples compare repair strategies on the same
failure history.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from ..codes.base import ErasureCode
from .layout import StripeLayout
from .store import Stripe


class Decoder(Protocol):
    """Anything that can recover erased blocks of stripes.

    ``decode`` serves one stripe's ``targets`` (the erased blocks
    wanted back; default all of ``faulty``); ``decode_batch`` recovers
    every erased block of many stripes, one pattern per stripe, in one
    submission.
    """

    def decode(
        self, code: ErasureCode, stripe: Stripe, faulty, *, targets=None
    ) -> dict[int, np.ndarray]:
        ...  # pragma: no cover - protocol

    def decode_batch(
        self,
        code: ErasureCode,
        stripes: Sequence[Stripe],
        faulty: Sequence[Sequence[int]],
    ) -> list[dict[int, np.ndarray]]:
        ...  # pragma: no cover - protocol


class DiskArray:
    """An erasure-coded array of ``code.n`` disks and ``num_stripes`` stripes.

    All stripes share one code instance; ground-truth copies are kept so
    tests and examples can verify recovery bit-for-bit.
    """

    def __init__(
        self,
        code: ErasureCode,
        num_stripes: int,
        sector_symbols: int,
        rng: np.random.Generator | int | None = None,
    ):
        if num_stripes < 1:
            raise ValueError(f"need at least one stripe, got {num_stripes}")
        self.code = code
        self.layout = StripeLayout.of_code(code)
        rng = np.random.default_rng(rng)
        self.stripes = [
            Stripe.random(self.layout, code.field, sector_symbols, rng)
            for _ in range(num_stripes)
        ]
        self._truth = [s.copy() for s in self.stripes]
        self.failed_disks: set[int] = set()

    @property
    def num_stripes(self) -> int:
        return len(self.stripes)

    # -- failure injection --------------------------------------------------

    def fail_disk(self, disk: int) -> None:
        """Lose a whole disk: the corresponding block of every stripe."""
        if not (0 <= disk < self.code.n):
            raise IndexError(f"disk {disk} outside 0..{self.code.n - 1}")
        self.failed_disks.add(disk)
        blocks = self.layout.blocks_of_disk(disk)
        for stripe in self.stripes:
            stripe.erase(blocks)

    def corrupt_sector(self, stripe_index: int, block: int) -> None:
        """Lose a single sector (latent sector error)."""
        self.stripes[stripe_index].erase([block])

    # -- repair paths -----------------------------------------------------------

    def rebuild(self, decoder: Decoder) -> int:
        """Recover every erased block of every stripe; returns blocks repaired.

        All damaged stripes go down in one ``decode_batch`` submission,
        so stripes sharing a failure geometry — the common case after a
        disk loss — are fused into a single region-op sweep instead of
        decoded one by one.
        """
        work = [
            (stripe, stripe.erased_ids)
            for stripe in self.stripes
            if stripe.erased_ids
        ]
        if not work:
            self.failed_disks.clear()
            return 0
        results = decoder.decode_batch(
            self.code, [s for s, _ in work], [f for _, f in work]
        )
        repaired = 0
        for (stripe, _), recovered in zip(work, results):
            for bid, region in recovered.items():
                stripe.put(bid, region)
            repaired += len(recovered)
        self.failed_disks.clear()
        return repaired

    def degraded_read(self, decoder: Decoder, stripe_index: int, block: int) -> np.ndarray:
        """Serve one block, decoding on the fly if it is lost.

        The recovered block is *not* written back (a read, not a repair).
        """
        stripe = self.stripes[stripe_index]
        if stripe.has(block):
            return stripe.get(block)
        recovered = decoder.decode(
            self.code, stripe, stripe.erased_ids, targets=(block,)
        )
        return recovered[block]

    # -- verification --------------------------------------------------------------

    def verify(self) -> bool:
        """True iff every present block matches the ground truth."""
        return all(
            stripe.equals_on(truth, stripe.present_ids)
            for stripe, truth in zip(self.stripes, self._truth)
        )

    def fully_intact(self) -> bool:
        """True iff no block anywhere is erased and all data verifies."""
        return all(not s.erased_ids for s in self.stripes) and self.verify()
