"""Host probes: what a table gather and a streaming XOR cost on this host.

Two fixed pure-numpy kernels, run between rounds (never inside a timed
op), sized to the workload's own footprint:

- **gather** — ``take`` through a lookup table plus an XOR into an
  accumulator, i.e. one ideal ``mult_XOR`` over a region.  The table is
  the size the pinned backend uses: 256 one-byte entries (L1-resident,
  the ``numpy`` backend) or 64K two-byte entries (128 KiB, the
  ``bitsliced`` backend's paired table); the region is the workload's
  fused region length.
- **xor** — a streaming XOR over an 8 MiB buffer (past L2): the
  memory-bandwidth ceiling for the XOR-only rows.

Both report region bytes per second, the unit ``kernels.exec_MBps``
uses, so ``kernels.roofline_frac`` is a plain ratio of the two.
"""

from __future__ import annotations

import time

import numpy as np

XOR_BYTES = 8 << 20

#: Each gather sample processes about this many region bytes, so a
#: 128-symbol region is not a measurement of one numpy call.
_GATHER_SAMPLE_BYTES = 1 << 20


class HostProbe:
    """Preallocated probe buffers; ``sample()`` returns MB/s for both."""

    def __init__(self, backend: str, region_bytes: int):
        rng = np.random.default_rng(0xC0FFEE)
        self.region_bytes = int(region_bytes)
        if backend == "bitsliced":
            # two symbols per lookup: uint16 indices into a 64K x uint16 table
            self.table = rng.integers(0, 1 << 16, size=1 << 16).astype(np.uint16)
            self.index = rng.integers(0, 1 << 16, size=max(1, self.region_bytes // 2)).astype(
                np.uint16
            )
        else:
            self.table = rng.integers(0, 256, size=256).astype(np.uint8)
            self.index = rng.integers(0, 256, size=self.region_bytes).astype(np.uint8)
        self.gathered = np.empty_like(self.index, dtype=self.table.dtype)
        self.acc = np.zeros_like(self.gathered)
        self.repeats = max(1, _GATHER_SAMPLE_BYTES // self.region_bytes)
        self.stream_a = rng.integers(0, 256, size=XOR_BYTES).astype(np.uint8)
        self.stream_b = rng.integers(0, 256, size=XOR_BYTES).astype(np.uint8)

    def sample(self) -> tuple[float, float]:
        """One ``(gather_MBps, xor_MBps)`` sample (about 10 ms)."""
        table, index, gathered, acc = self.table, self.index, self.gathered, self.acc
        t0 = time.perf_counter()
        for _ in range(self.repeats):
            np.take(table, index, out=gathered)
            np.bitwise_xor(acc, gathered, out=acc)
        gather_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        np.bitwise_xor(self.stream_a, self.stream_b, out=self.stream_a)
        xor_s = time.perf_counter() - t0
        return (
            self.repeats * self.region_bytes / gather_s / 1e6,
            XOR_BYTES / xor_s / 1e6,
        )
