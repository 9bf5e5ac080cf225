"""Segment-parallel decoding — the block-level-parallelism baseline.

The paper's related work (refs [36]-[38]) covers *block-level*
parallelism: split the data, not the matrix.  Each worker executes the
entire decode over its own horizontal slice of every sector, so there is
no load imbalance and no serial merge phase — but also no reduction in
total work, and every worker touches every coefficient (poorer
instruction locality, more table traffic than PPM's per-sub-matrix
threads).

:class:`SegmentParallelDecoder` composes with PPM's *sequence*
optimisation: it executes whatever mode the plan chose (so it pays
min(C2, C4) ops like PPM) but parallelises across segments rather than
sub-matrices.  That isolates the two axes — partition-parallelism vs
data-parallelism — for the ablation bench.
"""

from __future__ import annotations

import numpy as np

from ..gf import OpCounter
from ..pipeline.engine import DecodePipeline, _PatternBatch
from ..pipeline.pool import ThreadWorkerPool
from .sequences import SequencePolicy


class SegmentParallelDecoder(DecodePipeline):
    """Decode by splitting every sector into ``threads`` segments.

    A serial pipeline whose batches are cut into symbol ranges: worker
    ``t`` runs the full plan over symbols ``[t*L/T, (t+1)*L/T)`` of
    every block.  mult_XORs calls are per segment, so that count scales
    by T while the symbols processed do not.
    """

    def __init__(
        self,
        *,
        threads: int = 4,
        policy: SequencePolicy = SequencePolicy.PAPER,
        counter: OpCounter | None = None,
        verify: bool = False,
        compile: bool = True,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        super().__init__(
            pool="serial", workers=1, policy=policy,
            counter=counter, verify=verify, compile=compile,
        )
        self.threads = threads

    def _execute(self, code, batches, ops, deadline_s):
        run_serial = super()._execute
        queued = 0
        for batch in batches:
            length = batch.offsets[-1]
            t_eff = max(1, min(self.threads, length))
            if t_eff == 1:
                queued += run_serial(code, [batch], ops, deadline_s)
                continue
            bounds = [round(t * length / t_eff) for t in range(t_eff + 1)]
            parts = []
            for lo, hi in zip(bounds, bounds[1:]):
                part = _PatternBatch(batch.pattern, batch.plan)
                part.concat = {b: region[lo:hi] for b, region in batch.concat.items()}
                parts.append(part)
            with ThreadWorkerPool(t_eff) as pool:
                queued += sum(
                    pool.map(lambda part: run_serial(code, [part], ops, deadline_s), parts)
                )
            batch.recovered = {
                bid: np.concatenate([part.recovered[bid] for part in parts])
                for bid in parts[0].recovered
            }
        return queued
