"""Equation-oriented parallel decoding — the related-work baseline.

The paper's Section V contrasts PPM with the *equation-oriented*
parallelism of Sobe ("Parallel Reed/Solomon Coding on Multicore
Processors", SNAPI 2010): instead of partitioning the parity-check
matrix by faulty-block independence, parallelise the rows of the single
whole-matrix decode — each output block ``BF_i = sum_j W[i][j] * BS_j``
is an independent equation and can be computed on its own thread.

Differences from PPM this baseline makes measurable:

- no computational-cost reduction: it always executes the whole-matrix
  matrix-first sequence (C2), never C4;
- parallel granularity is the *output block*, so load balance depends on
  per-row weights rather than sub-matrix structure;
- no merge phase: every equation reads only survivors — so in a
  bandwidth-unlimited model it can hide its extra ops behind threads
  (PPM keeps H_rest serial), at the price of strictly more total work
  (C2 > C4: worse CPU occupancy and energy, and redundant survivor reads
  that real memory systems charge for).

:class:`RowParallelDecoder` is the pipeline engine with one override —
the ``W`` stage is split into one task per row — so benches can compare
all three on identical scenarios
(``benchmarks/bench_ablation_rowparallel.py``).
"""

from __future__ import annotations

from ..gf import OpCounter
from ..pipeline.engine import DecodePipeline
from .planner import Stage
from .sequences import SequencePolicy


class RowParallelDecoder(DecodePipeline):
    """Whole-matrix matrix-first decode with per-equation threading.

    Executes ``W = F^-1 S`` row by row on ``threads`` workers (row i on
    worker i mod T — the same round-robin the paper's Algorithm 1 uses
    for sub-matrices, applied at equation granularity); total cost is
    ``u(W)`` = C2 whatever T is.  The strategy is matrix-first by
    construction, so ``policy`` only accepts
    :attr:`SequencePolicy.MATRIX_FIRST`.
    """

    def __init__(
        self,
        *,
        threads: int = 4,
        policy: SequencePolicy = SequencePolicy.MATRIX_FIRST,
        counter: OpCounter | None = None,
        verify: bool = False,
    ):
        if policy is not SequencePolicy.MATRIX_FIRST:
            raise ValueError(
                "RowParallelDecoder is matrix-first by construction; "
                f"policy must be SequencePolicy.MATRIX_FIRST, got {policy!r}"
            )
        super().__init__(
            pool="thread" if threads > 1 else "serial", workers=threads,
            policy=policy, assignment="round_robin",
            counter=counter, verify=verify,
        )

    def _stage_tasks(self, stage: Stage):
        (weights,) = stage.arrays  # matrix-first: the one W stage
        return [
            ((weights[i : i + 1],), stage.faulty_ids[i : i + 1])
            for i in range(weights.shape[0])
        ]

