"""XOR-only decode execution over bit-matrices (Cauchy-RS style backend).

:class:`BitMatrixDecoder` reuses the exact same planning pipeline as the
GF decoders (log table, partition, sequence choice) but *executes* plans
with expanded bit-matrices and bit-plane XORs — the Jerasure/Cauchy-RS
execution model the paper's reference [8] introduced.  It demonstrates
that PPM's partition and sequence optimisation are independent of the GF
kernel, and quantifies the XOR-count blow-up (a w x w companion matrix
averages ~w^2/2 ones, vs one table-gather per coefficient).
"""

from __future__ import annotations

import threading

import numpy as np

from ..gf import OpCounter
from ..gf.bitmatrix import (
    apply_bitmatrix,
    expand_matrix,
    from_bitplanes,
    to_bitplanes,
    xor_count,
)
from ..gf.region import RegionOps
from ..pipeline.engine import DecodePipeline
from .sequences import SequencePolicy


class _BitPlaneOps(RegionOps):
    """Region ops whose matrix application is expanded bit-matrix XORs.

    ``counter`` tallies XORs as xor-only mult_XORs on packets, so cost
    comparisons against the GF backend are explicit.
    """

    def __init__(self, field, counter):
        super().__init__(field, counter)
        self._expanded: dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()  # one decoder may serve several threads

    def matrix_apply(self, matrix, regions):
        key = (matrix.shape, matrix.tobytes())
        with self._lock:
            bitmatrix = self._expanded.get(key)
            if bitmatrix is None:
                bitmatrix = self._expanded[key] = expand_matrix(self.field, matrix)
        planes = [to_bitplanes(region, self.field) for region in regions]
        outs = apply_bitmatrix(bitmatrix, planes, self.field.w, counter=self.counter)
        return [from_bitplanes(p, self.field) for p in outs]


class BitMatrixDecoder(DecodePipeline):
    """Decode via expanded bit-matrices and bit-plane XORs.

    A serial pipeline that executes the plan's chosen mode (PPM
    partition included) with XOR-only kernels in place of GF region
    programs — ``compile`` is accepted for constructor uniformity but
    there is no compiled path.
    """

    def __init__(
        self,
        *,
        policy: SequencePolicy = SequencePolicy.PAPER,
        counter: OpCounter | None = None,
        verify: bool = False,
        compile: bool = False,
    ):
        super().__init__(
            pool="serial", workers=1, policy=policy,
            counter=counter, verify=verify, compile=False,
        )

    def _make_ops(self, field, counter):
        return _BitPlaneOps(field, counter)

    def xor_cost(self, source, faulty) -> int:
        """Total XORs the chosen plan costs in this backend (per packet)."""
        return sum(
            xor_count(expand_matrix(source.field, matrix))
            for stage in self.plan(source, faulty).stages
            for matrix in stage.arrays
        )
