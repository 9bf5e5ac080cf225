"""CompiledRegionOps: the engine's two compiled entry points.

:meth:`~CompiledRegionOps.matrix_chain_apply` runs one matrix chain — the
unit a worker executes, ``(W,)`` or ``(S, F^-1)`` — and
:meth:`~CompiledRegionOps.run_plan` runs a whole
:class:`~repro.core.planner.DecodePlan` as one fused program.  Both
compile through a shared :class:`ProgramCache` and execute on a
:class:`ProgramExecutor` over 1-D sector regions; there is no
interpreted fallback.  The interpreted
:class:`~repro.gf.region.RegionOps` is a separate class (scrub
syndromes, calibration, the service's fallback channel, the tests'
oracle).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..gf.field import GF
from ..gf.region import OpCounter
from .cache import ProgramCache
from .executor import ProgramExecutor


class CompiledRegionOps:
    """Compiled, cached matrix chains and plans over one field.

    Parameters
    ----------
    field:
        The GF(2^w) field every program is compiled for.
    counter:
        :class:`~repro.gf.region.OpCounter` the programs' model op
        counts are booked into (a private one when omitted).
    programs:
        Optional shared :class:`ProgramCache`; the pipeline hands one
        cache to all its ops instances so plans compile once per
        geometry.

    Programs run on the executor's defaults: L2-sized chunks, ``"auto"``
    backend selection (or the process-wide ``AppConfig.kernels.backend``).
    """

    def __init__(
        self,
        field: GF,
        counter: OpCounter | None = None,
        *,
        programs: ProgramCache | None = None,
    ):
        self.field = field
        self.counter = counter if counter is not None else OpCounter()
        self.programs = programs if programs is not None else ProgramCache()
        self.executor = ProgramExecutor(field)

    def matrix_chain_apply(
        self, matrices: Sequence[np.ndarray], regions: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Apply ``matrices`` in order to ``regions``: one output region
        per row of the last matrix."""
        program = self.programs.chain_program(self.field, matrices)
        return self.executor.execute(program, list(regions), counter=self.counter)

    def run_plan(
        self, plan, blocks: Mapping[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """Execute a whole decode plan as one fused program.

        ``blocks`` maps block id -> region and must contain every true
        survivor the plan reads.  Returns ``{target_id: region}`` exactly
        like the stage-by-stage walk, with identical op counts.
        """
        plan_prog = self.programs.plan_program(self.field, plan)
        inputs = [blocks[b] for b in plan_prog.input_ids]
        outs = self.executor.execute(plan_prog.program, inputs, counter=self.counter)
        return dict(zip(plan_prog.output_ids, outs))
