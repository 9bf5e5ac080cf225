"""CompiledRegionOps: the drop-in compiled backend for RegionOps.

Same API, same results, same op counts — but ``matrix_apply``,
``matrix_chain_apply`` and ``linear_combination`` compile their
coefficient structure to a :class:`~repro.kernels.ir.RegionProgram`
(cached) and execute it with bound tables, and :meth:`run_plan` executes
a whole :class:`~repro.core.planner.DecodePlan` as one fused program.

The scalar primitives (``mult_xors``, ``mul_region``) stay interpreted:
they are single region passes with nothing to amortise.
Multi-dimensional regions also fall back to the interpreted path — the
executor is specialised for the 1-D sectors the decoders use.
"""

from __future__ import annotations

import numpy as np

from ..gf.field import GF
from ..gf.region import OpCounter, RegionOps
from .cache import ProgramCache
from .executor import ProgramExecutor
from .lower import PlanProgram


class CompiledRegionOps(RegionOps):
    """Region ops that execute compiled, cached programs.

    Parameters
    ----------
    field, counter:
        As for :class:`~repro.gf.region.RegionOps`.
    programs:
        Optional shared :class:`ProgramCache`; decoders hand one cache
        to all their ops instances so plans compile once per geometry.

    Every program is optimised (pair CSE, DCE, slot compaction) and runs
    on the executor's defaults: L2-sized chunks, ``"auto"`` backend
    selection (or the process-wide ``AppConfig.kernels.backend``).
    """

    def __init__(
        self,
        field: GF,
        counter: OpCounter | None = None,
        *,
        programs: ProgramCache | None = None,
    ):
        super().__init__(field, counter)
        self.programs = programs if programs is not None else ProgramCache()
        # tuning state lives on the program cache: backend winners are
        # shared by every ops/executor built over the same cache
        self.executor = ProgramExecutor(field, tuning=self.programs.tuning)

    def _compilable(self, regions: list[np.ndarray]) -> bool:
        return all(r.ndim == 1 for r in regions)

    # -- compiled overrides ------------------------------------------------

    def linear_combination(
        self,
        coefficients: np.ndarray,
        regions: list[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        if len(coefficients) != len(regions):
            raise ValueError("coefficient / region count mismatch")
        if not regions or not self._compilable(regions):
            return super().linear_combination(coefficients, regions, out=out)
        coefficients = np.asarray(coefficients)
        if not coefficients.any():
            # zero cost, zero count — identical to the interpreted path
            if out is None:
                return np.zeros_like(regions[0])
            out[...] = 0
            return out
        if out is not None:
            self._check(out)
            if out.shape != regions[0].shape:
                raise ValueError(
                    f"region shape mismatch: {regions[0].shape} vs {out.shape}"
                )
            if not out.flags.c_contiguous:
                return super().linear_combination(coefficients, regions, out=out)
        program = self.programs.row_program(self.field, coefficients)
        outs = None if out is None else [out]
        return self.executor.execute(
            program, list(regions), counter=self.counter, outs=outs
        )[0]

    def matrix_apply(
        self,
        matrix: np.ndarray,
        regions: list[np.ndarray],
    ) -> list[np.ndarray]:
        if matrix.ndim != 2 or matrix.shape[1] != len(regions):
            raise ValueError(
                f"matrix shape {matrix.shape} incompatible with {len(regions)} regions"
            )
        if matrix.shape[0] == 0:
            return []
        if not regions:
            raise ValueError("cannot infer output shape from empty inputs")
        if not self._compilable(regions):
            return super().matrix_apply(matrix, regions)
        program = self.programs.matrix_program(self.field, matrix)
        return self.executor.execute(program, list(regions), counter=self.counter)

    def matrix_chain_apply(
        self,
        matrices,
        regions: list[np.ndarray],
    ) -> list[np.ndarray]:
        mats = [np.asarray(m) for m in matrices]
        if not mats:
            return list(regions)
        if not regions:
            raise ValueError("cannot infer output shape from empty inputs")
        if any(m.shape[0] == 0 for m in mats) or not self._compilable(regions):
            return super().matrix_chain_apply(mats, regions)
        if mats[0].shape[1] != len(regions):
            raise ValueError(
                f"matrix shape {mats[0].shape} incompatible with {len(regions)} regions"
            )
        program = self.programs.chain_program(self.field, mats)
        return self.executor.execute(program, list(regions), counter=self.counter)

    # -- fused plan execution ----------------------------------------------

    def plan_program(self, plan) -> PlanProgram:
        """The compiled (cached) program for a whole decode plan."""
        return self.programs.plan_program(self.field, plan)

    def run_plan(self, plan, blocks) -> dict[int, np.ndarray]:
        """Execute a whole decode plan as one fused program.

        ``blocks`` maps block id -> region and must contain every true
        survivor the plan reads.  Returns ``{faulty_id: region}`` exactly
        like the stage-by-stage decoders, with identical op counts.
        """
        plan_prog = self.plan_program(plan)
        inputs = [blocks[b] for b in plan_prog.input_ids]
        if not self._compilable(inputs):
            raise ValueError("run_plan requires 1-D block regions")
        outs = self.executor.execute(plan_prog.program, inputs, counter=self.counter)
        return dict(zip(plan_prog.output_ids, outs))
