"""Compiled GF region programs: plans lowered to fused, cached kernels.

The interpreted :class:`~repro.gf.region.RegionOps` pays a full Python
round-trip per ``mult_XORs`` call.  This package compiles the operation
sequence once — a matrix chain (one independent sub-matrix) or a whole
:class:`~repro.core.planner.DecodePlan` — into the flat
:class:`RegionProgram` IR, optimises it, and executes it with per-program
table binding and L2-chunked ``ndarray.take`` gathers.  See ``docs/KERNELS.md``.
"""

from __future__ import annotations

from .backends import (
    BASELINE_BACKEND,
    ExecutorBackend,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
)
from .cache import DEFAULT_PROGRAM_CACHE_SIZE, CacheStats, ProgramCache
from .executor import ProgramExecutor
from .ir import (
    OP_COPY,
    OP_MUL,
    OP_MULXOR,
    OP_XOR,
    OP_ZERO,
    Instruction,
    RegionProgram,
)
from .lower import PlanProgram, ProgramBuilder, lower_matrix_chain, lower_plan
from .optimize import compact_slots, eliminate_dead, optimize_program

__all__ = [
    "OP_COPY",
    "OP_MUL",
    "OP_MULXOR",
    "OP_XOR",
    "OP_ZERO",
    "BASELINE_BACKEND",
    "DEFAULT_PROGRAM_CACHE_SIZE",
    "CacheStats",
    "ExecutorBackend",
    "Instruction",
    "PlanProgram",
    "ProgramBuilder",
    "ProgramCache",
    "ProgramExecutor",
    "RegionProgram",
    "available_backends",
    "compact_slots",
    "default_backend",
    "eliminate_dead",
    "get_backend",
    "lower_matrix_chain",
    "lower_plan",
    "optimize_program",
    "register_backend",
    "set_default_backend",
    "unregister_backend",
]
