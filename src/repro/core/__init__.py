"""The PPM algorithm: the paper's primary contribution.

Pipeline: :func:`build_log_table` -> :func:`partition` (or the SD fast
path :func:`partition_sd`) -> :func:`plan_decode` / :func:`plan_batch`
(costs C1..C4, sequence choice, ``DecodePlan.stages``).  This package *plans*;
:class:`repro.pipeline.DecodePipeline` *executes*.  The decoder classes
re-exported here (:class:`PPMDecoder`, the :class:`TraditionalDecoder`
baseline, ...) are presets of that engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .logtable import LogTableEntry, build_log_table, format_log_table
from .partition import GroupPlan, IndependentGroup, Partition, partition, partition_sd
from .planner import (
    DecodePlan,
    RestPlan,
    Stage,
    TraditionalPlan,
    evaluate_costs,
    plan_batch,
    plan_decode,
)
from .sequences import ExecutionMode, SequenceCosts, SequencePolicy

if TYPE_CHECKING:  # resolved lazily at run time, see __getattr__
    from .decoder import DecodeStats, PPMDecoder, TraditionalDecoder

#: The decoder presets subclass the engine in :mod:`repro.pipeline`,
#: which (with :mod:`repro.stripes` and :mod:`repro.parallel` under it)
#: imports the planning modules above — so they load on first use.
_PRESETS = {
    "DecodeStats": "decoder",
    "PPMDecoder": "decoder",
    "TraditionalDecoder": "decoder",
}


def __getattr__(name: str):
    submodule = _PRESETS.get(name)
    if submodule is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "DecodeStats",
    "PPMDecoder",
    "TraditionalDecoder",
    "LogTableEntry",
    "build_log_table",
    "format_log_table",
    "IndependentGroup",
    "Partition",
    "partition",
    "partition_sd",
    "DecodePlan",
    "GroupPlan",
    "RestPlan",
    "Stage",
    "TraditionalPlan",
    "evaluate_costs",
    "plan_batch",
    "plan_decode",
    "ExecutionMode",
    "SequenceCosts",
    "SequencePolicy",
]
