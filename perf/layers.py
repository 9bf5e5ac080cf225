"""Per-layer metrics, all taken from outside the program.

Two sources: the program's public stats documents
(``DecodePipeline.metrics()`` + ``executor_stats()`` in process, the
``{"op": "metrics"}`` wire op for the served store — same keys either
way), read at round boundaries and differenced; and the public functions
of each layer called standalone and timed (``plan_decode``,
``ProgramCache.plan_program``, fresh auto-tunes).
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import numpy as np

from repro.core import plan_decode
from repro.core.sequences import ExecutionMode
from repro.kernels import ProgramCache, ProgramExecutor
from repro.kernels.backends import (
    BASELINE_BACKEND,
    available_backends,
    default_backend,
    get_backend,
    set_default_backend,
)

BACKENDS = ("numpy", "bitsliced", "splittab")

#: Distinct patterns planned/compiled cold for core.* and kernels.compile_ms.
COLD_SAMPLES = 32

AUTOTUNE_RUNS = 5


def flatten(doc: dict) -> dict[str, float]:
    """A stats document as flat cumulative counters (so they difference)."""
    pipe = doc["pipeline"]
    kernels = doc.get("kernels") or {}
    wall = pipe["wall_seconds"]
    flat = {
        "symbols": pipe["symbols"],
        "batches": pipe["batches"],
        "patterns": pipe["patterns"],
        "wall_s": wall,
        "workers": pipe["pool"]["workers"],
        "busy_s": sum(pipe["worker_busy_fraction"]) * wall,
        "plan_hits": pipe["plan_cache"]["hits"],
        "plan_misses": pipe["plan_cache"]["misses"],
        "plan_evictions": pipe["plan_cache"]["evictions"],
        "prog_hits": pipe["program_cache"]["hits"],
        "prog_misses": pipe["program_cache"]["misses"],
        "exec_s": kernels.get("exec_seconds", 0.0),
        "exec_symbols": kernels.get("symbols", 0),
        "kernel_fallbacks": kernels.get("backend_fallbacks", 0)
        + kernels.get("backend_bypasses", 0),
    }
    for name in BACKENDS:
        split = kernels.get("backends", {}).get(name, {})
        flat[f"backend.{name}"] = split.get("symbols", 0)
    if "coalescing" in doc:  # a served store's document
        wait = doc["latency"]["queue_wait"]
        flat.update(
            {
                "flushes": doc["coalescing"]["flushes"],
                "flushed_reads": doc["coalescing"]["flushed_reads"],
                "queue_waits": wait["count"],
                "queue_wait_s": wait["count"] * wait["mean_s"],
                "retries": doc["resilience"]["retries"],
                "service_fallbacks": doc["resilience"]["fallbacks"],
            }
        )
    return flat


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    out = {key: after[key] - before[key] for key in after}
    out["workers"] = after["workers"]  # a gauge, not a counter
    return out


def accumulate(total: dict[str, float], part: dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = value if key == "workers" else total.get(key, 0.0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def stats_metrics(d: dict[str, float], op_wall_s: float) -> dict[str, float]:
    """The per-layer metrics that are ratios of differenced counters.

    ``op_wall_s`` is the summed wall time of the ops the counters cover.
    """
    out = {
        "pipeline.plancache.hit_rate": _ratio(
            d["plan_hits"], d["plan_hits"] + d["plan_misses"]
        ),
        "pipeline.plancache.evictions": d["plan_evictions"],
        "pipeline.patterns_per_batch": _ratio(d["patterns"], d["batches"]),
        # coordination per batch: pipeline wall minus the kernel seconds
        # the workers could overlap
        "pipeline.engine.self_ms": 1e3
        * _ratio(d["wall_s"] - d["exec_s"] / d["workers"], d["batches"]),
        "pipeline.pool.busy_frac": _ratio(d["busy_s"], d["wall_s"] * d["workers"]),
        "kernels.cache.hit_rate": _ratio(
            d["prog_hits"], d["prog_hits"] + d["prog_misses"]
        ),
        "kernels.exec_MBps": _ratio(d["exec_symbols"], d["exec_s"]) / 1e6,
        # thread-summed kernel seconds over op wall: may exceed 1 with 2 workers
        "kernels.exec_share": _ratio(d["exec_s"], op_wall_s),
        "kernels.fallbacks": d["kernel_fallbacks"],
    }
    for name in BACKENDS:
        out[f"kernels.backend_share.{name}"] = _ratio(
            d[f"backend.{name}"], d["exec_symbols"]
        )
    if "flushes" in d:
        out.update(
            {
                "service.scheduler.coalesce_factor": _ratio(
                    d["flushed_reads"], d["flushes"]
                ),
                "service.scheduler.flush_wait_ms": 1e3
                * _ratio(d["queue_wait_s"], d["queue_waits"]),
                "service.decode_ms": 1e3 * _ratio(d["wall_s"], d["batches"]),
                "service.retries": d["retries"],
                "service.fallbacks": d["service_fallbacks"],
            }
        )
    return out


def survivors_read(plan) -> set[int]:
    """Block ids the chosen plan reads from survivors (the engine's rule)."""
    if not plan.uses_partition:
        return set(plan.traditional.survivor_ids)
    needed: set[int] = set()
    for group in plan.groups:
        needed.update(group.survivor_ids)
    if plan.rest is not None:
        needed.update(plan.rest.survivor_ids)
    return needed - set(plan.faulty_ids)


def core_metrics(code, patterns, policy) -> dict[str, float]:
    """Cold planning and compiling of (a sample of) the workload's patterns."""
    plan_ms, compile_ms, groups, chosen, c1, read, lost, ops = [], [], [], 0, 0, 0, 0, []
    for pattern in patterns[:COLD_SAMPLES]:
        t0 = time.perf_counter()
        plan = plan_decode(code, pattern, policy)
        plan_ms.append((time.perf_counter() - t0) * 1e3)
        cache = ProgramCache()
        t0 = time.perf_counter()
        compiled = cache.plan_program(code.field, plan)
        compile_ms.append((time.perf_counter() - t0) * 1e3)
        groups.append(plan.p)
        chosen += plan.predicted_cost
        c1 += plan.costs.c1
        read += len(survivors_read(plan))
        lost += len(plan.faulty_ids)
        ops.append(len(compiled.program.instructions))
    return {
        "core.plan_ms": statistics.median(plan_ms),
        "core.partition_groups": statistics.fmean(groups),
        "core.cost_ratio": _ratio(chosen, c1),
        "core.survivor_bytes_per_byte": _ratio(read, lost),
        "kernels.compile_ms": statistics.median(compile_ms),
        "kernels.program_ops": statistics.fmean(ops),
    }


def _first_task_program(code, plan, cache: ProgramCache):
    """The program the engine runs for the plan's first phase-1 task."""
    field = code.field
    if plan.uses_partition:
        return cache.matrix_program(field, plan.groups[0].weights.array)
    trad = plan.traditional
    if plan.mode is ExecutionMode.TRADITIONAL_MATRIX_FIRST:
        return cache.matrix_program(field, trad.weights.array)
    return cache.chain_program(field, [trad.s.array, trad.f_inv.array])


def autotune_metrics(code, pattern, policy, region_symbols: int) -> dict[str, float]:
    """How often fresh ``auto`` tunings agree, and what the pick costs.

    Five fresh executors tune the workload's own program shape at its
    own fused region length; *agreement* is the share picking the modal
    backend, *regret* the modal pick's time over the best pinned time.
    """
    field = code.field
    plan = plan_decode(code, pattern, policy)
    program = _first_task_program(code, plan, ProgramCache())
    rng = np.random.default_rng(0x7E57)
    inputs = [
        rng.integers(0, 256, size=region_symbols, dtype=np.uint8)
        for _ in range(program.num_inputs)
    ]
    pinned = default_backend()
    picks = []
    try:
        set_default_backend("auto")
        for _ in range(AUTOTUNE_RUNS):
            executor = ProgramExecutor(field)  # fresh tuning state
            executor.execute(program, inputs)
            picks.extend(executor.tuning.choices().values())
    finally:
        set_default_backend(pinned)
    modal, votes = Counter(picks).most_common(1)[0]
    times = {}
    for name in available_backends():
        if name != BASELINE_BACKEND and not get_backend(name).supports(field, program):
            continue
        executor = ProgramExecutor(field, backend=name)
        executor.execute(program, inputs)  # bind tables
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            executor.execute(program, inputs)
            samples.append(time.perf_counter() - t0)
        times[name] = min(samples)
    return {
        "kernels.autotune.agreement": votes / len(picks),
        "kernels.autotune.regret": _ratio(times[modal], min(times.values())),
    }
