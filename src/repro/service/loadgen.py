"""Closed-loop load generator for any degraded-read backend.

Drives a :class:`~repro.service.BlobService`, a whole
:class:`~repro.cluster.Cluster`, or any
:class:`~repro.service.net.Client` (in-process or TCP) with a seeded,
reproducible request mix: ``concurrency`` workers each pull the next
request from a shared schedule and issue it, so the offered load is
closed-loop (a worker never has more than one request outstanding —
what a fixed client fleet looks like).  :func:`run_loadgen_multi` is
the one driver: it drives several targets *concurrently* and reports
per-endpoint plus aggregate summaries (``ppm loadgen --connect a
--connect b``); :func:`run_loadgen` is its one-target case.

The schedule is built against a store whose stripes were damaged with
:func:`repro.stripes.failures.worst_case_sd` scenarios; reads that land
on an erased block exercise the full degraded path.  Responses are
verified bit-for-bit against the backend's ground truth (server-side
over the wire), so the summary's ``corrupt`` count turns any would-be
wrong answer into a loud failure.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

import numpy as np

from .errors import ServiceError
from .net import Client, LocalClient, as_client
from .store import BlobStore


def _block_index(target) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """``{stripe_id: (erased_ids, present_ids)}`` for any local target.

    Accepts a :class:`BlobStore`, a service wrapping one (``.store``),
    or a cluster of nodes (``.nodes`` of ``.store``-holders).
    """
    if isinstance(target, LocalClient):
        target = target.backend
    if hasattr(target, "nodes"):  # a cluster: union of live node stores
        stores = [
            node.store for node in target.nodes.values() if node.state != "dead"
        ]
    elif hasattr(target, "store"):  # a service
        stores = [target.store]
    else:  # a bare store
        stores = [target]
    index: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for store in stores:
        for sid in store.stripe_ids:
            stripe = store.stripe(sid)
            index[sid] = (tuple(stripe.erased_ids), tuple(stripe.present_ids))
    return index


def build_request_schedule(
    target: BlobStore | object,
    requests: int,
    seed: int = 2015,
    degraded_fraction: float = 0.5,
) -> list[tuple[str, int, int]]:
    """A reproducible list of ``(op, stripe_id, block)`` requests.

    ``target`` is a store, service or cluster (see :func:`_block_index`).
    ``degraded_fraction`` steers reads toward erased blocks (when the
    target has any); the rest are plain reads of present blocks.
    """
    rng = np.random.default_rng(seed)
    index = _block_index(target)
    if not index:
        raise ValueError("target has no stripes to generate load against")
    erased: list[tuple[int, int]] = []
    present: list[tuple[int, int]] = []
    for sid in sorted(index):
        erased_ids, present_ids = index[sid]
        erased.extend((sid, b) for b in erased_ids)
        present.extend((sid, b) for b in present_ids)
    schedule: list[tuple[str, int, int]] = []
    for _ in range(requests):
        pool = erased if (erased and rng.random() < degraded_fraction) else present
        sid, block = pool[int(rng.integers(0, len(pool)))]
        schedule.append(("get", sid, block))
    return schedule


async def _drive(
    client: Client,
    schedule: Sequence[tuple[str, int, int]],
    *,
    concurrency: int,
    deadline_s: float | None,
    verify: bool,
) -> tuple[dict, list[float]]:
    """Replay a schedule; returns (raw counters, client latencies)."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    for item in schedule:
        queue.put_nowait(item)
    completed = 0
    failed = 0
    corrupt = 0
    errors: dict[str, int] = {}
    latencies: list[float] = []

    async def worker() -> None:
        nonlocal completed, failed, corrupt
        while True:
            try:
                op, sid, block = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            degraded = op == "degraded_get"
            t0 = loop.time()
            try:
                if verify:
                    method = (
                        client.degraded_get_verified if degraded else client.get_verified
                    )
                    _region, ok = await method(sid, block, deadline_s)
                else:
                    method = client.degraded_get if degraded else client.get
                    await method(sid, block, deadline_s)
                    ok = True
            except ServiceError as exc:
                failed += 1
                name = type(exc).__name__
                errors[name] = errors.get(name, 0) + 1
                continue
            latencies.append(loop.time() - t0)
            completed += 1
            if not ok:
                corrupt += 1

    t_start = loop.time()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    wall = loop.time() - t_start
    counters = {
        "requests": len(schedule),
        "completed": completed,
        "failed": failed,
        "corrupt": corrupt,
        "errors": errors,
        "concurrency": concurrency,
        "wall_seconds": wall,
        "requests_per_sec": (completed / wall) if wall > 0 else 0.0,
    }
    return counters, latencies


def _latency_summary(latencies: Sequence[float]) -> dict:
    lat = np.array(sorted(latencies), dtype=np.float64)

    def pct(p: float) -> float:
        if lat.size == 0:
            return 0.0
        return float(lat[min(lat.size - 1, int(p / 100.0 * lat.size))])

    return {
        "p50_s": pct(50),
        "p90_s": pct(90),
        "p99_s": pct(99),
        "max_s": float(lat[-1]) if lat.size else 0.0,
        "mean_s": float(lat.mean()) if lat.size else 0.0,
    }


def _label(client: Client, index: int) -> str:
    named = client.backend if isinstance(client, LocalClient) else client
    return f"{type(named).__name__.lower()}-{index}"


async def run_loadgen_multi(
    targets: Sequence,
    schedules: Sequence[Sequence[tuple[str, int, int]]],
    *,
    concurrency: int = 16,
    deadline_s: float | None = None,
    verify: bool = True,
) -> dict:
    """Drive several targets *concurrently*, one schedule each.

    Each target is a service, a cluster, or a
    :class:`~repro.service.net.Client` (so one code path drives
    in-process and TCP backends alike).  Returns ``{"endpoints": {label:
    summary}, "aggregate": summary}``.  A summary separates
    ``completed`` / ``failed`` / ``corrupt`` and reports wall-clock
    throughput plus client-observed latency percentiles (measured here,
    independently of the server's own histograms); the aggregate's
    throughput is total completed requests over the shared wall clock
    (the endpoints ran side by side), with latency percentiles over the
    merged samples.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if len(targets) != len(schedules):
        raise ValueError(
            f"{len(targets)} target(s) but {len(schedules)} schedule(s)"
        )
    if not targets:
        raise ValueError("need at least one target")
    clients = [as_client(t) for t in targets]
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    results = await asyncio.gather(
        *(
            _drive(
                client,
                schedule,
                concurrency=concurrency,
                deadline_s=deadline_s,
                verify=verify,
            )
            for client, schedule in zip(clients, schedules)
        )
    )
    wall = loop.time() - t0
    endpoints: dict[str, dict] = {}
    all_latencies: list[float] = []
    totals = {"requests": 0, "completed": 0, "failed": 0, "corrupt": 0}
    agg_errors: dict[str, int] = {}
    for index, (client, (counters, latencies)) in enumerate(zip(clients, results)):
        counters["latency"] = _latency_summary(latencies)
        endpoints[_label(client, index)] = counters
        all_latencies.extend(latencies)
        for key in totals:
            totals[key] += counters[key]
        for name, count in counters["errors"].items():
            agg_errors[name] = agg_errors.get(name, 0) + count
    aggregate = dict(totals)
    aggregate["errors"] = agg_errors
    aggregate["concurrency"] = concurrency * len(targets)
    aggregate["wall_seconds"] = wall
    aggregate["requests_per_sec"] = (
        (totals["completed"] / wall) if wall > 0 else 0.0
    )
    aggregate["latency"] = _latency_summary(all_latencies)
    return {"endpoints": endpoints, "aggregate": aggregate}


async def run_loadgen(
    target,
    schedule: Sequence[tuple[str, int, int]],
    *,
    concurrency: int = 16,
    deadline_s: float | None = None,
    verify: bool = True,
) -> dict:
    """Replay ``schedule`` against one target: the one-endpoint case of
    :func:`run_loadgen_multi`, returning that endpoint's summary."""
    result = await run_loadgen_multi(
        [target], [schedule], concurrency=concurrency, deadline_s=deadline_s, verify=verify
    )
    (summary,) = result["endpoints"].values()
    return summary


def damage_store(
    store: BlobStore,
    fraction: float = 0.5,
    z: int = 1,
    seed: int = 2015,
) -> int:
    """Erase worst-case-SD scenarios on ``fraction`` of the stripes.

    Every damaged stripe gets the *same* scenario (one shared erasure
    pattern — the disk-loss shape that makes coalescing effective);
    returns the number of stripes damaged.
    """
    from ..stripes.failures import worst_case_sd

    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    scenario = worst_case_sd(store.code, z=z, rng=seed)
    rng = np.random.default_rng(seed)
    ids = list(store.stripe_ids)
    damaged = rng.choice(len(ids), size=int(round(fraction * len(ids))), replace=False)
    for index in damaged:
        store.apply_scenario(ids[int(index)], scenario)
    return int(damaged.size)


def corrupt_store(
    store: BlobStore,
    fraction: float = 0.01,
    blocks_per_stripe: int = 1,
    seed: int = 2015,
) -> int:
    """Silently corrupt present blocks on ``fraction`` of the stripes.

    The counterpart of :func:`damage_store` for *bit rot*: the chosen
    blocks stay present but hold wrong bytes, which only a syndrome
    scrub (:mod:`repro.repair`) can detect.  Fully-intact stripes are
    preferred so each corruption is locatable independently of any
    erasure damage; returns the number of stripes corrupted.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if blocks_per_stripe < 1:
        raise ValueError(
            f"blocks_per_stripe must be >= 1, got {blocks_per_stripe}"
        )
    rng = np.random.default_rng(seed)
    ids = list(store.stripe_ids)
    count = int(round(fraction * len(ids)))
    if not count:
        return 0
    intact = [sid for sid in ids if not store.stripe(sid).erased_ids]
    pool = intact if len(intact) >= count else ids
    chosen = rng.choice(len(pool), size=count, replace=False)
    for index in chosen:
        sid = pool[int(index)]
        present = list(store.stripe(sid).present_ids)
        picks = rng.choice(
            len(present), size=min(blocks_per_stripe, len(present)), replace=False
        )
        store.corrupt(sid, sorted(present[int(p)] for p in picks), rng=rng)
    return count
