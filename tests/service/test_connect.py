"""connect(): one entry point to any backend, and multi-endpoint load.

Covers the unified client facade (endpoint string/tuple → TCP, backend
→ LocalClient, Client → pass-through, junk → TypeError), the verified
read paths every transport shares, transport parity (every transport
answers the same requests with the same bytes or the same exception
class), and ``run_loadgen_multi`` fanning one seeded workload across
several endpoints concurrently.
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.service import (
    BlobService,
    BlockUnavailableError,
    ClientPool,
    LocalClient,
    ServiceConfig,
    ServiceError,
    TcpClient,
    build_request_schedule,
    connect,
    damage_store,
    run_loadgen_multi,
    serve,
)

from .conftest import SYMBOLS, make_store


def fast_config() -> ServiceConfig:
    return ServiceConfig(
        batch_trigger=4, flush_interval_s=0.002, backoff_base_s=0.0001
    )


def test_connect_type_dispatch(code):
    async def run():
        service = BlobService(make_store(code), config=fast_config())
        async with service:
            local = await connect(service)
            assert isinstance(local, LocalClient)
            assert local.backend is service
            assert await connect(local) is local  # Client passes through

            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                tcp = await connect(f"127.0.0.1:{port}")
                assert isinstance(tcp, TcpClient)
                await tcp.ping()
                await tcp.close()
                pooled = await connect(("127.0.0.1", port), connections=3)
                assert isinstance(pooled, ClientPool)
                await pooled.ping()
                await pooled.close()
            finally:
                server.close()
                await server.wait_closed()
        with pytest.raises(TypeError, match="cannot connect"):
            await connect(42)

    asyncio.run(run())


def test_verified_reads_local_and_wire(code):
    """get_verified/degraded_get_verified agree across transports."""

    async def run():
        service = BlobService(make_store(code), config=fast_config())
        async with service:
            sid = service.store.stripe_ids[0]
            stripe = service.store.stripe(sid)
            present, erased = stripe.present_ids[0], stripe.erased_ids[0]

            local = await connect(service)
            data, ok = await local.get_verified(sid, present)
            assert ok
            data, ok = await local.degraded_get_verified(sid, erased, 5.0)
            assert ok

            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                remote = await connect(f"127.0.0.1:{port}", connections=2)
                data, ok = await remote.get_verified(sid, present)
                assert ok
                data, ok = await remote.degraded_get_verified(sid, erased, 5.0)
                assert ok
                # verification is server-side: tamper with the stored
                # block and the verdict flips without the client knowing
                truth = service.store.truth(sid).get(present)
                stripe.put(present, truth * 0 + (truth + 1) % 251)
                _, ok = await remote.get_verified(sid, present)
                assert not ok
                await remote.close()
            finally:
                server.close()
                await server.wait_closed()

    asyncio.run(run())


@contextlib.asynccontextmanager
async def open_transport(code, transport: str):
    """A started backend holding ``make_store(code)``'s stripes, and the
    client ``transport`` reaches it by."""
    if transport.startswith("cluster-"):
        config = ClusterConfig(
            nodes=2, seed=7, transport=transport.removeprefix("cluster-"),
            connections_per_node=2,
        )
        backend = Cluster.build(code, 4, SYMBOLS, config, rng=7, service=fast_config())
        for node in backend.nodes.values():
            damage_store(node.store, fraction=1.0, seed=7)
    else:
        backend = BlobService(make_store(code), config=fast_config())
    async with backend:
        if transport not in ("tcp", "pool"):
            yield await connect(backend)
            return
        server = await serve(backend, port=0)
        port = server.sockets[0].getsockname()[1]
        client = await connect(
            ("127.0.0.1", port), connections=2 if transport == "pool" else 1
        )
        try:
            yield client
        finally:
            await client.close()
            server.close()
            await server.wait_closed()


@pytest.mark.parametrize(
    "transport", ["local", "tcp", "pool", "cluster-local", "cluster-tcp"]
)
def test_transports_answer_alike(code, transport):
    """The same requests give the same bytes, or the same exception
    class, whichever transport and backend carry them."""
    reference = make_store(code)  # what every backend above holds
    stripe = reference.stripe(0)
    present, erased = stripe.present_ids[0], stripe.erased_ids[0]
    truth = reference.truth(0)
    dtype = code.field.dtype

    def as_bytes(data) -> bytes:
        return np.asarray(data, dtype=dtype).tobytes()

    async def run():
        async with open_transport(code, transport) as client:
            requests = [
                lambda: client.get(0, present),
                lambda: client.degraded_get(0, erased, 5.0),
                lambda: client.get_verified(0, erased, 5.0),
                lambda: client.put(0, present, [1, 2, 3]),  # short region
                lambda: client.put(0, 999, [0] * SYMBOLS),  # no such block
                lambda: client.get(99, 0),  # no such stripe
            ]
            outcomes = []
            for request in requests:
                try:
                    outcomes.append(await request())
                except Exception as exc:  # the class is the outcome
                    outcomes.append(type(exc))
            return outcomes

    got = asyncio.run(run())
    data, verified = got[2]
    assert [as_bytes(got[0]), as_bytes(got[1]), as_bytes(data), verified] == [
        truth.get(present).tobytes(),
        truth.get(erased).tobytes(),
        truth.get(erased).tobytes(),
        True,
    ]
    assert got[3:] == [ServiceError, ServiceError, BlockUnavailableError]


def test_run_loadgen_multi_aggregates(code):
    """Two backends driven concurrently: per-endpoint + aggregate."""

    async def run():
        services = [
            BlobService(make_store(code, seed=seed), config=fast_config())
            for seed in (5, 6)
        ]
        async with services[0], services[1]:
            clients = [await connect(s) for s in services]
            schedules = [
                build_request_schedule(s, 20, seed=1, degraded_fraction=0.5)
                for s in services
            ]
            result = await run_loadgen_multi(
                clients, schedules, concurrency=4, verify=True
            )
        assert set(result) == {"endpoints", "aggregate"}
        assert len(result["endpoints"]) == 2
        for summary in result["endpoints"].values():
            assert summary["completed"] == 20
            assert summary["failed"] == 0
            assert summary["corrupt"] == 0
        agg = result["aggregate"]
        assert agg["requests"] == 40
        assert agg["completed"] == 40
        assert agg["corrupt"] == 0
        assert agg["requests_per_sec"] > 0
        assert agg["latency"]["p99_s"] >= agg["latency"]["p50_s"]

    asyncio.run(run())


def test_run_loadgen_multi_validates_lengths(code):
    async def run():
        service = BlobService(make_store(code), config=fast_config())
        async with service:
            client = await connect(service)
            with pytest.raises(ValueError):
                await run_loadgen_multi([client], [[], []], concurrency=1)

    asyncio.run(run())
