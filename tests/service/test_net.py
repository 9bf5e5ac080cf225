"""The JSON-lines TCP wire: round-trips, error mapping, lifecycle."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.service import BlobService, ServiceConfig, connect, serve
from repro.service.errors import BlockUnavailableError, DeadlineExceeded, ServiceError

from .conftest import SYMBOLS, make_store


def run_with_server(code, store, body, config=None):
    """Start service + TCP server, run ``body(client)``, tear down."""
    config = config or ServiceConfig(batch_trigger=2, flush_interval_s=0.002)

    async def main():
        async with BlobService(store, config=config) as service:
            server = await serve(service, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            client = await connect(("127.0.0.1", port))
            try:
                return await body(client, service)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

    return asyncio.run(main())


def test_ping_get_put_metrics_roundtrip(code):
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def body(client, service):
        await client.ping()
        data = await client.get(0, 0)
        assert store.verify_block(0, 0, np.asarray(data, dtype=code.field.dtype))
        payload = list(range(SYMBOLS))
        await client.put(0, 0, payload)
        assert await client.get(0, 0) == payload
        metrics = await client.metrics()
        assert metrics["requests"]["gets"] == 2
        assert metrics["requests"]["puts"] == 1

    run_with_server(code, store, body)


def test_degraded_get_over_the_wire(code):
    store = make_store(code, num_stripes=1)
    block = store.pattern(0)[0]

    async def body(client, service):
        data = await client.degraded_get(0, block)
        assert store.verify_block(0, block, np.asarray(data, dtype=code.field.dtype))

    run_with_server(code, store, body)


def test_errors_map_back_to_typed_exceptions(code):
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def body(client, service):
        with pytest.raises(BlockUnavailableError):
            await client.get(99, 0)  # unknown stripe
        config = ServiceConfig(batch_trigger=100, flush_interval_s=30.0)
        service.config = config
        service.scheduler._config = config
        store.erase(0, [0])
        with pytest.raises(DeadlineExceeded):
            await client.degraded_get(0, 0, deadline_s=0.02)
        # the connection survives typed errors
        await client.ping()

    run_with_server(code, store, body)


async def raw_exchange(client, request) -> dict:
    """Send one JSON line over the client's socket; read one answer."""
    client._writer.write(json.dumps(request).encode() + b"\n")
    await client._writer.drain()
    line = await client._reader.readline()
    assert line, f"server dropped the connection on {request!r}"
    return json.loads(line)


BAD_REQUESTS = [
    {"op": "frobnicate"},
    {"op": "get", "stripe": "nope", "block": 0},
    [1, 2],  # JSON, but not an object
    {"op": "get", "stripe": 0, "block": 0, "deadline_s": "soon"},
    {"op": "put", "stripe": 0, "block": 999, "data": [0] * SYMBOLS},
    {"op": "put", "stripe": 0, "block": 0, "data": [300] * SYMBOLS},  # not a symbol
]


def test_bad_requests_are_rejected_not_fatal(code):
    """Well-formed JSON the backend cannot serve is answered as
    BadRequest, and the connection stays open for the next request."""
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def body(client, service):
        for request in BAD_REQUESTS:
            response = await raw_exchange(client, request)
            assert response["ok"] is False, request
            assert response["kind"] == "BadRequest", (request, response)
            await client.ping()  # still connected

    run_with_server(code, store, body)


def test_malformed_json_closes_the_connection(code):
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def body(client, service):
        host, port = client._writer.get_extra_info("peername")[:2]
        for garbage in (b"this is not json\n", b"\xff\xfe not utf-8\n"):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(garbage)
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["ok"] is False
            assert response["kind"] == "BadRequest"
            assert await reader.readline() == b""  # server hung up
            writer.close()
            await writer.wait_closed()

    run_with_server(code, store, body)


def test_concurrent_clients_coalesce_on_the_server(code):
    store = make_store(code, num_stripes=4)
    block = store.pattern(0)[0]
    config = ServiceConfig(batch_trigger=4, flush_interval_s=0.05)

    async def main():
        async with BlobService(store, config=config) as service:
            server = await serve(service, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            clients = [
                await connect(("127.0.0.1", port)) for _ in range(4)
            ]
            try:
                results = await asyncio.gather(
                    *(
                        client.degraded_get(sid, block)
                        for sid, client in enumerate(clients)
                    )
                )
                for sid, data in enumerate(results):
                    region = np.asarray(data, dtype=code.field.dtype)
                    assert store.verify_block(sid, block, region)
                assert service.metrics.flushes == 1  # all four fused
            finally:
                for client in clients:
                    await client.close()
                server.close()
                await server.wait_closed()

    asyncio.run(main())


def test_client_refuses_use_after_close(code):
    store = make_store(code, num_stripes=1, damaged=0.0)

    async def body(client, service):
        await client.close()
        with pytest.raises(ServiceError):
            await client.ping()

    run_with_server(code, store, body)
