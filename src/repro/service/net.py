"""The wire and the one way to reach any backend: ``connect()``.

A minimal TCP protocol — JSON objects, one per line — plus a unified
client facade.  ``ppm serve`` exposes a single :class:`BlobService`;
``ppm cluster`` exposes a whole :class:`~repro.cluster.Cluster` router
on the *same* protocol (the router also speaks it node-to-node), and
callers are not supposed to care which they reached:

    client = await connect("127.0.0.1:4711")      # TCP, either kind
    client = await connect(service)               # in-process service
    client = await connect(cluster)               # in-process cluster
    region = await client.degraded_get(3, 7)
    await client.close()

Every target yields the same ``ping / get / get_verified /
degraded_get / put / metrics / close`` interface
(:class:`Client`).  Anything with the small backend protocol —
``get`` / ``put`` / ``degraded_get`` coroutines, ``metrics_dict``,
``verify_block``, ``dtype`` — can sit behind :func:`serve` and
:func:`connect`; :class:`BlobService` and ``Cluster`` both do.

The wire itself is unchanged from PR 4 and deliberately tiny:

    -> {"op": "get", "stripe": 3, "block": 7, "deadline_s": 0.5}
    <- {"ok": true, "data": [1, 2, ...]}

    -> {"op": "get", "stripe": 3, "block": 7, "verify": true}
    <- {"ok": true, "data": [...], "verified": false}

    -> {"op": "put", "stripe": 3, "block": 7, "data": [1, 2, ...]}
    <- {"ok": true}

    -> {"op": "metrics"}
    <- {"ok": true, "metrics": {...}}

Errors come back as ``{"ok": false, "kind": "<ExceptionName>",
"error": "<message>"}`` with the connection kept open; only a malformed
line closes it.  Regions travel as JSON integer lists (field symbols),
which caps practical sector sizes but keeps the wire dependency-free.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from . import errors as _errors
from .errors import ServiceError

_OPS = ("get", "degraded_get", "put", "metrics", "ping")


def _encode_region(region: np.ndarray) -> list[int]:
    return [int(x) for x in region]


async def _handle_request(service, request: dict) -> dict:
    op = request.get("op")
    if op not in _OPS:
        return {"ok": False, "kind": "BadRequest", "error": f"unknown op {op!r}"}
    if op == "ping":
        return {"ok": True}
    if op == "metrics":
        return {"ok": True, "metrics": service.metrics_dict()}
    try:
        stripe_id = int(request["stripe"])
        block = int(request["block"])
    except (KeyError, TypeError, ValueError) as exc:
        return {"ok": False, "kind": "BadRequest", "error": f"bad stripe/block: {exc}"}
    deadline = request.get("deadline_s")
    deadline_s = float(deadline) if deadline is not None else None
    try:
        if op == "put":
            data = np.asarray(request["data"], dtype=service.dtype)
            await service.put(stripe_id, block, data)
            return {"ok": True}
        if op == "get":
            region = await service.get(stripe_id, block, deadline_s=deadline_s)
        else:
            region = await service.degraded_get(
                stripe_id, block, deadline_s=deadline_s
            )
        response = {"ok": True, "data": _encode_region(region)}
        if request.get("verify"):
            # server-side bit-verification against the backend's ground
            # truth: lets a remote load generator count real corruption
            # instead of assuming every completed response is correct
            response["verified"] = service.verify_block(stripe_id, block, region)
        return response
    except ServiceError as exc:
        return {"ok": False, "kind": type(exc).__name__, "error": str(exc)}
    except (KeyError, TypeError, ValueError) as exc:
        return {"ok": False, "kind": "BadRequest", "error": str(exc)}


async def _serve_connection(
    service,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                request = json.loads(line)
            except json.JSONDecodeError:
                writer.write(
                    json.dumps(
                        {"ok": False, "kind": "BadRequest", "error": "invalid JSON"}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                break
            response = await _handle_request(service, request)
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass  # client vanished mid-request; nothing to clean up
    except asyncio.CancelledError:
        pass  # server shutdown cancelled this handler mid-read
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass


async def serve(
    service, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Start the TCP front-end over any backend; returns the server.

    ``service`` is anything with the backend protocol (a
    :class:`BlobService` or a :class:`~repro.cluster.Cluster`).
    ``port=0`` picks a free port — read it back from
    ``server.sockets[0].getsockname()[1]``.
    """

    async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        await _serve_connection(service, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)


def parse_endpoint(endpoint: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` (host optional) or ``(host, port)`` → normalized."""
    if isinstance(endpoint, tuple):
        host, port = endpoint
        return host or "127.0.0.1", int(port)
    host, _, port = str(endpoint).rpartition(":")
    if not port:
        raise ValueError(f"endpoint needs a port: {endpoint!r}")
    return host or "127.0.0.1", int(port)


class Client:
    """The unified async client interface every backend is reached by.

    Concrete transports: :class:`TcpClient` (one wire connection),
    :class:`LocalClient` (in-process backend), :class:`ClientPool`
    (several wire connections behind one facade).  Regions are returned
    as sequences of field symbols — JSON integer lists over TCP, numpy
    arrays in-process; callers that need arrays should ``np.asarray``
    the result.
    """

    async def ping(self) -> None:
        raise NotImplementedError

    async def get(self, stripe_id: int, block: int, deadline_s: float | None = None):
        raise NotImplementedError

    async def get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        """Read one block plus the server's ground-truth verdict.

        Returns ``(data, verified)``; ``verified`` is False when the
        served bytes do not match the backend's ground truth — the
        signal a load generator needs to count real corruption.
        """
        raise NotImplementedError

    async def degraded_get(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        raise NotImplementedError

    async def degraded_get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        """:meth:`get_verified` for the explicit degraded path."""
        raise NotImplementedError

    async def put(self, stripe_id: int, block: int, data) -> None:
        raise NotImplementedError

    async def metrics(self) -> dict:
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError

    async def __aenter__(self) -> "Client":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class TcpClient(Client):
    """One JSON-lines connection (one request in flight at a time)."""

    def __init__(self) -> None:
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    @classmethod
    async def open(cls, endpoint: str | tuple[str, int]) -> "TcpClient":
        host, port = parse_endpoint(endpoint)
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(host, port)
        return client

    async def _roundtrip(self, request: dict) -> dict:
        if self._reader is None or self._writer is None:
            raise _errors.ServiceClosedError("client is not connected")
        self._writer.write(json.dumps(request).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise _errors.ServiceClosedError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            kind = response.get("kind", "ServiceError")
            exc_type = getattr(_errors, kind, ServiceError)
            if not (isinstance(exc_type, type) and issubclass(exc_type, ServiceError)):
                exc_type = ServiceError
            raise exc_type(response.get("error", "request failed"))
        return response

    async def ping(self) -> None:
        await self._roundtrip({"op": "ping"})

    async def get(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ) -> list[int]:
        response = await self._roundtrip(
            {"op": "get", "stripe": stripe_id, "block": block, "deadline_s": deadline_s}
        )
        return response["data"]

    async def get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ) -> tuple[list[int], bool]:
        response = await self._roundtrip(
            {
                "op": "get",
                "stripe": stripe_id,
                "block": block,
                "deadline_s": deadline_s,
                "verify": True,
            }
        )
        return response["data"], bool(response.get("verified", False))

    async def degraded_get(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ) -> list[int]:
        response = await self._roundtrip(
            {
                "op": "degraded_get",
                "stripe": stripe_id,
                "block": block,
                "deadline_s": deadline_s,
            }
        )
        return response["data"]

    async def degraded_get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ) -> tuple[list[int], bool]:
        response = await self._roundtrip(
            {
                "op": "degraded_get",
                "stripe": stripe_id,
                "block": block,
                "deadline_s": deadline_s,
                "verify": True,
            }
        )
        return response["data"], bool(response.get("verified", False))

    async def put(self, stripe_id: int, block: int, data) -> None:
        # int() each symbol: numpy scalars are not JSON-serializable
        await self._roundtrip(
            {
                "op": "put",
                "stripe": stripe_id,
                "block": block,
                "data": [int(x) for x in data],
            }
        )

    async def metrics(self) -> dict:
        response = await self._roundtrip({"op": "metrics"})
        return response["metrics"]

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None


class LocalClient(Client):
    """In-process facade over a backend (service or cluster).

    Closing the client does *not* close the backend — the caller that
    built the backend owns its lifecycle, exactly as with a TCP server.
    """

    def __init__(self, backend) -> None:
        self.backend = backend

    async def ping(self) -> None:
        return None

    async def get(self, stripe_id: int, block: int, deadline_s: float | None = None):
        return await self.backend.get(stripe_id, block, deadline_s=deadline_s)

    async def get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        region = await self.backend.get(stripe_id, block, deadline_s=deadline_s)
        return region, bool(self.backend.verify_block(stripe_id, block, region))

    async def degraded_get(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        return await self.backend.degraded_get(
            stripe_id, block, deadline_s=deadline_s
        )

    async def degraded_get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        region = await self.backend.degraded_get(
            stripe_id, block, deadline_s=deadline_s
        )
        return region, bool(self.backend.verify_block(stripe_id, block, region))

    async def put(self, stripe_id: int, block: int, data) -> None:
        region = np.asarray(data, dtype=self.backend.dtype)
        await self.backend.put(stripe_id, block, region)

    async def metrics(self) -> dict:
        return self.backend.metrics_dict()

    async def close(self) -> None:
        return None


class ClientPool(Client):
    """``connections`` TCP clients behind the one-client interface.

    A single :class:`TcpClient` allows one request in flight; the pool
    checks a connection out per call, so ``concurrency`` callers drive
    one endpoint without serializing on a single socket.  This is what
    the cluster router uses per node and what a concurrent load
    generator gets from ``connect(endpoint, connections=N)``.
    """

    def __init__(self, clients: list[TcpClient]):
        if not clients:
            raise ValueError("pool needs at least one client")
        self._clients = list(clients)
        self._idle: asyncio.Queue[TcpClient] = asyncio.Queue()
        for client in self._clients:
            self._idle.put_nowait(client)

    @classmethod
    async def open(
        cls, endpoint: str | tuple[str, int], connections: int
    ) -> "ClientPool":
        clients = [await TcpClient.open(endpoint) for _ in range(connections)]
        return cls(clients)

    async def _call(self, method: str, *args):
        client = await self._idle.get()
        try:
            return await getattr(client, method)(*args)
        finally:
            self._idle.put_nowait(client)

    async def ping(self) -> None:
        await self._call("ping")

    async def get(self, stripe_id: int, block: int, deadline_s: float | None = None):
        return await self._call("get", stripe_id, block, deadline_s)

    async def get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        return await self._call("get_verified", stripe_id, block, deadline_s)

    async def degraded_get(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        return await self._call("degraded_get", stripe_id, block, deadline_s)

    async def degraded_get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        return await self._call("degraded_get_verified", stripe_id, block, deadline_s)

    async def put(self, stripe_id: int, block: int, data) -> None:
        await self._call("put", stripe_id, block, data)

    async def metrics(self) -> dict:
        return await self._call("metrics")

    async def close(self) -> None:
        for client in self._clients:
            await client.close()


async def connect(
    target, *, connections: int = 1
) -> Client:
    """The one entry point: reach any backend, local or remote.

    - ``"host:port"`` / ``(host, port)`` → a :class:`TcpClient`
      (or a :class:`ClientPool` when ``connections > 1``);
    - an in-process backend (:class:`BlobService`,
      :class:`~repro.cluster.Cluster`, a cluster's node) → a
      :class:`LocalClient` wrapping it;
    - an existing :class:`Client` → returned as-is.
    """
    if isinstance(target, Client):
        return target
    if isinstance(target, (str, tuple)):
        if connections > 1:
            return await ClientPool.open(target, connections)
        return await TcpClient.open(target)
    if hasattr(target, "degraded_get") and hasattr(target, "metrics_dict"):
        return LocalClient(target)
    raise TypeError(
        f"cannot connect to {type(target).__name__}: expected an endpoint "
        "string/tuple, a backend object, or a Client"
    )
