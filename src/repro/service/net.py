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

There is one request path.  :func:`dispatch` is the only code that turns
a request dict into a backend call and an outcome into a response dict;
the TCP server runs it on every decoded line and :class:`LocalClient`
runs it in-process.  :class:`Client` implements ``ping / get /
get_verified / degraded_get / degraded_get_verified / put / metrics``
once over a transport's ``_call(request) -> response``, and turns an
``{"ok": false}`` response into the typed
:class:`~repro.service.errors.ServiceError` in one place — so every
transport answers the same request with the same bytes or the same
exception class.  Anything with the small backend protocol — ``get`` /
``put`` / ``degraded_get`` coroutines, ``metrics_dict``,
``verify_block``, ``dtype`` — can sit behind :func:`serve` and
:func:`connect`; :class:`BlobService` and ``Cluster`` both do.

The wire itself is deliberately tiny:

    -> {"op": "get", "stripe": 3, "block": 7, "deadline_s": 0.5}
    <- {"ok": true, "data": [1, 2, ...]}

    -> {"op": "get", "stripe": 3, "block": 7, "deadline_s": null, "verify": true}
    <- {"ok": true, "data": [...], "verified": false}

    -> {"op": "put", "stripe": 3, "block": 7, "data": [1, 2, ...]}
    <- {"ok": true}

    -> {"op": "metrics"}
    <- {"ok": true, "metrics": {...}}

Every request that parses as JSON gets an answer on an open connection:
errors come back as ``{"ok": false, "kind": "<ExceptionName>",
"error": "<message>"}``, and a request that is not an object, names an
unknown op, carries a non-numeric field or addresses a block the code
does not have is ``"kind": "BadRequest"`` (raised as a plain
:class:`ServiceError`).  Only a line that is not JSON closes the
connection.  Regions travel as JSON integer lists (field symbols),
which caps practical sector sizes but keeps the wire dependency-free;
in-process they stay ndarrays, and JSON encoding happens only where
bytes reach a socket.
"""

from __future__ import annotations

import asyncio
import json
import logging

import numpy as np

from . import errors as _errors
from .errors import ServiceError

logger = logging.getLogger(__name__)

_OPS = ("get", "degraded_get", "put", "metrics", "ping")

#: what a well-formed but invalid request raises on its way through the
#: backend (a non-numeric field, a missing key, a block the code does
#: not have, a short or out-of-range region): answered as ``BadRequest``
_BAD_REQUEST = (LookupError, TypeError, ValueError, ArithmeticError)


def _jsonable(value: object) -> object:
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


#: the one JSON encoder of the wire: regions leave as integer lists
_ENCODER = json.JSONEncoder(default=_jsonable)


def _encode(message: object) -> bytes:
    return _ENCODER.encode(message).encode() + b"\n"


def _error(kind: str, message: str) -> dict:
    return {"ok": False, "kind": kind, "error": message}


async def dispatch(backend, request: object) -> dict:
    """Answer one request against a backend; never raises.

    The only place an op becomes a backend call.  A
    :class:`ServiceError` comes back under its own class name, an
    invalid request as ``BadRequest``, and anything else under its class
    name too (a client raises a plain :class:`ServiceError` for a kind
    it does not know).  A read's region stays the backend's ndarray.
    """
    try:
        if not isinstance(request, dict):
            raise TypeError(f"a request is a JSON object, got {type(request).__name__}")
        op = request.get("op")
        if op not in _OPS:
            raise ValueError(f"unknown op {op!r}")
        if op == "ping":
            return {"ok": True}
        if op == "metrics":
            return {"ok": True, "metrics": backend.metrics_dict()}
        stripe_id = int(request["stripe"])
        block = int(request["block"])
        deadline = request.get("deadline_s")
        deadline_s = None if deadline is None else float(deadline)
        if op == "put":
            data = np.asarray(request["data"], dtype=backend.dtype)
            await backend.put(stripe_id, block, data)
            return {"ok": True}
        read = backend.get if op == "get" else backend.degraded_get
        region = await read(stripe_id, block, deadline_s=deadline_s)
        response = {"ok": True, "data": region}
        if request.get("verify"):
            # server-side bit-verification against the backend's ground
            # truth: lets a remote load generator count real corruption
            # instead of assuming every completed response is correct
            response["verified"] = bool(backend.verify_block(stripe_id, block, region))
        return response
    except ServiceError as exc:
        return _error(type(exc).__name__, str(exc))
    except _BAD_REQUEST as exc:
        return _error("BadRequest", f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        # a backend failure that is neither (a dying pool's RuntimeError):
        # answer it, keep serving, and keep the traceback
        logger.exception("backend failed a %s request", op)
        return _error(type(exc).__name__, str(exc))


async def _serve_connection(
    backend,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while line := await reader.readline():
            try:
                request = json.loads(line)
            except ValueError:  # not JSON (or not UTF-8): the one fatal input
                writer.write(_encode(_error("BadRequest", "invalid JSON")))
                await writer.drain()
                break
            writer.write(_encode(await dispatch(backend, request)))
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


def _error_class(kind: object) -> type[ServiceError]:
    """A response's ``kind`` → the typed error a client raises."""
    exc_type = getattr(_errors, str(kind), None)
    if isinstance(exc_type, type) and issubclass(exc_type, ServiceError):
        return exc_type
    return ServiceError


class Client:
    """The unified async client interface every backend is reached by.

    A transport supplies ``_call(request) -> response`` (and ``close``
    when it holds a resource); everything else lives here.  Transports:
    :class:`TcpClient` (one wire connection), :class:`LocalClient`
    (in-process backend), :class:`ClientPool` (several wire connections
    behind one facade).  Regions are returned as sequences of field
    symbols — JSON integer lists over TCP, numpy arrays in-process;
    callers that need arrays should ``np.asarray`` the result.
    """

    async def _call(self, request: dict) -> dict:
        raise NotImplementedError

    async def close(self) -> None:
        """Release the transport; the backend behind it stays up."""

    async def _roundtrip(self, op: str, **fields) -> dict:
        response = await self._call({"op": op, **fields})
        if not response.get("ok"):
            kind = _error_class(response.get("kind"))
            raise kind(response.get("error", "request failed"))
        return response

    async def ping(self) -> None:
        await self._roundtrip("ping")

    async def get(self, stripe_id: int, block: int, deadline_s: float | None = None):
        response = await self._roundtrip(
            "get", stripe=stripe_id, block=block, deadline_s=deadline_s
        )
        return response["data"]

    async def get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        """Read one block plus the server's ground-truth verdict.

        Returns ``(data, verified)``; ``verified`` is False when the
        served bytes do not match the backend's ground truth — the
        signal a load generator needs to count real corruption.
        """
        response = await self._roundtrip(
            "get", stripe=stripe_id, block=block, deadline_s=deadline_s, verify=True
        )
        return response["data"], bool(response.get("verified", False))

    async def degraded_get(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        response = await self._roundtrip(
            "degraded_get", stripe=stripe_id, block=block, deadline_s=deadline_s
        )
        return response["data"]

    async def degraded_get_verified(
        self, stripe_id: int, block: int, deadline_s: float | None = None
    ):
        """:meth:`get_verified` for the explicit degraded path."""
        response = await self._roundtrip(
            "degraded_get",
            stripe=stripe_id,
            block=block,
            deadline_s=deadline_s,
            verify=True,
        )
        return response["data"], bool(response.get("verified", False))

    async def put(self, stripe_id: int, block: int, data) -> None:
        await self._roundtrip("put", stripe=stripe_id, block=block, data=data)

    async def metrics(self) -> dict:
        return (await self._roundtrip("metrics"))["metrics"]

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

    async def _call(self, request: dict) -> dict:
        if self._reader is None or self._writer is None:
            raise _errors.ServiceClosedError("client is not connected")
        self._writer.write(_encode(request))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise _errors.ServiceClosedError("server closed the connection")
        return json.loads(line)

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

    async def _call(self, request: dict) -> dict:
        return await dispatch(self.backend, request)


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

    async def _call(self, request: dict) -> dict:
        client = await self._idle.get()
        try:
            return await client._call(request)
        finally:
            self._idle.put_nowait(client)

    async def close(self) -> None:
        for client in self._clients:
            await client.close()


def as_client(target) -> Client:
    """The one backend-to-client rule: a :class:`Client` passes
    through, an in-process backend gets a :class:`LocalClient`."""
    if isinstance(target, Client):
        return target
    if hasattr(target, "degraded_get") and hasattr(target, "metrics_dict"):
        return LocalClient(target)
    raise TypeError(
        f"cannot connect to {type(target).__name__}: expected an endpoint "
        "string/tuple, a backend object, or a Client"
    )


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
    if isinstance(target, (str, tuple)):
        if connections > 1:
            return await ClientPool.open(target, connections)
        return await TcpClient.open(target)
    return as_client(target)
