"""The router: N storage nodes behind one get/put/degraded_get facade.

:class:`Cluster` owns a set of :class:`~repro.cluster.node.StorageNode`\\ s
and a :class:`~repro.cluster.placement.HashRing`, routes every request
to the stripe's home node, and implements the same backend protocol as
:class:`~repro.service.BlobService` — so ``repro.service.net.serve``
exposes a cluster on the JSON-lines wire, ``connect()`` reaches it, and
the load generator cannot tell one node from twenty.  The router itself
reaches every node through a :class:`~repro.service.net.Client` — a
:class:`~repro.service.net.LocalClient` over the node's service, or a
:class:`~repro.service.net.ClientPool` over the node's wire server under
``transport="tcp"`` — so a node answers the router exactly as it would
answer any other client.

Membership is explicit and asynchronous:

- :meth:`add_node` — join: the ring gains the node and ~1/N of the
  stripes migrate to it (whole stripe + its ground truth), metered by
  the rebalance :class:`~repro.repair.ratelimit.TokenBucket`;
- :meth:`drain_node` — graceful leave: the node leaves the ring, keeps
  serving reads while its stripes migrate away, then sits empty;
- :meth:`kill_node` — whole-node death: the node's stripes re-home to
  survivors *with a disk-loss-shaped erasure applied* (the blocks only
  the dead node held; the surviving blocks' transfer is the metered
  rebalance traffic), and each survivor's background
  :class:`~repro.repair.RepairManager` discovers and rebuilds them at
  ``priority="background"`` — the rebuild storm the pipeline's
  admission gate was built for.  See ``docs/CLUSTER.md`` for the
  simulation contract.

Requests racing a migration are retried once against the stripe's new
home (placement is re-read after a
:class:`~repro.service.errors.BlockUnavailableError` or a dead-node
:class:`~repro.service.errors.NodeFault`), so a rebalance in flight
costs latency, never correctness.
"""

from __future__ import annotations

import asyncio
from typing import Mapping

import numpy as np

from ..codes.base import ErasureCode
from ..config import ClusterConfig, PipelineConfig, ServiceConfig
from ..repair.ratelimit import TokenBucket
from ..service.errors import BlockUnavailableError, NodeFault, ServiceClosedError
from ..service.net import Client, ClientPool, LocalClient, serve
from ..service.store import BlobStore, FaultInjector
from ..stripes.failures import worst_case_sd
from ..stripes.store import Stripe
from .metrics import ClusterMetrics
from .node import StorageNode
from .placement import HashRing, default_node_ids


class Cluster:
    """Sharded multi-node frontend over per-node ``BlobService`` stacks.

    Parameters
    ----------
    code:
        The erasure code every stripe is encoded with.
    config:
        Declarative cluster shape (:class:`~repro.config.ClusterConfig`).
    stores:
        Pre-populated per-node stores keyed by node id (tests,
        migrations); when omitted the cluster starts empty — use
        :meth:`build` for the common seeded case.
    service:
        The :class:`~repro.config.ServiceConfig` every node serves with
        (``AppConfig.service``; defaults apply when omitted).
    pipeline:
        The :class:`~repro.config.PipelineConfig` every node's decode
        pipeline is built from (``AppConfig.pipeline``; defaults apply
        when omitted).
    """

    def __init__(
        self,
        code: ErasureCode,
        config: ClusterConfig | None = None,
        *,
        stores: Mapping[str, BlobStore] | None = None,
        service: ServiceConfig | None = None,
        pipeline: PipelineConfig | None = None,
    ):
        self.code = code
        self.config = config if config is not None else ClusterConfig()
        self._service_config = service if service is not None else ServiceConfig()
        self._pipeline_config = pipeline if pipeline is not None else PipelineConfig()
        node_ids = default_node_ids(self.config.nodes)
        self.ring = HashRing(node_ids, vnodes=self.config.vnodes, seed=self.config.seed)
        self.metrics = ClusterMetrics(self.config.transport)
        self.bucket = TokenBucket(
            self.config.rebalance_blocks_per_s, self.config.rebalance_burst_blocks
        )
        self.nodes: dict[str, StorageNode] = {}
        #: how the router reaches each node: a LocalClient over its
        #: service, swapped for a ClientPool when a tcp node starts
        self._clients: dict[str, Client] = {}
        #: authoritative stripe → node id map (the ring proposes,
        #: migrations commit); routing reads this, never the ring
        self._placement: dict[int, str] = {}
        self._sector_symbols: int | None = None
        self._fault_rate = 0.0
        self._fault_seed = self.config.seed
        self._next_index = self.config.nodes
        self._started = False
        self._closed = False
        for node_id in node_ids:
            store = (stores or {}).get(node_id)
            if store is None:
                store = BlobStore(code, sector_symbols=0)
            self._attach(node_id, store)

    def _attach(self, node_id: str, store: BlobStore) -> StorageNode:
        node = StorageNode(
            node_id,
            store,
            service=self._service_config,
            pipeline=self._pipeline_config.build(),
        )
        self.nodes[node_id] = node
        self._clients[node_id] = LocalClient(node.service)
        for sid in store.stripe_ids:
            self._placement[sid] = node_id
        if store.sector_symbols:
            self._sector_symbols = store.sector_symbols
        return node

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        code: ErasureCode,
        num_stripes: int,
        sector_symbols: int,
        config: ClusterConfig | None = None,
        *,
        fault_rate: float = 0.0,
        rng: np.random.Generator | int | None = None,
        service: ServiceConfig | None = None,
        pipeline: PipelineConfig | None = None,
    ) -> "Cluster":
        """Seeded cluster of ``num_stripes`` encoded stripes, placed by
        the ring across per-node stores (each with its own seeded
        fault injector)."""
        from ..core import TraditionalDecoder
        from ..stripes.layout import StripeLayout

        config = config if config is not None else ClusterConfig()
        seed = config.seed if rng is None else rng
        base = seed if isinstance(seed, int) else config.seed
        stores = {
            node_id: BlobStore(
                code,
                sector_symbols,
                faults=FaultInjector(fault_rate, rng=base + i),
            )
            for i, node_id in enumerate(default_node_ids(config.nodes))
        }
        cluster = cls(code, config, stores=stores, service=service, pipeline=pipeline)
        cluster._sector_symbols = sector_symbols
        cluster._fault_rate = fault_rate
        layout = StripeLayout.of_code(code)
        encoder = TraditionalDecoder()
        stripe_rng = np.random.default_rng(seed)
        stripes = [
            Stripe.random(layout, code.field, sector_symbols, stripe_rng)
            for _ in range(num_stripes)
        ]
        # one fused batched encode instead of num_stripes naive calls
        encoder.encode_into_batch(code, stripes)
        for stripe_id, stripe in enumerate(stripes):
            home = cluster.ring.place(stripe_id)
            stores[home].add_stripe(stripe_id, stripe)
            cluster._placement[stripe_id] = home
        return cluster

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring every node up: wire servers/pools (tcp) + repair loops."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            await self._open_node(node)

    async def _open_node(self, node: StorageNode) -> None:
        if self.config.transport == "tcp":
            node.server = await serve(node.service, host="127.0.0.1", port=0)
            node.address = node.server.sockets[0].getsockname()[:2]
            self._clients[node.node_id] = await ClientPool.open(
                node.address, self.config.connections_per_node
            )
        node.start_repair()

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for client in self._clients.values():
            await client.close()
        self._clients.clear()
        for node in self.nodes.values():
            if node.state != "dead":
                await node.close()

    async def __aenter__(self) -> "Cluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- routing -------------------------------------------------------------

    @property
    def stripe_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._placement))

    def owner_of(self, stripe_id: int) -> str:
        """Node id currently holding ``stripe_id``."""
        try:
            return self._placement[stripe_id]
        except KeyError:
            raise BlockUnavailableError(f"no stripe {stripe_id}") from None

    def _owner(self, stripe_id: int) -> StorageNode:
        if self._closed:
            raise ServiceClosedError("cluster is closed")
        node = self.nodes[self.owner_of(stripe_id)]
        if node.state == "dead":
            raise NodeFault(
                f"node {node.node_id} is dead; stripe {stripe_id} awaiting rebuild"
            )
        return node

    async def _route(self, stripe_id: int, call):
        """Run ``call(client)`` against the owner's client, retrying
        once if the stripe migrated (or its node died) mid-flight."""
        for attempt in (0, 1):
            node = self._owner(stripe_id)
            self.metrics.route(node.node_id)
            try:
                return await call(self._clients[node.node_id])
            except (BlockUnavailableError, NodeFault, ServiceClosedError):
                # the stripe may have moved (rebalance/storm) between
                # placement lookup and the node-side read; re-resolve
                if attempt or self._placement.get(stripe_id) == node.node_id:
                    raise
        raise AssertionError("unreachable: retry loop returns or raises")

    async def get(
        self, stripe_id: int, block: int, *, deadline_s: float | None = None
    ) -> np.ndarray:
        data = await self._route(
            stripe_id, lambda client: client.get(stripe_id, block, deadline_s)
        )
        return np.asarray(data, dtype=self.dtype)

    async def degraded_get(
        self, stripe_id: int, block: int, *, deadline_s: float | None = None
    ) -> np.ndarray:
        data = await self._route(
            stripe_id, lambda client: client.degraded_get(stripe_id, block, deadline_s)
        )
        return np.asarray(data, dtype=self.dtype)

    async def put(self, stripe_id: int, block: int, region: np.ndarray) -> None:
        await self._route(stripe_id, lambda client: client.put(stripe_id, block, region))

    # -- backend protocol ----------------------------------------------------

    @property
    def dtype(self):
        return self.code.field.dtype

    def verify_block(self, stripe_id: int, block: int, region) -> bool:
        """Ground-truth check against the owning node's store."""
        node = self.nodes[self.owner_of(stripe_id)]
        return node.store.verify_block(stripe_id, block, region)

    # -- membership ----------------------------------------------------------

    def _serving_nodes(self) -> list[StorageNode]:
        return [n for n in self.nodes.values() if n.serving]

    async def add_node(self, node_id: str | None = None) -> str:
        """Join a fresh empty node and rebalance ~1/N stripes onto it."""
        if node_id is None:
            node_id = f"node-{self._next_index}"
            self._next_index += 1
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        store = BlobStore(
            self.code,
            self._sector_symbols or 0,
            faults=FaultInjector(
                self._fault_rate, rng=self._fault_seed + self._next_index
            ),
        )
        node = self._attach(node_id, store)
        self.ring.add(node_id)
        if self._started:
            await self._open_node(node)
        moved = [
            sid
            for sid in self.stripe_ids
            if self.ring.place(sid) == node_id and self._placement[sid] != node_id
        ]
        await self._migrate(moved, to=node_id)
        return node_id

    async def drain_node(self, node_id: str) -> int:
        """Gracefully empty a node: off the ring, reads keep working
        while its stripes migrate to ring-chosen survivors."""
        node = self.nodes[node_id]
        node.set_state("draining")
        if node_id in self.ring:
            self.ring.remove(node_id)
        moved = list(node.store.stripe_ids)
        await self._migrate(moved, to=None)
        node.set_state("drained")
        return len(moved)

    async def _migrate(self, stripe_ids, *, to: str | None) -> None:
        """Move whole stripes (data + truth), metered by the bucket."""
        if not stripe_ids:
            return
        self.metrics.rebalances += 1
        for sid in stripe_ids:
            src = self.nodes[self._placement[sid]]
            dst_id = to if to is not None else self.ring.place(sid)
            dst = self.nodes[dst_id]
            if dst is src:
                continue
            blocks = len(src.store.stripe(sid).present_ids)
            self.metrics.rebalance_wait_seconds += await self.bucket.acquire(blocks)
            stripe, truth = src.store.remove_stripe(sid)
            dst.store.adopt_stripe(sid, stripe, truth)
            self._placement[sid] = dst_id
            self.metrics.stripes_moved += 1
            self.metrics.blocks_moved += blocks
            self.metrics.bytes_moved += stripe.nbytes

    async def kill_node(self, node_id: str) -> int:
        """Whole-node death: re-home its stripes onto survivors with a
        disk-loss erasure applied, and let the survivors' background
        repair queues rebuild them.

        The erasure pattern (``worst_case_sd(code, z=config.storm_z)``,
        one shared shape — so the rebuild decodes coalesce) stands in
        for the blocks only the dead node held; the surviving blocks'
        re-fetch is charged to the rebalance token bucket.  Stripes that
        were *already* degraded re-home unchanged (stacking the storm
        pattern on top could exceed the code's correction capability).
        Returns the number of stripes thrown into the storm.
        """
        node = self.nodes[node_id]
        if node.state == "dead":
            return 0
        node.set_state("dead")
        if node_id in self.ring:
            self.ring.remove(node_id)
        if not self.ring.node_ids:
            raise RuntimeError("cannot kill the last node: no survivors to rebuild on")
        client = self._clients.pop(node_id, None)
        if client is not None:
            await client.close()
        await node.close()
        scenario = worst_case_sd(self.code, z=self.config.storm_z, rng=self.config.seed)
        doomed = list(node.store.stripe_ids)
        self.metrics.storms += 1
        self.metrics.rebalances += 1
        for sid in doomed:
            stripe, truth = node.store.remove_stripe(sid)
            if not stripe.erased_ids:
                stripe.erase(scenario.faulty_blocks)
                self.metrics.storm_blocks_lost += len(scenario.faulty_blocks)
            survivors = len(stripe.present_ids)
            self.metrics.rebalance_wait_seconds += await self.bucket.acquire(survivors)
            dst_id = self.ring.place(sid)
            self.nodes[dst_id].store.adopt_stripe(sid, stripe, truth)
            self._placement[sid] = dst_id
            self.metrics.storm_stripes += 1
            self.metrics.stripes_moved += 1
            self.metrics.blocks_moved += survivors
            self.metrics.bytes_moved += stripe.nbytes
        for survivor in self._serving_nodes():
            if survivor.service.repair is not None:
                survivor.service.repair.kick()
        return len(doomed)

    # -- health --------------------------------------------------------------

    async def wait_healthy(self, timeout_s: float = 60.0) -> bool:
        """Barrier: every serving node's repair loop reports a clean
        full scrub pass within the budget (nodes without a repair
        manager must already be erasure-free)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        for node in self._serving_nodes():
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            repair = node.service.repair
            if repair is not None:
                if not await repair.wait_healthy(timeout_s=remaining):
                    return False
            else:
                for sid in node.store.stripe_ids:
                    if node.store.stripe(sid).erased_ids:
                        return False
        return True

    def verify_all(self) -> dict[str, int]:
        """Truth-verify every block of every stripe on every live node.

        Returns ``{"stripes", "blocks", "erased", "mismatched"}``; the
        cluster is provably healthy iff ``erased == mismatched == 0``.
        """
        stripes = blocks = erased = mismatched = 0
        for node in self._serving_nodes():
            for sid in node.store.stripe_ids:
                stripes += 1
                stripe = node.store.stripe(sid)
                truth = node.store.truth(sid)
                erased += len(stripe.erased_ids)
                for bid in stripe.present_ids:
                    blocks += 1
                    if not np.array_equal(stripe.get(bid), truth.get(bid)):
                        mismatched += 1
        return {
            "stripes": stripes,
            "blocks": blocks,
            "erased": erased,
            "mismatched": mismatched,
        }

    # -- observability -------------------------------------------------------

    def metrics_dict(self) -> dict[str, object]:
        """One JSON document for the whole cluster.

        ``cluster`` is the router's own view (routing spread, rebalance
        and storm accounting, membership); ``nodes`` embeds each node's
        full service document (requests, coalescing, pipeline/kernel
        stats, repair); ``totals`` sums the per-node request and
        resilience counters so dashboards get cluster-wide figures
        without re-deriving them.
        """
        doc: dict[str, object] = {"cluster": self.metrics.as_dict()}
        doc["cluster"]["membership"] = {  # type: ignore[index]
            node_id: {
                "state": node.state,
                "stripes": len(node.store.stripe_ids),
                "address": (
                    f"{node.address[0]}:{node.address[1]}" if node.address else None
                ),
            }
            for node_id, node in sorted(self.nodes.items())
        }
        nodes: dict[str, object] = {}
        totals_requests: dict[str, int] = {}
        totals_resilience: dict[str, int] = {}
        for node_id, node in sorted(self.nodes.items()):
            if node.state == "dead":
                nodes[node_id] = {"node": {"id": node_id, "state": "dead"}}
                continue
            node_doc = node.metrics_dict()
            nodes[node_id] = node_doc
            for section, totals in (
                ("requests", totals_requests),
                ("resilience", totals_resilience),
            ):
                for key, value in node_doc[section].items():  # type: ignore[attr-defined]
                    if isinstance(value, (int, float)):
                        totals[key] = totals.get(key, 0) + value
        doc["nodes"] = nodes
        doc["totals"] = {
            "requests": totals_requests,
            "resilience": totals_resilience,
        }
        return doc
