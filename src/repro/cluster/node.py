"""One simulated storage node: a full single-node stack behind a name.

:class:`StorageNode` is exactly the stack ``ppm serve`` runs — a
:class:`~repro.service.BlobStore` (with its own seeded
:class:`~repro.service.FaultInjector`), a
:class:`~repro.service.BlobService` (own :class:`DecodePipeline`, own
:class:`~repro.repair.RepairManager` when repair is configured) — plus
cluster membership state.  The router owns many of these; each node
stays oblivious to the others, which is what makes whole-node death a
clean event: everything the node held is in its store, everything it
was doing dies with its service.

Lifecycle: ``up`` (serving, on the placement ring) → ``draining``
(serving reads, off the ring, stripes migrating away) → ``drained``
(empty, ignorable) or ``dead`` (killed; its stripes re-home with
erasures and survivors rebuild them — see
:meth:`repro.cluster.Cluster.kill_node`).
"""

from __future__ import annotations

from ..config import ServiceConfig
from ..pipeline import DecodePipeline
from ..service.server import BlobService
from ..service.store import BlobStore

#: the membership states a node moves through (forward-only)
NODE_STATES = ("up", "draining", "drained", "dead")


class StorageNode:
    """A named single-node service stack inside a cluster."""

    def __init__(
        self,
        node_id: str,
        store: BlobStore,
        *,
        service: ServiceConfig,
        pipeline: DecodePipeline,
    ):
        self.node_id = node_id
        self.store = store
        self.service = BlobService(
            store, config=service, pipeline=pipeline, own_pipeline=True
        )
        self.state = "up"
        #: TCP-transport plumbing, owned by the router (None for local)
        self.server = None
        self.address: tuple[str, int] | None = None

    # -- state ---------------------------------------------------------------

    @property
    def up(self) -> bool:
        return self.state == "up"

    @property
    def serving(self) -> bool:
        """Can this node still answer reads? (up or draining)"""
        return self.state in ("up", "draining")

    def set_state(self, state: str) -> None:
        if state not in NODE_STATES:
            raise ValueError(f"unknown node state {state!r}")
        order = {name: i for i, name in enumerate(NODE_STATES)}
        if state != "dead" and order[state] < order[self.state]:
            raise ValueError(
                f"node {self.node_id}: cannot move {self.state!r} -> {state!r}"
            )
        self.state = state

    # -- convenience ---------------------------------------------------------

    @property
    def stripe_ids(self) -> tuple[int, ...]:
        return self.store.stripe_ids

    def start_repair(self) -> None:
        self.service.start_repair()

    async def close(self) -> None:
        """Stop the node's service (and repair loop) and its wire server."""
        await self.service.close()
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None

    def metrics_dict(self) -> dict[str, object]:
        out = self.service.metrics_dict()
        out["node"] = {
            "id": self.node_id,
            "state": self.state,
            "stripes": len(self.store.stripe_ids),
        }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StorageNode({self.node_id!r}, state={self.state!r}, "
            f"stripes={len(self.store.stripe_ids)})"
        )
