"""Cluster-wide tallies: routing, rebalance traffic, storms.

:class:`ClusterMetrics` is the router's own accounting — the per-node
request/pipeline/repair metrics stay inside each node's
:class:`~repro.service.ServiceMetrics` and are merged into one JSON
document by :meth:`repro.cluster.Cluster.metrics_dict`, the cluster
analogue of ``BlobService.metrics_dict``.  Mutated from the event-loop
thread only, like every other metrics object in the repo.
"""

from __future__ import annotations


class ClusterMetrics:
    """Mutable tallies of one :class:`~repro.cluster.Cluster`.

    Counter semantics:

    - ``routed`` — requests fanned out, by node id (the router's view
      of load spread; compare with the placement shares);
    - ``forwarded_wire`` — requests routed over the TCP transport: all
      of ``routed`` under ``transport="tcp"``, 0 under ``"local"``;
    - ``rebalances`` — membership events that moved stripes
      (join/drain/kill each count once);
    - ``stripes_moved`` / ``blocks_moved`` / ``bytes_moved`` — migration
      volume across all rebalances;
    - ``rebalance_wait_seconds`` — time the migration token bucket held
      transfers back;
    - ``storms`` — whole-node deaths handled;
    - ``storm_stripes`` / ``storm_blocks_lost`` — stripes re-homed with
      erasures and the block count those erasures represent (the
      rebuild debt survivors' repair queues must clear).
    """

    def __init__(self, transport: str) -> None:
        self.transport = transport
        self.routed: dict[str, int] = {}
        self.rebalances = 0
        self.stripes_moved = 0
        self.blocks_moved = 0
        self.bytes_moved = 0
        self.rebalance_wait_seconds = 0.0
        self.storms = 0
        self.storm_stripes = 0
        self.storm_blocks_lost = 0

    def route(self, node_id: str) -> None:
        self.routed[node_id] = self.routed.get(node_id, 0) + 1

    @property
    def forwarded_wire(self) -> int:
        return sum(self.routed.values()) if self.transport == "tcp" else 0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot (the ``cluster`` section of the doc)."""
        return {
            "routed": dict(sorted(self.routed.items())),
            "forwarded_wire": self.forwarded_wire,
            "rebalance": {
                "rebalances": self.rebalances,
                "stripes_moved": self.stripes_moved,
                "blocks_moved": self.blocks_moved,
                "bytes_moved": self.bytes_moved,
                "wait_seconds": self.rebalance_wait_seconds,
            },
            "storm": {
                "storms": self.storms,
                "stripes": self.storm_stripes,
                "blocks_lost": self.storm_blocks_lost,
            },
        }
