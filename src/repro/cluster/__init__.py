"""Sharded multi-node cluster layer over the single-node service stack.

The scale jump past one :class:`~repro.service.BlobService`: N simulated
storage nodes — each a full single-node stack (own
:class:`~repro.service.BlobStore`, own pipeline, own background
:class:`~repro.repair.RepairManager`, own seeded fault injector) —
behind a :class:`Cluster` router that places stripes with a seeded
consistent-hash :class:`HashRing` and fans ``get``/``put``/
``degraded_get`` out per stripe::

    client ──> Cluster (router) ──placement──> StorageNode "node-3"
                  │  consistent-hash ring        ├─ BlobService
                  │  join/leave/drain/kill       │   (scheduler+pipeline)
                  │  rebalance TokenBucket       ├─ RepairManager
                  │  storm accounting            └─ BlobStore (+faults)
                  └──> one merged metrics JSON doc

- :mod:`repro.cluster.placement` — :class:`HashRing` (deterministic,
  balanced, join/leave-stable placement);
- :mod:`repro.cluster.node` — :class:`StorageNode` lifecycle
  (up → draining → drained, or dead);
- :mod:`repro.cluster.router` — :class:`Cluster`: routing, membership,
  rebalancing, whole-node-death rebuild storms, health barriers;
- :mod:`repro.cluster.metrics` — :class:`ClusterMetrics` +
  cluster-wide JSON aggregation.

The cluster's shape is :class:`repro.config.ClusterConfig` (re-exported
here); every node runs the one ``service`` and ``pipeline`` section
handed to :class:`Cluster`.

A cluster implements the same backend protocol as a single service, so
``repro.service.net.serve`` / ``connect()`` / the load generator work
on either without a flag (``ppm cluster`` vs ``ppm serve``).  Lint
rules PPM009–PPM013 (no blocking calls on the loop; race analysis)
cover this package like they do ``repro/service/``.
"""

from __future__ import annotations

from ..config import ClusterConfig
from .metrics import ClusterMetrics
from .node import StorageNode
from .placement import HashRing, default_node_ids, spread
from .router import Cluster

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterMetrics",
    "HashRing",
    "StorageNode",
    "default_node_ids",
    "spread",
]
