"""Consistent-hash stripe placement: deterministic, balanced, stable.

:class:`HashRing` maps stripe ids to node ids by hashing ``vnodes``
virtual points per node onto a ring and walking clockwise from the
stripe's own hash.  The three properties the cluster leans on (each
covered by a property test in ``tests/cluster/test_placement.py``):

- **determinism** — placement is a pure function of
  ``(node_ids, vnodes, seed)``.  Hashes come from ``hashlib.blake2b``
  keyed by the seed, never Python's salted ``hash()``, so two routers
  built from the same :class:`~repro.config.ClusterConfig`
  agree on every stripe without talking to each other.
- **balance** — with the default 64 vnodes/node, the max/min stripe
  share across nodes stays within a small constant factor.
- **stability** — adding or removing one node remaps only the stripes
  whose clockwise successor changed: ~1/N of them on join, exactly the
  departed node's share on leave.  Everything else stays put, which is
  what bounds rebalance traffic.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Mapping, Sequence


def _point(seed: int, label: str) -> int:
    """One 64-bit ring coordinate for ``label`` under ``seed``."""
    digest = hashlib.blake2b(
        label.encode(), digest_size=8, key=str(seed).encode()
    ).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Seeded consistent-hash ring over string node ids.

    Parameters
    ----------
    node_ids:
        Initial members (order does not matter — placement depends only
        on the *set* of members plus ``vnodes`` and ``seed``).
    vnodes:
        Virtual points per node; more vnodes → tighter balance at the
        cost of a larger ring.
    seed:
        Hash key; rings with equal members but different seeds place
        independently.
    """

    def __init__(
        self, node_ids: Iterable[str] = (), *, vnodes: int = 64, seed: int = 2015
    ):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        self._points: list[int] = []     # sorted ring coordinates
        self._owners: list[str] = []     # node id at the same index
        self._nodes: set[str] = set()
        for node_id in node_ids:
            self.add(node_id)

    # -- membership ----------------------------------------------------------

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add(self, node_id: str) -> None:
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already on the ring")
        self._nodes.add(node_id)
        for v in range(self.vnodes):
            point = _point(self.seed, f"node:{node_id}:{v}")
            index = bisect.bisect_left(self._points, point)
            # loop-confined: membership changes and place() both run on
            # the router's event loop, never from worker threads
            self._points.insert(index, point)  # ppm: noqa[PPM010]
            self._owners.insert(index, node_id)  # ppm: noqa[PPM010]

    def remove(self, node_id: str) -> None:
        if node_id not in self._nodes:
            raise ValueError(f"node {node_id!r} not on the ring")
        self._nodes.discard(node_id)
        keep = [i for i, owner in enumerate(self._owners) if owner != node_id]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- placement -----------------------------------------------------------

    def place(self, stripe_id: int) -> str:
        """Home node of ``stripe_id`` (clockwise successor on the ring)."""
        if not self._points:
            raise ValueError("ring has no nodes")
        point = _point(self.seed, f"stripe:{stripe_id}")
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._owners[index]

    def table(self, stripe_ids: Iterable[int]) -> dict[int, str]:
        """Placement of many stripes at once."""
        return {sid: self.place(sid) for sid in stripe_ids}

    @staticmethod
    def shares(table: Mapping[int, str]) -> dict[str, int]:
        """Stripes per node under a placement table."""
        shares: dict[str, int] = {}
        for owner in table.values():
            shares[owner] = shares.get(owner, 0) + 1
        return shares

    @staticmethod
    def moved(before: Mapping[int, str], after: Mapping[int, str]) -> int:
        """How many stripes changed owner between two tables."""
        return sum(1 for sid, owner in after.items() if before.get(sid) != owner)


def default_node_ids(count: int) -> tuple[str, ...]:
    """The canonical node naming (``node-0`` .. ``node-N-1``)."""
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    return tuple(f"node-{i}" for i in range(count))


def spread(table: Mapping[int, str], node_ids: Sequence[str]) -> float:
    """Max/min stripe share across ``node_ids`` (∞-free: min share 0 → inf).

    The balance figure the property tests bound and the cluster metrics
    report; 1.0 is a perfectly even split.
    """
    shares = [sum(1 for owner in table.values() if owner == n) for n in node_ids]
    if not shares:
        return 0.0
    low, high = min(shares), max(shares)
    if low == 0:
        return float("inf") if high else 0.0
    return high / low
