"""Router behaviour: routing, membership, storms, health, metrics."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.repair import RepairConfig
from repro.service import (
    BlockUnavailableError,
    ServiceClosedError,
    damage_store,
)

from .conftest import fast_service, make_cluster


def test_build_places_every_stripe(code):
    cluster = make_cluster(code, nodes=3, num_stripes=12)
    assert cluster.stripe_ids == tuple(range(12))
    held = [sid for node in cluster.nodes.values() for sid in node.store.stripe_ids]
    assert sorted(held) == list(range(12))
    for sid in cluster.stripe_ids:
        assert cluster.owner_of(sid) == cluster.ring.place(sid)


def test_same_config_places_identically(code):
    a = make_cluster(code, nodes=3, num_stripes=12, seed=11)
    b = make_cluster(code, nodes=3, num_stripes=12, seed=11)
    assert {s: a.owner_of(s) for s in a.stripe_ids} == {
        s: b.owner_of(s) for s in b.stripe_ids
    }


def test_get_put_degraded_route_to_owners(code):
    async def run():
        cluster = make_cluster(code, nodes=3, num_stripes=6)
        for node in cluster.nodes.values():
            damage_store(node.store, fraction=1.0, seed=3)
        async with cluster:
            for sid in cluster.stripe_ids:
                store = cluster.nodes[cluster.owner_of(sid)].store
                stripe = store.stripe(sid)
                present = stripe.present_ids[0]
                region = await cluster.get(sid, present)
                assert cluster.verify_block(sid, present, region)
                erased = stripe.erased_ids[0]
                region = await cluster.degraded_get(sid, erased, deadline_s=5.0)
                assert cluster.verify_block(sid, erased, region)
            sid = cluster.stripe_ids[0]
            store = cluster.nodes[cluster.owner_of(sid)].store
            block = store.stripe(sid).present_ids[0]
            fresh = np.ones_like(store.truth(sid).get(block))
            await cluster.put(sid, block, fresh)
            got = await cluster.get(sid, block)
            assert np.array_equal(got, fresh)
        routed = cluster.metrics.as_dict()["routed"]
        assert sum(routed.values()) > 0

    asyncio.run(run())


def test_unknown_stripe_and_closed_cluster(code):
    async def run():
        cluster = make_cluster(code, nodes=2, num_stripes=4)
        async with cluster:
            with pytest.raises(BlockUnavailableError):
                await cluster.get(99, 0)
        with pytest.raises(ServiceClosedError):
            await cluster.get(0, 0)

    asyncio.run(run())


def test_route_retries_after_migration(code):
    """A request racing a rebalance retries once against the new home."""

    async def run():
        cluster = make_cluster(code, nodes=2, num_stripes=6)
        async with cluster:
            sid = cluster.stripe_ids[0]
            src = cluster.owner_of(sid)
            dst = next(n for n in cluster.nodes if n != src)
            stripe, truth = cluster.nodes[src].store.remove_stripe(sid)
            cluster.nodes[dst].store.adopt_stripe(sid, stripe, truth)
            # placement still says src: the first attempt raises
            # BlockUnavailableError, the re-resolve must find dst
            cluster._placement[sid] = dst
            block = stripe.present_ids[0]
            region = await cluster.get(sid, block)
            assert cluster.verify_block(sid, block, region)

    asyncio.run(run())


def test_add_node_rebalances_and_serves(code):
    async def run():
        cluster = make_cluster(code, nodes=3, num_stripes=18)
        async with cluster:
            before = {s: cluster.owner_of(s) for s in cluster.stripe_ids}
            joined = await cluster.add_node()
            assert joined == "node-3"
            took = [s for s in cluster.stripe_ids if cluster.owner_of(s) == joined]
            assert took, "a joining node must take some stripes"
            moved = [s for s in before if cluster.owner_of(s) != before[s]]
            assert sorted(moved) == sorted(took)
            for sid in took:
                block = cluster.nodes[joined].store.stripe(sid).present_ids[0]
                region = await cluster.get(sid, block)
                assert cluster.verify_block(sid, block, region)
        assert cluster.metrics.stripes_moved == len(took)

    asyncio.run(run())


def test_drain_node_empties_and_keeps_data(code):
    async def run():
        cluster = make_cluster(code, nodes=3, num_stripes=12)
        async with cluster:
            victim = max(
                cluster.nodes, key=lambda n: len(cluster.nodes[n].store.stripe_ids)
            )
            held = len(cluster.nodes[victim].store.stripe_ids)
            moved = await cluster.drain_node(victim)
            assert moved == held
            assert cluster.nodes[victim].state == "drained"
            assert not cluster.nodes[victim].store.stripe_ids
            assert cluster.stripe_ids == tuple(range(12))
            assert all(cluster.owner_of(s) != victim for s in cluster.stripe_ids)
            verify = cluster.verify_all()
            assert verify["erased"] == 0
            assert verify["mismatched"] == 0

    asyncio.run(run())


def test_kill_node_storms_and_heals(code):
    async def run():
        cluster = make_cluster(
            code,
            nodes=3,
            num_stripes=12,
            service=fast_service(
                repair=RepairConfig(enabled=True, scrub_interval_s=0.002, scrub_stripes=8)
            ),
        )
        async with cluster:
            victim = max(
                cluster.nodes, key=lambda n: len(cluster.nodes[n].store.stripe_ids)
            )
            doomed = len(cluster.nodes[victim].store.stripe_ids)
            stormed = await cluster.kill_node(victim)
            assert stormed == doomed > 0
            assert cluster.nodes[victim].state == "dead"
            with pytest.raises(ServiceClosedError):
                # the dead node's service is gone; re-homed stripes serve
                await cluster.nodes[victim].service.get(0, 0)
            # every stripe is still reachable (reads may need a decode)
            healed = await cluster.wait_healthy(timeout_s=30.0)
            assert healed, "survivors' repair loops must drain the storm"
            verify = cluster.verify_all()
            assert verify["stripes"] == 12
            assert verify["erased"] == 0
            assert verify["mismatched"] == 0
            assert await cluster.kill_node(victim) == 0  # idempotent
        storm = cluster.metrics.as_dict()["storm"]
        assert storm["storms"] == 1
        assert storm["stripes"] == doomed

    asyncio.run(run())


def test_kill_last_node_refuses(code):
    async def run():
        cluster = make_cluster(code, nodes=1, num_stripes=2)
        async with cluster:
            with pytest.raises(RuntimeError):
                await cluster.kill_node("node-0")

    asyncio.run(run())


def test_already_degraded_stripes_rehome_unchanged(code):
    async def run():
        cluster = make_cluster(code, nodes=2, num_stripes=8)
        for node in cluster.nodes.values():
            damage_store(node.store, fraction=1.0, seed=3)
        patterns = {
            sid: tuple(
                cluster.nodes[cluster.owner_of(sid)].store.stripe(sid).erased_ids
            )
            for sid in cluster.stripe_ids
        }
        async with cluster:
            victim = cluster.owner_of(cluster.stripe_ids[0])
            await cluster.kill_node(victim)
            for sid, pattern in patterns.items():
                stripe = cluster.nodes[cluster.owner_of(sid)].store.stripe(sid)
                assert tuple(stripe.erased_ids) == pattern, (
                    "storm must not stack erasures on already-degraded stripes"
                )

    asyncio.run(run())


def test_metrics_document_shape(code):
    async def run():
        cluster = make_cluster(code, nodes=2, num_stripes=4)
        async with cluster:
            await cluster.get(0, 0)
            doc = cluster.metrics_dict()
        assert set(doc) == {"cluster", "nodes", "totals"}
        assert set(doc["cluster"]["membership"]) == {"node-0", "node-1"}
        for section in ("routed", "rebalance", "storm"):
            assert section in doc["cluster"]
        assert doc["totals"]["requests"]["gets"] >= 1

    asyncio.run(run())


def test_tcp_transport_round_trip(code):
    """The same cluster behind per-node TCP servers + pooled clients."""

    async def run():
        config = ClusterConfig(nodes=2, seed=7, transport="tcp", connections_per_node=2)
        cluster = Cluster.build(code, 6, 16, config, rng=7, service=fast_service())
        for node in cluster.nodes.values():
            damage_store(node.store, fraction=1.0, seed=3)
        async with cluster:
            sid = cluster.stripe_ids[0]
            store = cluster.nodes[cluster.owner_of(sid)].store
            present = store.stripe(sid).present_ids[0]
            region = await cluster.get(sid, present)
            assert cluster.verify_block(sid, present, region)
            erased = store.stripe(sid).erased_ids[0]
            region = await cluster.degraded_get(sid, erased, deadline_s=5.0)
            assert cluster.verify_block(sid, erased, region)
        assert cluster.metrics.forwarded_wire >= 2

    asyncio.run(run())
