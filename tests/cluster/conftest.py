"""Shared fixtures for the cluster test suite.

Sized for a 1-core CI box like the service suite: SD(6, 4, 2, 2),
16-symbol sectors, a handful of stripes per node.  Async tests wrap
their coroutine in ``asyncio.run`` (no pytest-asyncio in the
toolchain).
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.codes import SDCode
from repro.service import ServiceConfig

SYMBOLS = 16


@pytest.fixture(scope="module")
def code():
    return SDCode(6, 4, 2, 2)


def fast_service(**kwargs) -> ServiceConfig:
    """A service config tuned for test latency, not throughput."""
    defaults = dict(
        batch_trigger=4, flush_interval_s=0.002, backoff_base_s=0.0001
    )
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


def make_cluster(
    code,
    nodes: int = 3,
    num_stripes: int = 12,
    *,
    fault_rate: float = 0.0,
    seed: int = 7,
    service: ServiceConfig | None = None,
    **config_kwargs,
) -> Cluster:
    config = ClusterConfig(nodes=nodes, seed=seed, **config_kwargs)
    return Cluster.build(
        code,
        num_stripes,
        SYMBOLS,
        config,
        fault_rate=fault_rate,
        rng=seed,
        service=service if service is not None else fast_service(),
    )
