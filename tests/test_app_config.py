"""The layered config model: defaults → dict → dotted overrides.

Pins the three-layer precedence, the strictness guarantees (unknown
keys raise, values coerce to field types) and the builders.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    AppConfig,
    RepairConfig,
    ServiceConfig,
    StoreConfig,
    WorkloadConfig,
    apply_overrides,
    build_cluster,
    build_code,
    build_service,
    flatten,
    from_dict,
    to_dict,
)


def test_defaults_round_trip_through_dict():
    config = AppConfig()
    assert from_dict(to_dict(config)) == config


def test_overridden_config_round_trips():
    config = apply_overrides(
        AppConfig(),
        {
            "store.stripes": 64,
            "service.repair.enabled": True,
            "service.repair.scrub_stripes": 4,
            "cluster.nodes": 6,
            "workload.concurrency": 32,
        },
    )
    assert from_dict(to_dict(config)) == config


def test_from_dict_is_partial_and_strict():
    config = from_dict({"store": {"stripes": 8}, "cluster": {"nodes": 5}})
    assert config.store.stripes == 8
    assert config.store.n == StoreConfig().n  # untouched defaults
    assert config.cluster.nodes == 5
    with pytest.raises(ValueError, match="unknown config section"):
        from_dict({"storage": {}})
    with pytest.raises(ValueError, match="unknown config key store.shards"):
        from_dict({"store": {"shards": 3}})


def test_from_dict_repair_forms():
    """``service.repair`` is a section like any other: a mapping whose
    ``enabled`` switches the loop on; the old scalar forms are errors."""
    assert from_dict({}).service.repair == RepairConfig(enabled=False)
    on = from_dict({"service": {"repair": {"enabled": True}}})
    assert on.service.repair == RepairConfig(enabled=True)
    tuned = from_dict({"service": {"repair": {"scrub_stripes": 4}}})
    assert tuned.service.repair.scrub_stripes == 4
    assert tuned.service.repair.enabled is False  # knobs alone do not switch it on
    for scalar in (None, True, False):
        with pytest.raises(ValueError, match="service.repair must be a mapping"):
            from_dict({"service": {"repair": scalar}})


def test_flatten_inverts_nesting():
    nested = {"store": {"stripes": 8}, "service": {"repair": {"enabled": True, "scrub_stripes": 4}}}
    flat = flatten(nested)
    assert flat == {
        "store.stripes": 8,
        "service.repair.enabled": True,
        "service.repair.scrub_stripes": 4,
    }
    config = apply_overrides(AppConfig(), flat)
    assert config == from_dict(nested)
    assert config.service.repair == RepairConfig(enabled=True, scrub_stripes=4)


def test_apply_overrides_coerces_strings():
    config = apply_overrides(
        AppConfig(),
        {
            "store.stripes": "8",
            "store.fault_rate": "0.25",
            "service.repair.enabled": "true",
        },
    )
    assert config.store.stripes == 8
    assert config.store.fault_rate == 0.25
    assert config.service.repair == RepairConfig(enabled=True)
    off = apply_overrides(config, {"service.repair.enabled": "false"})
    assert off.service.repair.enabled is False
    with pytest.raises(ValueError, match="not a bool"):
        apply_overrides(AppConfig(), {"service.repair.enabled": "maybe"})


def test_apply_overrides_rejects_unknown_paths():
    for path in ("store.shards", "nope.x", "store", "service.repair", "service.repair.nope"):
        with pytest.raises(ValueError):
            apply_overrides(AppConfig(), {path: 1})


def test_removed_service_knobs_are_unknown_keys():
    """``coalesce`` (naive mode), the simulated I/O envelope and the
    always-on fallback / post-repair re-scrub switches are gone; a config
    still naming them fails loudly instead of being ignored."""
    with pytest.raises(ValueError, match="unknown config key service.coalesce"):
        from_dict({"service": {"coalesce": False}})
    with pytest.raises(ValueError, match="unknown config key service.fallback_single"):
        from_dict({"service": {"fallback_single": False}})
    with pytest.raises(ValueError, match="unknown config key service.repair.verify_repairs"):
        from_dict({"service": {"repair": {"verify_repairs": False}}})
    for path in (
        "service.coalesce",
        "service.io_latency_s",
        "service.io_queue_depth",
        "service.fallback_single",
        "service.repair.verify_repairs",
    ):
        with pytest.raises(ValueError, match="unknown override path"):
            apply_overrides(AppConfig(), {path: "0.004"})


def test_repair_enabled_switches_repair_on_and_off():
    config = apply_overrides(AppConfig(), {"service.repair.scrub_stripes": 4})
    assert config.service.repair.scrub_stripes == 4
    assert config.service.repair.enabled is False
    on = apply_overrides(config, {"service.repair.enabled": "true"})
    assert on.service.repair == RepairConfig(enabled=True, scrub_stripes=4)
    off = apply_overrides(on, {"service.repair.enabled": "false"})
    assert off.service.repair == config.service.repair  # knobs kept while off


def test_cluster_service_copy_is_an_unknown_key():
    """Regression: the cluster section used to carry its own copy of the
    service section, which parsed and was then overwritten by
    ``AppConfig.service`` in ``build_cluster`` — its paths (16 then, 14
    today) were accepted and silently did nothing."""
    copy = {"service": to_dict(AppConfig())["service"]}
    paths = [f"cluster.{path}" for path in flatten(copy)]
    assert len(paths) == 14
    for path in paths:
        with pytest.raises(ValueError, match="unknown override path"):
            apply_overrides(AppConfig(), {path: "4"})
    with pytest.raises(ValueError, match="unknown config key cluster"):
        from_dict({"cluster": {"service": {"batch_trigger": 4}}})


def test_configs_round_trip_through_dict(monkeypatch):
    """Default, repair-enabled, and the benchmark's served-store config
    (``perf/workloads.py``'s ``WireMixed.app_config``, which its server
    child re-parses from ``to_dict``) all survive ``from_dict(to_dict())``."""
    import importlib
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perf"))
    wire_mixed = importlib.import_module("workloads").WireMixed(seed=1).app_config()
    assert wire_mixed.pipeline.pool == "thread"  # really the partial dict, not defaults
    repaired = apply_overrides(AppConfig(), {"service.repair.enabled": True})
    for config in (AppConfig(), repaired, wire_mixed):
        assert from_dict(to_dict(config)) == config


def test_overrides_never_mutate_the_input():
    base = AppConfig()
    apply_overrides(base, {"store.stripes": 99})
    assert base.store.stripes == StoreConfig().stripes
    assert dataclasses.is_dataclass(base.store)


def test_section_validation_still_applies():
    with pytest.raises(ValueError):
        apply_overrides(AppConfig(), {"store.fault_rate": 1.5})
    with pytest.raises(ValueError):
        apply_overrides(AppConfig(), {"cluster.transport": "carrier-pigeon"})
    with pytest.raises(ValueError):
        WorkloadConfig(requests=0)


SMALL = {
    "store.n": 6,
    "store.r": 4,
    "store.m": 2,
    "store.s": 2,
    "store.stripes": 4,
    "store.symbols": 16,
    "store.fault_rate": 0.0,
}


def test_builders_produce_live_objects():
    config = apply_overrides(AppConfig(), {**SMALL, "cluster.nodes": 2})
    code = build_code(config.store)
    assert (code.n, code.r) == (6, 4)
    service = build_service(config)
    assert len(service.store.stripe_ids) == 4
    assert service.config is config.service
    cluster = build_cluster(config)
    assert len(cluster.nodes) == 2
    assert cluster.stripe_ids == (0, 1, 2, 3)


def test_build_cluster_stitches_the_service_section():
    config = apply_overrides(
        AppConfig(),
        {**SMALL, "cluster.nodes": 2, "service.batch_trigger": 3},
    )
    cluster = build_cluster(config)
    for node in cluster.nodes.values():
        assert node.service.config.batch_trigger == 3


def test_service_config_is_default_constructed_sections():
    config = AppConfig()
    assert config.service == ServiceConfig()
    assert config.workload == WorkloadConfig()


def test_kernels_section_defaults_and_round_trip():
    from repro.config import KernelsConfig

    config = AppConfig()
    assert config.kernels == KernelsConfig()
    assert config.kernels.backend == "auto"
    overridden = apply_overrides(config, {"kernels.backend": "bitsliced"})
    assert overridden.kernels.backend == "bitsliced"
    assert from_dict(to_dict(overridden)) == overridden


def test_kernels_backend_is_validated():
    from repro.config import KernelsConfig

    with pytest.raises(ValueError, match="backend"):
        KernelsConfig(backend="nonesuch")
    with pytest.raises(ValueError, match="backend"):
        from_dict({"kernels": {"backend": "nonesuch"}})


def test_kernels_backend_must_be_registered_on_this_host():
    """Regression: names came from a hand-kept list that included
    ``numba``, an unregistered backend, so ``kernels.backend=numba``
    parsed and ``build_store`` then failed with a ``KeyError``."""
    from repro.config import KernelsConfig

    with pytest.raises(ValueError, match="backend"):
        KernelsConfig(backend="numba")
    with pytest.raises(ValueError, match="backend"):
        apply_overrides(AppConfig(), {"kernels.backend": "numba"})


def test_kernels_apply_sets_process_default():
    from repro.config import KernelsConfig
    from repro.kernels import default_backend, set_default_backend

    previous = default_backend()
    try:
        KernelsConfig(backend="bitsliced").apply()
        assert default_backend() == "bitsliced"
    finally:
        set_default_backend(previous)


def test_pipeline_section_round_trip_and_overrides():
    from repro.config import PipelineConfig

    config = from_dict(
        {"pipeline": {"pool": "thread", "hedge": True, "deadline_s": 1.5}}
    )
    assert config.pipeline == PipelineConfig(pool="thread", hedge=True, deadline_s=1.5)
    assert from_dict(to_dict(config)) == config
    layered = apply_overrides(
        config,
        {"pipeline.verify_workers": "true", "pipeline.workers": "3"},
    )
    assert layered.pipeline.verify_workers is True
    assert layered.pipeline.workers == 3
    assert config.pipeline.verify_workers is False  # input untouched
    # the hedge trigger is the engine's constants, not settable paths
    for knob in ("hedge_percentile", "hedge_factor", "hedge_min_samples"):
        with pytest.raises(ValueError, match="unknown"):
            apply_overrides(config, {f"pipeline.{knob}": "2"})
        with pytest.raises(ValueError, match="unknown"):
            from_dict({"pipeline": {knob: 2}})


def test_pipeline_section_validates():
    from repro.config import PipelineConfig

    with pytest.raises(ValueError, match="pool"):
        PipelineConfig(pool="gpu")
    with pytest.raises(ValueError, match="deadline_s"):
        PipelineConfig(deadline_s=-1.0)


def test_pipeline_section_builds_a_live_pipeline():
    from repro.config import PipelineConfig

    section = PipelineConfig(
        pool="serial", hedge=True, verify_workers=True, deadline_s=2.0
    )
    pipe = section.build()
    try:
        assert pipe.hedge is True
        assert pipe.verify_workers is True
        assert pipe.deadline_s == 2.0
        assert pipe.pool.kind == "serial"
    finally:
        pipe.close()
    # deadline_s=0 means unbounded, not "deadline of zero"
    pipe = PipelineConfig().build()
    try:
        assert pipe.deadline_s is None
    finally:
        pipe.close()


def test_build_service_wires_pipeline_section_and_faults():
    """The pipeline section reaches the service's pipeline; the store's
    fault injector does not.  It faults reads only (no config field sets
    a worker fault mode), and any injector pushes a serial pool off its
    one-program whole-plan route."""
    from repro.stripes import Stripe, StripeLayout
    from repro.stripes.failures import worst_case_sd

    config = from_dict(
        {
            "store": {"n": 6, "r": 4, "stripes": 1, "symbols": 16, "damaged": 0.0},
            "pipeline": {"deadline_s": 5.0},
        }
    )
    service = build_service(config)
    try:
        pipeline, code = service.pipeline, service.store.code
        assert pipeline.deadline_s == 5.0
        assert pipeline.faults is None
        faulty = worst_case_sd(code, z=1, rng=0).faulty_blocks
        stripe = Stripe.random(StripeLayout.of_code(code), code.field, 64, rng=3)
        pipeline.decode(code, stripe, faulty)
        assert pipeline.executor_stats()["executions"] == 1
    finally:
        asyncio_run_close(service)


def test_build_cluster_wires_pipeline_section_into_every_node():
    """Regression: nodes used to decode through ``BlobService``'s default
    serial pipeline whatever ``AppConfig.pipeline`` said."""
    import asyncio

    config = from_dict(
        {
            "store": {"n": 6, "r": 4, "stripes": 4, "symbols": 16, "damaged": 0.0},
            "pipeline": {"pool": "thread", "workers": 2, "verify_workers": True, "hedge": True},
            "cluster": {"nodes": 2},
        }
    )

    async def scenario():
        cluster = build_cluster(config)
        try:
            joined = await cluster.add_node()
            assert joined in cluster.nodes and len(cluster.nodes) == 3
            for node in cluster.nodes.values():
                pipe = node.service.pipeline
                assert pipe.pool.kind == "thread" and pipe.workers == 2
                assert pipe.verify_workers is True
                assert pipe.hedge is True
                assert pipe.faults is None  # the store's injector faults reads only
        finally:
            await cluster.close()

    asyncio.run(scenario())


def asyncio_run_close(service):
    import asyncio

    asyncio.run(service.close())
