"""The layered application config: dataclass defaults → dict → overrides.

Every serving entry point (``ppm serve``, ``ppm cluster``,
``ppm loadgen``) builds its world from one :class:`AppConfig`,
assembled in three layers:

1. **dataclass defaults** — the frozen records below are the single
   source of truth for every default value (the CLI no longer carries
   its own);
2. **dict / JSON** — ``--config app.json`` merges a *partial* nested
   dict over the defaults via :func:`from_dict` (unknown keys are
   errors, not typos silently ignored);
3. **overrides** — ``--set service.batch_trigger=4`` and the legacy
   flags both funnel through :func:`apply_overrides` with dotted
   paths, coerced to the field's declared type.

The sections:

- :class:`StoreConfig` — the erasure-coded world: code parameters,
  stripe population, injected faults/damage/corruption, seed;
- :class:`~repro.service.ServiceConfig` — one node's serving knobs
  (coalescing, deadlines, retries, repair);
- :class:`~repro.cluster.config.ClusterConfig` — cluster shape
  (membership, placement ring, transport, rebalance metering, storm
  shape).  Its embedded per-node service config is *stitched in* from
  ``AppConfig.service`` by :func:`build_cluster`, so there is exactly
  one service section to edit;
- :class:`WorkloadConfig` — the load generator's offered load.

:func:`build_store` / :func:`build_service` / :func:`build_cluster`
turn a config into live objects.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .cluster.config import ClusterConfig
from .repair.config import RepairConfig
from .service.config import ServiceConfig


@dataclass(frozen=True)
class StoreConfig:
    """The erasure-coded world a service or cluster serves.

    ``n``/``r``/``m``/``s`` are the SD-code parameters (the paper's
    construction); ``stripes`` x ``symbols`` sizes the population;
    ``fault_rate`` seeds each store's transient
    :class:`~repro.service.FaultInjector`; ``damaged`` is the fraction
    of stripes given a worst-case erasure up front and
    ``corrupt_fraction`` the fraction silently bit-rotted (only a
    scrub can see those).  Everything is deterministic from ``seed``.
    """

    n: int = 10
    r: int = 8
    m: int = 2
    s: int = 2
    stripes: int = 32
    symbols: int = 512
    fault_rate: float = 0.1
    damaged: float = 0.75
    corrupt_fraction: float = 0.0
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {self.stripes}")
        if self.symbols < 1:
            raise ValueError(f"symbols must be >= 1, got {self.symbols}")
        for name in ("fault_rate", "damaged", "corrupt_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class KernelsConfig:
    """Compiled GF kernel knobs.

    ``backend`` pins the process-wide executor backend selection:
    ``"auto"`` (default) micro-benchmarks the registered backends per
    (program shape, w, region size) class and caches the winner; a
    backend name forces it for every supporting program.  Applied by
    the builders via
    :func:`repro.kernels.backends.set_default_backend`.
    """

    backend: str = "auto"

    def __post_init__(self) -> None:
        from .kernels.backends import BACKEND_CHOICES

        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"kernels.backend must be one of {BACKEND_CHOICES}, "
                f"got {self.backend!r}"
            )

    def apply(self) -> None:
        """Install this section's backend policy process-wide."""
        from .kernels.backends import set_default_backend

        set_default_backend(self.backend)


@dataclass(frozen=True)
class PipelineConfig:
    """The decode pipeline behind a service node.

    ``pool``/``workers`` shape the phase-1 worker pool (``"serial"``
    stays the low-overhead default on small hosts — decode already runs
    off the event loop).  The straggler-tolerance knobs mirror
    :class:`~repro.pipeline.DecodePipeline`: ``hedge`` speculatively
    resubmits a bucket once its worker exceeds
    ``max(pX, ewma) * hedge_factor`` of similar work,
    ``verify_workers`` syndrome-checks every worker result before it
    can merge, and ``deadline_s`` (0 = unbounded) abandons a batch
    gather that outlives its budget with a
    :class:`~repro.pipeline.StragglerTimeout`.
    """

    pool: str = "serial"
    workers: int = 4
    hedge: bool = False
    hedge_percentile: float = 0.95
    hedge_factor: float = 2.0
    hedge_min_samples: int = 8
    verify_workers: bool = False
    deadline_s: float = 0.0

    def __post_init__(self) -> None:
        if self.pool not in ("serial", "thread", "process"):
            raise ValueError(
                f"pipeline.pool must be serial, thread or process, got {self.pool!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 < self.hedge_percentile <= 1.0:
            raise ValueError(
                f"hedge_percentile must be in (0, 1], got {self.hedge_percentile}"
            )
        if self.hedge_factor < 1.0:
            raise ValueError(
                f"hedge_factor must be >= 1.0, got {self.hedge_factor}"
            )
        if self.hedge_min_samples < 1:
            raise ValueError(
                f"hedge_min_samples must be >= 1, got {self.hedge_min_samples}"
            )
        if self.deadline_s < 0:
            raise ValueError(f"deadline_s must be >= 0, got {self.deadline_s}")

    def build(self, *, faults=None):
        """A live :class:`~repro.pipeline.DecodePipeline` per this section."""
        from .pipeline import DecodePipeline

        return DecodePipeline(
            pool=self.pool,
            workers=self.workers,
            hedge=self.hedge,
            hedge_percentile=self.hedge_percentile,
            hedge_factor=self.hedge_factor,
            hedge_min_samples=self.hedge_min_samples,
            verify_workers=self.verify_workers,
            deadline_s=self.deadline_s or None,
            faults=faults,
        )


@dataclass(frozen=True)
class WorkloadConfig:
    """The load generator's offered load (closed-loop)."""

    requests: int = 200
    concurrency: int = 16
    degraded_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if not 0.0 <= self.degraded_fraction <= 1.0:
            raise ValueError(
                f"degraded_fraction must be in [0, 1], got {self.degraded_fraction}"
            )


@dataclass(frozen=True)
class AppConfig:
    """One record configuring any serving entry point.

    ``cluster.service`` is ignored as configuration input — the one
    ``service`` section here is stitched into the cluster by
    :func:`build_cluster`, so per-node knobs are never edited twice.
    """

    store: StoreConfig = field(default_factory=StoreConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    kernels: KernelsConfig = field(default_factory=KernelsConfig)


#: nested dataclass sections, in the order they appear in a config file
_SECTIONS = ("store", "service", "pipeline", "cluster", "workload", "kernels")


def to_dict(config: AppConfig) -> dict[str, Any]:
    """The JSON-able nested-dict form of a config (round-trips through
    :func:`from_dict`)."""
    return dataclasses.asdict(config)


def _build_section(cls: type, data: Mapping[str, Any], path: str) -> Any:
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in known:
            raise ValueError(f"unknown config key {path}.{key}")
        if key == "repair":
            # ServiceConfig.repair: null | true | {...} in a file
            if value is None or isinstance(value, RepairConfig):
                kwargs[key] = value
            elif value is True:
                kwargs[key] = RepairConfig()
            else:
                kwargs[key] = _build_section(RepairConfig, value, f"{path}.repair")
        elif key == "service" and isinstance(value, Mapping):
            kwargs[key] = _build_section(ServiceConfig, value, f"{path}.service")
        else:
            kwargs[key] = value
    return cls(**kwargs)


def from_dict(data: Mapping[str, Any]) -> AppConfig:
    """A *partial* nested dict over the defaults; unknown keys raise.

    The shape mirrors :func:`to_dict`::

        {"store": {"stripes": 64}, "service": {"repair": true},
         "cluster": {"nodes": 6}, "workload": {"concurrency": 32}}
    """
    sections: dict[str, Any] = {}
    classes = {
        "store": StoreConfig,
        "service": ServiceConfig,
        "pipeline": PipelineConfig,
        "cluster": ClusterConfig,
        "workload": WorkloadConfig,
        "kernels": KernelsConfig,
    }
    for key, value in data.items():
        if key not in classes:
            raise ValueError(
                f"unknown config section {key!r} (expected one of {_SECTIONS})"
            )
        sections[key] = _build_section(classes[key], value, key)
    return AppConfig(**sections)


def flatten(data: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    """Nested config dict → dotted-path overrides (``repair`` dicts stay
    whole so they can switch repair on with their own knobs)."""
    out: dict[str, Any] = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping) and key != "repair":
            out.update(flatten(value, path + "."))
        else:
            out[path] = value
    return out


def _coerce(value: Any, annotation: Any) -> Any:
    """Best-effort string → field-type coercion for CLI overrides."""
    if not isinstance(value, str):
        return value
    text = str(annotation)
    if "bool" in text:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a bool: {value!r}")
    if "int" in text:
        return int(value)
    if "float" in text:
        return float(value)
    return value


def apply_overrides(config: AppConfig, overrides: Mapping[str, Any]) -> AppConfig:
    """Dotted-path overrides over a config; returns a new config.

    ``{"service.batch_trigger": "4"}`` → ``replace`` down the path with
    the value coerced to the field's declared type.  Setting any
    ``service.repair.*`` key materialises a default
    :class:`~repro.repair.RepairConfig` first; ``service.repair``
    itself accepts ``true``/``false`` to switch repair on or off.
    """
    for path, value in overrides.items():
        parts = path.split(".")
        if parts[0] not in _SECTIONS or len(parts) < 2:
            raise ValueError(f"unknown override path {path!r}")
        config = _set_path(config, parts, value, path)
    return config


def _set_path(node: Any, parts: list[str], value: Any, full: str) -> Any:
    name, rest = parts[0], parts[1:]
    known = {f.name: f for f in dataclasses.fields(node)}
    if name not in known:
        raise ValueError(f"unknown override path {full!r}")
    if not rest:
        if name == "repair":
            if isinstance(value, str):
                value = _coerce(value, "bool")
            if value is True:
                value = RepairConfig()
            elif isinstance(value, Mapping):
                value = _build_section(RepairConfig, value, full)
            elif not isinstance(value, RepairConfig) and not value:
                value = None
        else:
            value = _coerce(value, known[name].type)
        return replace(node, **{name: value})
    child = getattr(node, name)
    if child is None and name == "repair":
        child = RepairConfig()
    if not dataclasses.is_dataclass(child):
        raise ValueError(f"override path {full!r} does not name a config field")
    return replace(node, **{name: _set_path(child, rest, value, full)})


# -- builders: config → live objects ----------------------------------------


def build_code(store: StoreConfig):
    """The :class:`~repro.codes.SDCode` a store config describes."""
    from .codes import SDCode

    return SDCode(store.n, store.r, store.m, store.s)


def build_store(config: AppConfig):
    """One seeded, damaged (and optionally bit-rotted) BlobStore."""
    from .service import BlobStore, FaultInjector, corrupt_store, damage_store

    config.kernels.apply()
    store_cfg = config.store
    store = BlobStore.build(
        build_code(store_cfg),
        store_cfg.stripes,
        store_cfg.symbols,
        rng=store_cfg.seed,
        faults=FaultInjector(store_cfg.fault_rate, rng=store_cfg.seed),
    )
    damage_store(store, fraction=store_cfg.damaged, seed=store_cfg.seed)
    if store_cfg.corrupt_fraction:
        corrupt_store(store, fraction=store_cfg.corrupt_fraction, seed=store_cfg.seed)
    return store


def build_service(config: AppConfig):
    """A single-node :class:`~repro.service.BlobService` over
    :func:`build_store`.

    The service decodes through a pipeline built from
    ``config.pipeline`` (straggler hedging, worker verification,
    deadlines) and owns it; the store's fault injector is shared into
    the pipeline so injected slow/corrupt *worker* modes flow through
    the same seeded stream as read faults.
    """
    from .service import BlobService

    store = build_store(config)
    pipeline = config.pipeline.build(faults=store.faults)
    return BlobService(
        store, config=config.service, pipeline=pipeline, own_pipeline=True
    )


def build_cluster(config: AppConfig):
    """A :class:`~repro.cluster.Cluster` with ``config.service``
    stitched in as every node's service config, ``config.pipeline``
    behind every node's decodes (as in :func:`build_service`) and the
    same per-node damage/corruption :func:`build_store` applies."""
    from .cluster import Cluster
    from .service import corrupt_store, damage_store

    config.kernels.apply()
    store_cfg = config.store
    cluster = Cluster.build(
        build_code(store_cfg),
        store_cfg.stripes,
        store_cfg.symbols,
        config.cluster.with_service(config.service),
        fault_rate=store_cfg.fault_rate,
        pipeline=config.pipeline,
    )
    for node in cluster.nodes.values():
        damage_store(node.store, fraction=store_cfg.damaged, seed=store_cfg.seed)
        if store_cfg.corrupt_fraction:
            corrupt_store(
                node.store, fraction=store_cfg.corrupt_fraction, seed=store_cfg.seed
            )
    return cluster
