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
3. **overrides** — ``--set service.batch_trigger=4`` and the CLI flags
   both funnel through :func:`apply_overrides` with dotted paths,
   coerced to the field's declared type.

Every section lives in this module, and a nested section is a plain
dataclass field: :func:`from_dict`, :func:`flatten` and
:func:`apply_overrides` treat ``service.repair`` exactly like ``store``.
The sections:

- :class:`StoreConfig` — the erasure-coded world: code parameters,
  stripe population, injected faults/damage/corruption, seed;
- :class:`ServiceConfig` — one node's serving knobs (coalescing,
  deadlines, retries) and its :class:`RepairConfig` (background
  scrub-and-repair, off unless ``enabled``);
- :class:`PipelineConfig` — the decode pipeline behind every node;
- :class:`ClusterConfig` — cluster shape (membership, placement ring,
  transport, rebalance metering, storm shape).  Every node of a
  cluster runs the one ``service`` and ``pipeline`` section;
- :class:`WorkloadConfig` — the load generator's offered load;
- :class:`KernelsConfig` — the executor-backend selection.

This module imports no ``repro`` sub-package at module level, so every
sub-package can import its section from here.
:func:`build_store` / :func:`build_service` / :func:`build_cluster`
turn a config into live objects.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field, replace
from typing import Any, Mapping


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
    ``"auto"`` (default) runs the backend
    :func:`repro.kernels.backends.choose` picks from the field width and
    the region length; a registered backend name forces it for every
    supporting program (an optional backend that did not register on
    this host is rejected here, not at first use).  Applied by the
    builders via :func:`repro.kernels.backends.set_default_backend`.
    """

    backend: str = "auto"

    def __post_init__(self) -> None:
        from .kernels.backends import available_backends

        choices = ("auto", *available_backends())
        if self.backend not in choices:
            raise ValueError(
                f"kernels.backend must be one of {choices}, got {self.backend!r}"
            )

    def apply(self) -> None:
        """Install this section's backend policy process-wide."""
        from .kernels.backends import set_default_backend

        set_default_backend(self.backend)


def check_straggler_knobs(deadline_s: float | None) -> None:
    """Validate the batch deadline (``deadline_s=None``: unbounded).

    The one rule :class:`PipelineConfig` and
    :class:`~repro.pipeline.DecodePipeline` both apply.
    """
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError(f"deadline_s must be positive (or unbounded), got {deadline_s}")


@dataclass(frozen=True)
class PipelineConfig:
    """The decode pipeline behind a service node.

    ``pool``/``workers`` shape the worker pool that runs the decode's
    units, each a pattern batch's whole-plan program over one tile
    (``"serial"`` stays the low-overhead default on small hosts — decode
    already runs off the event loop).  The straggler-tolerance knobs
    mirror :class:`~repro.pipeline.DecodePipeline`: ``hedge``
    speculatively resubmits a bucket once its worker exceeds
    ``max(p95, ewma) * 2`` of similar work and 50 ms (the engine's
    ``HEDGE_*`` constants), ``verify_workers`` syndrome-checks every
    unit's output on its worker before it can merge, and ``deadline_s`` (0 = unbounded) abandons a batch
    gather that outlives its budget with a
    :class:`~repro.pipeline.StragglerTimeout`.
    """

    pool: str = "serial"
    workers: int = 4
    hedge: bool = False
    verify_workers: bool = False
    deadline_s: float = 0.0

    def __post_init__(self) -> None:
        from .pipeline.pool import available_pools

        if self.pool not in available_pools():
            raise ValueError(
                f"pipeline.pool must be one of {', '.join(available_pools())}, "
                f"got {self.pool!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        check_straggler_knobs(self.deadline_s or None)

    def build(self):
        """A live :class:`~repro.pipeline.DecodePipeline` per this section."""
        from .pipeline import DecodePipeline

        return DecodePipeline(
            pool=self.pool,
            workers=self.workers,
            hedge=self.hedge,
            verify_workers=self.verify_workers,
            deadline_s=self.deadline_s or None,
        )


@dataclass(frozen=True)
class RepairConfig:
    """Knobs of the online scrub-and-repair loop
    (:class:`~repro.repair.RepairManager`).

    Repair is *background* work: it scans a bounded chunk of the array
    per tick (never the whole store at once), submits decode batches at
    background priority (the pipeline defers them while foreground
    reads are in flight), and meters write-back through a token bucket
    so a badly corrupted array cannot monopolise the decode pool.

    Parameters
    ----------
    enabled:
        Whether a :class:`~repro.service.BlobService` runs the loop
        beside its request path (started on ``__aenter__`` /
        ``start_repair``, stopped on ``close``).  Off by default.
    scrub_interval_s:
        Pause between scrub ticks.  Each tick scans one chunk and
        drains any repairs it produced; shorter intervals scrub the
        array faster at the cost of more background decode pressure.
    scrub_stripes:
        Stripes syndrome-checked per tick (the scrub cursor's chunk
        size).
    repair_batch:
        Most stripes repaired in one ``decode_batch`` submission.
        Same-pattern stripes in a batch fuse into one region sweep, so
        a disk loss (many stripes, one pattern) heals in a few sweeps.
    rate_blocks_per_s:
        Token-bucket refill rate for repair, in recovered blocks per
        second.  ``0`` disables rate limiting (drain as fast as the
        pipeline admits).
    burst_blocks:
        Token-bucket capacity: how many blocks may be repaired
        back-to-back before the rate limit bites.
    max_errors:
        Corruption-location search depth per stripe.  Keep at 1
        online: :func:`repro.stripes.scrub.scrub_stripe` tries up to
        C(n, k) small solves for each size ``k`` up to this depth,
        and a scrub loop that stalls is worse than one that reports
        "ambiguous" and moves on.

    Every repaired stripe is re-scrubbed; one whose syndromes are still
    nonzero counts as a ``verify_failure`` instead of silently trusting
    the write-back.
    """

    enabled: bool = False
    scrub_interval_s: float = 0.02
    scrub_stripes: int = 16
    repair_batch: int = 8
    rate_blocks_per_s: float = 0.0
    burst_blocks: int = 16
    max_errors: int = 1

    def __post_init__(self) -> None:
        if self.scrub_interval_s < 0:
            raise ValueError("scrub_interval_s must be >= 0")
        if self.scrub_stripes < 1:
            raise ValueError(f"scrub_stripes must be >= 1, got {self.scrub_stripes}")
        if self.repair_batch < 1:
            raise ValueError(f"repair_batch must be >= 1, got {self.repair_batch}")
        if self.rate_blocks_per_s < 0:
            raise ValueError("rate_blocks_per_s must be >= 0")
        if self.burst_blocks < 1:
            raise ValueError(f"burst_blocks must be >= 1, got {self.burst_blocks}")
        if self.max_errors < 1:
            raise ValueError(f"max_errors must be >= 1, got {self.max_errors}")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one degraded-read :class:`~repro.service.BlobService`.

    The defaults encode a latency/throughput trade: coalesce up to
    ``batch_trigger`` same-pattern reads (the pipeline fuses them into
    one region sweep) but never hold a request longer than
    ``flush_interval_s`` waiting for riders — size-or-deadline,
    whichever comes first.  With the fault injector bounding
    consecutive faults per stripe below ``max_retries`` (see
    :class:`repro.service.store.FaultInjector`), retries are guaranteed
    to absorb every transient fault.

    Parameters
    ----------
    batch_trigger:
        Flush a pattern group as soon as it holds this many degraded
        reads.  ``1`` disables coalescing (every read is its own flush).
    flush_interval_s:
        Deadline trigger: a group is flushed this many seconds after
        its *oldest* request was enqueued even if under-full, so a lone
        degraded read never waits for riders that may not come.
    max_pending:
        Admission bound on degraded reads queued in the scheduler.
        Beyond it, requests are shed immediately with
        :class:`~repro.service.errors.ServiceOverloadError`.
    default_deadline_s:
        Per-request deadline when the caller does not pass one.
    max_retries:
        How many times a request hitting a transient
        :class:`~repro.service.errors.NodeFault` is retried (with
        exponential backoff) before falling back / failing.
    backoff_base_s / backoff_cap_s:
        Exponential backoff between retries:
        ``min(backoff_cap_s, backoff_base_s * 2**attempt)``.
    repair:
        The background scrub-and-repair loop (:class:`RepairConfig`;
        runs only when ``repair.enabled``).
    """

    batch_trigger: int = 8
    flush_interval_s: float = 0.002
    max_pending: int = 1024
    default_deadline_s: float = 5.0
    max_retries: int = 3
    backoff_base_s: float = 0.001
    backoff_cap_s: float = 0.050
    repair: RepairConfig = field(default_factory=RepairConfig)

    def __post_init__(self) -> None:
        if self.batch_trigger < 1:
            raise ValueError(f"batch_trigger must be >= 1, got {self.batch_trigger}")
        if self.flush_interval_s < 0:
            raise ValueError("flush_interval_s must be >= 0")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based), in seconds."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt))


#: transports the router can fan requests out over
TRANSPORTS = ("local", "tcp")


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of a :class:`~repro.cluster.Cluster`.

    One record builds one cluster; two clusters built from equal
    configs place every stripe identically.  Every node runs the
    ``service`` and ``pipeline`` sections handed to the cluster beside
    this one.

    Parameters
    ----------
    nodes:
        Node count; members are named ``node-0`` .. ``node-N-1``.
    vnodes:
        Virtual points per node on the placement ring (balance knob).
    seed:
        Placement hash key *and* the base for per-node fault-injector
        seeds — the whole cluster is deterministic from it.
    transport:
        ``"local"`` awaits each node's ``BlobService`` in-process;
        ``"tcp"`` runs every node behind its own JSON-lines wire server
        and fans requests out through pooled
        :class:`~repro.service.net.Client` connections (the same
        protocol ``ppm serve`` speaks).
    connections_per_node:
        TCP-transport connection-pool width per node (ignored for
        ``"local"``).
    rebalance_blocks_per_s:
        Token-bucket refill for background stripe migration, in blocks
        per second.  ``0`` disables metering (move as fast as possible).
    rebalance_burst_blocks:
        Token-bucket capacity for migration bursts.
    storm_z:
        Shape of the erasure a whole-node death inflicts on each stripe
        it hosted: the ``z`` handed to
        :func:`repro.stripes.failures.worst_case_sd` when the stripe is
        re-homed onto a survivor (see ``docs/CLUSTER.md`` for the
        simulation contract).
    """

    nodes: int = 3
    vnodes: int = 64
    seed: int = 2015
    transport: str = "local"
    connections_per_node: int = 4
    rebalance_blocks_per_s: float = 0.0
    rebalance_burst_blocks: int = 256
    storm_z: int = 1

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {self.transport!r}"
            )
        if self.connections_per_node < 1:
            raise ValueError(
                f"connections_per_node must be >= 1, got {self.connections_per_node}"
            )
        if self.rebalance_blocks_per_s < 0:
            raise ValueError("rebalance_blocks_per_s must be >= 0")
        if self.rebalance_burst_blocks < 1:
            raise ValueError(
                f"rebalance_burst_blocks must be >= 1, got {self.rebalance_burst_blocks}"
            )
        if self.storm_z < 1:
            raise ValueError(f"storm_z must be >= 1, got {self.storm_z}")


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
    """One record configuring any serving entry point."""

    store: StoreConfig = field(default_factory=StoreConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    kernels: KernelsConfig = field(default_factory=KernelsConfig)


def _field_types(cls: type) -> dict[str, Any]:
    """Field name → declared type (a section class for a nested section)."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def field_type(path: str) -> Any:
    """The declared type of the field a dotted path names
    (``"service.repair.enabled"`` → ``bool``)."""
    kind: Any = AppConfig
    for name in path.split("."):
        if not dataclasses.is_dataclass(kind) or name not in _field_types(kind):
            raise ValueError(f"unknown config path {path!r}")
        kind = _field_types(kind)[name]
    return kind


def to_dict(config: AppConfig) -> dict[str, Any]:
    """The JSON-able nested-dict form of a config (round-trips through
    :func:`from_dict`)."""
    return dataclasses.asdict(config)


def _build_section(cls: type, data: Any, path: str) -> Any:
    if not isinstance(data, Mapping):
        raise ValueError(f"config section {path} must be a mapping, got {data!r}")
    types = _field_types(cls)
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in types:
            raise ValueError(f"unknown config key {path}.{key}")
        kind = types[key]
        nested = dataclasses.is_dataclass(kind)
        kwargs[key] = _build_section(kind, value, f"{path}.{key}") if nested else value
    return cls(**kwargs)


def from_dict(data: Mapping[str, Any]) -> AppConfig:
    """A *partial* nested dict over the defaults; unknown keys raise.

    The shape mirrors :func:`to_dict`::

        {"store": {"stripes": 64}, "service": {"repair": {"enabled": true}},
         "cluster": {"nodes": 6}, "workload": {"concurrency": 32}}
    """
    sections = _field_types(AppConfig)
    for key in data:
        if key not in sections:
            raise ValueError(
                f"unknown config section {key!r} (expected one of {tuple(sections)})"
            )
    return AppConfig(
        **{key: _build_section(sections[key], value, key) for key, value in data.items()}
    )


def flatten(data: Mapping[str, Any], prefix: str = "") -> dict[str, Any]:
    """Nested config dict → dotted-path overrides (leaves only)."""
    out: dict[str, Any] = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(flatten(value, path + "."))
        else:
            out[path] = value
    return out


def _coerce(value: Any, kind: Any) -> Any:
    """String → field-type coercion for CLI overrides."""
    if not isinstance(value, str) or kind is str:
        return value
    if kind is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a bool: {value!r}")
    return kind(value)


def apply_overrides(config: AppConfig, overrides: Mapping[str, Any]) -> AppConfig:
    """Dotted-path overrides over a config; returns a new config.

    ``{"service.batch_trigger": "4"}`` → ``replace`` down the path with
    the value coerced to the field's declared type.  A path must end at
    a field: ``service.repair.enabled=true`` switches repair on,
    ``service.repair`` alone names a section and raises.
    """
    for path, value in overrides.items():
        config = _set_path(config, path.split("."), value, path)
    return config


def _set_path(node: Any, parts: list[str], value: Any, full: str) -> Any:
    name, rest = parts[0], parts[1:]
    types = _field_types(type(node))
    if name not in types:
        raise ValueError(f"unknown override path {full!r}")
    if dataclasses.is_dataclass(types[name]) != bool(rest):
        raise ValueError(f"override path {full!r} does not name a config field")
    if rest:
        value = _set_path(getattr(node, name), rest, value, full)
    else:
        value = _coerce(value, types[name])
    return replace(node, **{name: value})


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
    deadlines) and owns it.  The store's injector faults reads only: no
    config field sets a worker fault mode.
    """
    from .service import BlobService

    store = build_store(config)
    pipeline = config.pipeline.build()
    return BlobService(
        store, config=config.service, pipeline=pipeline, own_pipeline=True
    )


def build_cluster(config: AppConfig):
    """A :class:`~repro.cluster.Cluster` whose every node runs
    ``config.service`` over a pipeline built from ``config.pipeline``
    (as in :func:`build_service`), with the same per-node
    damage/corruption :func:`build_store` applies."""
    from .cluster import Cluster
    from .service import corrupt_store, damage_store

    config.kernels.apply()
    store_cfg = config.store
    cluster = Cluster.build(
        build_code(store_cfg),
        store_cfg.stripes,
        store_cfg.symbols,
        config.cluster,
        fault_rate=store_cfg.fault_rate,
        service=config.service,
        pipeline=config.pipeline,
    )
    for node in cluster.nodes.values():
        damage_store(node.store, fraction=store_cfg.damaged, seed=store_cfg.seed)
        if store_cfg.corrupt_fraction:
            corrupt_store(
                node.store, fraction=store_cfg.corrupt_fraction, seed=store_cfg.seed
            )
    return cluster
