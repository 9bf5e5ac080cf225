"""Pluggable executor backends for compiled RegionPrograms.

The :class:`~repro.kernels.executor.ProgramExecutor` delegates chunk
execution to a registered :class:`ExecutorBackend`:

- ``numpy`` — the table-gather baseline (every width; the fallback
  target for bypasses and quarantines);
- ``bitsliced`` — paired bit-plane gathers through fused two-symbol
  tables for w=4/8 (typically 1.2-2x the baseline, see CI gate);
- ``splittab`` — fused halfword split tables (log/antilog-built for
  w=16) for w=16/32.

Selection is ``"auto"`` by default: the executor micro-benchmarks the
candidates per *(program shape, w, region size)* class and caches the
winner (:mod:`.tuning`).  A process-wide override is available through
:func:`set_default_backend` (wired to ``AppConfig.kernels.backend``)
and per-executor through ``ProgramExecutor(backend=...)``.

Registering your own backend: subclass :class:`ExecutorBackend`,
implement ``supports`` / ``bind`` / ``execute_chunk`` and call
:func:`register_backend` — docs/KERNELS.md walks through it.
"""

from __future__ import annotations

import threading

from .base import ExecutorBackend, RegionAlignmentError
from .bitsliced import BitslicedBackend, paired_table
from .numpy_tables import NumpyTablesBackend
from .splittab import SplitTableBackend, halfword_tables
from .tuning import BackendTuning, shape_key, size_class

#: The baseline every executor can always fall back to.
BASELINE_BACKEND = "numpy"

_registry_lock = threading.Lock()
_REGISTRY: dict[str, ExecutorBackend] = {}
_DEFAULT = "auto"


def register_backend(backend: ExecutorBackend, replace: bool = False) -> None:
    """Add a backend to the registry (``replace=True`` to override)."""
    with _registry_lock:
        if backend.name in _REGISTRY and not replace:
            raise ValueError(f"backend {backend.name!r} is already registered")
        _REGISTRY[backend.name] = backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (the baseline cannot be removed)."""
    if name == BASELINE_BACKEND:
        raise ValueError("the baseline numpy backend cannot be unregistered")
    with _registry_lock:
        _REGISTRY.pop(name, None)


def get_backend(name: str) -> ExecutorBackend:
    """The registered backend called ``name`` (KeyError if absent)."""
    with _registry_lock:
        try:
            return _REGISTRY[name]
        except KeyError:
            raise KeyError(
                f"no executor backend {name!r}; registered: "
                f"{sorted(_REGISTRY)}"
            ) from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, baseline first."""
    with _registry_lock:
        names = list(_REGISTRY)
    names.sort(key=lambda n: (n != BASELINE_BACKEND, n))
    return tuple(names)


def set_default_backend(name: str) -> None:
    """Process-wide default selection policy: ``"auto"`` or a name.

    This is what ``AppConfig.kernels.backend`` applies; executors built
    without an explicit ``backend=`` consult it on every execution.
    """
    global _DEFAULT
    if name != "auto":
        get_backend(name)  # validate eagerly
    with _registry_lock:
        _DEFAULT = name


def default_backend() -> str:
    """The current process-wide selection policy name."""
    with _registry_lock:
        return _DEFAULT


register_backend(NumpyTablesBackend())
register_backend(BitslicedBackend())
register_backend(SplitTableBackend())

__all__ = [
    "BASELINE_BACKEND",
    "BackendTuning",
    "BitslicedBackend",
    "ExecutorBackend",
    "NumpyTablesBackend",
    "RegionAlignmentError",
    "SplitTableBackend",
    "available_backends",
    "default_backend",
    "get_backend",
    "halfword_tables",
    "paired_table",
    "register_backend",
    "set_default_backend",
    "shape_key",
    "size_class",
    "unregister_backend",
]
