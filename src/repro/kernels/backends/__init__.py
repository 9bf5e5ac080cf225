"""Pluggable executor backends for compiled RegionPrograms.

The :class:`~repro.kernels.executor.ProgramExecutor` delegates chunk
execution to a registered :class:`ExecutorBackend`:

- ``numpy`` — the table-gather baseline (every width; it runs every
  program another backend does not support);
- ``bitsliced`` — paired bit-plane gathers through fused two-symbol
  tables for w=4/8;
- ``splittab`` — fused halfword split tables (log/antilog-built for
  w=16) for w=16/32.

Selection is ``"auto"`` by default: the pure rule :func:`choose` picks
a backend from the field width and the region length alone (the
measured crossovers are in docs/KERNELS.md).  A process-wide override
is available through :func:`set_default_backend` (wired to
``AppConfig.kernels.backend``) and per-executor through
``ProgramExecutor(backend=...)``; a registered extra backend runs only
when forced that way.

Registering your own backend: subclass :class:`ExecutorBackend`,
implement ``supports`` / ``bind`` / ``execute_chunk`` and call
:func:`register_backend` — docs/KERNELS.md walks through it.
"""

from __future__ import annotations

import threading

from .base import ExecutorBackend
from .bitsliced import BitslicedBackend, paired_table
from .numpy_tables import NumpyTablesBackend
from .splittab import SplitTableBackend, halfword_tables

#: The baseline: runs every program on every width.
BASELINE_BACKEND = "numpy"

#: The wide-table crossover: from this many symbols a region amortises
#: the 128-256 KiB per-constant tables of ``bitsliced`` (w=8) and
#: ``splittab`` (w=32), and below it their cache misses lose to the
#: baseline's small tables.  w=4 and w=16 win at every length.
WIDE_TABLE_SYMBOLS = 1 << 14

#: The wide-table backend of each width.
_WIDE = {4: "bitsliced", 8: "bitsliced", 16: "splittab", 32: "splittab"}

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


def choose(w: int, length: int) -> str:
    """The backend ``"auto"`` runs over ``length``-symbol regions at width ``w``."""
    if w in (4, 16) or length >= WIDE_TABLE_SYMBOLS:
        return _WIDE.get(w, BASELINE_BACKEND)
    return BASELINE_BACKEND


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
    "WIDE_TABLE_SYMBOLS",
    "BitslicedBackend",
    "ExecutorBackend",
    "NumpyTablesBackend",
    "SplitTableBackend",
    "available_backends",
    "choose",
    "default_backend",
    "get_backend",
    "halfword_tables",
    "paired_table",
    "register_backend",
    "set_default_backend",
    "unregister_backend",
]
