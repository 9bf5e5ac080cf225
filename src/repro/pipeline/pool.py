"""Persistent worker pools — the only module allowed to build executors.

Every other package obtains its parallelism here (lint rule PPM007
forbids direct ``ThreadPoolExecutor``/``ProcessPoolExecutor``
construction elsewhere), which is what makes pool lifetime a managed,
measurable quantity: a :class:`WorkerPool` is created lazily on first
use, *stays alive across submissions* (the per-call spawn overhead the
paper measures in §III-C is paid once, not per stripe), and counts how
many times its underlying executor was actually spawned so tests can
assert "one pool per batch".  A pool abandoned without :meth:`close`
needs no exit hook of its own: :mod:`concurrent.futures` joins every
thread executor's workers at interpreter exit.

Two implementations share the interface:

- :class:`SerialPool` — runs tasks inline on the caller's thread (the
  T=1 / parallel-off path, no executor at all);
- :class:`ThreadWorkerPool` — shared-memory threads (cheap submission,
  GIL-bound table gathers), the paper's T workers in one address space.

``make_pool(kind, workers)`` maps the CLI/config names to classes.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from typing import Any, Callable


class StragglerTimeout(TimeoutError):
    """A pooled gather expired before every bucket finished.

    Raised by :meth:`repro.pipeline.DecodePipeline._gather_hedged` (the
    one gather every pool's work goes through) when ``deadline_s``
    elapses with work still outstanding.  ``completed`` / ``pending``
    hold the *bucket indices* (positions in the submitted sequence)
    that did and did not finish, so callers can tell partial progress
    from a total stall; ``results`` maps each completed index to its
    result, letting a caller salvage finished work (e.g. retry only the
    stragglers).  Outstanding futures have already been cancelled —
    ones already running are abandoned, never joined.
    """

    def __init__(
        self,
        deadline_s: float,
        completed: tuple[int, ...],
        pending: tuple[int, ...],
        results: dict[int, Any] | None = None,
    ):
        super().__init__(
            f"{len(pending)} of {len(completed) + len(pending)} bucket(s) "
            f"still outstanding after {deadline_s:.3f}s deadline"
        )
        self.deadline_s = deadline_s
        self.completed = completed
        self.pending = pending
        self.results = dict(results or {})


class WorkerPool:
    """A lazily-spawned, persistent pool of ``workers`` workers.

    The executor is created on first :meth:`submit` and reused until
    :meth:`close`; submitting again after a close re-spawns it (and
    increments :attr:`spawn_count`, which is therefore "number of times
    worker startup cost was paid").  Usable as a context manager.
    """

    kind = "serial"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.spawn_count = 0
        self.spawn_seconds = 0.0
        self._executor: Executor | None = None
        self._lock = threading.Lock()

    # -- executor lifecycle -------------------------------------------------

    def _spawn(self) -> Executor | None:
        """Build the underlying executor (None for the serial pool)."""
        return None

    def _ensure(self) -> Executor | None:
        with self._lock:
            if self._executor is None:
                t0 = time.perf_counter()
                self._executor = self._spawn()
                self.spawn_seconds += time.perf_counter() - t0
                self.spawn_count += 1
            return self._executor

    @property
    def alive(self) -> bool:
        """Whether an executor is currently spawned."""
        return self._executor is not None

    def close(self) -> None:
        """Shut the executor down; the next submit re-spawns it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- task submission ----------------------------------------------------

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        executor = self._ensure()
        if executor is None:  # serial: run inline, wrap in a done Future
            future: Future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # propagate via .result(), like a pool
                future.set_exception(exc)
            return future
        return executor.submit(fn, *args, **kwargs)


class SerialPool(WorkerPool):
    """Inline execution — the no-parallelism reference implementation.

    ``spawn_count`` stays 0 forever: there is nothing to spawn.
    """

    kind = "serial"

    def _ensure(self) -> Executor | None:  # no spawn accounting
        return None


class ThreadWorkerPool(WorkerPool):
    """Persistent :class:`ThreadPoolExecutor` behind the pool interface."""

    kind = "thread"

    def _spawn(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="ppm-pool"
        )


_POOL_KINDS: dict[str, type[WorkerPool]] = {
    "serial": SerialPool,
    "thread": ThreadWorkerPool,
}


def available_pools() -> tuple[str, ...]:
    """Registered pool kinds, sorted."""
    return tuple(sorted(_POOL_KINDS))


def make_pool(kind: str, workers: int = 1) -> WorkerPool:
    """Construct a pool by name: ``serial`` or ``thread``."""
    try:
        cls = _POOL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown pool kind {kind!r}; available: {', '.join(available_pools())}"
        ) from None
    return cls(workers)
