"""Worker-pool lifecycle: lazy spawn, persistence, re-spawn, accounting."""

from __future__ import annotations

import threading

import pytest

from repro.pipeline import (
    ProcessWorkerPool,
    SerialPool,
    ThreadWorkerPool,
    WorkerPool,
    available_pools,
    make_pool,
)


def test_available_pools():
    assert available_pools() == ("process", "serial", "thread")


@pytest.mark.parametrize("kind", ["serial", "thread", "process"])
def test_make_pool(kind):
    pool = make_pool(kind, workers=2)
    assert pool.kind == kind
    assert pool.workers == 2
    pool.close()


def test_make_pool_unknown_kind():
    with pytest.raises(ValueError, match="unknown pool kind"):
        make_pool("gpu")


@pytest.mark.parametrize("cls", [SerialPool, ThreadWorkerPool, ProcessWorkerPool])
def test_worker_validation(cls):
    with pytest.raises(ValueError):
        cls(0)


def test_lazy_spawn_and_persistence():
    pool = ThreadWorkerPool(2)
    assert not pool.alive
    assert pool.spawn_count == 0
    try:
        assert pool.submit(int, "7").result() == 7
        assert pool.alive
        assert pool.spawn_count == 1
        # further submissions reuse the same executor
        for _ in range(5):
            pool.submit(len, "abc").result()
        assert pool.spawn_count == 1
        assert pool.spawn_seconds >= 0.0
    finally:
        pool.close()


def test_close_then_respawn():
    pool = ThreadWorkerPool(1)
    pool.submit(int, "1").result()
    pool.close()
    assert not pool.alive
    assert pool.submit(int, "2").result() == 2
    assert pool.spawn_count == 2
    pool.close()


def test_serial_pool_never_spawns():
    pool = SerialPool()
    assert pool.submit(sum, [1, 2, 3]).result() == 6
    assert pool.spawn_count == 0
    assert not pool.alive
    pool.close()  # no-op, must not raise


def test_serial_pool_propagates_exceptions():
    pool = SerialPool()
    future = pool.submit(int, "not a number")
    with pytest.raises(ValueError):
        future.result()


def test_thread_pool_actually_uses_worker_threads():
    with ThreadWorkerPool(2) as pool:
        names = [
            pool.submit(lambda: threading.current_thread().name).result()
            for _ in range(8)
        ]
    assert all(name.startswith("ppm-pool") for name in names)


def test_context_manager_closes():
    with ThreadWorkerPool(1) as pool:
        pool.submit(int, "3").result()
        assert pool.alive
    assert not pool.alive


def test_base_pool_is_serial():
    pool = WorkerPool(1)
    assert pool.submit(int, "9").result() == 9


# -- the atexit registry -----------------------------------------------------


def test_live_registry_tracks_spawned_pools():
    from repro.pipeline import live_pools

    pool = ThreadWorkerPool(1)
    assert pool not in live_pools()  # lazy: nothing spawned yet
    try:
        pool.submit(int, "1").result()
        assert pool in live_pools()
    finally:
        pool.close()
    assert pool not in live_pools()


def test_serial_pool_never_enters_registry():
    from repro.pipeline import live_pools

    pool = SerialPool()
    pool.submit(int, "1").result()
    assert pool not in live_pools()


def test_close_live_pools_closes_everything():
    from repro.pipeline import close_live_pools, live_pools

    pools = [ThreadWorkerPool(1) for _ in range(3)]
    for pool in pools:
        pool.submit(int, "1").result()
    assert all(pool in live_pools() for pool in pools)
    close_live_pools()
    assert not any(pool.alive for pool in pools)
    assert all(pool not in live_pools() for pool in pools)


def test_close_live_pools_survives_a_broken_pool():
    from repro.pipeline import close_live_pools

    bad, good = ThreadWorkerPool(1), ThreadWorkerPool(1)
    bad.submit(int, "1").result()
    good.submit(int, "1").result()
    bad.close = lambda: (_ for _ in ()).throw(RuntimeError("broken"))  # type: ignore[method-assign]
    try:
        close_live_pools()  # must not raise
    finally:
        WorkerPool.close(bad)  # real cleanup
    assert not good.alive


def test_atexit_hook_is_registered():
    import atexit

    from repro.pipeline import close_live_pools
    from repro.pipeline import pool as pool_module

    assert pool_module.close_live_pools is close_live_pools
    # unregister returns None either way; re-register to leave state intact,
    # but first prove the hook was there by unregistering it
    atexit.unregister(close_live_pools)
    atexit.register(close_live_pools)


def test_respawn_after_registry_close_reenters_registry():
    from repro.pipeline import close_live_pools, live_pools

    pool = ThreadWorkerPool(1)
    pool.submit(int, "1").result()
    close_live_pools()
    assert not pool.alive
    pool.submit(int, "2").result()  # persistent pools respawn on demand
    assert pool in live_pools()
    pool.close()


def test_shutdown_hook_installs_exactly_once():
    """Re-running the installer (module reload) must not stack duplicate
    atexit hooks: the marker on the atexit module dedups them."""
    import atexit

    from repro.pipeline import pool as pool_module

    marker = getattr(atexit, pool_module._HOOK_ATTR)
    assert marker is pool_module.close_live_pools
    pool_module._install_shutdown_hook()
    pool_module._install_shutdown_hook()
    # still exactly one registration: unregister once, and the marker
    # protocol lets a fresh install restore it cleanly
    atexit.unregister(pool_module.close_live_pools)
    pool_module._install_shutdown_hook()
    assert getattr(atexit, pool_module._HOOK_ATTR) is pool_module.close_live_pools


def test_swallowed_close_error_is_logged(caplog):
    """close_live_pools keeps going past a broken pool but must leave a
    debug trace, not vanish the error entirely."""
    import logging

    from repro.pipeline import close_live_pools

    bad = ThreadWorkerPool(1)
    bad.submit(int, "1").result()
    bad.close = lambda: (_ for _ in ()).throw(RuntimeError("broken"))  # type: ignore[method-assign]
    try:
        with caplog.at_level(logging.DEBUG, logger="repro.pipeline.pool"):
            close_live_pools()
    finally:
        WorkerPool.close(bad)
    assert any("ignoring error closing pool" in r.message for r in caplog.records)
