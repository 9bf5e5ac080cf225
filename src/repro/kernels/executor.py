"""Chunked, backend-delegated execution of RegionPrograms.

The executor resolves everything the interpreted path re-derives per
call, once per (program, backend):

- every ``MUL``/``MULXOR`` constant is bound to the selected backend's
  precomputed tables (see :mod:`repro.kernels.backends`) at *bind*
  time, so execution is pure vectorised gathers/XORs with ``out=``;
- the slot pool is classified into inputs / outputs / temporaries, so
  temporaries live in thread-local chunk-sized scratch while outputs
  are real full-length arrays;
- regions are processed in L2-sized chunks
  (:data:`DEFAULT_CHUNK_SYMBOLS`), keeping every temporary hot across
  the whole instruction stream.

**Backend selection** is ``"auto"`` by default: on the first execution
of a *(program shape, w, region size)* class the executor
micro-benchmarks every registered, supporting backend on a small region
and records the winner in its :class:`BackendTuning` (shared through
the :class:`~repro.kernels.cache.ProgramCache` by
:class:`~repro.kernels.ops.CompiledRegionOps`, so winners persist
per-process).  A forced backend — per-executor ``backend=`` or the
process-wide :func:`repro.kernels.backends.set_default_backend` that
``AppConfig.kernels.backend`` applies — skips tuning.

**Fallback** keeps fast paths safe: a backend that raises mid-execution
is quarantined from all future selection, the call replays on the
baseline, and :meth:`stats` counts it under ``backend_fallbacks``; a
:class:`~repro.kernels.backends.base.RegionAlignmentError` (caller
buffers the backend cannot re-view) replays on the baseline *without*
quarantine and counts under ``backend_bypasses``.

Execution is thread-safe: bindings are immutable once published,
scratch is per-thread, and the op counter's `record` is lock-free.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..gf.field import GF
from ..gf.region import OpCounter
from .backends import (
    BASELINE_BACKEND,
    BackendTuning,
    ExecutorBackend,
    available_backends,
    default_backend,
    get_backend,
    shape_key,
    size_class,
)
from .backends.base import RegionAlignmentError
from .ir import RegionProgram

#: Default chunk size in symbols: 64 KB of w=8 data — half a typical L2.
DEFAULT_CHUNK_SYMBOLS = 1 << 16

#: Bindings kept for at most this many distinct (program, backend)
#: pairs before the executor's table cache is reset (programs come from
#: a bounded ProgramCache, so this only triggers under cache churn).
_MAX_BOUND = 512

#: Auto-tune sample region length (symbols); small enough that a tune
#: is a few milliseconds, large enough that table cache residency at
#: the sample matches the gated region class (the wide-table backends
#: only win once the region amortises their table footprint).
_TUNE_SYMBOLS = 16384

#: Timed repetitions per backend during a tune (best-of).
_TUNE_REPEATS = 3

#: A challenger must beat the incumbent by this fraction to win the
#: class — hysteresis toward the earlier candidate (the baseline is
#: tried first), so timer noise cannot promote a backend that merely
#: ties.  A mispick is pure regression for every later execution of
#: the class; a missed marginal win costs almost nothing.
_TUNE_MARGIN = 0.05


class _ExecCell:
    """Per-thread execution tallies (merged lock-free on read)."""

    __slots__ = ("executions", "symbols", "seconds", "fallbacks", "bypasses", "by_backend")

    def __init__(self) -> None:
        self.executions = 0
        self.symbols = 0
        self.seconds = 0.0
        self.fallbacks = 0
        self.bypasses = 0
        # backend name -> [executions, symbols, seconds]
        self.by_backend: dict[str, list[float]] = {}


class ProgramExecutor:
    """Executes :class:`RegionProgram` instances over 1-D regions.

    Parameters
    ----------
    field:
        The GF(2^w) field programs are compiled for.
    chunk_symbols:
        L2 blocking factor.
    backend:
        ``"auto"`` (default) tunes per class; a backend name forces it
        for every supporting program (unsupported programs silently use
        the baseline).  The process-wide default from
        ``AppConfig.kernels.backend`` applies when this is ``"auto"``.
    tuning:
        Shared :class:`BackendTuning` (winners + quarantine); private
        by default.

    Each :meth:`execute` is tallied into per-thread cells (count,
    symbols, wall seconds, per-backend split, fallback/bypass counts) —
    the metrics hook the serving layer reads through :meth:`stats` to
    reconcile kernel work with request accounting.  Recording is
    lock-free on the hot path, like
    :class:`~repro.gf.region.OpCounter`.
    """

    def __init__(
        self,
        field: GF,
        chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
        backend: str = "auto",
        tuning: BackendTuning | None = None,
    ):
        if chunk_symbols < 1:
            raise ValueError(f"chunk_symbols must be positive, got {chunk_symbols}")
        if backend != "auto":
            get_backend(backend)  # unknown names fail at construction
        self.field = field
        self.chunk_symbols = int(chunk_symbols)
        self.backend = backend
        self.tuning = tuning if tuning is not None else BackendTuning()
        self._bind_lock = threading.Lock()
        # (id(program), backend) -> (program, bound); the program is
        # pinned so its id cannot be reused while the binding lives.
        self._bound: dict[tuple[int, str], tuple[RegionProgram, tuple]] = {}
        # id(program) -> (program, roles, temps) slot classification
        self._roles: dict[int, tuple[RegionProgram, tuple, int]] = {}
        self._scratch = threading.local()
        self._stats_lock = threading.Lock()
        self._stats_cells: list[_ExecCell] = []
        self._stats_local = threading.local()

    def _stats_cell(self) -> _ExecCell:
        cell = getattr(self._stats_local, "cell", None)
        if cell is None:
            cell = _ExecCell()
            with self._stats_lock:
                self._stats_cells.append(cell)
            self._stats_local.cell = cell
        return cell

    def stats(self) -> dict:
        """Merged execution tallies across threads (JSON-ready).

        ``backends`` splits executions/symbols/seconds per backend that
        actually ran; ``backend_fallbacks`` counts executions replayed
        on the baseline after a backend raised (the backend is
        quarantined); ``backend_bypasses`` counts alignment bypasses
        (no quarantine).
        """
        executions = symbols = fallbacks = bypasses = 0
        seconds = 0.0
        backends: dict[str, dict[str, float]] = {}
        with self._stats_lock:
            cells = list(self._stats_cells)
        for cell in cells:
            executions += cell.executions
            symbols += cell.symbols
            seconds += cell.seconds
            fallbacks += cell.fallbacks
            bypasses += cell.bypasses
            for name, (execs, syms, secs) in cell.by_backend.items():
                agg = backends.setdefault(
                    name, {"executions": 0, "symbols": 0, "seconds": 0.0}
                )
                agg["executions"] += execs
                agg["symbols"] += syms
                agg["seconds"] += secs
        return {
            "executions": executions,
            "symbols": symbols,
            "exec_seconds": seconds,
            "backend_fallbacks": fallbacks,
            "backend_bypasses": bypasses,
            "backends": backends,
        }

    # -- binding -----------------------------------------------------------

    def _classify(self, program: RegionProgram) -> tuple[tuple, int]:
        """Slot roles (inputs / outputs / scratch temporaries), memoised."""
        entry = self._roles.get(id(program))
        if entry is not None and entry[0] is program:
            return entry[1], entry[2]
        roles: list[tuple[str, int]] = [("in", i) for i in range(program.num_inputs)]
        out_index = {slot: k for k, slot in enumerate(program.outputs)}
        temps = 0
        for slot in range(program.num_inputs, program.pool_size):
            if slot in out_index:
                roles.append(("out", out_index[slot]))
            else:
                roles.append(("tmp", temps))
                temps += 1
        with self._bind_lock:
            if len(self._roles) >= _MAX_BOUND:
                self._roles.clear()
            self._roles[id(program)] = (program, tuple(roles), temps)
        return tuple(roles), temps

    def _bind(self, program: RegionProgram, backend: ExecutorBackend) -> tuple:
        key = (id(program), backend.name)
        entry = self._bound.get(key)
        if entry is not None and entry[0] is program:
            return entry[1]
        if program.w != self.field.w:
            raise ValueError(
                f"program compiled for w={program.w}, executor field has w={self.field.w}"
            )
        program.validate()
        bound = backend.bind(self.field, program)
        with self._bind_lock:
            if len(self._bound) >= _MAX_BOUND:
                self._bound.clear()
            self._bound[key] = (program, bound)
        return bound

    # -- scratch -----------------------------------------------------------

    def _scratch_buffers(self, count: int) -> list[np.ndarray]:
        """``count`` chunk-sized per-thread buffers (grown on demand)."""
        buffers = getattr(self._scratch, "buffers", None)
        if buffers is None:
            buffers = []
            self._scratch.buffers = buffers
        while len(buffers) < count:
            buffers.append(np.empty(self.chunk_symbols, dtype=self.field.dtype))
        return buffers

    def _backend_scratch(self, backend: ExecutorBackend) -> object:
        """Per-thread, per-backend kernel scratch (grown on demand)."""
        table = getattr(self._scratch, "backend", None)
        if table is None:
            table = {}
            self._scratch.backend = table
        scratch = table.get(backend.name)
        if scratch is None:
            scratch = backend.make_scratch(self.field, self.chunk_symbols)
            table[backend.name] = scratch
        return scratch

    # -- backend selection -------------------------------------------------

    def _usable(self, name: str, program: RegionProgram) -> ExecutorBackend | None:
        try:
            backend = get_backend(name)
        except KeyError:
            return None
        if self.tuning.is_quarantined(name):
            return None
        if not backend.supports(self.field, program):
            return None
        return backend

    def _select_backend(self, program: RegionProgram, length: int) -> ExecutorBackend:
        forced = self.backend if self.backend != "auto" else default_backend()
        baseline = get_backend(BASELINE_BACKEND)
        if forced != "auto":
            return self._usable(forced, program) or baseline
        key = shape_key(program, size_class(length))
        name = self.tuning.choice(key)
        if name is None:
            name = self._autotune(program, length, key)
        if name == BASELINE_BACKEND:
            return baseline
        return self._usable(name, program) or baseline

    def _tune_inputs(self, length: int) -> np.ndarray:
        """Deterministic pseudo-random valid symbols for timing runs.

        A splitmix64-style finalizer, not a plain multiplicative hash:
        adjacent symbols must be jointly uniform, because backends that
        gather multi-symbol words (the paired uint16 tables) would see
        a structured sequence's few distinct word values as a tiny,
        cache-resident index set and tune unrealistically fast.
        """
        mask = (1 << self.field.w) - 1
        x = np.arange(1, length + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return (x & np.uint64(mask)).astype(self.field.dtype)

    def _autotune(self, program: RegionProgram, length: int, key: tuple) -> str:
        """Micro-benchmark candidates on a small region; record winner.

        Failures during tuning quarantine the backend (it never wins a
        class it cannot run) but are otherwise silent — the baseline
        always completes.
        """
        sample = max(2, min(length, self.chunk_symbols, _TUNE_SYMBOLS))
        base = self._tune_inputs(sample)
        inputs = [base.copy() for _ in range(program.num_inputs)]
        outs = [np.empty(sample, dtype=self.field.dtype) for _ in program.outputs]
        candidates = [BASELINE_BACKEND] + [
            name for name in available_backends() if name != BASELINE_BACKEND
        ]
        best_name = BASELINE_BACKEND
        best_seconds = float("inf")
        for name in candidates:
            backend = (
                get_backend(BASELINE_BACKEND)
                if name == BASELINE_BACKEND
                else self._usable(name, program)
            )
            if backend is None:
                continue
            try:
                self._run(program, backend, inputs, outs, sample)  # warm bind + caches
                # time a block of consecutive runs: steady-state throughput
                # (table-eviction effects included), not the warm best case
                t0 = time.perf_counter()
                for _ in range(_TUNE_REPEATS):
                    self._run(program, backend, inputs, outs, sample)
                seconds = time.perf_counter() - t0
            except Exception:
                if name != BASELINE_BACKEND:
                    self.tuning.quarantine(name)
                continue
            threshold = (
                best_seconds
                if name == BASELINE_BACKEND
                else best_seconds * (1.0 - _TUNE_MARGIN)
            )
            if seconds < threshold:
                best_seconds = seconds
                best_name = name
        self.tuning.record(key, best_name)
        return best_name

    # -- execution ---------------------------------------------------------

    def _run(
        self,
        program: RegionProgram,
        backend: ExecutorBackend,
        inputs: list[np.ndarray],
        out_arrays: list[np.ndarray],
        length: int,
    ) -> None:
        bound = self._bind(program, backend)
        roles, temps = self._classify(program)
        scratch = self._scratch_buffers(temps)
        kernel_scratch = self._backend_scratch(backend)
        pool: list[np.ndarray | None] = [None] * len(roles)
        for start in range(0, length, self.chunk_symbols):
            stop = min(start + self.chunk_symbols, length)
            n = stop - start
            for slot, (kind, index) in enumerate(roles):
                if kind == "in":
                    pool[slot] = inputs[index][start:stop]
                elif kind == "out":
                    pool[slot] = out_arrays[index][start:stop]
                else:
                    pool[slot] = scratch[index][:n]
            backend.execute_chunk(bound, pool, n, kernel_scratch)

    def execute(
        self,
        program: RegionProgram,
        inputs: list[np.ndarray],
        counter: OpCounter | None = None,
        outs: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Run ``program`` over input regions; returns the output regions.

        All regions must be 1-D, of equal length and of the field's
        dtype.  ``outs``, when given, supplies the output arrays (must
        be C-contiguous — the executor writes chunk views into them).
        The program's *model* op counts are booked into ``counter`` in
        one lock-free call, exactly matching what the interpreted path
        would have recorded for the same matrices.
        """
        t_start = time.perf_counter()
        if len(inputs) != program.num_inputs:
            raise ValueError(
                f"program expects {program.num_inputs} input regions, got {len(inputs)}"
            )
        dtype = self.field.dtype
        length = inputs[0].shape[0] if inputs[0].ndim == 1 else -1
        for region in inputs:
            if region.ndim != 1 or region.shape[0] != length:
                raise ValueError("all regions must be 1-D of equal length")
            if region.dtype != dtype:
                raise TypeError(
                    f"region dtype {region.dtype} does not match field dtype {dtype}"
                )
        inputs = [np.ascontiguousarray(region) for region in inputs]
        if outs is None:
            out_arrays = [np.empty(length, dtype=dtype) for _ in program.outputs]
        else:
            if len(outs) != len(program.outputs):
                raise ValueError(
                    f"program produces {len(program.outputs)} outputs, got {len(outs)} buffers"
                )
            for out in outs:
                if out.ndim != 1 or out.shape[0] != length:
                    raise ValueError("all regions must be 1-D of equal length")
                if out.dtype != dtype:
                    raise TypeError(
                        f"region dtype {out.dtype} does not match field dtype {dtype}"
                    )
                if not out.flags.c_contiguous:
                    raise ValueError("output regions must be C-contiguous")
            out_arrays = outs

        backend = self._select_backend(program, length)
        cell = self._stats_cell()
        try:
            self._run(program, backend, inputs, out_arrays, length)
        except RegionAlignmentError:
            # caller memory the backend cannot re-view: replay on the
            # baseline, do NOT quarantine (the next call may be aligned)
            cell.bypasses += 1
            backend = get_backend(BASELINE_BACKEND)
            self._run(program, backend, inputs, out_arrays, length)
        except Exception:
            if backend.name == BASELINE_BACKEND:
                raise
            # a broken backend (e.g. a JIT failing mid-process) must
            # never break decoding: bench it for good and replay
            self.tuning.quarantine(backend.name)
            cell.fallbacks += 1
            backend = get_backend(BASELINE_BACKEND)
            self._run(program, backend, inputs, out_arrays, length)

        if counter is not None:
            counter.record(
                program.mult_xors,
                program.mult_xors * length,
                xor_only=program.xor_only,
            )
        elapsed = time.perf_counter() - t_start
        worked = program.mult_xors * length
        cell.executions += 1
        cell.symbols += worked
        cell.seconds += elapsed
        per = cell.by_backend.get(backend.name)
        if per is None:
            per = cell.by_backend[backend.name] = [0, 0, 0.0]
        per[0] += 1
        per[1] += worked
        per[2] += elapsed
        return out_arrays


__all__ = ["ProgramExecutor"]
