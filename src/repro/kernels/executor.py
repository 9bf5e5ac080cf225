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

**Backend selection** is ``"auto"`` by default: every execution runs
the backend :func:`repro.kernels.backends.choose` names for the field
width and the region length.  A forced backend — per-executor
``backend=`` or the process-wide
:func:`repro.kernels.backends.set_default_backend` that
``AppConfig.kernels.backend`` applies — replaces the rule.  A program
the selected backend does not support runs on the baseline.  An
exception a backend raises reaches the caller.

Execution is thread-safe: bindings are immutable once published,
scratch is per-thread, and the execution tallies are per-thread cells.
The executor books no model op counts: the engine books each plan
stage it runs (``DecodePipeline._book``).
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np

from ..gf.field import GF
from .backends import (
    BASELINE_BACKEND,
    ExecutorBackend,
    choose,
    default_backend,
    get_backend,
)
from .ir import RegionProgram

#: Default chunk size in symbols: 64 KB of w=8 data — half a typical L2.
DEFAULT_CHUNK_SYMBOLS = 1 << 16

#: Bindings kept for at most this many distinct (program, backend)
#: pairs before the executor's table cache is reset (programs come from
#: a bounded ProgramCache, so this only triggers under cache churn).
_MAX_BOUND = 512


class _ExecCell:
    """Per-thread execution tallies (merged lock-free on read)."""

    __slots__ = ("executions", "symbols", "seconds", "by_backend")

    def __init__(self) -> None:
        self.executions = 0
        self.symbols = 0
        self.seconds = 0.0
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
        ``"auto"`` (default) asks :func:`~repro.kernels.backends.choose`
        per execution; a backend name forces it for every supporting
        program (unsupported programs silently use the baseline).  The
        process-wide default from ``AppConfig.kernels.backend`` applies
        when this is ``"auto"``.

    Each :meth:`execute` is tallied into per-thread cells (count,
    symbols, wall seconds, per-backend split) — the metrics hook the
    serving layer reads through :meth:`stats` to reconcile kernel work
    with request accounting.  Recording is lock-free on the hot path.
    """

    def __init__(
        self,
        field: GF,
        chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
        backend: str = "auto",
    ):
        if chunk_symbols < 1:
            raise ValueError(f"chunk_symbols must be positive, got {chunk_symbols}")
        if backend != "auto":
            get_backend(backend)  # unknown names fail at construction
        self.field = field
        self.chunk_symbols = int(chunk_symbols)
        self.backend = backend
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
        actually ran.
        """
        executions = symbols = 0
        seconds = 0.0
        backends: dict[str, dict[str, float]] = {}
        with self._stats_lock:
            cells = list(self._stats_cells)
        for cell in cells:
            executions += cell.executions
            symbols += cell.symbols
            seconds += cell.seconds
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
            "backends": backends,
        }

    @property
    def tuning(self) -> SimpleNamespace:
        """``tuning.choices()``: ``{name: name}`` for each backend this
        executor ran, read from :meth:`stats`.

        It holds no state.  Its one caller is the autotune probe of
        ``perf/layers.py``; delete it together with that call.
        """
        return SimpleNamespace(
            choices=lambda: {name: name for name in self.stats()["backends"]}
        )

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

    def _select_backend(self, program: RegionProgram, length: int) -> ExecutorBackend:
        name = self.backend if self.backend != "auto" else default_backend()
        if name == "auto":
            name = choose(self.field.w, length)
        try:
            backend = get_backend(name)
        except KeyError:  # unregistered since it was chosen or forced
            return get_backend(BASELINE_BACKEND)
        if not backend.supports(self.field, program):
            return get_backend(BASELINE_BACKEND)
        return backend

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
        outs: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Run ``program`` over input regions; returns the output regions.

        All regions must be 1-D, of equal length and of the field's
        dtype.  ``outs``, when given, supplies the output arrays (must
        be C-contiguous — the executor writes chunk views into them).
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
        self._run(program, backend, inputs, out_arrays, length)

        elapsed = time.perf_counter() - t_start
        worked = program.mult_xors * length
        cell = self._stats_cell()
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
