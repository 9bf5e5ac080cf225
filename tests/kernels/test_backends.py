"""Executor backends: registry, selection, equivalence, fallback.

The contract under test: every registered backend is byte-identical to
the numpy baseline on every program it supports; a backend that raises
at runtime is quarantined and the execution silently replays on the
baseline; a misaligned caller buffer bypasses (no quarantine).  The
cross-backend equivalence sweep is hypothesis-driven across all word
sizes, including odd region lengths (paired-gather tail paths).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF, RegionOps
from repro.kernels import (
    BASELINE_BACKEND,
    ProgramExecutor,
    available_backends,
    default_backend,
    get_backend,
    lower_matrix_chain,
    register_backend,
    set_default_backend,
    unregister_backend,
)
from repro.kernels.backends import ExecutorBackend

WORD_SIZES = [4, 8, 16, 32]


def matrix_case(w, rows=3, cols=5, length=257, seed=None):
    field = GF(w)
    rng = np.random.default_rng(w if seed is None else seed)
    matrix = rng.integers(0, 1 << w, size=(rows, cols), dtype=field.dtype)
    regions = [
        rng.integers(0, 1 << w, size=length, dtype=field.dtype)
        for _ in range(cols)
    ]
    return field, matrix, regions


class TestRegistry:
    def test_baseline_registered_first(self):
        names = available_backends()
        assert names[0] == BASELINE_BACKEND
        assert "bitsliced" in names
        assert "splittab" in names

    def test_choices_cover_registry(self):
        """The config accepts exactly ``auto`` plus what registered."""
        from repro.config import KernelsConfig

        for name in ("auto", *available_backends()):
            assert KernelsConfig(backend=name).backend == name
        with pytest.raises(ValueError, match="backend"):
            KernelsConfig(backend="nonesuch")

    def test_get_backend_unknown_raises(self):
        with pytest.raises(KeyError, match="no executor backend"):
            get_backend("nonesuch")

    def test_baseline_cannot_be_unregistered(self):
        with pytest.raises(ValueError):
            unregister_backend(BASELINE_BACKEND)

    def test_register_unregister_roundtrip(self):
        class Dummy(ExecutorBackend):
            name = "dummy-roundtrip"

            def supports(self, field, program):
                return False

        backend = Dummy()
        register_backend(backend)
        try:
            assert get_backend("dummy-roundtrip") is backend
            with pytest.raises(ValueError, match="already registered"):
                register_backend(Dummy())
        finally:
            unregister_backend("dummy-roundtrip")
        assert "dummy-roundtrip" not in available_backends()

    def test_executor_rejects_unknown_backend(self):
        with pytest.raises(KeyError):
            ProgramExecutor(GF(8), backend="nonesuch")


class TestSupports:
    @pytest.mark.parametrize("w", WORD_SIZES)
    def test_width_support_matrix(self, w):
        field, matrix, _ = matrix_case(w)
        program = lower_matrix_chain(field, [matrix])
        assert get_backend("numpy").supports(field, program)
        assert get_backend("bitsliced").supports(field, program) == (w in (4, 8))
        assert get_backend("splittab").supports(field, program) == (w in (16, 32))

    def test_unsupported_forced_backend_uses_baseline(self):
        # forcing splittab on a w=8 program silently runs the baseline
        field, matrix, regions = matrix_case(8)
        program = lower_matrix_chain(field, [matrix])
        executor = ProgramExecutor(field, backend="splittab")
        got = executor.execute(program, regions)
        expected = RegionOps(field).matrix_apply(matrix, regions)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)
        assert executor.stats()["backends"].keys() == {BASELINE_BACKEND}


class TestCrossBackendEquivalence:
    """Every backend must be byte-identical to the baseline."""

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.sampled_from(WORD_SIZES),
        rows=st.integers(1, 5),
        cols=st.integers(1, 6),
        # odd lengths exercise the paired-gather scalar tails; tiny
        # lengths exercise the sub-pair edge
        length=st.integers(1, 513),
        seed=st.integers(0, 2**31),
    )
    def test_backends_match_baseline(self, w, rows, cols, length, seed):
        field = GF(w)
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 1 << w, size=(rows, cols), dtype=field.dtype)
        regions = [
            rng.integers(0, 1 << w, size=length, dtype=field.dtype)
            for _ in range(cols)
        ]
        program = lower_matrix_chain(field, [matrix])
        expected = ProgramExecutor(field, backend=BASELINE_BACKEND).execute(
            program, regions
        )
        for name in available_backends():
            if name == BASELINE_BACKEND:
                continue
            if not get_backend(name).supports(field, program):
                continue
            got = ProgramExecutor(field, backend=name).execute(program, regions)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e), (name, w, length)

    @pytest.mark.parametrize("w", [4, 8])
    def test_bitsliced_odd_and_even_lengths(self, w):
        for length in (1, 2, 3, 255, 256, 257):
            field, matrix, regions = matrix_case(w, length=length, seed=length)
            program = lower_matrix_chain(field, [matrix])
            got = ProgramExecutor(field, backend="bitsliced").execute(
                program, regions
            )
            expected = RegionOps(field).matrix_apply(matrix, regions)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e), length


class _ExplodingBackend(ExecutorBackend):
    """Supports everything, binds fine, dies on first chunk."""

    name = "exploding"

    def supports(self, field, program):
        return True

    def bind(self, field, program):
        return tuple(program.instructions)

    def execute_chunk(self, bound, pool, n, scratch):
        raise RuntimeError("synthetic mid-execution failure")


class TestFallbackAndQuarantine:
    def test_runtime_failure_falls_back_and_quarantines(self):
        field, matrix, regions = matrix_case(8)
        program = lower_matrix_chain(field, [matrix])
        register_backend(_ExplodingBackend())
        try:
            executor = ProgramExecutor(field, backend="exploding")
            got = executor.execute(program, regions)
            expected = RegionOps(field).matrix_apply(matrix, regions)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)
            stats = executor.stats()
            assert stats["backend_fallbacks"] == 1
            assert executor.tuning.is_quarantined("exploding")
            # tallied under the backend that actually completed
            assert BASELINE_BACKEND in stats["backends"]
            assert "exploding" not in stats["backends"]
            # second execution skips the quarantined backend entirely
            executor.execute(program, regions)
            assert executor.stats()["backend_fallbacks"] == 1
        finally:
            unregister_backend("exploding")

    def test_quarantine_voids_recorded_wins(self):
        field, matrix, regions = matrix_case(8)
        program = lower_matrix_chain(field, [matrix])
        executor = ProgramExecutor(field, backend="auto")
        executor.execute(program, regions)
        choices = executor.tuning.choices()
        assert choices, "auto-tune should record a winner"
        key, winner = next(iter(choices.items()))
        executor.tuning.quarantine(winner)
        assert executor.tuning.choice(key) is None

    def test_alignment_error_bypasses_without_quarantine(self):
        from repro.kernels.backends import RegionAlignmentError

        class Picky(ExecutorBackend):
            """Raises the alignment signal once, then executes fine."""

            name = "picky-alignment"

            def __init__(self):
                super().__init__()
                self.raised = False

            def supports(self, field, program):
                return True

            def bind(self, field, program):
                return get_backend(BASELINE_BACKEND).bind(field, program)

            def execute_chunk(self, bound, pool, n, scratch):
                if not self.raised:
                    self.raised = True
                    raise RegionAlignmentError("synthetic misaligned buffer")
                get_backend(BASELINE_BACKEND).execute_chunk(
                    bound, pool, n, scratch
                )

        field, matrix, regions = matrix_case(8)
        program = lower_matrix_chain(field, [matrix])
        expected = RegionOps(field).matrix_apply(matrix, regions)
        register_backend(Picky())
        try:
            executor = ProgramExecutor(field, backend="picky-alignment")
            got = executor.execute(program, regions)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)
            stats = executor.stats()
            assert stats["backend_bypasses"] == 1
            assert stats["backend_fallbacks"] == 0
            assert not executor.tuning.is_quarantined("picky-alignment")
            # the very next call uses the backend again (no sticky state)
            executor.execute(program, regions)
            stats = executor.stats()
            assert stats["backend_bypasses"] == 1
            assert "picky-alignment" in stats["backends"]
        finally:
            unregister_backend("picky-alignment")

    def test_bitsliced_handles_unaligned_buffers(self):
        # whether numpy accepts the unaligned uint16 view (executing
        # bitsliced) or refuses it (alignment bypass to the baseline),
        # the results must be correct and nothing gets quarantined
        field = GF(8)
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 256, size=(2, 3), dtype=np.uint8)
        program = lower_matrix_chain(field, [matrix])
        length = 64
        regions = []
        for _ in range(3):
            raw = bytearray(length + 1)
            view = np.frombuffer(raw, dtype=np.uint8, offset=1)  # odd pointer
            view[:] = rng.integers(0, 256, size=length, dtype=np.uint8)
            regions.append(view)
        executor = ProgramExecutor(field, backend="bitsliced")
        got = executor.execute(program, regions)
        expected = RegionOps(field).matrix_apply(matrix, regions)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)
        assert executor.stats()["backend_fallbacks"] == 0
        assert not executor.tuning.is_quarantined("bitsliced")


class TestDefaultBackendOverride:
    def test_process_default_applies_to_auto_executors(self):
        field, matrix, regions = matrix_case(8)
        program = lower_matrix_chain(field, [matrix])
        previous = default_backend()
        set_default_backend("bitsliced")
        try:
            executor = ProgramExecutor(field)
            executor.execute(program, regions)
            assert executor.stats()["backends"].keys() == {"bitsliced"}
        finally:
            set_default_backend(previous)

    def test_set_default_rejects_unknown(self):
        with pytest.raises((KeyError, ValueError)):
            set_default_backend("nonesuch")


class TestStatsAccounting:
    def test_per_backend_split_sums_to_totals(self):
        field, matrix, regions = matrix_case(8)
        program = lower_matrix_chain(field, [matrix])
        executor = ProgramExecutor(field, backend=BASELINE_BACKEND)
        for _ in range(3):
            executor.execute(program, regions)
        stats = executor.stats()
        assert stats["executions"] == 3
        per_backend = stats["backends"][BASELINE_BACKEND]
        assert per_backend["executions"] == 3
        assert per_backend["symbols"] == stats["symbols"]
