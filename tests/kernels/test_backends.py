"""Executor backends: registry, selection, equivalence, failure.

The contract under test: every registered backend is byte-identical to
the numpy baseline on every program it supports; ``"auto"`` runs the
backend :func:`choose` names; a backend that raises at runtime raises
out of ``execute``; a caller buffer at an odd address runs correctly.
The cross-backend equivalence sweep is hypothesis-driven across all
word sizes, including odd region lengths (paired-gather tail paths).
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
from repro.kernels.backends import WIDE_TABLE_SYMBOLS, ExecutorBackend, choose

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


class TestAutoRule:
    #: w -> (pick below WIDE_TABLE_SYMBOLS, pick from it on)
    RULE = {
        4: ("bitsliced", "bitsliced"),
        8: (BASELINE_BACKEND, "bitsliced"),
        16: ("splittab", "splittab"),
        32: (BASELINE_BACKEND, "splittab"),
    }

    @pytest.mark.parametrize("w", WORD_SIZES)
    @pytest.mark.parametrize("at", [False, True], ids=["below", "at"])
    def test_auto_runs_the_rules_pick(self, w, at):
        length = WIDE_TABLE_SYMBOLS - 1 + at
        pick = choose(w, length)
        assert pick == self.RULE[w][at]
        field, matrix, regions = matrix_case(w, rows=1, cols=2, length=length)
        program = lower_matrix_chain(field, [matrix])
        executor = ProgramExecutor(field, backend="auto")
        executor.execute(program, regions)
        assert executor.stats()["backends"].keys() == {pick}
        assert executor.tuning.choices() == {pick: pick}


class TestFallbackAndQuarantine:
    """There is neither: a backend's exception reaches the caller, and a
    buffer at an odd address runs on the backend it was given."""

    def test_backend_exception_propagates(self):
        field, matrix, regions = matrix_case(8)
        program = lower_matrix_chain(field, [matrix])
        register_backend(_ExplodingBackend())
        try:
            executor = ProgramExecutor(field, backend="exploding")
            with pytest.raises(RuntimeError, match="synthetic mid-execution"):
                executor.execute(program, regions)
            assert executor.stats()["executions"] == 0
        finally:
            unregister_backend("exploding")

    def test_bitsliced_handles_unaligned_buffers(self):
        # numpy builds the uint16 view of odd-address memory as an
        # unaligned view: bitsliced runs and its bytes match
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
        assert executor.stats()["backends"].keys() == {"bitsliced"}


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
