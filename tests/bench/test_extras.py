"""Integration tests for the extra experiments."""

import pytest

from repro.bench import EXTRAS, run_extra


def test_all_extras_registered():
    assert set(EXTRAS) == {"paper-average", "c2-share", "degraded-read-io"}


def test_run_extra_unknown():
    with pytest.raises(ValueError):
        run_extra("frobnicate")


def test_c2_share_only_small_n():
    report = run_extra("c2-share")
    for n in report.column("n"):
        assert n <= 9  # the paper's boundary
    assert any("C2 < C4" in note for note in report.notes)


def test_degraded_read_lrc_cheapest():
    report = run_extra("degraded-read-io")
    by_code = {row[0]: row[1] for row in report.rows}
    assert by_code["LRC(12,4,2)"] < by_code["RS(16,12)"]
    assert by_code["LRC(12,4,2)"] < by_code["SD(14,16,2,2) row"]



def test_degraded_read_worst_case_rows():
    """The benchmark pattern's three rows: whole pattern / group block /
    H_rest block, with the access-bandwidth bound cited, not built."""
    report = run_extra("degraded-read-io")
    rows = {row[0]: row[1:] for row in report.rows}
    assert rows["SD(10,8,2,2) worst: whole pattern"] == (62, 8, 292)
    assert rows["SD(10,8,2,2) worst: group block"] == (8, 8, 8)
    assert rows["SD(10,8,2,2) worst: H_rest block"] == (62, 8, 62)
    assert any("mean 19.9" in note for note in report.notes)
    assert any("(K+2,K,2)" in note and "not built" in note for note in report.notes)
