"""Integration tests: every figure driver runs and shows the paper's shapes.

These use tiny stripe sizes so the whole module stays fast; the assertions
are on trend directions (who wins, what grows), not absolute numbers.
"""

import pytest

from repro.bench import FIGURES, run_figure

TINY = 1 << 14  # 16 KB stripes for measured figures


@pytest.fixture(scope="module")
def fig4():
    return run_figure(4, fast=True)


def test_all_figures_registered():
    assert sorted(FIGURES) == [4, 5, 6, 7, 8, 9, 10, 11]


def test_run_figure_unknown():
    with pytest.raises(ValueError):
        run_figure(3)


def test_figure4_c4_beats_c1(fig4):
    for ratio in fig4.column("C4/C1"):
        assert ratio < 1.0


def test_figure4_counted_close_to_model(fig4):
    for counted, model in zip(fig4.column("C4/C1"), fig4.column("model C4/C1")):
        assert counted == pytest.approx(model, rel=0.02)


def test_figure4_ratio_grows_with_n(fig4):
    for m, s in {(row[0], row[1]) for row in fig4.rows}:
        series = [row for row in fig4.rows if (row[0], row[1]) == (m, s)]
        series.sort(key=lambda row: row[2])  # by n
        ratios = [row[5] for row in series]
        assert ratios == sorted(ratios), (m, s)


def test_figure5_ratio_falls_with_z():
    report = run_figure(5, fast=True)
    for m, n in {(row[0], row[1]) for row in report.rows}:
        series = sorted(
            (row for row in report.rows if (row[0], row[1]) == (m, n)),
            key=lambda row: row[2],
        )
        ratios = [row[3] for row in series]
        assert ratios == sorted(ratios, reverse=True), (m, n)


def test_figure6_ratio_falls_with_r():
    report = run_figure(6, fast=True)
    for m, s in {(row[0], row[1]) for row in report.rows}:
        series = sorted(
            (row for row in report.rows if (row[0], row[1]) == (m, s)),
            key=lambda row: row[3],
        )
        ratios = [row[4] for row in series]
        assert ratios == sorted(ratios, reverse=True), (m, s)


@pytest.mark.usefixtures("pinned_host_profile")
def test_figure7_gain_positive_and_peaks_by_cores():
    report = run_figure(7, fast=True, stripe_bytes=1 << 20)
    for m, s, n in {(r[0], r[1], r[2]) for r in report.rows}:
        series = sorted(
            (row for row in report.rows if (row[0], row[1], row[2]) == (m, s, n)),
            key=lambda row: row[3],
        )
        gains = [row[4] for row in series]
        assert all(g > 0 for g in gains), (m, s, n)
        best_t = series[gains.index(max(gains))][3]
        assert best_t <= 4, (m, s, n, best_t)  # the model CPU has 4 cores


def test_figure8_ppm_wins_on_cost():
    """Measured at tiny stripes (sanity); cost improvement always positive."""
    report = run_figure(8, fast=True, stripe_bytes=TINY, repeats=1, rs_words=(8,))
    for cost_impr in report.column("cost impr"):
        assert cost_impr > 0
    for speed in report.column("opt-SD MB/s"):
        assert speed > 0


def test_figure8_sim_positive_at_paper_scale():
    """At the paper's 32 MB stripes the simulated T=4 gain is positive."""
    report = run_figure(8, fast=True, stripe_bytes=1 << 25, measured=False)
    assert all(v is None for v in report.column("SD MB/s"))
    for sim in report.column("sim impr T=4"):
        assert sim > 0


@pytest.mark.usefixtures("pinned_host_profile")
def test_figure9_gain_grows_with_stripe_size():
    report = run_figure(9, fast=True)
    for m, s in {(row[0], row[1]) for row in report.rows}:
        series = sorted(
            (row for row in report.rows if (row[0], row[1]) == (m, s)),
            key=lambda row: row[2],
        )
        gains = [row[3] for row in series]
        assert gains == sorted(gains), (m, s)


@pytest.mark.usefixtures("pinned_host_profile")
def test_figure10_similar_across_cpus():
    report = run_figure(10, fast=True, stripe_bytes=1 << 25)
    keys = {(row[1], row[2], row[3]) for row in report.rows}
    for key in keys:
        gains = [row[4] for row in report.rows if (row[1], row[2], row[3]) == key]
        assert len(gains) == 3
        assert max(gains) - min(gains) < 0.25 * max(max(gains), 0.01), key


def test_figure11_measured_runs_at_tiny_sizes():
    report = run_figure(11, fast=True, stripe_bytes=TINY, strip_bytes=TINY, repeats=1)
    assert len(report.rows) == 6
    assert all(isinstance(v, float) for v in report.column("measured impr"))


def test_figure11_band_and_order():
    """At paper-scale sizes the LRC gain sits in a modest positive band."""
    report = run_figure(
        11, fast=True, stripe_bytes=1 << 25, strip_bytes=1 << 26, measured=False
    )
    sims = report.column("sim impr")
    assert all(0.0 < v < 0.6 for v in sims), sims
    # LRC gains stay below a comparable SD configuration's (paper's claim)
    sd = run_figure(7, fast=True, stripe_bytes=1 << 25)
    sd_gain = max(
        row[4] for row in sd.rows if (row[0], row[1], row[3]) == (2, 2, 4)
    )
    assert max(sims) < sd_gain + 0.2
