"""Unit tests for the extended CLI commands."""

import os

import pytest

from repro.cli import main


def test_verify_code_pass(capsys):
    assert main(["verify-code", "sd", "n=4", "r=4", "m=1", "s=1", "--samples", "20"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_code_fail(capsys):
    # the degenerate GF(16) instance with repeating generator powers
    rc = main(["verify-code", "sd", "n=16", "r=2", "m=2", "s=1", "w=4", "--samples", "300"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_search(capsys):
    assert main(
        ["search", "--n", "4", "--r", "4", "--m", "1", "--s", "1", "--samples", "20"]
    ) == 0
    assert "SD^{1,1}_{4,4}(8|1,2)" in capsys.readouterr().out


def test_reproduce_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "res"
    # regenerating all figures is slow; patch FIGURES down to one cheap entry
    import repro.bench as bench_pkg
    import repro.bench.figures as figures_mod

    original = dict(figures_mod.FIGURES)
    try:
        slim = {5: figures_mod.figure5}
        figures_mod.FIGURES = slim
        bench_pkg.FIGURES = slim
        assert main(["reproduce", "--out", str(out_dir)]) == 0
    finally:
        figures_mod.FIGURES = original
        bench_pkg.FIGURES = original
    assert os.path.exists(out_dir / "figure5.txt")
    assert os.path.exists(out_dir / "figure5.csv")
    content = (out_dir / "figure5.csv").read_text()
    assert content.startswith("m,n,z,")
