"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_paper_example(capsys):
    assert main(["paper-example"]) == 0
    out = capsys.readouterr().out
    assert "C1=35" in out.replace("'C1': 35", "C1=35")
    assert "17.14%" in out
    assert "p = 3" in out


def test_list_codes(capsys):
    assert main(["list-codes"]) == 0
    out = capsys.readouterr().out.split()
    assert "sd" in out and "lrc" in out and "rs" in out


def test_demo(capsys):
    assert main(["demo", "--n", "6", "--r", "4", "--symbols", "64"]) == 0
    out = capsys.readouterr().out
    assert "verified=True" in out
    assert "traditional" in out and "PPM" in out


def test_figure_stdout(capsys):
    assert main(["figure", "5"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out


def test_figure_csv_to_file(tmp_path, capsys):
    out_file = tmp_path / "fig5.csv"
    assert main(["figure", "5", "--csv", "--out", str(out_file)]) == 0
    content = out_file.read_text()
    assert content.startswith("m,n,z,")


def test_figure_rejects_unknown_number():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "3"])


def test_calibrate(capsys):
    assert main(["calibrate"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "E5-2603" in out


def test_docstring_command_list_matches_the_parser():
    """The module docstring's command table is hand-kept; pin it to the
    subparsers that actually exist."""
    import re

    import repro.cli as cli

    (subparsers,) = (
        action for action in cli.build_parser()._actions
        if hasattr(action, "choices") and action.dest == "command"
    )
    listing = cli.__doc__.split("--------\n", 1)[1]
    documented = re.findall(r"^([a-z][a-z-]*)\b", listing, flags=re.M)
    assert sorted(documented) == sorted(subparsers.choices)


@pytest.mark.parametrize(
    "argv", [["lifetime"], ["inspect", "sd", "n=4"], ["io-compare"], ["extra", "energy"]]
)
def test_removed_commands_are_argparse_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
