"""Each recorded CLI call prints its recorded report or error line, byte for
byte (``tests/cli_expected.json``): all ten subcommands over Q and F_p, exit
codes 0, 1 and 2.  Map files are named relative to the working directory, so
each report's digest is the recorded one."""

import json
import pathlib

import pytest

from kellerlab.cli import main

CASES = json.loads((pathlib.Path(__file__).resolve().parent / "cli_expected.json").read_text())


def test_cases_cover_every_subcommand():
    assert {case["argv"][0] for case in CASES} == {
        "jacobian", "keller", "invert", "inverse-degree", "druzkowski",
        "reduce", "line-check", "rank-drop", "collide", "vandermonde",
    }
    assert {case["exit_code"] for case in CASES} == {0, 1, 2}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_recorded_output(case, tmp_path, monkeypatch, capsys):
    for name, text in case["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit_code"], case["stdout"], case["stderr"])
