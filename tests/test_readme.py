"""The examples in README.md run, and print what their comments say."""

import contextlib
import io
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from belldistill.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str) -> str:
    """The first fenced block after the `## heading` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


COMMANDS = [line for line in code_block("Command line").splitlines()
            if line.startswith("belldistill ")]


def test_command_block_found():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_runs(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    out = capsys.readouterr().out
    assert out


def test_the_dejmps_example_prints_one_protocol_in_both_forms(capsys):
    lines = {shlex.split(line)[1]: line for line in COMMANDS
             if "--matrix 0001,1000,1101,0011 " in line and "--offset" not in line}
    assert sorted(lines) == ["run-code", "run-perm", "verify"]
    columns = {}
    for command in ("run-perm", "run-code"):
        assert main(shlex.split(lines[command])[1:]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        columns[command] = [(r["prob"], r["fidelity"], r["output"]) for r in records]
    assert columns["run-perm"] == columns["run-code"]
    assert len(columns["run-perm"]) == 2


def test_library_quickstart_prints_its_stated_values():
    source = code_block("Library quickstart")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(source, "README quickstart", "exec"), {})
    lines = printed.getvalue().splitlines()
    prints = [line for line in source.splitlines() if line.startswith("print(")]
    assert len(lines) == len(prints)
    stated = 0
    for call, out in zip(prints, lines):
        comment = call.partition("#")[2]
        expected = [Fraction(f) for f in re.findall(r"\d+/\d+", comment)]
        if expected:
            assert [float(x) for x in out.split()] == pytest.approx(
                [float(f) for f in expected], abs=1e-12)
            stated += len(expected)
    # 13/18 and 41/52 for each engine on the matrix protocol, 41/52 for the
    # generator protocol, 41/52 and 13/18 for the sweep's first round
    assert stated == 7
