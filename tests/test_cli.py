"""Command-line surface: formats, file configs, determinism, exit codes."""

import argparse
import collections
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from belldistill import cli, equivalence, gf2, permutation, render, stabilizer
from belldistill.cli import _OPTIONS, MAX_RECORDS, build_parser, main
from belldistill.states import BellDiagonalState, werner

BCNOT = "1100,0100,0010,0011"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run-perm / run-code
# ---------------------------------------------------------------------------

def test_run_perm_json(capsys):
    code, out, _ = invoke(capsys, "run-perm", "--matrix", BCNOT, "-m", "1",
                          "--werner", "0.75")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "run-perm"
    by_t = {r["t"]: r for r in data["records"]}
    assert by_t["0"]["fidelity"] == pytest.approx(41 / 52, abs=1e-12)
    assert by_t["0"]["prob"] == pytest.approx(13 / 18, abs=1e-12)
    assert by_t["0"]["accepted"] is True
    assert by_t["1"]["fidelity"] == pytest.approx(0.25, abs=1e-12)


def test_run_code_json(capsys):
    code, out, _ = invoke(capsys, "run-code", "--generators", "ZZ",
                          "--werner", "0.75")
    assert code == 0
    by_s = {r["s"]: r for r in json.loads(out)["records"]}
    assert by_s["0"]["fidelity"] == pytest.approx(41 / 52, abs=1e-12)
    assert by_s["0"]["u"] == "0000"
    assert by_s["1"]["recovery"] == "IX"


def test_run_perm_accepts_generator_protocol(capsys):
    code, out, _ = invoke(capsys, "run-perm", "--generators", "ZZ",
                          "--werner", "0.75")
    assert code == 0
    by_t = {r["t"]: r for r in json.loads(out)["records"]}
    assert by_t["0"]["fidelity"] == pytest.approx(41 / 52, abs=1e-12)


def test_run_code_accepts_matrix_protocol(capsys):
    code, out, _ = invoke(capsys, "run-code", "--matrix", BCNOT, "-m", "1",
                          "--werner", "0.75")
    assert code == 0
    by_s = {r["s"]: r for r in json.loads(out)["records"]}
    assert by_s["0"]["fidelity"] == pytest.approx(41 / 52, abs=1e-12)


def test_pair_input(capsys):
    code, out, _ = invoke(capsys, "run-perm", "--matrix", BCNOT, "-m", "1",
                          "--pair", "0.75,0.08333333333333333,"
                          "0.08333333333333333,0.08333333333333333")
    assert code == 0
    by_t = {r["t"]: r for r in json.loads(out)["records"]}
    assert by_t["0"]["fidelity"] == pytest.approx(41 / 52, abs=1e-9)


# ---------------------------------------------------------------------------
# File-based configuration
# ---------------------------------------------------------------------------

def test_protocol_and_state_files(tmp_path, capsys):
    proto_file = tmp_path / "proto.json"
    proto_file.write_text(json.dumps(
        {"n": 2, "m": 1, "A": BCNOT.split(","), "b": "0000"}))
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(
        BellDiagonalState.from_pairs([werner(0.75)] * 2).to_dict()))
    code, out, _ = invoke(capsys, "run-perm",
                          "--protocol-file", str(proto_file),
                          "--state-file", str(state_file))
    assert code == 0
    by_t = {r["t"]: r for r in json.loads(out)["records"]}
    assert by_t["0"]["fidelity"] == pytest.approx(41 / 52, abs=1e-12)


def test_stabilizer_protocol_file(tmp_path, capsys):
    proto_file = tmp_path / "stab.json"
    proto_file.write_text(json.dumps({"n": 2, "m": 1, "generators": ["ZZ"]}))
    code, out, _ = invoke(capsys, "run-code",
                          "--protocol-file", str(proto_file),
                          "--werner", "0.75")
    assert code == 0
    assert json.loads(out)["records"][0]["prob"] == pytest.approx(13 / 18, abs=1e-12)


def test_config_file_supplies_options(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(
        {"matrix": BCNOT, "m": 1, "werner": 0.75, "format": "csv"}))
    code, out, _ = invoke(capsys, "run-perm", "--config", str(config))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["fidelity"]) == pytest.approx(41 / 52, abs=1e-12)


def test_output_file_and_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BELLDISTILL_OUTDIR", str(tmp_path))
    code, out, _ = invoke(capsys, "run-perm", "--matrix", BCNOT, "-m", "1",
                          "--werner", "0.75", "-o", "result.json")
    assert code == 0
    assert out == ""
    written = json.loads((tmp_path / "result.json").read_text())
    assert written["command"] == "run-perm"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_into_a_missing_directory_creates_it(tmp_path, capsys, fmt):
    argv = ["run-code", "--generators", "ZZ", "--werner", "0.75", "--format", fmt]
    code, printed, _ = invoke(capsys, *argv)
    assert code == 0
    target = tmp_path / "a" / "b" / "result.out"
    code, out, err = invoke(capsys, *argv, "--output", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == printed


@pytest.mark.parametrize("outdir, where, named, reason", [
    (None, "", ".", "[Errno 21] Is a directory: '.'"),
    (None, "directory", "directory", "[Errno 21] Is a directory: 'directory'"),
    # the parent is made first, as it always was, so its error is the one printed
    (None, "file/result.json", "file/result.json", "[Errno 17] File exists: 'file'"),
    ("file", "o.json", "file/o.json", "[Errno 17] File exists: 'file'"),
], ids=["empty", "directory", "under-a-file", "outdir-a-file"])
def test_output_that_cannot_be_opened_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                        outdir, where, named, reason):
    monkeypatch.chdir(tmp_path)
    if outdir is not None:
        monkeypatch.setenv("BELLDISTILL_OUTDIR", outdir)
    (tmp_path / "directory").mkdir()
    (tmp_path / "file").touch()
    code, out, err = invoke(capsys, "run-perm", "--generators", "ZZ", "--werner", "0.75",
                            "--output", where)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {named}: {reason}\n"


@pytest.mark.parametrize("where, written", [
    ("out.json/", "out.json"),
    ("a//b.json", "a/b.json"),
    ("./c.json", "c.json"),
], ids=["trailing-slash", "double-slash", "dot"])
def test_output_names_write_the_file_they_name(tmp_path, capsys, monkeypatch, where,
                                               written):
    monkeypatch.chdir(tmp_path)
    argv = ["run-perm", "--generators", "ZZ", "--werner", "0.75"]
    printed = invoke(capsys, *argv)[1]
    assert invoke(capsys, *argv, "--output", where) == (0, "", "")
    files = [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()]
    assert files == [written]
    assert (tmp_path / written).read_text() == printed


@pytest.mark.parametrize("outdir, where", [
    (None, "out.json"),
    (None, "out.json/"),
    (".", "out.json"),
    ("", "./out.json"),
], ids=["plain", "trailing-slash", "outdir", "empty-outdir"])
def test_an_output_whose_directory_exists_is_opened_once(tmp_path, capsys, monkeypatch,
                                                         outdir, where):
    monkeypatch.chdir(tmp_path)
    if outdir is not None:
        monkeypatch.setenv("BELLDISTILL_OUTDIR", outdir)
    opened = []
    open_ = os.open

    def counted(*args, **kwargs):
        opened.append(args[0])
        return open_(*args, **kwargs)

    monkeypatch.setattr(os, "open", counted)
    assert invoke(capsys, "run-perm", "--generators", "ZZ", "--werner", "0.75",
                  "--output", where) == (0, "", "")
    assert len(opened) == 1 and (tmp_path / "out.json").is_file()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_write_failure_is_one_error_line(capsys, fmt):
    # 4 records of 3 + 4**7 floats: one block each
    code, out, err = invoke(capsys, "run-perm", "--generators", "ZZIIIIIII,IIZZIIIII",
                            "-m", "7", "--werner", "0.8", "--format", fmt,
                            "--output", "/dev/full")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write /dev/full: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify / sweep / oracle-check
# ---------------------------------------------------------------------------

def test_verify_single_instance(capsys):
    code, out, _ = invoke(capsys, "verify", "--generators", "ZZ",
                          "--werner", "0.75")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["passed"] is True
    assert data["summary"]["max_discrepancy"] <= 1e-12


def test_verify_tie_case_matches_cosets(capsys):
    # Werner inputs tie several cosets exactly; both engines read one branch
    # table and so pick the same coset
    code, out, _ = invoke(capsys, "verify", "--generators", "ZZZ,IXX",
                          "--werner", "0.75")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["coset_match"] is True
    assert all(r["coset_match"] for r in data["records"])


def test_verify_missing_branch_prints_nan_and_exits_2(capsys, monkeypatch, edit_columns):
    naming = stabilizer.name_by_syndrome
    monkeypatch.setattr(stabilizer, "name_by_syndrome",
                        lambda *args: edit_columns(naming(*args), lambda _, column: column[1:]))
    code, out, _ = invoke(capsys, "verify", "--generators", "ZZ", "--werner", "0.75")
    assert code == 2
    assert '"output_max_diff": NaN' in out


def test_verify_recovery_off_the_span_exits_2(capsys, monkeypatch, edit_columns):
    # XI is no element of the span of ZZ: the first branch's coset moves
    naming = stabilizer.name_by_syndrome
    shift = np.array([0b0010, 0])
    monkeypatch.setattr(stabilizer, "name_by_syndrome", lambda *args: edit_columns(
        naming(*args), lambda name, column: column ^ shift if name == "u" else column))
    code, out, _ = invoke(capsys, "verify", "--generators", "ZZ", "--werner", "0.75")
    assert code == 2
    data = json.loads(out)
    assert [r["coset_match"] for r in data["records"]] == [False, True]
    assert data["summary"]["coset_match"] is False
    assert data["summary"]["max_discrepancy"] == 0.0


def test_verify_random_batch(capsys):
    code, out, _ = invoke(capsys, "verify", "--random", "8", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["all_passed"] is True
    assert len(data["records"]) == 8


def test_verify_random_checks_one_instance_at_a_time(capsys, monkeypatch):
    # Drawing every instance before checking any would hold them all.
    calls = []
    for name in ("random_instance", "verify_equivalence"):
        def spy(*args, real=getattr(equivalence, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(equivalence, name, spy)
    code, out, _ = invoke(capsys, "verify", "--random", "5", "--seed", "3")
    assert code == 0 and len(json.loads(out)["records"]) == 5
    assert calls == ["random_instance", "verify_equivalence"] * 5


def test_sweep_improves_fidelity(capsys):
    code, out, _ = invoke(capsys, "sweep", "--generators", "ZZ",
                          "--grid", "0.55:0.95:0.05", "--rounds", "1")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 9
    for row in records:
        assert row["f_out"] > row["f_in"]
    # A lo:hi:step grid keeps hi when (hi - lo) / step rounds just below an
    # integer, and never runs a point past hi.
    grids = {"0.55:0.95:0.05": [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95],
             "0.3:0.5:0.12": [0.3, 0.42], "0.5:0.95:0.3": [0.5, 0.8]}
    for grid, points in grids.items():
        code, out, _ = invoke(capsys, "sweep", "--generators", "ZZ", "--grid", grid)
        assert code == 0
        assert [row["f_in"] for row in json.loads(out)["records"]] == points


@pytest.mark.parametrize("argv", [
    ["run-perm", "--matrix", BCNOT, "-m", "1", "--werner", "0.2"],
    ["sweep", "--generators", "ZZ", "--grid", "0.1,0.2,0.8"],
    ["verify", "--generators", "ZZ", "--werner", "0.2"],
])
def test_a_warning_is_one_stderr_line(capsys, argv):
    display = warnings.showwarning
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and json.loads(out)["command"] == argv[0]
    lows = ["0.1", "0.2"] if argv[0] == "sweep" else ["0.2"]
    assert err == "".join(f"warning: Werner fidelity {f} is below 1/4: state is not "
                          "distillable\n" for f in lows)
    assert warnings.showwarning is display  # library callers keep their own


def test_other_warnings_keep_the_callers_filters(capsys, monkeypatch):
    def warn(args):
        warnings.warn("from numpy", RuntimeWarning)

    monkeypatch.setattr("belldistill.cli._apply_config", warn)
    with pytest.raises(RuntimeWarning):  # pytest turns warnings into errors
        invoke(capsys, "verify", "--generators", "ZZ", "--werner", "0.8")


LOW = "warning: Werner fidelity {} is below 1/4: state is not distillable\n"


def test_a_repeated_low_grid_value_warns_once(capsys):
    code, _, err = invoke(capsys, "sweep", "--generators", "ZZ", "--grid", "0.1,0.1,0.2")
    assert (code, err) == (0, LOW.format(0.1) + LOW.format(0.2))
    # once per command, not once per process
    code, _, err = invoke(capsys, "sweep", "--generators", "ZZ", "--grid", "0.2,0.1")
    assert (code, err) == (0, LOW.format(0.2) + LOW.format(0.1))


def test_another_warning_shown_is_one_stderr_line(capsys, monkeypatch):
    def warn(args):
        warnings.warn("from numpy", RuntimeWarning)

    monkeypatch.setattr("belldistill.cli._apply_config", warn)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, _, err = invoke(capsys, "run-perm", "--generators", "ZZ", "--werner", "0.2")
    assert (code, err) == (0, "warning: from numpy\n" + LOW.format(0.2))


@pytest.mark.parametrize("argv, exit_code", [
    (["run-perm", "--generators", "ZZ", "--werner", "0.8"], 0),
    (["run-perm", "--generators", "ZZ", "--werner", "x"], 1),
    (["verify", "--random", "2"], 0),
    (["sweep", "--generators", "ZZ", "--grid", "0.6,0.8"], 0),
], ids=["success", "refusal", "random", "sweep"])
def test_a_command_is_parsed_once_with_no_warnings_machinery(capsys, monkeypatch, argv,
                                                             exit_code):
    """One argparse pass a command, and a command with no Werner value below
    1/4 neither enters `catch_warnings` nor edits a filter; the caller's
    `showwarning` is back in place after it."""
    parses = []
    parse = argparse.ArgumentParser._parse_known_args

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return parse(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("warnings machinery entered")

    display = warnings.showwarning
    with monkeypatch.context() as patch:  # undone before pytest's own teardown
        patch.setattr(argparse.ArgumentParser, "_parse_known_args", counted)
        patch.setattr(warnings, "catch_warnings", refuse)
        patch.setattr(warnings, "filterwarnings", refuse)
        code = main(argv)
    assert code == exit_code
    assert parses == [f"belldistill {argv[0]}"]
    assert warnings.showwarning is display


@pytest.mark.parametrize("argv", [["--help"], ["run-perm", "--help"]])
def test_help_is_the_parsers_help(capsys, argv):
    display = warnings.showwarning
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    parser = build_parser() if argv == ["--help"] else _subparsers()["run-perm"]
    assert capsys.readouterr().out == parser.format_help()
    assert warnings.showwarning is display


@pytest.mark.parametrize("most", [None, 100], ids=["whole", "partial"])
def test_a_one_block_output_is_one_write_call(tmp_path, capsys, monkeypatch, most):
    """One `os.write` call, or as many as a system that takes at most
    `most` bytes a call needs."""
    argv = ["run-perm", "--generators", "ZZ", "--werner", "0.8"]
    printed = invoke(capsys, *argv)[1].encode()
    writes = []
    write = os.write

    def taken(fd, data):
        writes.append(len(data))
        return write(fd, data[:most])

    monkeypatch.setattr(os, "write", taken)
    path = tmp_path / "out.json"
    assert invoke(capsys, *argv, "--output", str(path))[0] == 0
    assert path.read_bytes() == printed
    assert writes == ([len(printed)] if most is None else
                      list(range(len(printed), 0, -most)))


@pytest.mark.parametrize("argv", [
    ["verify", "--random", "3", "--seed", "-1"],
    ["oracle-check", "--sizes", "2", "--count", "1", "--seed", "-1"],
    ["verify", "--random", "3", "--config", "{config}"],
], ids=["verify", "oracle-check", "config"])
def test_a_negative_seed_is_refused_by_name(tmp_path, capsys, argv):
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -1}))
    argv = [str(config) if a == "{config}" else a for a in argv]
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (1, "", "error: --seed must be non-negative, got -1\n")


def test_oracle_check(capsys):
    code, out, _ = invoke(capsys, "oracle-check", "--sizes", "2",
                          "--count", "4", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["all_passed"] is True
    assert all(r["passed"] for r in data["records"])


def test_oracle_check_size_cap(capsys):
    code, _, err = invoke(capsys, "oracle-check", "--sizes", "6")
    assert code == 1
    assert "cap" in err


# ---------------------------------------------------------------------------
# Validation failures and exit codes
# ---------------------------------------------------------------------------

def test_non_symplectic_matrix_rejected(capsys):
    code, _, err = invoke(capsys, "run-perm",
                          "--matrix", "1100,0100,0010,0010", "-m", "1",
                          "--werner", "0.75")
    assert code == 1
    assert "A^T P A != P" in err


def test_missing_input_rejected(capsys):
    code, _, err = invoke(capsys, "run-perm", "--matrix", BCNOT, "-m", "1")
    assert code == 1
    assert "exactly one input" in err


def test_two_inputs_rejected(capsys):
    code, _, err = invoke(capsys, "run-perm", "--matrix", BCNOT, "-m", "1",
                          "--werner", "0.75", "--pair", "1,0,0,0")
    assert code == 1
    assert "exactly one input" in err


def test_pair_that_is_not_four_numbers_names_the_option(tmp_path, capsys):
    # float's own refusal, "could not convert string to float: 'a'", names none
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generators": "ZZ", "pair": "0.7,x,0.1,0.1"}))
    for argv, pair in ((["--generators", "ZZ", "--pair", "a,b,c,d"], "a,b,c,d"),
                       (["--config", str(config)], "0.7,x,0.1,0.1")):
        assert invoke(capsys, "run-perm", *argv) == \
            (1, "", f"error: --pair needs four numbers, got {pair!r}\n")


def test_two_protocols_rejected(capsys):
    code, _, err = invoke(capsys, "run-perm", "--matrix", BCNOT,
                          "--generators", "ZZ", "-m", "1", "--werner", "0.75")
    assert code == 1
    assert "exactly one protocol" in err


def test_state_size_mismatch_rejected(tmp_path, capsys):
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps(BellDiagonalState.from_pairs([werner(0.9)]).to_dict()))
    code, _, err = invoke(capsys, "run-perm", "--matrix", BCNOT, "-m", "1",
                          "--state-file", str(state_file))
    assert code == 1
    assert "pairs" in err


# Deeper than the JSON decoder's recursion limit; a str is written verbatim.
NESTED = "[" * 100_000 + "]" * 100_000

BAD_FILES = {
    "protocol-list": ("--protocol-file", [1, 2]),
    "protocol-no-m": ("--protocol-file", {"n": 2, "A": BCNOT.split(",")}),
    "protocol-no-n": ("--protocol-file", {"m": 1, "A": BCNOT.split(",")}),
    "protocol-no-A": ("--protocol-file", {"n": 2, "m": 1}),
    "protocol-n-not-int": ("--protocol-file", {"n": "2", "m": 1, "generators": ["ZZ"]}),
    "state-no-n": ("--state-file", {"probs": [1.0, 0.0, 0.0, 0.0]}),
    "state-no-probs": ("--state-file", {"n": 2}),
    # Two pairs, as the table's protocols have: only the weight type is wrong.
    "state-probs-not-numbers": ("--state-file", {"n": 2, "probs": ["1"] + [0] * 15}),
    "state-probs-boolean": ("--state-file", {"n": 2, "probs": [True] + [0] * 15}),
    # A JSON integer no float holds, and weights whose total no float holds.
    "state-probs-beyond-float-range": ("--state-file", {"n": 2, "probs": [10**400] + [0] * 15}),
    "state-probs-sum-to-inf": ("--state-file", {"n": 2, "probs": [1e308, 1e308] + [0] * 14}),
    "protocol-nested": ("--protocol-file", NESTED),
    "state-nested": ("--state-file", NESTED),
    "config-nested": ("--config", NESTED),
    "config-key-of-other-command": ("--config", {"werner": 0.75, "seed": 4}),
    # Both forms: the A/b form would be dropped unseen.
    "protocol-generators-and-A": ("--protocol-file",
                                  {"n": 2, "m": 1, "generators": ["ZZ"],
                                   "A": BCNOT.split(","), "b": "0001"}),
    # int("+001", 2) is 1: a row must be written in 0s and 1s only.
    "protocol-A-not-bits": ("--protocol-file",
                            {"n": 2, "m": 1, "A": ["+001", "1000", "1101", "0011"]}),
    "protocol-A-wrong-width": ("--protocol-file",
                               {"n": 3, "m": 1, "A": BCNOT.split(",")}),
    "protocol-b-number": ("--protocol-file",
                          {"n": 2, "m": 1, "A": BCNOT.split(","), "b": 1}),
    # A present offset that is no bit string is refused, falsy or not.
    "protocol-b-zero": ("--protocol-file",
                        {"n": 2, "m": 1, "A": BCNOT.split(","), "b": 0}),
    "protocol-b-false": ("--protocol-file",
                         {"n": 2, "m": 1, "A": BCNOT.split(","), "b": False}),
    "protocol-b-empty": ("--protocol-file",
                         {"n": 2, "m": 1, "A": BCNOT.split(","), "b": ""}),
    "protocol-b-list": ("--protocol-file",
                        {"n": 2, "m": 1, "A": BCNOT.split(","), "b": []}),
    "protocol-b-null": ("--protocol-file",
                        {"n": 2, "m": 1, "A": BCNOT.split(","), "b": None}),
    "protocol-generators-number": ("--protocol-file",
                                   {"n": 2, "m": 1, "generators": [3]}),
    "config-bogus-key": ("--config", {"bogus": 1}),
    "config-format-xml": ("--config", {"format": "xml", "werner": 0.75}),
}

@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_malformed_files_fail_cleanly(tmp_path, capsys, case):
    flag, content = BAD_FILES[case]
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = ["run-perm", flag, str(path)]
    argv += ["--werner", "0.75"] if flag == "--protocol-file" else ["--generators", "ZZ"]
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Each case keeps the id it was first collected under, so that deleting one
# renames no other; a new case takes a name of its own.
OUT_OF_RANGE = {
    "argv0": ["verify", "--random", "2", "--sizes", "2,0"],
    "argv1": ["verify", "--random", "2", "--sizes", "20"],
    "argv2": ["oracle-check", "--sizes", "0"],
    "argv3": ["sweep", "--generators", "ZZ", "--grid", "0.5:inf:0.1"],
    "argv4": ["run-perm", "--generators", "Z" * 15, "--werner", "0.8"],
    "argv5": ["run-perm", "--generators", "ZZ", "--pair", "nan,0,0,0"],
    "argv6": ["oracle-check", "--sizes", "2", "--count", "-3"],
    "argv7": ["oracle-check", "--sizes", "2", "--count", "0"],
    "argv8": ["verify", "--random", "-2"],
    "argv9": ["sweep", "--generators", "ZZ", "--grid", "0:1:1e-300"],
    "argv10": ["sweep", "--generators", "ZZ", "--grid", "0:1:1e-320"],
    "argv11": ["run-code", "--generators", "ZZ", "--offset", "1000", "--werner", "0.75"],
    "argv12": ["run-code", "--generators", "ZZ", "--werner", "0.75", "--threshold", "nan"],
    "argv13": ["run-code", "--generators", "ZZ", "--werner", "0.75", "--threshold", "inf"],
    "argv14": ["verify", "--random", "2", "--generators", "ZZ", "--werner", "0.3"],
    "argv15": ["verify", "--generators", "ZZ", "--werner", "0.75", "--seed", "9"],
    "argv16": ["verify", "--generators", "ZZ", "--werner", "0.75", "--sizes", "7,8"],
    "argv17": ["sweep", "--generators", "ZZ"],
    "argv18": ["sweep", "--generators", "ZZ", "--grid", "1:0:0.1"],
    "argv19": ["sweep", "--generators", "ZZ", "--grid", "a:b:c"],
    "argv20": ["sweep", "--generators", "ZZ", "--grid", "0.5,x"],
    "argv21": ["sweep", "--generators", "ZZ", "--grid", "0.7", "--rounds", "0"],
    "argv22": ["verify", "--random", "2", "--sizes", "a"],
    "argv23": ["run-perm", "--generators", "ZZ", "--pair", "1,2,3"],
    "argv24": ["run-perm", "--matrix", BCNOT, "--werner", "0.75"],
    "argv25": ["run-perm", "--matrix", "1100,0100,0010", "-m", "1", "--werner", "0.75"],
    # Rows int(row, 2) would read as 0001, making the matrix symplectic.
    "argv26": ["run-perm", "--matrix", "0_01,1000,1101,0011", "-m", "1", "--werner", "0.8"],
    "argv27": ["run-perm", "--matrix", "\u0660\u0660\u0660\u0661,1000,1101,0011", "-m", "1",
               "--werner", "0.8"],
    # The output's parent directory is an existing file.
    "argv28": ["run-perm", "--generators", "ZZ", "--werner", "0.75", "--output",
               str(Path(__file__) / "out.json")],
    # Weights whose total no float holds.
    "argv29": ["run-perm", "--generators", "ZZ", "--pair", "1e308,1e308,0,0"],
    # More records than a batch command may keep: refused before the first
    # instance or round, or these would run for hours.
    "random-over-budget": ["verify", "--random", str(MAX_RECORDS + 1)],
    "random-huge": ["verify", "--random", str(10 ** 30)],
    "rounds-over-budget": ["sweep", "--generators", "ZZ", "--grid", "0.6,0.7",
                           "--rounds", str(MAX_RECORDS // 2 + 1)],
    "grid-times-rounds-over-budget": ["sweep", "--generators", "ZZ", "--grid",
                                      "0.5:0.9:0.0001", "--rounds", "300"],
}


@pytest.mark.parametrize("argv", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_flags_fail_cleanly(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


IDENTITY_64 = ",".join("0" * i + "1" + "0" * (63 - i) for i in range(64))
OVER_THE_PAIR_CAP = {
    "protocol-file": ["run-perm", "--protocol-file", "{file}", "--werner", "0.9"],
    "matrix": ["run-perm", "--matrix", IDENTITY_64, "-m", "1", "--werner", "0.9"],
    "generators": ["run-code", "--generators", "Z" * 32, "--werner", "0.9"],
}


@pytest.mark.parametrize("argv", OVER_THE_PAIR_CAP.values(), ids=OVER_THE_PAIR_CAP.keys())
def test_protocols_over_the_pair_cap_fail_cleanly(tmp_path, capsys, argv):
    # 32 pairs: 64-bit rows, refused before they reach int64 arithmetic.
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps({"n": 32, "m": 1, "A": IDENTITY_64.split(",")}))
    code, out, err = invoke(capsys, *(a.format(file=path) for a in argv))
    assert (code, out) == (1, "")
    assert err == f"error: pair count 32 outside supported range 0..{gf2.MAX_PAIRS}\n"
    assert "Traceback" not in err


def test_record_budget_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_RECORDS", 6)
    sweep = ["sweep", "--generators", "ZZ", "--grid", "0.6,0.7", "--rounds"]
    for argv, records in ((sweep + ["3"], 6), (["verify", "--random", "6"], 6)):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and len(json.loads(out)["records"]) == records
    for argv in (sweep + ["4"], ["verify", "--random", "7"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "") and "6" in err and err.count("\n") == 1


SHARED_COLUMNS = ("prob", "fidelity", "unnormalized_fidelity", "output")


@pytest.mark.parametrize("command", ["run-code", "verify"])
def test_all_zero_offset_still_accepted(capsys, command):
    # the all-zero offset prints what no offset prints, and every other
    # offset is accepted too: run-code prints run-perm's branches
    base = [command, "--matrix", BCNOT, "-m", "1", "--werner", "0.75"]
    assert invoke(capsys, *base, "--offset", "0000")[:2] == invoke(capsys, *base)[:2]
    for b in range(16):
        offset = ["--offset", format(b, "04b")]
        code, out, _ = invoke(capsys, *base, *offset)
        assert code == 0, offset
        if command == "run-code":
            perm = json.loads(invoke(capsys, "run-perm", *base[1:], *offset)[1])
            for record, expected in zip(json.loads(out)["records"], perm["records"],
                                        strict=True):
                assert [record[k] for k in ("s", *SHARED_COLUMNS)] == \
                    [expected[k] for k in ("t", *SHARED_COLUMNS)], offset


def count_calls(monkeypatch, *names) -> collections.Counter:
    """Calls of the named gf2 functions from now on, counted by name."""
    counts = collections.Counter()
    for name in names:
        def counted(*args, name=name, call=getattr(gf2, name)):
            counts[name] += 1
            return call(*args)
        monkeypatch.setattr(gf2, name, counted)
    return counts


@pytest.fixture
def checks(monkeypatch):
    """Calls of gf2's matrix and generator checks, counted by name."""
    return count_calls(monkeypatch, "is_symplectic", "_check_generators")


@pytest.mark.parametrize("command", ["verify", "run-perm"])
def test_a_generator_protocol_is_checked_once(capsys, monkeypatch, checks, command):
    # the completion checks the generators and the frame columns it built;
    # A is read off those columns, with no inverse, and the
    # completion's null space is the only one
    calls = count_calls(monkeypatch, "_frame_columns", "complete_to_symplectic",
                        "_inverse", "_kernel")
    code, _, _ = invoke(capsys, command, "--generators", "ZZZ,IXX", "--werner", "0.75")
    assert code == 0
    assert checks == {"is_symplectic": 1, "_check_generators": 1}
    assert calls == {"_frame_columns": 1, "_kernel": 1}


def test_a_matrix_protocol_has_its_generators_checked_at_most_once(capsys, monkeypatch):
    # the protocol is (A, b): nothing is completed or inverted, the matrix is
    # checked once, and the stabilizer engine names its labels with no
    # null space
    calls = count_calls(monkeypatch, "complete_to_symplectic", "_frame_columns",
                        "_check_generators", "_kernel", "is_symplectic", "_inverse")
    # an offset reads B b off the rows of A, with no inverse either
    for command, offset in [("run-code", []), ("verify", []),
                            ("run-code", ["--offset", "0001"])]:
        calls.clear()
        code, _, _ = invoke(capsys, command, "--matrix", BCNOT, "-m", "1",
                            "--werner", "0.75", *offset)
        assert code == 0
        assert calls == {"is_symplectic": 1}


def test_run_code_completes_a_generator_protocol_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "complete_to_symplectic", "_frame_columns",
                        "_check_generators", "is_symplectic", "_inverse", "_kernel")
    code, _, _ = invoke(capsys, "run-code", "--generators", "ZZZ,IXX", "--werner", "0.75")
    assert code == 0
    assert calls == {"_frame_columns": 1, "_check_generators": 1,
                     "is_symplectic": 1, "_kernel": 1}


def test_config_value_of_wrong_type_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"generators": "ZZ", "werner": "0.75"}))
    code, _, err = invoke(capsys, "run-perm", "--config", str(config))
    assert code == 1
    assert "'werner'" in err


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _dests(command: argparse.ArgumentParser) -> list[str]:
    return [action.dest for action in command._actions if action.dest != "help"]


def test_each_commands_options_are_pinned():
    assert {name: [flag for action in command._actions for flag in action.option_strings]
            for name, command in _subparsers().items()} == {
        "run-perm": ["-h", "--help", "--protocol-file", "--generators", "--matrix",
                     "--offset", "-m", "--threshold", "--werner", "--pair",
                     "--state-file", "--config", "--format", "--output", "-o"],
        "run-code": ["-h", "--help", "--protocol-file", "--generators", "--matrix",
                     "--offset", "-m", "--threshold", "--werner", "--pair",
                     "--state-file", "--config", "--format", "--output", "-o"],
        "verify": ["-h", "--help", "--protocol-file", "--generators", "--matrix",
                   "--offset", "-m", "--threshold", "--werner", "--pair", "--state-file",
                   "--config", "--format", "--output", "-o", "--random", "--sizes",
                   "--seed"],
        "sweep": ["-h", "--help", "--protocol-file", "--generators", "--matrix",
                  "--offset", "-m", "--threshold", "--config", "--format", "--output",
                  "-o", "--grid", "--rounds"],
        "oracle-check": ["-h", "--help", "--config", "--format", "--output", "-o",
                         "--sizes", "--count", "--seed"],
    }


def test_every_config_key_is_checked_against_the_parser(tmp_path, capsys, monkeypatch):
    """A `true` config value for each option of any command: the wrong type
    where the command has the option, no option where it has not, and an
    unknown key for `config`.  Each is refused before anything runs."""
    def ran(args):
        raise AssertionError(f"{args.command} got past its config")

    monkeypatch.setattr("belldistill.cli._refuse_ignored", ran)
    commands = _subparsers()
    dests = {dest for command in commands.values() for dest in _dests(command)}
    assert set(_OPTIONS) == dests
    config = tmp_path / "config.json"
    for name, command in commands.items():
        for dest in sorted(dests):
            config.write_text(json.dumps({dest: True}))
            code, out, err = invoke(capsys, name, "--config", str(config))
            if dest == "config":
                expected = f"unknown config key {dest!r}"
            elif dest in _dests(command):
                expected = f"config key {dest!r} has a value of the wrong type"
            else:
                expected = f"{name} has no option for config key {dest!r}"
            assert (code, out, err) == (1, "", f"error: {expected}\n")


_LEAF = (st.none() | st.booleans() | st.integers(-1, 4) | st.floats(-1, 2)
         | st.text(alphabet="IXYZ01,.:-", max_size=5))
_JSON = st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="nmAbp", max_size=2), inner, max_size=3),
    max_leaves=6)
_WORDS = st.text(alphabet="IXYZ", min_size=1, max_size=4)
_PROTOCOLS = _JSON | st.fixed_dictionaries({}, optional={
    "n": st.integers(-1, 4) | _LEAF,
    "m": st.integers(-1, 4) | _LEAF,
    "generators": st.lists(_WORDS, max_size=3) | _JSON,
    "A": st.lists(st.text(alphabet="01", max_size=8), max_size=8) | _JSON,
    "b": st.text(alphabet="01", max_size=8) | _JSON,
})
_STATES = _JSON | st.fixed_dictionaries({}, optional={
    "n": st.integers(-1, 3) | _LEAF,
    "probs": st.lists(st.floats(0, 1) | _LEAF, max_size=16) | _JSON,
})
# The config keys: options with JSON types.  "output" would write files:
# it is the one config key left out.
_CONFIG_KEYS = {name for name, (_flags, _parse, kinds, _help) in _OPTIONS.items()
                if kinds is not None}
_CONFIGS = _JSON | st.dictionaries(
    st.sampled_from(sorted(_CONFIG_KEYS - {"output"})), _LEAF, max_size=3)


@st.composite
def _json_files(draw):
    """Protocol, state and config documents, each valid about half the time."""
    word = draw(_WORDS)
    protocol = {"n": len(word), "m": len(word) - 1, "generators": [word]}
    state = BellDiagonalState.from_pairs([werner(0.75)] * len(word)).to_dict()
    return {"--protocol-file": draw(st.just(protocol) | _PROTOCOLS),
            "--state-file": draw(st.just(state) | _STATES),
            "--config": draw(st.just({}) | _CONFIGS)}


@given(command=st.sampled_from(["run-perm", "run-code", "verify"]),
       files=_json_files())
def test_arbitrary_json_files_exit_cleanly(tmp_path_factory, command, files):
    directory = tmp_path_factory.mktemp("json")
    argv = [command]
    for flag, content in files.items():
        path = directory / f"{flag[2:]}.json"
        path.write_text(json.dumps(content))
        argv += [flag, str(path)]
    assert main(argv) in (0, 1, 2)


# ---------------------------------------------------------------------------
# Determinism and cross-format agreement
# ---------------------------------------------------------------------------

def test_closed_pipe_ends_quietly_with_exit_code_1():
    """A reader that stops after 100 bytes of a ~1 MB output: no traceback,
    not even from the flush at exit."""
    argv = ["run-perm", "--generators", "ZZIIIIIIII,IIZZIIIIII,IIIIZZIIII,IIIIIIZZII",
            "-m", "6", "--werner", "0.8", "--format", "csv"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "belldistill.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1


# Z_iZ_{i+1} on 10 pairs, five measured: float arrays that span several
# blocks.  `verify --random` prints strings, ints and few floats: text
# cells and per-value tokens.
SINK_CASES = {
    "run-perm-n10m5": ["run-perm", "--generators",
                       ",".join("I" * i + "ZZ" + "I" * (8 - i) for i in range(5)),
                       "-m", "5", "--werner", "0.8"],
    "verify-random": ["verify", "--random", "3"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(SINK_CASES))
def test_every_sink_gets_the_same_bytes(tmp_path, capfdbinary, case, fmt):
    """An --output file, the real stdout and a stdout redirected to a text
    stream with no binary buffer get the same bytes."""
    argv = SINK_CASES[case] + ["--format", fmt]
    path = tmp_path / "out"
    assert main(argv + ["--output", str(path)]) == 0
    assert main(argv) == 0
    stdout = capfdbinary.readouterr().out
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert stdout
    assert path.read_bytes() == stdout == text.getvalue().encode()


def test_byte_identical_reruns(capsys):
    argv = ["verify", "--random", "6", "--seed", "11"]
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second
    argv = ["run-perm", "--matrix", BCNOT, "-m", "1", "--werner", "0.75"]
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def test_csv_and_json_same_records(capsys):
    base = ["run-perm", "--matrix", BCNOT, "-m", "1", "--werner", "0.75"]
    _, out_json, _ = invoke(capsys, *base)
    _, out_csv, _ = invoke(capsys, *base, "--format", "csv")
    json_records = json.loads(out_json)["records"]
    csv_records = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(json_records) == len(csv_records)
    for jrec, crec in zip(json_records, csv_records):
        assert crec["t"] == jrec["t"]
        assert crec["correction"] == jrec["correction"]
        assert (crec["accepted"] == "true") == jrec["accepted"]
        for key in ("prob", "fidelity", "unnormalized_fidelity"):
            assert float(crec[key]) == pytest.approx(jrec[key], abs=1e-14)
        csv_output = [float(x) for x in crec["output"].split(";")]
        assert csv_output == pytest.approx(jrec["output"], abs=1e-14)


def test_csv_headers_follow_the_library_column_order(capsys):
    # Each command prints its branch set's columns in the set's order;
    # run-code adds its recovery letters before accepted.
    proto = stabilizer.StabilizerProtocol.from_pauli_strings(["ZZZ", "XXI"], 1)
    state = BellDiagonalState.from_pairs([werner(0.75)] * 3)
    code_columns = list(stabilizer.run(state, proto).columns)
    code_columns.insert(code_columns.index("accepted"), "recovery")
    expected = {
        "run-perm": list(permutation.run(state, proto).columns),
        "run-code": code_columns,
        "verify": list(equivalence.verify_equivalence(state, proto).branches.columns),
    }
    for command, columns in expected.items():
        code, out, _ = invoke(capsys, command, "--generators", "ZZZ,XXI", "-m", "1",
                              "--werner", "0.75", "--format", "csv")
        assert code == 0
        assert next(csv.reader(io.StringIO(out))) == columns, command


def test_sweep_cross_format(capsys):
    base = ["sweep", "--generators", "ZZ", "--grid", "0.6,0.8", "--rounds", "2"]
    _, out_json, _ = invoke(capsys, *base)
    _, out_csv, _ = invoke(capsys, *base, "--format", "csv")
    json_records = json.loads(out_json)["records"]
    csv_records = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(json_records) == len(csv_records) == 4
    for jrec, crec in zip(json_records, csv_records):
        assert int(crec["round"]) == jrec["round"]
        assert float(crec["f_out"]) == pytest.approx(jrec["f_out"], abs=1e-14)
        assert float(crec["yield"]) == pytest.approx(jrec["yield"], abs=1e-14)


def test_probabilities_printed_with_15_digits(capsys):
    _, out, _ = invoke(capsys, "run-perm", "--matrix", BCNOT, "-m", "1",
                       "--werner", "0.75", "--format", "csv")
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["fidelity"] == "0.788461538461538"
    assert row["prob"] == "0.722222222222222"


@pytest.mark.parametrize("command", ["run-perm", "run-code"])
def test_product_input_never_allocates_the_dense_table(tmp_path, command):
    n = 12  # the dense table would be 4**12 doubles: 128 MiB
    gens = ",".join("I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - 1))
    tracemalloc.start()
    try:
        rc = main([command, "--generators", gens, "-m", "1", "--werner", "0.8",
                   "--output", str(tmp_path / "out.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(json.loads((tmp_path / "out.json").read_text())["records"]) == 1 << (n - 1)
    assert peak < (128 << 20) // 16


def traced_peak(run) -> int:
    """The most memory `run()` holds at once beyond what is held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def assert_output_memory_within_the_engine(tmp_path, command, n, m, fmt):
    """The traced peak of the command writing to a file is at most 1.25
    times its engine's plus 1 MiB (Werner 0.8, `Z_iZ_{i+1}` chain)."""
    gens = ["I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - m)]
    argv = [command, "--generators", ",".join(gens), "-m", str(m),
            "--werner", "0.8", "--format", fmt, "--output", str(tmp_path / "out")]
    assert main(argv) == 0  # imports and digit tables are built once
    proto = stabilizer.StabilizerProtocol.from_pauli_strings(gens, m)
    run = permutation.run if command == "run-perm" else stabilizer.run
    state = BellDiagonalState.from_pairs([werner(0.8)] * n)
    engine = traced_peak(lambda: run(state, proto))
    peak = traced_peak(lambda: main(argv))
    assert peak <= 1.25 * engine + (1 << 20), (peak, engine)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_takes_no_more_memory_than_the_engine(tmp_path, fmt):
    # 64 records of 3 + 4**6 floats
    assert_output_memory_within_the_engine(tmp_path, "run-perm", 12, 6, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["run-perm", "run-code"])
def test_many_small_records_take_no_more_memory_than_the_engine(tmp_path, command,
                                                                fmt):
    # 4096 records of 3 + 4 floats and their labels
    assert_output_memory_within_the_engine(tmp_path, command, 13, 1, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_float_tokens_of_a_full_block_hold_few_bytes_a_float(fmt):
    """The traced peak of formatting one block's worth of random
    probabilities, the returned tokens (24 bytes a float here) included:
    at most 80 bytes a float, where it was 125 before the kernel read
    per-exponent tables and freed each array as soon as it was read."""
    values = np.random.default_rng(0).random(render._BLOCK_BYTES // render._FLOAT_BYTES)
    render._tokens(values, fmt)  # the digit tables are built once
    peak = traced_peak(lambda: render._tokens(values, fmt))
    assert peak <= 80 * values.size, peak / values.size
