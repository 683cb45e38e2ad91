"""Golden outputs: a fixed corpus of small commands, each pinned by the
sha256 of its stdout, stderr and exit code.

The corpus covers every command in JSON and CSV, protocols given inline,
as a matrix and as files, a state file with zero and subnormal weights
(floats printed one by one inside the one-pass kernel), an n=8 m=4 engine
pair (the one-pass kernel), an n=13 m=1 engine pair (4096 small records
written in several blocks), an n=10 m=5 engine pair (32 records of 1024
floats, so float arrays that span several blocks), an n=10 m=1 engine
pair whose folded pairs have degenerate shifts, the dense oracle at its
4-pair cap, options given abbreviated and with "=", warnings (a repeated
grid value, a config value) and refusals, argparse's among them.
A change that alters any byte of these outputs fails here.  When the
change is meant, re-pin with

    PYTHONPATH=src python tests/test_golden.py --update

which prints the cases whose hash changed and those added or removed; list
them, and why, with the change.  Every `refuse-*` case must exit 1 with
one `error:` line and nothing on stdout, so a refusal is never re-pinned
as a success under its old name, and every field of a JSON case's records
holds one JSON type across its records.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from belldistill.cli import main

HASHES = Path(__file__).with_name("golden_hashes.json")

BCNOT = "1100,0100,0010,0011"
GENS8 = "ZZIIIIII,IIZZIIII,IIIIZZII,IIIIIIZZ"
# The README's DEJMPS matrix.
DEJMPS = "0001,1000,1101,0011"
# Z_iZ_{i+1} on 13 pairs: 4096 small records, more than one output block.
CHAIN13 = ",".join("I" * i + "ZZ" + "I" * (11 - i) for i in range(12))
# Z_iZ_{i+1} on 10 pairs, five of them measured: 32 records of 1024 floats,
# each float array written in several blocks.
CHAIN10 = ",".join("I" * i + "ZZ" + "I" * (8 - i) for i in range(5))
# The 20 x 20 identity: with -m 1 the label map drops the phase column of
# every measured pair, so each pair folded beyond the 8-pair head has
# shifts {0, u, 0, u}.
IDENTITY20 = ",".join("0" * i + "1" + "0" * (19 - i) for i in range(20))


def _state_probs() -> list[float]:
    """n = 4 weights, most of them zero, a few the smallest subnormal
    (alone in their output cells, so that outputs print subnormals)."""
    probs = [float(label % 7 == 0) * (1 + label % 5) for label in range(256)]
    total = sum(probs)
    probs = [p / total for p in probs]
    for label in (9, 33, 62, 200):
        probs[label] = 5e-324
    return probs


# name -> content of the files a case may name, written to one directory.
FILES = {
    "perm.json": {"n": 2, "m": 1, "A": BCNOT.split(","), "b": "0100"},
    "stab.json": {"n": 4, "m": 2, "generators": ["ZZZZ", "XXII"]},
    "state.json": {"n": 4, "probs": _state_probs()},
    "config.json": {"generators": "ZZ", "werner": 0.8, "format": "csv"},
    "config-low.json": {"generators": "ZZ", "werner": 0.2},
    # "B" is no protocol key ("b" is), and "fidelity" no state key.
    "perm-unknown-key.json": {"n": 2, "m": 1, "A": BCNOT.split(","), "B": "0101"},
    "state-unknown-key.json": {"n": 2, "probs": [0.7] + [0.02] * 15, "fidelity": 0.7},
    "config-m.json": {"m": 0},
    # Text as written: a repeated key, which no dict can hold.
    "config-repeated-key.json": '{"generators": "ZZ", "werner": 0.9, "werner": 0.6}',
    "stab-repeated-key.json": '{"n": 2, "m": 1, "generators": ["ZZ"], "generators": ["XX"]}',
    "state-repeated-key.json": '{"n": 1, "probs": [0.7, 0.1, 0.1, 0.1], "n": 1}',
    # Two spellings of one option; the second names no file.
    "config-two-spellings.json": {"protocol-file": "perm.json",
                                  "protocol_file": "missing.json", "werner": 0.8},
}

_FORMATS = (("json", []), ("csv", ["--format", "csv"]))


def _both(name: str, *argv: str) -> dict:
    return {f"{name}-{fmt}": [*argv, *flags] for fmt, flags in _FORMATS}


CASES = {
    **_both("run-perm-matrix", "run-perm", "--matrix", BCNOT, "-m", "1",
            "--werner", "0.75"),
    **_both("run-code-generators", "run-code", "--generators", "ZZ",
            "--werner", "0.75"),
    **_both("run-perm-file-pair", "run-perm", "--protocol-file", "{perm.json}",
            "--pair", "0.7,0.1,0.15,0.05"),
    **_both("run-code-file-threshold", "run-code", "--protocol-file", "{stab.json}",
            "--werner", "0.8", "--threshold", "0.6"),
    **_both("run-perm-state-file", "run-perm", "--generators", "ZZII,IIZZ",
            "--state-file", "{state.json}"),
    **_both("run-code-state-file", "run-code", "--protocol-file", "{stab.json}",
            "--state-file", "{state.json}"),
    **_both("run-perm-n8m4", "run-perm", "--generators", GENS8, "--werner", "0.9"),
    **_both("run-code-n8m4", "run-code", "--generators", GENS8, "--werner", "0.9"),
    **_both("run-perm-n13m1", "run-perm", "--generators", CHAIN13, "--werner", "0.8"),
    **_both("run-code-n13m1", "run-code", "--generators", CHAIN13, "--werner", "0.8"),
    **_both("run-perm-n10m5", "run-perm", "--generators", CHAIN10, "-m", "5",
            "--werner", "0.8"),
    **_both("run-code-n10m5", "run-code", "--generators", CHAIN10, "-m", "5",
            "--werner", "0.8"),
    "run-perm-degenerate-folds-json": ["run-perm", "--matrix", IDENTITY20, "-m", "1",
                                       "--werner", "0.9"],
    "run-code-degenerate-folds-json": ["run-code", "--matrix", IDENTITY20, "-m", "1",
                                       "--werner", "0.9"],
    "run-code-matrix-json": ["run-code", "--matrix", BCNOT, "-m", "1",
                             "--werner", "0.75", "--offset", "0000"],
    **_both("run-code-offset", "run-code", "--matrix", DEJMPS, "-m", "1",
            "--offset", "0001", "--werner", "0.7"),
    "run-perm-config-csv": ["run-perm", "--config", "{config.json}"],
    **_both("verify-generators", "verify", "--generators", "ZZZ,IXX",
            "--werner", "0.75"),
    **_both("verify-state-file", "verify", "--protocol-file", "{stab.json}",
            "--state-file", "{state.json}"),
    **_both("verify-random", "verify", "--random", "10", "--seed", "3"),
    "verify-offset-file": ["verify", "--protocol-file", "{perm.json}",
                           "--werner", "0.75"],
    **_both("oracle-check", "oracle-check", "--sizes", "2", "--count", "2"),
    **_both("oracle-check-cap", "oracle-check", "--sizes", "4", "--count", "2"),
    **_both("sweep-list", "sweep", "--generators", "ZZ", "--grid", "0.6,0.8",
            "--rounds", "2"),
    **_both("sweep-range", "sweep", "--matrix", BCNOT, "-m", "1",
            "--grid", "0.55:0.95:0.05"),
    "sweep-iy-json": ["sweep", "--generators", "IY", "-m", "1", "--grid", "0.7",
                      "--rounds", "3"],
    # Options as argparse reads them: abbreviated, and with "=".
    "run-perm-abbreviated-json": ["run-perm", "--gen", "ZZ", "--wer", "0.8"],
    "run-perm-equals-json": ["run-perm", "--generators", "ZZ", "--werner=0.8"],
    # Warnings: one `warning:` line on stderr per value, exit 0.
    "warning-low-werner-json": ["run-perm", "--matrix", BCNOT, "-m", "1",
                                "--werner", "0.2"],
    "warning-config-json": ["run-perm", "--config", "{config-low.json}"],
    "warning-repeated-grid-json": ["sweep", "--generators", "ZZ", "--grid",
                                   "0.1,0.1,0.2"],
    # Refusals: one error line, exit 1.
    "refuse-non-symplectic": ["run-perm", "--matrix", "1100,0100,0010,0010",
                              "-m", "1", "--werner", "0.75"],
    "refuse-no-input": ["run-perm", "--matrix", BCNOT, "-m", "1"],
    "refuse-two-protocols": ["run-code", "--matrix", BCNOT, "--generators", "ZZ",
                             "-m", "1", "--werner", "0.75"],
    "refuse-oracle-size": ["oracle-check", "--sizes", "6"],
    "refuse-random-negative": ["verify", "--random", "-2"],
    "refuse-tiny-step": ["sweep", "--generators", "ZZ", "--grid", "0:1:1e-300"],
    "refuse-offset-generators": ["run-code", "--generators", "ZZ", "--offset",
                                 "1000", "--werner", "0.75"],
    "refuse-threshold-nan": ["run-perm", "--generators", "ZZ", "--werner", "0.75",
                             "--threshold", "nan"],
    "refuse-sizes-without-random": ["verify", "--generators", "ZZ", "--werner",
                                    "0.75", "--sizes", "2"],
    "refuse-negative-seed": ["verify", "--random", "3", "--seed", "-1"],
    "refuse-protocol-unknown-key": ["run-perm", "--protocol-file", "{perm-unknown-key.json}",
                                    "--werner", "0.75"],
    "refuse-state-unknown-key": ["run-code", "--generators", "ZZ", "--state-file",
                                 "{state-unknown-key.json}"],
    "refuse-m-with-protocol-file": ["run-perm", "--protocol-file", "{perm.json}", "-m", "0",
                                    "--werner", "0.75"],
    "refuse-config-m-with-protocol-file": ["run-perm", "--protocol-file", "{perm.json}",
                                           "--config", "{config-m.json}", "--werner", "0.75"],
    "refuse-config-repeated-key": ["run-perm", "--config", "{config-repeated-key.json}"],
    "refuse-protocol-repeated-key": ["run-code", "--protocol-file",
                                     "{stab-repeated-key.json}", "--werner", "0.8"],
    "refuse-state-repeated-key": ["run-perm", "--generators", "Z", "--state-file",
                                  "{state-repeated-key.json}"],
    "refuse-config-two-spellings": ["run-perm", "--config",
                                    "{config-two-spellings.json}"],
    # Refused by argparse.
    "refuse-no-command": [],
    "refuse-unknown-command": ["frobnicate", "--werner", "0.8"],
    "refuse-unrecognized-argument": ["run-perm", "--generators", "ZZ", "--werner",
                                     "0.8", "--bogus"],
    "refuse-bad-float": ["run-perm", "--generators", "ZZ", "--werner", "x"],
    "refuse-missing-value": ["run-perm", "--generators", "ZZ", "--werner"],
}


def _run(argv: list[str], directory: Path) -> list:
    """The exit code, stdout and stderr of `main(argv)`, with each {file}
    in argv naming that file of `directory`."""
    argv = [str(directory / a[1:-1]) if a.startswith("{") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _digest(argv: list[str], directory: Path) -> str:
    """sha256 of `_run(argv, directory)`."""
    return hashlib.sha256(json.dumps(_run(argv, directory)).encode()).hexdigest()


def _write_files(directory: Path) -> None:
    for name, content in FILES.items():
        (directory / name).write_text(content if isinstance(content, str)
                                      else json.dumps(content))


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    _write_files(directory)
    return directory


def test_corpus_is_pinned():
    assert sorted(json.loads(HASHES.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(files, case):
    assert _digest(CASES[case], files) == json.loads(HASHES.read_text())[case]


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("refuse-")))
def test_refusals_print_one_error_line(files, case):
    code, out, err = _run(CASES[case], files)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.endswith("-json")))
def test_each_json_field_holds_one_type(files, case):
    """Each record field prints one JSON type in every record: a float
    field never prints an integer such as 0."""
    records = json.loads(_run(CASES[case], files)[1])["records"]
    for key in records[0]:
        assert len({type(record[key]) for record in records}) == 1, key


def _update() -> None:
    old = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_files(directory)
        hashes = {case: _digest(argv, directory) for case, argv in CASES.items()}
    HASHES.write_text(json.dumps(hashes, indent=2) + "\n")
    for case in sorted(hashes.keys() | old.keys()):
        if case not in old:
            print(f"added: {case}")
        elif case not in hashes:
            print(f"removed: {case}")
        elif hashes[case] != old[case]:
            print(f"changed: {case}")
    print(f"pinned {len(hashes)} cases in {HASHES}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    _update()
