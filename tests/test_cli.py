"""Command-line surface: formats, file configs, determinism, exit codes."""

import csv
import io
import json

import pytest
from hypothesis import given, strategies as st

from belldistill.cli import _CONFIG_KEYS, main
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


def test_verify_random_batch(capsys):
    code, out, _ = invoke(capsys, "verify", "--random", "8", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["all_passed"] is True
    assert len(data["records"]) == 8


def test_sweep_improves_fidelity(capsys):
    code, out, _ = invoke(capsys, "sweep", "--generators", "ZZ",
                          "--grid", "0.55:0.95:0.05", "--rounds", "1")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 9
    for row in records:
        assert row["f_out"] > row["f_in"]


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
    "state-probs-not-numbers": ("--state-file", {"n": 1, "probs": ["1", 0, 0, 0]}),
    "protocol-nested": ("--protocol-file", NESTED),
    "state-nested": ("--state-file", NESTED),
    "config-nested": ("--config", NESTED),
    "config-key-of-other-command": ("--config", {"werner": 0.75, "seed": 4}),
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


@pytest.mark.parametrize("argv", [
    ["verify", "--random", "2", "--sizes", "2,0"],
    ["verify", "--random", "2", "--sizes", "20"],
    ["oracle-check", "--sizes", "0"],
    ["sweep", "--generators", "ZZ", "--grid", "0.5:inf:0.1"],
    ["run-perm", "--generators", "Z" * 15, "--werner", "0.8"],
    ["run-perm", "--generators", "ZZ", "--pair", "nan,0,0,0"],
    ["oracle-check", "--sizes", "2", "--count", "-3"],
    ["oracle-check", "--sizes", "2", "--count", "0"],
    ["verify", "--random", "-2"],
    ["sweep", "--generators", "ZZ", "--grid", "0:1:1e-300"],
    ["sweep", "--generators", "ZZ", "--grid", "0:1:1e-320"],
    ["run-code", "--generators", "ZZ", "--offset", "1000", "--werner", "0.75"],
    ["run-code", "--generators", "ZZ", "--werner", "0.75", "--threshold", "nan"],
    ["run-code", "--generators", "ZZ", "--werner", "0.75", "--threshold", "inf"],
    ["verify", "--random", "2", "--generators", "ZZ", "--werner", "0.3"],
    ["verify", "--generators", "ZZ", "--werner", "0.75", "--seed", "9"],
    ["verify", "--generators", "ZZ", "--werner", "0.75", "--sizes", "7,8"],
])
def test_out_of_range_flags_fail_cleanly(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_value_of_wrong_type_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"generators": "ZZ", "werner": "0.75"}))
    code, _, err = invoke(capsys, "run-perm", "--config", str(config))
    assert code == 1
    assert "'werner'" in err


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
# "output" would write files: it is the one config key left out.
_CONFIGS = _JSON | st.dictionaries(
    st.sampled_from(sorted(set(_CONFIG_KEYS) - {"output"})), _LEAF, max_size=3)


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
