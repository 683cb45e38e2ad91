"""The benchmark must run against the package.

`perfbench/tracer.py` replaces module attributes by name; a rename or a
deletion in the package would only show as a crash of a traced benchmark
run.  The tracer module is imported here, never installed.  A tiny pass
of each workload runs the benchmark's own output checks, so an output
change they reject fails here too.  The `suite` workload's oracle-check
op runs in process under a traced-memory bound.
"""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from belldistill import equivalence, permutation, stabilizer
from belldistill.stabilizer import StabilizerProtocol
from belldistill.states import BellDiagonalState, werner

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def hooked_names():
    tracer = load_tracer()
    names = [(module, attr) for _prefix, module, attr in tracer.SPANNED]
    names += [tuple(name.split(".")) for name in (tracer.COSET_SUM, tracer.FROM_PAIRS)]
    return names


# The tracer names its `states.from_pairs` layer after the classmethod it
# wraps; every other name is a module attribute.
CLASS_OWNERS = {("states", "from_pairs"): BellDiagonalState}


@pytest.mark.parametrize("module, attr", hooked_names())
def test_traced_attribute_resolves(module, attr):
    owner = CLASS_OWNERS.get((module, attr)) or importlib.import_module(
        f"belldistill.{module}")
    assert callable(getattr(owner, attr)) and attr in owner.__dict__


@pytest.mark.parametrize("command, spanned, absent", [
    ("run-code", "stabilizer.run", "permutation.run"),
    ("run-perm", "permutation.run", "stabilizer.run"),
])
def test_an_engine_run_is_traced_as_its_own_layer(tmp_path, command, spanned, absent):
    """The stabilizer engine shares the permutation engine's table code but
    not its traced `run`, so each command's engine time lands in its layer."""
    import belldistill.cli

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = belldistill.cli.main([command, "--generators", "ZZ", "--werner", "0.75",
                                     "--output", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert spanned in names and absent not in names


def test_from_pairs_stays_a_classmethod():
    assert isinstance(BellDiagonalState.__dict__["from_pairs"], classmethod)


@pytest.mark.parametrize("pair, m", [(werner(0.8), 1), (werner(0.8), 3),
                                     (BellDiagonalState(1, (0.7, 0.0, 0.3, 0.0)), 1),
                                     (BellDiagonalState(1, (0.25,) * 4), 0)])
def test_branch_counter_reads_an_engine_result(pair, m):
    """The counter the tracer attaches to both engines' `run`, called on a
    real result: it reads `len` and every branch's `output.probs`."""
    proto = StabilizerProtocol.from_pauli_strings(["ZZII", "XXII", "IIZZ", "IIXX"][:4 - m], m)
    state = BellDiagonalState.from_pairs([pair] * 4)
    perm = equivalence.permutation_from_stabilizer(proto)
    tracer = load_tracer().Tracer()
    for layer, run, protocol in (("stabilizer", stabilizer.run, proto),
                                 ("permutation", permutation.run, perm)):
        branches = run(state, protocol)
        tracer._count_branches(layer)((state, protocol), branches)
        assert tracer.counters[f"{layer}.branches"] == len(branches)
        assert tracer.counters[f"{layer}.zero_branches_skipped"] == \
            (1 << (4 - m)) - len(branches)
    # tied: the two heaviest weights of an output within 1e-12 of each other
    # (`branches` is the permutation engine's)
    top = np.sort(branches.output, axis=1)[:, -2:]
    tied = int(np.sum(top[:, -1] - top[:, 0] <= 1e-12)) if 4 ** m > 1 else 0
    assert tracer.counters["permutation.tied_corrections"] == tied


def test_mismatch_counter_reads_a_verify_report(monkeypatch, werner2, edit_columns):
    """The counter the tracer attaches to `verify_equivalence`, called on a
    real report: it iterates `report.branches` and reads `coset_match`."""
    proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
    tracer = load_tracer().Tracer()
    report = equivalence.verify_equivalence(werner2, proto)
    tracer._count_mismatches((werner2, proto), report)
    assert report.passed
    assert tracer.counters["equivalence.coset_mismatches"] == 0
    naming = stabilizer.name_by_syndrome
    monkeypatch.setattr(stabilizer, "name_by_syndrome",
                        lambda *args: edit_columns(naming(*args), lambda _, column: column[1:]))
    report = equivalence.verify_equivalence(werner2, proto)
    tracer._count_mismatches((werner2, proto), report)
    assert not report.passed
    assert tracer.counters["equivalence.coset_mismatches"] == 1


@pytest.mark.parametrize("workload", ["wide", "deep", "suite"])
def test_tiny_benchmark_pass_checks_clean(tmp_path, workload):
    """One tiny pass of a workload, in a fresh process as the benchmark
    runs it: exit 0, and no op whose output the benchmark's checks reject."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--tiny", "--run-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["wrong"] == 0, result["problems"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("workload", ["wide", "deep", "suite"])
def test_benchmark_ops_print_the_bytes_of_the_per_value_path(tmp_path, monkeypatch,
                                                              workload, fmt):
    """Each seed-0 op of the workload exits and prints alike with every
    output on the block path, its floats read off the digit tables
    (`cli._VALUE_MAX` 0), and with every output formatted value by value
    (`cli._VALUE_MAX` infinite)."""
    from belldistill import cli

    blocks, decimals = [], []
    block_matrix, decimal = cli._block_matrix, cli._decimal
    monkeypatch.setattr(cli, "_block_matrix",
                        lambda *args: blocks.append(1) or block_matrix(*args))
    monkeypatch.setattr(cli, "_decimal", lambda *args: decimals.append(1) or decimal(*args))
    spec = load_workloads().build(workload, 0)
    load_workloads().write_files(spec, tmp_path)
    monkeypatch.chdir(tmp_path)
    for op in spec.ops:
        runs = []
        for value_max in (0, math.inf):
            monkeypatch.setattr(cli, "_VALUE_MAX", value_max)
            blocks.clear(), decimals.clear()
            output = tmp_path / f"{len(runs)}.out"
            code = cli.main([*op.argv, "--format", fmt, "--output", str(output)])
            runs.append((code, output.read_bytes(), len(blocks), len(decimals)))
        (code, out, count, batched), (per_code, per_out, per_block, per_value) = runs
        assert code == per_code == 0 and out == per_out, op.key
        # a `wide` or `deep` output spans several blocks
        assert count >= (1 if workload == "suite" else 2) and batched == count, op.key
        assert per_block == per_value == 0, op.key


def test_each_workload_takes_its_own_rendering_path(tmp_path, monkeypatch):
    """Which path `cli._render` takes for the benchmark's ops, counted by
    spies: every seed-0 `suite` op of at most 4 pairs (each prints fewer
    than `cli._VALUE_MAX` floats) makes no `_block_matrix` call, and every
    `wide` and `deep` op no `_text_records` call."""
    from belldistill import cli

    calls = []
    for name in ("_block_matrix", "_text_records"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, call=getattr(cli, name):
                            calls.append(name) or call(*args))
    monkeypatch.chdir(tmp_path)
    for workload in ("suite", "wide", "deep"):
        spec = load_workloads().build(workload, 0)
        load_workloads().write_files(spec, tmp_path)
        for op in spec.ops:
            if "/n5" in op.key or "/n6" in op.key:
                continue
            calls.clear()
            assert cli.main([*op.argv, "--output", "out"]) == 0, op.key
            path = "_text_records" if workload == "suite" else "_block_matrix"
            assert calls and set(calls) == {path}, op.key


def test_the_benchmark_oracle_op_holds_no_full_density_matrix(tmp_path):
    """`suite`'s oracle-check op, with the n <= 4 Bell bases already built
    by a first call: four passing checks, and a traced peak below one
    4^4 x 4^4 complex matrix (forming rho held 3 MiB)."""
    from belldistill import cli

    op, = (op for op in load_workloads().build("suite", 0).ops
           if op.key == "suite/oracle-check")
    output = tmp_path / "out.json"
    argv = [*op.argv, "--output", str(output)]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records = json.loads(output.read_text())["records"]
    assert code == 0
    assert len(records) == 4 and all(r["passed"] for r in records)
    assert peak < 1 << 20
