"""Fast self-check of the benchmark at tiny sizes (under a minute).

    python3 perfbench/selfcheck.py

Asserts that every metric named in BENCHMARK.json is emitted with its unit
by every workload, traced and untraced; that a deliberately corrupted
output record is counted as a failed operation and in ``failed_share``;
that a reference fingerprint catches a changed number; and that the
benchmark refuses to run, printing no result, where the program's sources
are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        emitted = run.END_TO_END if trace == 0 else run.PER_LAYER
        assert expected == emitted, f"{group} in BENCHMARK.json != run.py"
        for name in workloads.WORKLOADS:
            proc = _run(ROOT, "--workload", name, "--seed", "1", "--seconds",
                        "1", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, f"{name} trace {trace}: {got}"
            for key, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), key
            share = result["metrics"].get("failed_share", {}).get("value")
            if name == "suite" and share is not None:
                assert share > 0, "the tie-break mismatch stopped showing"
            print(f"ok  {name:<6} trace {trace}: {len(got)} metrics")


def check_corruption_counts() -> None:
    cwd = os.getcwd()
    run_dir = HERE / "out" / "selfcheck"
    try:
        spec, _, _ = worker.setup("wide", 1, True, run_dir, False)

        def corrupt(op, path):
            if op.argv[0] == "run-code":
                doc = json.loads(path.read_text())
                doc["records"][0]["prob"] *= 1.5
                path.write_text(json.dumps(doc))

        clean = worker.Runner(spec, None)
        clean.run_pass()
        broken = worker.Runner(spec, None, corrupt=corrupt)
        broken.run_pass()
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)
    assert clean.wrong == 0 and run.failed_share(vars(clean)) == 0.0
    assert broken.wrong == 1, broken.problems
    assert run.failed_share(vars(broken)) == 1 / broken.attempted
    print(f"ok  corrupted record counted: {broken.problems[0][:70]}")


def check_reference_catches_change() -> None:
    entry = {"branches": 2, "prob": [0.25, 0.75], "fidelity": [0.9, 0.8]}
    ref = checks.fingerprints(entry)
    assert checks.compare_reference(entry, ref) == []
    moved = dict(entry, prob=[0.25 + 1e-9, 0.75 - 1e-9])
    assert checks.compare_reference(moved, ref), "fingerprint missed a change"
    print("ok  reference fingerprint catches a 1e-9 change")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "wide", "--seed", "0", "--seconds",
                    "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == "", proc
    print("ok  refuses to run without the program's sources")


def main() -> int:
    check_metric_names()
    check_corruption_counts()
    check_reference_catches_change()
    check_refuses_without_sources()
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
