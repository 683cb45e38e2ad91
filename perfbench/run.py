"""belldistill benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload wide --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table

Run from the root of a checkout.  Each workload runs in a fresh child
process (worker.py) with OpenBLAS pinned to one thread, so that its peak
RSS is its own.  Set-up (import, input generation, references, warm-up) is
measured in that child and in five set-up-only children after it, and
reported as the median.  With ``--trace 1`` an untraced child runs for half the time and a
traced child runs one pass, and the per-layer metrics are printed instead
of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT = HERE / "out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 160
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "run_perm_s": "s",
    "run_code_s": "s",
    "peak_rss_mb": "MB",
}

# Layers whose calls are counted and whose self time is reported.
_TIMED_LAYERS = (
    "states.from_pairs", "gf2.coset_sum", "gf2.complete_to_symplectic",
    "gf2.solve_commutation", "gf2.symplectic_inverse",
    "gf2.orthogonal_complement", "permutation.run", "stabilizer.run",
    "stabilizer.optimal_recovery", "equivalence.verify_equivalence",
    "oracle.simulate_parity_measurement", "oracle.simulate_syndrome_measurement",
)
_SELF_TIME_ONLY = ("equivalence.permutation_from_stabilizer",
                   "oracle.density_matrix", "crosscheck.run_all")
_COUNTERS = (
    ("cli.output_bytes", "bytes"),
    ("states.table_bytes", "bytes"),
    ("gf2.coset_elements", "count"),
    ("permutation.branches", "count"),
    ("permutation.zero_branches_skipped", "count"),
    ("permutation.tied_corrections", "count"),
    ("stabilizer.branches", "count"),
    ("stabilizer.zero_branches_skipped", "count"),
    ("equivalence.coset_mismatches", "count"),
)


def per_layer_units() -> dict[str, str]:
    units = {"cli.self_s": "s"}
    for layer in _TIMED_LAYERS:
        units[f"{layer}_calls"] = "count"
        units[f"{layer}_s"] = "s"
    for layer in _SELF_TIME_ONLY:
        units[f"{layer}_s"] = "s"
    units.update(_COUNTERS)
    units.update({
        "gf2.computed_bytes": "bytes",
        "permutation.branch_yield": "share",
        "trace.overhead_share": "share",
        "failed_share": "share",
        "verify_ops_per_s": "1/s",
        "oracle_cases_per_s": "1/s",
        "sweep_rounds_per_s": "1/s",
    })
    return units


PER_LAYER = per_layer_units()


def _rate(child: dict, command: str) -> float:
    seconds = sum(sum(p.get(command, ())) for p in child["times"])
    return child["units"].get(command, 0) / seconds if seconds else 0.0


def failed_share(child: dict) -> float:
    """Wrong outputs plus tie-break mismatches, over operations attempted."""
    return (child["wrong"] + child["tie_mismatches"]) / child["attempted"]


def pass_totals(times: list[dict]) -> list[float]:
    """Time of each pass: the sum of its op times."""
    return [sum(sum(v) for v in p.values()) for p in times]


def _command_s(times: list[dict], command: str) -> float:
    """Median over passes of the mean time of `command` within a pass."""
    return statistics.median(statistics.fmean(p[command]) for p in times)


def end_to_end(setups: list[dict], child: dict, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, with times scaled to the reference speed.

    worker.SpeedProbe times a fixed loop every 50 ms while the workload
    runs; each time is scaled by the samples taken while it was measured.
    This removes the machine's speed swings between runs.  `scaled=False`
    gives the times as measured.
    """
    prefix = "scaled_" if scaled else ""
    times = child[prefix + "times"]
    return {
        "setup_s": statistics.median(c[prefix + "setup_s"] for c in setups),
        "wall_s": statistics.median(pass_totals(times)),
        "run_perm_s": _command_s(times, "run-perm"),
        "run_code_s": _command_s(times, "run-code"),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass, plus rates of the plain run."""
    layers, counters = traced["layers"], traced["counters"]

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "self_s": 0.0})

    values = {"cli.self_s": layer("cli.main")["self_s"]}
    for name in _TIMED_LAYERS:
        values[f"{name}_calls"] = layer(name)["calls"]
        values[f"{name}_s"] = layer(name)["self_s"]
    for name in _SELF_TIME_ONLY:
        values[f"{name}_s"] = layer(name)["self_s"]
    for name, _unit in _COUNTERS:
        values[name] = counters.get(name, 0)
    attempted = counters.get("permutation.attempted", 0)
    values.update({
        # computed, not measured: 8 bytes of weight table per coset element
        "gf2.computed_bytes": 8 * counters.get("gf2.coset_elements", 0),
        "permutation.branch_yield":
            values["permutation.branches"] / attempted if attempted else 0.0,
        "trace.overhead_share":
            pass_totals(traced["times"])[0] / pass_totals(plain["times"])[0] - 1.0,
        "failed_share": failed_share(plain),
        "verify_ops_per_s": _rate(plain, "verify"),
        "oracle_cases_per_s": _rate(plain, "oracle-check"),
        "sweep_rounds_per_s": _rate(plain, "sweep"),
    })
    return values


def _child(name: str, seed: int, seconds: float, run_dir: Path,
           *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--run-dir", str(run_dir), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    extra = ("--tiny",) if tiny else ()
    try:
        plain = _child(name, seed, seconds / 2 if trace else seconds, run_dir,
                       *extra)
        if trace:
            traced = _child(name, seed, seconds, run_dir, "--traced", *extra)
            measured = None
            shutil.copy(run_dir / "trace.json",
                        OUT / f"trace-{name}-seed{seed}.json")
            values, units = per_layer(plain, traced), PER_LAYER
        else:
            traced = None
            setups = [plain] + [
                _child(name, seed, 0, run_dir, "--setup-only", *extra)
                for _ in range(SETUP_PROBES)]
            values, units = end_to_end(setups, plain), END_TO_END
            measured = end_to_end(setups, plain, scaled=False)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    wrong = plain["wrong"] + (traced["wrong"] if traced else 0)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "measured": measured, "probe_s": plain["probe_s"],
        "passes_s": pass_totals(plain["times"]), "op_s": plain["times"],
        "traced_pass_s": pass_totals(traced["times"]) if traced else None,
        "tie_mismatches": plain["tie_mismatches"],
        "failed_share": failed_share(plain),
        "problems": plain["problems"] + (traced["problems"] if traced else []),
        "correct": wrong == 0,
        "attempted": plain["attempted"] + (traced["attempted"] if traced else 0),
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def _print_table(result: dict, prefix: str = "") -> None:
    for key, metric in result["metrics"].items():
        print(f"{prefix}{key:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{prefix}passes {len(result['passes_s'])}, operations "
          f"{result['attempted']}, failed checks {result['failed']}, "
          f"verify tie mismatches {result['tie_mismatches']}, "
          f"failed_share {result['failed_share']:.4f}")
    if result["measured"]:
        print(f"{prefix}as measured, before scaling by speed-kernel "
              f"{result['probe_s'] * 1e6:.1f} us: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in result["measured"].items()))
    for problem in result["problems"]:
        print(f"{prefix}problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "belldistill" / "cli.py").is_file():
        print(f"error: no belldistill sources under {ROOT / 'src'}; run from "
              "the root of a belldistill checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace),
                            args.tiny) for name in names]
    for result in results:
        tag = f"{result['workload']}-seed{args.seed}-trace{args.trace}"
        (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
        print(f"# {tag}  {json.dumps(result['environment'])}")
        _print_table(result, f"{result['workload']:<6} ")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
