"""One workload run in a fresh process: set up, run a closed loop, check.

Started by run.py with OpenBLAS pinned to one thread.  Prints one JSON
object (its measurements) as the last line of standard output.

The loop is closed with one client: commands run back to back, each an
in-process ``belldistill.cli.main(argv)`` call writing to an ``--output``
file, which is the ``belldistill`` command minus interpreter start-up.
The op list of the workload is one pass; passes repeat (see
`closed_loop`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


PROBE_INTERVAL_S = 0.05
# Speed-kernel time at the reference speed: about what it took on the
# machine the benchmark was written on.  Scaled times are "seconds at this
# speed".
PROBE_REF_S = 140e-6


def speed_kernel() -> float:
    """Time a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Times `speed_kernel` every 50 ms, from a signal handler, while timed
    work runs.

    The machine this benchmark was written on switches between two speeds
    about 1.5x apart, each held for seconds to minutes.  The kernel times
    taken while an operation ran measure the speed it got, and
    `Runner.run_pass` divides that out.  The handler adds about 0.3% to
    every timed operation.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(speed_kernel())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # Set-up is short: top up with samples taken right after it.
        self.samples += [speed_kernel() for _ in range(max(0, 20 - len(self.samples)))]

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)


class Runner:
    """Runs ops, checks each output, and tallies what happened."""

    def __init__(self, spec: workloads.Spec, references: dict | None,
                 tracer=None, corrupt=None, probe: SpeedProbe | None = None) -> None:
        self.spec = spec
        self.references = references
        self.tracer = tracer
        self.corrupt = corrupt      # self-check hook: edits one output file
        self.output = Path("op_output.json").resolve()
        self.probe = probe if probe is not None else SpeedProbe()
        # one dict per pass: command -> times of its ops in that pass, as
        # measured and scaled to the reference speed
        self.times: list[dict[str, list[float]]] = []
        self.scaled_times: list[dict[str, list[float]]] = []
        self.units: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.wrong = 0
        self.tie_mismatches = 0
        self.problems: list[str] = []
        self._pending_perm: dict[str, dict] = {}

    def run_pass(self) -> None:
        """Run every op once.  Each op's time is scaled by the speed-kernel
        samples taken while it ran, or by those of its pass when it ran
        for less than three samples."""
        samples = self.probe.samples
        first = len(samples)
        done = [self.run_op(op) for op in self.spec.ops]
        pass_speed = statistics.fmean(samples[first:]) if len(samples) > first \
            else PROBE_REF_S
        times, scaled = defaultdict(list), defaultdict(list)
        for command, elapsed, lo, hi in done:
            window = samples[lo:hi]
            speed = statistics.fmean(window) if len(window) >= 3 else pass_speed
            times[command].append(elapsed)
            scaled[command].append(elapsed * PROBE_REF_S / speed)
        self.times.append(times)
        self.scaled_times.append(scaled)

    def run_op(self, op: workloads.Op) -> tuple[str, float, int, int]:
        """Run and check one op; returns its command, its time, and the
        range of speed-kernel samples taken while it ran."""
        from belldistill import cli

        command = op.argv[0]
        self.attempted += 1
        gc.collect()  # no op pays for the garbage of the checks before it
        first = len(self.probe.samples)
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv) + ["--output", str(self.output)])
        except Exception:  # a traceback is a failed operation, not a crash
            rc = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        last = len(self.probe.samples)
        self.units[command] += op.units or 1
        if rc is None:
            verdict, problems = checks.WRONG, [f"raised: {error}"]
        else:
            if self.corrupt is not None:
                self.corrupt(op, self.output)
            try:
                verdict, problems = self._check(op, rc)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                verdict, problems = checks.WRONG, [f"malformed output: {exc!r}"]
        if verdict == checks.TIE_MISMATCH:
            self.tie_mismatches += 1
        elif verdict == checks.WRONG:
            self.wrong += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.key}: {'; '.join(problems[:3])}")
        return command, elapsed, first, last

    def _check(self, op: workloads.Op, rc: int) -> tuple[str, list[str]]:
        command = op.argv[0]
        try:
            doc = json.loads(self.output.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return checks.WRONG, [f"exit {rc}, unreadable output: {exc}"]
        if self.tracer is not None:
            self.tracer.count("cli.output_bytes", self.output.stat().st_size)
        self.output.unlink()
        if command == "verify":
            verdict, problems = checks.check_verify(doc, rc)
        else:
            verdict = checks.OK
            problems = [f"exit code {rc}"] if rc != 0 else []
            if command in ("run-perm", "run-code"):
                problems += checks.check_engine(doc, op.n, op.m)
                problems += self._pair(op, doc)
            elif command == "sweep":
                problems += checks.check_sweep(doc, op.units)
            elif command == "oracle-check":
                problems += checks.check_oracle(doc, op.units)
        if self.references is not None and not problems:
            entry = checks.reference_entry(command, doc)
            ref = self.references.get(op.key)
            if entry is not None:
                if ref is None:
                    problems.append("no reference recorded for this op")
                else:
                    problems += checks.compare_reference(entry, ref)
        return (checks.WRONG, problems) if problems else (verdict, [])

    def _pair(self, op: workloads.Op, doc: dict) -> list[str]:
        summary = checks.engine_summary(doc)
        if op.pair_with is not None:
            self._pending_perm[op.pair_with] = summary
            return []
        perm = self._pending_perm.pop(op.key, None)
        return [] if perm is None else checks.compare_engines(perm, summary)


def record_references(spec: workloads.Spec) -> dict:
    """Run one pass and return the reference entries of its outputs."""
    from belldistill import cli

    output = Path("op_output.json").resolve()
    refs = {}
    for op in spec.ops:
        rc = cli.main(list(op.argv) + ["--output", str(output)])
        doc = json.loads(output.read_text())
        entry = checks.reference_entry(op.argv[0], doc)
        if entry is not None:
            if rc not in (0, 2):
                raise RuntimeError(f"{op.key} exited {rc}")
            refs[op.key] = checks.fingerprints(entry)
    output.unlink()
    return refs


def setup(name: str, seed: int, tiny: bool, run_dir: Path,
          with_references: bool):
    """Import, generate inputs, load references, warm up; all of it timed."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from belldistill import cli

    spec = workloads.build(name, seed, tiny)
    run_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(run_dir)
    workloads.write_files(spec, run_dir)
    references = None
    if with_references and seed == workloads.DEFAULT_SEED and not tiny:
        references = json.loads((HERE / "reference.json").read_text())[name]
    # Let lazy imports and first-call set-up finish before timing.
    warm = run_dir / "warm.json"
    for argv in (["run-perm", "--generators", "ZZ", "--werner", "0.75"],
                 ["run-code", "--generators", "ZZ", "--werner", "0.75"],
                 ["verify", "--generators", "ZZ", "--werner", "0.75"],
                 ["sweep", "--generators", "ZZ", "--grid", "0.7,0.8"],
                 ["oracle-check", "--sizes", "2", "--count", "1"]):
        if cli.main(argv + ["--output", str(warm)]) != 0:
            raise RuntimeError(f"warm-up command failed: {argv}")
    warm.unlink()
    return spec, references, time.perf_counter() - start


def closed_loop(runner: Runner, seconds: float, max_passes: int | None) -> None:
    """Run ``round(seconds / pass_s)`` passes back to back, at least one.

    The count depends on `seconds` alone, not on how fast the passes go, so
    every run of a workload takes its medians over the same samples: the
    first `run-perm` of a fresh process is slower than later ones, and a
    median over 2 samples in one run and 3 in the next would move with the
    machine's speed.
    """
    planned = max(1, round(seconds / runner.spec.pass_s))
    if max_passes is not None:
        planned = min(planned, max_passes)
    for _ in range(planned):
        runner.run_pass()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--traced", action="store_true",
                        help="wrap the program's layers and run one pass")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="print reference entries for this seed instead")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    run_dir = Path(args.run_dir).resolve()
    with SpeedProbe() as setup_probe:
        spec, references, setup_s = setup(args.workload, args.seed, args.tiny,
                                          run_dir, not args.record)
    if args.record:
        print(json.dumps(record_references(spec)))
        return 0
    result = {"setup_s": setup_s,
              "scaled_setup_s": setup_s * PROBE_REF_S / setup_probe.mean_s}
    if not args.setup_only:
        tracer = None
        if args.traced:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        with SpeedProbe() as probe:
            runner = Runner(spec, references, tracer, probe=probe)
            closed_loop(runner, args.seconds, 1 if args.traced else None)
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(run_dir / "trace.json")
            result["layers"] = tracer.layer_totals()
            result["counters"] = tracer.all_counters()
        result.update({
            "times": runner.times,
            "scaled_times": runner.scaled_times,
            "units": runner.units,
            "attempted": runner.attempted,
            "wrong": runner.wrong,
            "tie_mismatches": runner.tie_mismatches,
            "problems": runner.problems,
            "probe_s": probe.mean_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
