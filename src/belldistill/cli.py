"""Command-line front end.

Subcommands:

* ``run-perm``     relabeling protocol, one record per parity outcome
* ``run-code``     generator protocol, one record per syndrome
* ``verify``       cross-check the two engines (single instance or random batch)
* ``sweep``        recurrence rounds over a grid of Werner inputs
* ``oracle-check`` dense-simulation comparison suites

Exit codes: 0 success, 1 configuration/validation error, 2 mismatch found.
All probabilities are printed with 15 significant digits; identical
configuration and seed produce byte-identical output.  Relative ``--output``
paths resolve against ``BELLDISTILL_OUTDIR`` when that variable is set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import crosscheck, equivalence, permutation, stabilizer
from .gf2 import MAX_PAIRS, BinaryMatrix, BinaryVector
from .permutation import PermutationProtocol
from .stabilizer import StabilizerProtocol, parse_pauli_string, to_pauli_string
from .states import BellDiagonalState, werner


class CliError(Exception):
    """Configuration or validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _round15(x: float) -> float:
    """Clamp a float to 15 significant digits for stable printing."""
    return float(format(float(x), ".15g"))


def _clean(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return _round15(value)
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    raise TypeError(f"unserializable value of type {type(value)!r}")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    if isinstance(value, list):
        return ";".join(_format_cell(v) for v in value)
    return str(value)


def _render(command: str, records: list[dict], fmt: str,
            summary: dict | None) -> str:
    if fmt == "json":
        body = {"command": command, "records": _clean(records)}
        if summary is not None:
            body["summary"] = _clean(summary)
        return json.dumps(body, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        # Every record of a command has the same fields in the same order.
        writer.writerow(list(records[0]))
        for rec in _clean(records):
            writer.writerow([_format_cell(v) for v in rec.values()])
        return buf.getvalue()
    raise CliError(f"unknown output format {fmt!r}")


def _emit(args, records: list[dict], summary: dict | None = None) -> None:
    text = _render(args.command, records, args.format, summary)
    if args.output is None:
        sys.stdout.write(text)
        return
    path = Path(args.output)
    if not path.is_absolute():
        base = os.environ.get("BELLDISTILL_OUTDIR")
        if base:
            path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

# Most points a sweep grid may have; a lo:hi:step grid is checked before
# it is built, since a tiny step would otherwise exhaust memory.
MAX_GRID_POINTS = 10_000

# Config keys and the JSON types their values may take (never a boolean).
_NUMBER = (int, float)
_CONFIG_KEYS = {
    "werner": _NUMBER, "pair": str, "state_file": str, "protocol_file": str,
    "generators": str, "matrix": str, "offset": str, "m": int,
    "threshold": _NUMBER, "format": str, "output": str, "seed": int,
    "rounds": int, "grid": (str, *_NUMBER), "random": int, "sizes": (str, int),
    "count": int,
}


def _add_io_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file supplying any of the other options")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="output format (default json)")
    p.add_argument("--output", "-o", default=None,
                   help="output file (default stdout); relative paths use "
                        "BELLDISTILL_OUTDIR when set")


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--werner", type=float, default=None,
                   help="build the input from identical Werner pairs of this fidelity")
    p.add_argument("--pair", default=None,
                   help="four comma-separated pair weights (labels 00,01,10,11)")
    p.add_argument("--state-file", default=None,
                   help="JSON file {n, probs} with the full input distribution")


def _add_protocol_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--protocol-file", default=None,
                   help="JSON protocol: {n,m,A,b} with bit-string rows, or "
                        "{n,m,generators} with Pauli strings")
    p.add_argument("--generators", default=None,
                   help="comma-separated Pauli strings, e.g. ZZ or ZZII,XXII")
    p.add_argument("--matrix", default=None,
                   help="comma-separated bit-string rows of a symplectic matrix")
    p.add_argument("--offset", default=None,
                   help="bit-string relabeling offset (default all zero)")
    p.add_argument("-m", type=int, default=None,
                   help="number of surviving pairs (required with --matrix)")
    p.add_argument("--threshold", type=float, default=None,
                   help="acceptance threshold (default: input fidelity)")


def _engine_options(p: argparse.ArgumentParser) -> None:
    _add_protocol_options(p)
    _add_input_options(p)
    _add_io_options(p)


def _verify_options(p: argparse.ArgumentParser) -> None:
    _engine_options(p)
    p.add_argument("--random", type=int, default=None,
                   help="verify this many random instances instead")
    p.add_argument("--sizes", default=None,
                   help="comma-separated pair counts for --random (default 2,3,4)")
    p.add_argument("--seed", type=int, default=None, help="random seed (default 0)")


def _sweep_options(p: argparse.ArgumentParser) -> None:
    _add_protocol_options(p)
    _add_io_options(p)
    p.add_argument("--grid", default=None,
                   help="fidelity grid: lo:hi:step or comma-separated values")
    p.add_argument("--rounds", type=int, default=None, help="rounds per grid point")


def _oracle_options(p: argparse.ArgumentParser) -> None:
    _add_io_options(p)
    p.add_argument("--sizes", default=None,
                   help="comma-separated pair counts (default 2,3)")
    p.add_argument("--count", type=int, default=None,
                   help="random cases per suite (default 50)")
    p.add_argument("--seed", type=int, default=None, help="random seed (default 0)")


def _read_json_object(path: str, what: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{what} file must hold a JSON object")
    return data


def _is_a(value, kinds) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _field(data: dict, key: str, kind: type, what: str):
    """data[key], refused with a clean error unless it is a JSON `kind`."""
    value = data.get(key)
    if not _is_a(value, kind):
        raise CliError(f"{what} needs {key!r} as a JSON {kind.__name__}")
    return value


def _strings(data: dict, key: str, what: str) -> list[str]:
    values = _field(data, key, list, what)
    if not all(_is_a(v, str) for v in values):
        raise CliError(f"{what} needs {key!r} as a list of strings")
    return values


def _apply_config(args: argparse.Namespace) -> None:
    config_path = getattr(args, "config", None)
    if not config_path:
        return
    for key, value in _read_json_object(config_path, "config").items():
        attr = key.replace("-", "_")
        if attr not in _CONFIG_KEYS:
            raise CliError(f"unknown config key {key!r}")
        if not hasattr(args, attr):  # argparse sets every option of the command
            raise CliError(f"{args.command} has no option for config key {key!r}")
        if value is not None and not _is_a(value, _CONFIG_KEYS[attr]):
            raise CliError(f"config key {key!r} has a value of the wrong type")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def _refuse_ignored(args: argparse.Namespace) -> None:
    """Refuse option values the command would drop or could not use."""
    # oracle-check has no protocol options, so these may be missing.
    if getattr(args, "offset", None) is not None \
            and getattr(args, "matrix", None) is None:
        raise CliError("--offset applies only to an inline --matrix")
    threshold = getattr(args, "threshold", None)
    if isinstance(threshold, float) and not math.isfinite(threshold):
        raise CliError(f"--threshold must be finite, got {threshold}")


# ---------------------------------------------------------------------------
# Protocol and state loading
# ---------------------------------------------------------------------------

def _load_protocol(args) -> PermutationProtocol | StabilizerProtocol:
    sources = [s for s in (args.protocol_file, args.generators, args.matrix)
               if s is not None]
    if len(sources) != 1:
        raise CliError("provide exactly one protocol: --protocol-file, "
                       "--generators, or --matrix")
    if args.protocol_file is not None:
        data = _read_json_object(args.protocol_file, "protocol")
        n, m = _field(data, "n", int, "protocol"), _field(data, "m", int, "protocol")
        if "generators" in data:
            gens = tuple(parse_pauli_string(s)
                         for s in _strings(data, "generators", "protocol"))
            return StabilizerProtocol(n, m, gens)
        matrix = BinaryMatrix.from_strings(_strings(data, "A", "protocol"))
        if matrix.ncols != 2 * n:
            raise CliError(f"protocol matrix has {matrix.ncols} columns, "
                           f"expected 2n = {2 * n}")
        b = data.get("b") or "0" * 2 * n
        if not _is_a(b, str):
            raise CliError("protocol needs 'b' as a bit string")
        return PermutationProtocol(n, m, matrix, BinaryVector.from_string(b))
    if args.generators is not None:
        strings = [s.strip() for s in args.generators.split(",") if s.strip()]
        return StabilizerProtocol.from_pauli_strings(strings, args.m)
    rows = [s.strip() for s in args.matrix.split(",") if s.strip()]
    matrix = BinaryMatrix.from_strings(rows)
    if matrix.ncols % 2 or matrix.nrows != matrix.ncols:
        raise CliError("matrix must be square with even dimension 2n")
    n = matrix.ncols // 2
    if args.m is None:
        raise CliError("-m is required with an inline --matrix")
    offset = BinaryVector.from_string(args.offset) if args.offset \
        else BinaryVector.zeros(2 * n)
    return PermutationProtocol(n, args.m, matrix, offset)


def _as_permutation(proto) -> PermutationProtocol:
    if isinstance(proto, PermutationProtocol):
        return proto
    return equivalence.permutation_from_stabilizer(proto)


def _as_stabilizer(proto) -> StabilizerProtocol:
    if isinstance(proto, StabilizerProtocol):
        return proto
    return equivalence.stabilizer_from_permutation(proto)


def _load_state(args, n: int) -> BellDiagonalState:
    sources = [s for s in (args.werner, args.pair, args.state_file)
               if s is not None]
    if len(sources) != 1:
        raise CliError("provide exactly one input: --werner, --pair, or --state-file")
    if args.werner is not None:
        return BellDiagonalState.from_pairs([werner(args.werner)] * n)
    if args.pair is not None:
        parts = [float(x) for x in str(args.pair).split(",")]
        if len(parts) != 4:
            raise CliError("--pair needs exactly four comma-separated weights")
        return BellDiagonalState.from_pairs([BellDiagonalState(1, parts)] * n)
    data = _read_json_object(args.state_file, "state")
    _field(data, "n", int, "state")
    if not all(_is_a(p, _NUMBER) for p in _field(data, "probs", list, "state")):
        raise CliError("state needs 'probs' as a list of numbers")
    state = BellDiagonalState.from_dict(data)
    if state.n != n:
        raise CliError(f"state has {state.n} pairs but the protocol needs {n}")
    return state


def _parse_sizes(text: str | None, default: tuple[int, ...]) -> tuple[int, ...]:
    if text is None:
        return default
    try:
        sizes = tuple(int(x) for x in str(text).split(","))
    except ValueError as exc:
        raise CliError(f"bad size list {text!r}") from exc
    if not all(1 <= n <= MAX_PAIRS for n in sizes):
        raise CliError(f"sizes must be pair counts in 1..{MAX_PAIRS}, got {text!r}")
    return sizes


def _parse_grid(text: str | None) -> list[float]:
    if text is None:
        raise CliError("sweep needs --grid")
    text = str(text)
    if ":" in text:
        try:
            lo, hi, step = (float(x) for x in text.split(":"))
        except ValueError as exc:
            raise CliError(f"bad grid {text!r}, expected lo:hi:step") from exc
        if not all(map(math.isfinite, (lo, hi, step))):
            raise CliError(f"grid bounds must be finite, got {text!r}")
        if step <= 0 or hi < lo:
            raise CliError("grid needs step > 0 and hi >= lo")
        span = (hi - lo) / step
        if span > MAX_GRID_POINTS:  # checked before int(): span may be inf
            raise CliError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        grid = [round(lo + i * step, 12) for i in range(int(round(span)) + 1)]
    else:
        try:
            grid = [float(x) for x in text.split(",")]
        except ValueError as exc:
            raise CliError(f"bad grid {text!r}") from exc
    if len(grid) > MAX_GRID_POINTS:
        raise CliError(f"grid has {len(grid)} points, more than {MAX_GRID_POINTS}")
    return grid


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _branch_record(label: str, branch, **fields) -> dict:
    """One engine branch: its label ("t" or "s"), the statistics both
    engines report, and the engine's own `fields` before `accepted`."""
    return {
        label: str(getattr(branch, label)),
        "prob": branch.prob,
        "fidelity": branch.fidelity,
        "unnormalized_fidelity": branch.unnormalized_fidelity,
        **fields,
        "accepted": branch.accepted,
        "output": branch.output.probs.tolist(),
    }


def _cmd_run_perm(args) -> int:
    proto = _as_permutation(_load_protocol(args))
    state = _load_state(args, proto.n)
    _emit(args, [_branch_record("t", o, correction=str(o.correction))
                 for o in permutation.run(state, proto, args.threshold)])
    return 0


def _cmd_run_code(args) -> int:
    proto = _as_stabilizer(_load_protocol(args))
    state = _load_state(args, proto.n)
    _emit(args, [_branch_record("s", b, v=str(b.v), u=str(b.u),
                                recovery=to_pauli_string(b.u))
                 for b in stabilizer.run(state, proto, args.threshold)])
    return 0


# Options only one of verify's two modes reads: the single instance's
# protocol and input, and the random batch's draw.
_INSTANCE_FLAGS = ("--protocol-file", "--generators", "--matrix", "--offset", "-m",
                   "--werner", "--pair", "--state-file")
_BATCH_FLAGS = ("--seed", "--sizes")


def _cmd_verify(args) -> int:
    batch = args.random is not None
    for flag in _INSTANCE_FLAGS if batch else _BATCH_FLAGS:
        if getattr(args, flag.lstrip("-").replace("-", "_")) is not None:
            raise CliError(f"{flag} cannot be combined with --random" if batch
                           else f"{flag} needs --random")
    if batch:
        if args.random < 1:
            raise CliError("--random must be at least 1")
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        sizes = _parse_sizes(args.sizes, (2, 3, 4))
        records = []
        for index in range(args.random):
            state, proto = equivalence.random_instance(rng, sizes)
            report = equivalence.verify_equivalence(state, proto, args.threshold)
            records.append({
                "instance": index,
                "n": report.n,
                "m": report.m,
                "generators": [to_pauli_string(g) for g in proto.generators],
                "passed": report.passed,
                "subspaces_match": report.subspaces_match,
                "coset_match": report.coset_match,
                "max_discrepancy": report.max_discrepancy,
            })
        failed = sum(1 for r in records if not r["passed"])
        _emit(args, records, {"instances": len(records), "failed": failed,
                              "all_passed": failed == 0})
        return 0 if failed == 0 else 2

    proto = _as_stabilizer(_load_protocol(args))
    state = _load_state(args, proto.n)
    report = equivalence.verify_equivalence(state, proto, args.threshold)
    summary = report.to_dict()
    _emit(args, summary.pop("branches"), summary)
    return 0 if report.passed else 2


def _cmd_sweep(args) -> int:
    proto = _as_permutation(_load_protocol(args))
    grid = _parse_grid(args.grid)
    rounds = args.rounds if args.rounds is not None else 1
    if rounds < 1:
        raise CliError("--rounds must be at least 1")
    records = []
    for f_in in grid:
        reports = permutation.recurrence_sweep(
            werner(f_in), proto, rounds, args.threshold)
        for rep in reports:
            records.append({
                "f_in": f_in,
                "round": rep.round_index,
                "f_out": rep.fidelity,
                "yield": rep.cumulative_yield,
                "accept_prob": rep.accept_prob,
                "accepted": rep.accepted,
            })
    _emit(args, records)
    return 0


def _cmd_oracle_check(args) -> int:
    sizes = _parse_sizes(args.sizes, (2, 3))
    if max(sizes) > 4:
        raise CliError("oracle size cap exceeded: pair counts above 4 are not "
                       "supported by the dense oracle")
    count = args.count if args.count is not None else 50
    if count < 1:
        raise CliError("--count must be at least 1")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    results = crosscheck.run_all(sizes, count, rng)
    records = [
        {
            "check": r.name,
            "cases": r.cases,
            "max_error": r.max_error,
            "tolerance": r.tolerance,
            "passed": r.passed,
        }
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    _emit(args, records, {"all_passed": all_passed})
    return 0 if all_passed else 2


# name -> (help text, option adder, handler)
_COMMANDS = {
    "run-perm": ("run the relabeling protocol", _engine_options, _cmd_run_perm),
    "run-code": ("run the generator-measurement protocol", _engine_options,
                 _cmd_run_code),
    "verify": ("cross-check the two engines", _verify_options, _cmd_verify),
    "sweep": ("recurrence rounds over a Werner-fidelity grid", _sweep_options,
              _cmd_sweep),
    "oracle-check": ("dense-simulation comparison suites", _oracle_options,
                     _cmd_oracle_check),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="belldistill",
                     description="Exact simulation and cross-verification of "
                                 "entanglement distillation protocols on "
                                 "Bell-diagonal states.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, _handler) in _COMMANDS.items():
        add_options(sub.add_parser(name, help=help_text))
    return parser


# Parsing never changes the parser, so one serves every `main` call.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        _apply_config(args)
        _refuse_ignored(args)
        if getattr(args, "format", None) is None:
            args.format = "json"
        _help, _options, handler = _COMMANDS[args.command]
        return handler(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
