"""Command-line front end.

Subcommands:

* ``run-perm``     relabeling protocol, one record per parity outcome
* ``run-code``     generator protocol, one record per syndrome
* ``verify``       cross-check the two engines (single instance or random batch)
* ``sweep``        recurrence rounds over a grid of Werner inputs
* ``oracle-check`` dense-simulation comparison suites, one record per suite
  (the columns `crosscheck.run_all` gives)

Exit codes: 0 success, 1 configuration/validation error, 2 mismatch found.
A reader that closes stdout early (``| head``) ends the command quietly, exit code 1.
Identical configuration and seed produce byte-identical output, which
`render.render` writes (the one call `_emit` makes): JSON or CSV bytes, every
float printed with 15 significant digits.  Relative ``--output`` paths
resolve against ``BELLDISTILL_OUTDIR`` when that variable is set; the file is
opened by that one path (`_output_path`), and its missing parent
directories are made only when that open fails.  A protocol or state file
key the command does not read is refused.  A Werner fidelity below 1/4 is
one ``warning:`` line on stderr, printed by the command once per value; any
other warning keeps the caller's filters.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import crosscheck, equivalence, oracle, permutation, render, stabilizer
from .gf2 import MAX_PAIRS, BinaryMatrix, BinaryVector, bit_chars
from .permutation import PermutationProtocol
from .stabilizer import (StabilizerProtocol, parse_pauli_string, pauli_letters,
                         to_pauli_string)
from .states import BellDiagonalState, werner_pair


class CliError(Exception):
    """Configuration or validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Refuses with `CliError`.  The top-level parser keeps each command's
    parser in `commands` (`build_parser`)."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        raise CliError(message)


# How `--output` is opened: as `open(..., "wb")` opens a file.
_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _output_path(output: str) -> Path:
    """`--output` as a path, under BELLDISTILL_OUTDIR when relative and
    that is set: the file `_emit` opens, and the name an error gives.
    Path drops a trailing slash, "." parts and repeated slashes, so an
    empty name is "."."""
    path = Path(output)
    if not path.is_absolute():
        base = os.environ.get("BELLDISTILL_OUTDIR")
        if base:
            path = Path(base) / path
    return path


def _write_all(fd: int, data: bytes) -> None:
    """Write all of `data` to `fd`, in one call unless the system takes
    part of it."""
    done = os.write(fd, data)
    while done < len(data):
        done += os.write(fd, memoryview(data)[done:])


def _emit(args, columns: dict, summary: dict | None = None) -> None:
    if args.output is None:
        sys.stdout.flush()  # text written before goes first
        binary = getattr(sys.stdout, "buffer", None)  # io.StringIO has none
        render.render(binary.write if binary is not None else
                      lambda data: sys.stdout.write(data.decode()),
                      args.command, columns, args.format, summary)
        sys.stdout.flush()  # so that a closed pipe shows in `main`, not at exit
        return
    path = _output_path(args.output)
    try:
        try:
            fd = os.open(path, _WRITE, 0o666)
        except OSError:
            # Only a failed open pays for `mkdir`.  It makes a missing parent,
            # and any other failure recurs in it or in the second open, with
            # the error that making the parents first would have given.
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, _WRITE, 0o666)
        try:
            render.render(functools.partial(_write_all, fd), args.command, columns,
                          args.format, summary)
        finally:
            os.close(fd)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

# Most points a sweep grid may have; a lo:hi:step grid is checked before
# it is built, since a tiny step would otherwise exhaust memory.
MAX_GRID_POINTS = 10_000
# Most records `sweep` or `verify --random` may keep until it prints, checked
# before the first round or instance: a record's traced peak was 0.70-0.74
# KB for 4,000 instances at the default sizes and 0.24-0.27 KB for 10,000
# rounds (JSON and CSV), under 1 GB in all.
MAX_RECORDS = 1_000_000

_NUMBER = (int, float)

# Option (its attribute) -> (flags, argparse keywords, the JSON types a
# `--config` value may take, never a boolean (None: no config key), help).
_OPTIONS = {
    "protocol_file": (("--protocol-file",), {}, str, "JSON protocol: {n,m,A,b} with "
                      "bit-string rows, or {n,m,generators} with Pauli strings"),
    "generators": (("--generators",), {}, str,
                   "comma-separated Pauli strings, e.g. ZZ or ZZII,XXII"),
    "matrix": (("--matrix",), {}, str,
               "comma-separated bit-string rows of a symplectic matrix"),
    "offset": (("--offset",), {}, str,
               "bit-string relabeling offset (default all zero)"),
    "m": (("-m",), {"type": int}, int,
          "number of surviving pairs (required with --matrix)"),
    "threshold": (("--threshold",), {"type": float}, _NUMBER,
                  "threshold on each branch's m-pair output fidelity (default: the "
                  "weight of the n-pair input's zero label, F^n for n Werner pairs; "
                  "in sweep, the current pair's F)"),
    "werner": (("--werner",), {"type": float}, _NUMBER,
               "build the input from identical Werner pairs of this fidelity"),
    "pair": (("--pair",), {}, str,
             "four comma-separated pair weights (labels 00,01,10,11)"),
    "state_file": (("--state-file",), {}, str,
                   "JSON file {n, probs} with the full input distribution"),
    "config": (("--config",), {}, None, "JSON file supplying any of the other options"),
    "format": (("--format",), {"choices": ("json", "csv")}, str,
               "output format (default json)"),
    "output": (("--output", "-o"), {}, str, "output file (default stdout); relative "
               "paths use BELLDISTILL_OUTDIR when set"),
    "random": (("--random",), {"type": int}, int,
               "verify this many random instances instead"),
    "sizes": (("--sizes",), {}, (str, int), "comma-separated pair counts (default 2,3,4 "
              "in verify --random; 2,3 in oracle-check)"),
    "seed": (("--seed",), {"type": int}, int, "random seed (default 0)"),
    "grid": (("--grid",), {}, (str, *_NUMBER),
             "fidelity grid: lo:hi:step or comma-separated values"),
    "rounds": (("--rounds",), {"type": int}, int, "rounds per grid point"),
    "count": (("--count",), {"type": int}, int, "random cases per suite (default 50)"),
}

# The option groups commands share, in the order `--help` lists them.
_PROTOCOL = ("protocol_file", "generators", "matrix", "offset", "m")
_INPUT = ("werner", "pair", "state_file")
_IO = ("config", "format", "output")
_ENGINE = (*_PROTOCOL, "threshold", *_INPUT, *_IO)


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file, refused if any of its objects repeats a
    key: `json` would keep the last value and drop the others."""
    def unique(pairs: list[tuple[str, object]]) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise CliError(f"{what} file repeats key {key!r}")
            data[key] = value
        return data

    try:
        data = json.loads(Path(path).read_text(), object_pairs_hook=unique)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{what} file must hold a JSON object")
    return data


def _known(data: dict, keys: tuple[str, ...], what: str) -> dict:
    """`data`, refused if it holds a key outside `keys`: a key no command
    reads would otherwise be ignored."""
    for key in data:
        if key not in keys:
            raise CliError(f"unknown {what} key {key!r}")
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
    spelled: dict[str, str] = {}
    for key, value in _read_json_object(config_path, "config").items():
        attr = key.replace("-", "_")
        _flags, parse, kinds, _help = _OPTIONS.get(attr, ((), {}, None, ""))
        if kinds is None:
            raise CliError(f"unknown config key {key!r}")
        if attr in spelled:  # the other spelling would be dropped
            raise CliError(f"config keys {spelled[attr]!r} and {key!r} "
                           "name one option")
        spelled[attr] = key
        if not hasattr(args, attr):  # argparse sets every option of the command
            raise CliError(f"{args.command} has no option for config key {key!r}")
        if value is not None and not _is_a(value, kinds):
            raise CliError(f"config key {key!r} has a value of the wrong type")
        choices = parse.get("choices")
        if choices and value not in (None, *choices):
            raise CliError(f"config key {key!r} must be one of "
                           f"{', '.join(choices)}, got {value!r}")
        if getattr(args, attr) is None:
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

def _load_protocol(args) -> PermutationProtocol:
    sources = [s for s in (args.protocol_file, args.generators, args.matrix)
               if s is not None]
    if len(sources) != 1:
        raise CliError("provide exactly one protocol: --protocol-file, "
                       "--generators, or --matrix")
    if args.protocol_file is not None:
        if args.m is not None:
            raise CliError("-m cannot be combined with --protocol-file, which gives m")
        data = _known(_read_json_object(args.protocol_file, "protocol"),
                      ("n", "m", "A", "b", "generators"), "protocol")
        n, m = _field(data, "n", int, "protocol"), _field(data, "m", int, "protocol")
        if "generators" in data:
            if "A" in data or "b" in data:
                raise CliError("protocol file holds both 'generators' and 'A'/'b'; "
                               "give one form")
            gens = tuple(parse_pauli_string(s)
                         for s in _strings(data, "generators", "protocol"))
            return StabilizerProtocol(n, m, gens)
        matrix = BinaryMatrix.from_strings(_strings(data, "A", "protocol"))
        if matrix.ncols != 2 * n:
            raise CliError(f"protocol matrix has {matrix.ncols} columns, "
                           f"expected 2n = {2 * n}")
        b = data.get("b", "0" * 2 * n)
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


def _werner(fidelity: float, shown: set[str]) -> BellDiagonalState:
    """`states.werner(fidelity)`, its warning below 1/4 printed as one
    `warning:` line unless `shown`, which holds the warnings a command has
    printed so far: once per value, whatever the caller's filters."""
    pair, warning = werner_pair(fidelity)
    if warning is not None and warning not in shown:
        shown.add(warning)
        _show_warning(warning)
    return pair


def _load_state(args, n: int) -> BellDiagonalState:
    sources = [s for s in (args.werner, args.pair, args.state_file)
               if s is not None]
    if len(sources) != 1:
        raise CliError("provide exactly one input: --werner, --pair, or --state-file")
    if args.werner is not None:
        return BellDiagonalState.from_pairs([_werner(args.werner, set())] * n)
    if args.pair is not None:
        try:
            parts = [float(x) for x in str(args.pair).split(",")]
        except ValueError as exc:  # float's own message names no option
            raise CliError(f"--pair needs four numbers, got {args.pair!r}") from exc
        if len(parts) != 4:
            raise CliError("--pair needs exactly four comma-separated weights")
        return BellDiagonalState.from_pairs([BellDiagonalState(1, parts)] * n)
    data = _known(_read_json_object(args.state_file, "state"), ("n", "probs"), "state")
    _field(data, "n", int, "state")
    # json.loads gives exact types, so this refuses booleans too.
    if not set(map(type, _field(data, "probs", list, "state"))) <= {int, float}:
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


def _rng(seed: int | None) -> np.random.Generator:
    """The generator of `--seed` (default 0)."""
    if seed is None:
        seed = 0
    if seed < 0:  # numpy's refusal would not name the option
        raise CliError(f"--seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


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
        # The slack keeps hi when rounding leaves span just below an integer.
        grid = [round(lo + i * step, 12) for i in range(math.floor(span + 1e-9) + 1)]
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

def _printed(branches, **extra) -> dict:
    """A branch set as a command's columns, in the set's order: its label
    columns (those in `widths`) as bit strings, and `extra` before
    `accepted`."""
    columns = {}
    for name, column in branches.columns.items():
        if name == "accepted":
            columns.update(extra)
        columns[name] = (render.Labels(column, branches.widths[name], bit_chars)
                         if name in branches.widths else column)
    return columns


def _cmd_run_perm(args) -> int:
    proto = _load_protocol(args)
    state = _load_state(args, proto.n)
    _emit(args, _printed(permutation.run(state, proto, args.threshold)))
    return 0


def _cmd_run_code(args) -> int:
    proto = _load_protocol(args)
    state = _load_state(args, proto.n)
    branches = stabilizer.run(state, proto, args.threshold)
    _emit(args, _printed(branches, recovery=render.Labels(branches.u, proto.n, pauli_letters)))
    return 0


def _cmd_verify(args) -> int:
    batch = args.random is not None
    # Options only one of verify's two modes reads: the single instance's
    # protocol and input, and the random batch's draw.
    for name in _PROTOCOL + _INPUT if batch else ("seed", "sizes"):
        if getattr(args, name) is not None:
            flag = _OPTIONS[name][0][0]
            raise CliError(f"{flag} cannot be combined with --random" if batch
                           else f"{flag} needs --random")
    if batch:
        if args.random < 1:
            raise CliError("--random must be at least 1")
        if args.random > MAX_RECORDS:
            raise CliError(f"--random {args.random} is more than {MAX_RECORDS} records")
        rng = _rng(args.seed)
        sizes = _parse_sizes(args.sizes, (2, 3, 4))
        columns = {name: [] for name in ("n", "m", "generators", "passed",
                                         "subspaces_match", "coset_match",
                                         "max_discrepancy")}
        # One instance is drawn and checked at a time; only what is printed stays.
        for _ in range(args.random):
            state, proto = equivalence.random_instance(rng, sizes)
            report = equivalence.verify_equivalence(state, proto, args.threshold)
            for name, column in columns.items():
                column.append([to_pauli_string(g) for g in proto.generators]
                              if name == "generators" else getattr(report, name))
        failed = columns["passed"].count(False)
        for name in ("passed", "subspaces_match", "coset_match", "max_discrepancy"):
            columns[name] = np.array(columns[name])
        _emit(args, {"instance": list(range(args.random)), **columns},
              {"instances": args.random, "failed": failed, "all_passed": failed == 0})
        return 0 if failed == 0 else 2

    proto = _load_protocol(args)
    state = _load_state(args, proto.n)
    report = equivalence.verify_equivalence(state, proto, args.threshold)
    summary = {name: getattr(report, name) for name in (
        "n", "m", "subspaces_match", "branch_sets_match", "coset_match",
        "max_discrepancy", "tolerance", "passed")}
    _emit(args, _printed(report.branches), summary)
    return 0 if report.passed else 2


def _cmd_sweep(args) -> int:
    proto = _load_protocol(args)
    grid = _parse_grid(args.grid)
    rounds = args.rounds if args.rounds is not None else 1
    if rounds < 1:
        raise CliError("--rounds must be at least 1")
    records = len(grid) * rounds
    if records > MAX_RECORDS:
        raise CliError(f"{len(grid)} grid points x {rounds} rounds is more than "
                       f"{MAX_RECORDS} records")
    shown = set()
    pairs = [_werner(f_in, shown) for f_in in grid]
    _emit(args, {"f_in": np.repeat(grid, rounds),
                 "round": list(range(1, rounds + 1)) * len(grid),
                 **permutation.recurrence_sweep(pairs, proto, rounds, args.threshold)})
    return 0


def _cmd_oracle_check(args) -> int:
    sizes = _parse_sizes(args.sizes, (2, 3))
    if max(sizes) > oracle.MAX_ORACLE_PAIRS:
        raise CliError("oracle size cap exceeded: pair counts above "
                       f"{oracle.MAX_ORACLE_PAIRS} are not supported by the dense oracle")
    count = args.count if args.count is not None else 50
    if count < 1:
        raise CliError("--count must be at least 1")
    columns = crosscheck.run_all(sizes, count, _rng(args.seed))
    passed = bool(columns["passed"].all())
    _emit(args, columns, {"all_passed": passed})
    return 0 if passed else 2


# name -> (help text, options, handler)
_COMMANDS = {
    "run-perm": ("run the relabeling protocol", _ENGINE, _cmd_run_perm),
    "run-code": ("run the generator-measurement protocol", _ENGINE, _cmd_run_code),
    "verify": ("cross-check the two engines", (*_ENGINE, "random", "sizes", "seed"),
               _cmd_verify),
    "sweep": ("recurrence rounds over a Werner-fidelity grid",
              (*_PROTOCOL, "threshold", *_IO, "grid", "rounds"), _cmd_sweep),
    "oracle-check": ("dense-simulation comparison suites", (*_IO, "sizes", "count", "seed"),
                     _cmd_oracle_check),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="belldistill",
                     description="Exact simulation and cross-verification of "
                                 "entanglement distillation protocols on "
                                 "Bell-diagonal states.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option in options:
            flags, parse, _kinds, option_help = _OPTIONS[option]
            command.add_argument(*flags, dest=option, help=option_help, **parse)
    parser.commands = sub.choices
    return parser


# Parsing never changes the parser, so one serves every `main` call.
_PARSER = build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The options of the command argv names.  An argv whose first word
    names a command goes straight to that command's parser, as the
    top-level parser would hand it on, so argparse parses it once; the
    top-level parser reads the rest (no command, an unknown one, -h)."""
    command = _PARSER.commands.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _show_warning(message, *_) -> None:
    """`warnings.showwarning` while a command runs: one `warning:` line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Run one command.  The low-Werner-fidelity warning is printed once
    per value as one `warning:` line on stderr (`_werner`); any other
    warning the caller's filters show is one `warning:` line too, and the
    caller's `warnings.showwarning` is back in place when `main` returns.
    The ``--output`` file is written through its descriptor."""
    display, warnings.showwarning = warnings.showwarning, _show_warning
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        _apply_config(args)
        _refuse_ignored(args)
        if getattr(args, "format", None) is None:
            args.format = "json"
        _help, _options, handler = _COMMANDS[args.command]
        return handler(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Quiet the flush at exit too, and exit with 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        warnings.showwarning = display


if __name__ == "__main__":
    sys.exit(main())
