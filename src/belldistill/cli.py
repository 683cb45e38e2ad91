"""Command-line front end.

Subcommands:

* ``run-perm``     relabeling protocol, one record per parity outcome
* ``run-code``     generator protocol, one record per syndrome
* ``verify``       cross-check the two engines (single instance or random batch)
* ``sweep``        recurrence rounds over a grid of Werner inputs
* ``oracle-check`` dense-simulation comparison suites

Exit codes: 0 success, 1 configuration/validation error, 2 mismatch found.
A reader that closes stdout early (``| head``) ends the command quietly, exit code 1.
All probabilities are printed with 15 significant digits; identical
configuration and seed produce byte-identical output.  Relative ``--output``
paths resolve against ``BELLDISTILL_OUTDIR`` when that variable is set.

Every float is printed as Python prints it after rounding to 15
significant digits: ``"%.15g"`` in CSV, ``json.dumps`` in JSON; every other
value as ``json.dumps`` or ``csv.writer`` writes it.  Output is written in
blocks of whole records of about `_BLOCK_BYTES`, so the memory rendering
takes does not grow with the size of the output.  Each block is one byte
matrix with a row per record (`_block_matrix`).  The 15-digit mantissa of
each float is rint(x * 10^(14-e)) in a 64-bit-significand long double, with
10^k numpy's correctly rounded conversion of the exact integer, so the
product is within 2^-13 of exact and rint rounds as exact arithmetic would,
except within 2^-9 of a half-way point.  Those entries, and every entry on
a platform without such a long double, take their digits from Python's
correctly rounded ``"%.14e"``.  NaN, infinities, subnormals, magnitudes
from 1e14 up, and blocks with few floats are formatted value by value.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import crosscheck, equivalence, oracle, permutation, stabilizer
from .gf2 import MAX_PAIRS, BinaryMatrix, BinaryVector, bit_chars
from .permutation import PermutationProtocol
from .stabilizer import (StabilizerProtocol, parse_pauli_string, pauli_letters,
                         to_pauli_string)
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
    if isinstance(value, np.ndarray):
        value = value.tolist()
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


def _float_token(x: float, fmt: str) -> str:
    """One float formatted on its own: the JSON token `json.dumps` gives,
    or the CSV cell ".15g" gives, for x rounded to 15 significant digits."""
    x = _round15(x)  # may round up to inf
    if fmt == "csv":
        return format(x, ".15g")
    return repr(x) if math.isfinite(x) else json.dumps(x)


# ---------------------------------------------------------------------------
# Output: each block of records as one byte matrix
#
# `_block_matrix` builds a block as one uint8 matrix with a row per record:
# the template's constant bytes (keys, brackets, separators) and a slot per
# value, filled by numpy: float tokens from digit tables, in one pass over
# the block's floats (`_tokens`), label bytes (`_Labels`) and booleans
# (`_BOOLS`).  Bytes a value leaves unused are padding, deleted from the
# block at once.  Strings, ints and the floats of a block with few floats
# leave a hole, filled after the padding is gone (`_fill`).
#
# For the entries the tables print, the JSON token `repr(_round15(x))` is
# `"%.15g" % x` with ".0" appended when it has neither "." nor "e": a
# decimal of at most 15 significant digits survives the round trip through
# a normal double (DBL_DIG = 15), and below 1e15 ".15g" and repr pick the
# same notation.  The CSV token is `"%.15g" % x`.
# ---------------------------------------------------------------------------

_FAST_MAX = 1e14
_FAST_TINY = np.finfo(float).tiny

# Below this many floats a block's floats are formatted one by one.  The
# one-pass path costs ~40 numpy calls and one assignment per float column
# and token word however few entries it prints: for a `verify` block (5
# float columns) it is ~7% slower than the per-value path at 80 floats and
# ~15% faster at 160 (2-core x86-64, Python 3.11, numpy 2.4).  With no
# cutoff, the non-oracle commands of the benchmark's `suite` run ~6% slower.
_BATCH_MIN = 64
# About the bytes of a block's matrix, and what a float takes of them with
# its separator (`_blocks`).  Formatting takes ~100 bytes more a float
# while the block is built, so rendering holds under 2 MB whatever the
# size of the output (n=13 m=1 `run-code`: ~1.2 MB beyond its columns).
_BLOCK_BYTES = 3 << 17
_FLOAT_BYTES = 32

# Control bytes of a block's matrix: padding, and the place of a value
# formatted on its own, filled in afterwards (`_fill`).
_PAD, _HOLE = "\0", "\2"
_BOOLS = np.frombuffer(b"falsetrue\0", dtype=np.uint8).reshape(2, 5)


def _digits(count: int, width: int, pad: str) -> np.ndarray:
    """ASCII digits of 0..count-1, `width` per row with leading zeros.

    `pad` names the zeros that are padding instead: "lead" the leading
    ones (all of 0's digits), "units" the leading ones but 0's last digit,
    "trim" the trailing ones, "" none.
    """
    value = np.arange(count, dtype=np.int32)[:, None]
    place = 10 ** np.arange(width - 1, -1, -1, dtype=np.int32)
    digits = (value // place % 10 + ord("0")).astype(np.uint8)
    if pad in ("lead", "units"):
        digits[(value < place) & ~((pad == "units") & (place == 1))] = 0
    elif pad == "trim":
        digits[value % (10 * place) == 0] = 0
    return digits


def _words(*columns) -> np.ndarray:
    """Byte columns side by side, 4 bytes a row, as uint32 words that hold
    their bytes in order."""
    return np.column_stack(columns).astype(np.uint8).view(np.uint32).ravel()


def _byte(char: str, count: int) -> np.ndarray:
    return np.full(count, ord(char), dtype=np.uint8)


_MINUS = np.frombuffer(f"-{_PAD * 3}".encode("ascii"), dtype=np.uint32)[0]
# Index of ".0" in the tail table (`_tables`).
_POINT_ZERO = 1

# Every entry's scaled value x * 10^k is within 2^-13 of the exact product
# when long double has a 64-bit significand (two roundings of relative
# error 2^-64, on a value below 2^50).  Unless it is within this much of a
# half-way point, its rint is the correctly rounded mantissa.
_HALF_WINDOW = 2.0 ** -9
_WIDE_LONGDOUBLE = np.finfo(np.longdouble).nmant >= 63
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)


@functools.cache
def _tables() -> SimpleNamespace:
    """The tables of the one-pass path, built on first use, so that a
    command with few floats never builds them.

    The integer part goes in 3-digit groups, each in a word whose first
    byte is free for the sign; the fraction goes in a word with the point
    and 2 digits, then 4-digit groups.  A "lead" table drops the leading
    zeros of a group with nothing above it, a "trim" table the trailing
    zeros of a group with nothing below it.  After the digits come two
    tail words: nothing, ".0" (JSON, integral values) or the exponent
    "e-XX" of a value below 1e-4, indexed by -exponent.  `pow10` holds
    10^(14-e) for every exponent e of a normal double below _FAST_MAX,
    numpy's correctly rounded conversion of each exact integer; only a
    platform with a 64-bit-significand long double, which holds them all,
    reads it.
    """
    pad = _byte(_PAD, 1000)
    tail = [_PAD * 8, ".0".ljust(8, _PAD)] + [f"e-{k:02d}".ljust(8, _PAD)
                                            for k in range(2, 400)]
    return SimpleNamespace(
        int=_words(pad, _digits(1000, 3, "")),
        int_lead=_words(pad, _digits(1000, 3, "lead")),
        int_units=_words(pad, _digits(1000, 3, "units")),
        point=_words(_byte(".", 100), _digits(100, 2, ""), _byte(_PAD, 100)),
        point_trim=_words(np.where(np.arange(100) > 0, ord("."), 0),
                          _digits(100, 2, "trim"), _byte(_PAD, 100)),
        frac=_words(_digits(10_000, 4, "")),
        frac_trim=_words(_digits(10_000, 4, "trim")),
        tail=np.frombuffer("".join(tail).encode("ascii"), np.uint32).reshape(-1, 2),
        pow10=(np.array([10 ** k for k in range(340)], dtype=np.longdouble)
               if _WIDE_LONGDOUBLE else None),
    )


def _printf_decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_decimal` of every entry from Python's correctly rounded "%.14e"."""
    texts = ["%.14e" % x for x in a.tolist()]
    return (np.array([int(t[0] + t[2:16]) for t in texts], dtype=np.int64),
            np.array([int(t[17:]) for t in texts], dtype=np.int64))


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mantissa M (10^14 <= M < 10^15) and exponent e of every entry of `a`
    (positive normal doubles below _FAST_MAX), with M * 10^(e-14) the
    entry rounded to 15 significant digits, half to even.

    M is rint(a * 10^(14-e)) in long double, e = floor(log10(a)).  An
    entry near a half-way point, where that product's error could flip the
    rounding, or whose product falls outside [10^14, 10^15), takes M and e
    from `_printf_decimal` instead; without a 64-bit long double every
    entry does.
    """
    if not _WIDE_LONGDOUBLE:
        return _printf_decimal(a)
    exp = np.floor(np.log10(a)).astype(np.int64)
    scaled = a.astype(np.longdouble) * _tables().pow10[14 - exp]
    mant = np.rint(scaled)
    slow = np.abs((scaled - mant).astype(np.float64)) >= 0.5 - _HALF_WINDOW
    # log10 can miss by one just below a power of ten.
    slow |= (scaled < 1e14) | (scaled >= 1e15)
    slow = np.flatnonzero(slow)
    mant = mant.astype(np.int64)
    if slow.size:
        mant[slow], exp[slow] = _printf_decimal(a[slow])
    carry = mant == 10 ** 15  # rounded up into the next decade
    mant[carry] = 10 ** 14
    return mant, exp + carry


def _one_pass(values: np.ndarray, fmt: str) -> SimpleNamespace:
    """The digits of every entry's token, from which `_write_tokens` writes
    it: the sign, the integer part in 3-digit groups (most significant
    first), the fraction's 18 digits, the tail index (`_tables`) and
    `words`, the 4-byte words every token takes.  Entries the tables do
    not print are `own`, formatted on their own.  The notation is decided
    by the rounded exponent, as "%.15g" decides it.
    """
    a = np.abs(values)
    fast = (a < _FAST_MAX) & ((a >= _FAST_TINY) | (a == 0))
    nonzero = fast & (a != 0)
    mant = np.zeros(a.size, dtype=np.int64)
    exp = np.zeros(a.size, dtype=np.int64)
    mant[nonzero], exp[nonzero] = _decimal(a[nonzero])
    sci = exp < -4
    places = np.where(sci, 14, 14 - exp)
    whole, frac = np.divmod(mant, _POW10_INT[places])
    frac *= _POW10_INT[18 - places]  # the fraction's digits left-aligned in 18
    tail = np.where(sci, -exp, 0)
    if fmt == "json":
        tail[(frac == 0) & ~sci] = _POINT_ZERO
    groups = [whole]
    for _ in range(-(-len(str(whole.max())) // 3) - 1):
        groups[0], group = np.divmod(groups[0], 1000)
        groups.insert(1, group)
    tail_words = int(tail.max() > 0) + int(tail.max() > 99)  # "e-100" takes 5 bytes
    return SimpleNamespace(words=len(groups) + 5 + tail_words, own=~fast,
                           sign=np.signbit(values), groups=groups, frac=frac,
                           tail=tail, tail_words=tail_words, values=values, fmt=fmt)


def _tokens(values: np.ndarray, fmt: str) -> SimpleNamespace | None:
    """The digits of a block's floats (`_one_pass`), or None below
    _BATCH_MIN, where each float is formatted on its own into a hole."""
    return None if values.size < _BATCH_MIN else _one_pass(values, fmt)


def _write_tokens(tokens: SimpleNamespace, slots: list[np.ndarray]) -> None:
    """Write every `_one_pass` token into its slot: `slots` are the bytes of
    the block's float columns, (rows, [entries,] bytes) each, whose entries
    in row order are the block's floats.  A token formatted on its own
    takes at most 22 bytes ("-d.dddddddddddddde-ddd"), a slot at least 24."""
    bounds = [0]
    for region in slots:
        bounds.append(bounds[-1] + region.size // region.shape[-1])
    parts = list(map(slice, bounds, bounds[1:]))
    views = [region.view(np.uint32) for region in slots]

    def put(i, word):
        for view, part in zip(views, parts):
            view[..., i] = word[part].reshape(view.shape[:-1])

    tables = _tables()
    units = len(tokens.groups) - 1
    lead = np.ones(tokens.own.size, dtype=bool)
    for i, group in enumerate(tokens.groups):
        first = tables.int_units if i == units else tables.int_lead
        word = np.where(lead, first[group], tables.int[group])
        put(i, word | np.where(tokens.sign, _MINUS, 0) if i == 0 else word)
        lead &= group == 0
    trim = np.ones(tokens.own.size, dtype=bool)
    frac = tokens.frac
    for i in range(4):
        frac, group = np.divmod(frac, 10_000)
        put(units + 5 - i, np.where(trim, tables.frac_trim[group], tables.frac[group]))
        trim &= group == 0
    put(units + 1, np.where(trim, tables.point_trim[frac], tables.point[frac]))
    for i in range(tokens.tail_words):
        put(units + 6 + i, tables.tail[tokens.tail, i])
    if np.count_nonzero(tokens.own):
        size = 4 * tokens.words
        own = np.array([_float_token(x, tokens.fmt) for x in
                        tokens.values[tokens.own].tolist()], dtype=f"S{size}")
        own = own.view(np.uint8).reshape(-1, size)
        for region, part in zip(slots, parts):
            mask = tokens.own[part]
            region[mask.reshape(region.shape[:-1]), :size] = own[:np.count_nonzero(mask)]
            own = own[np.count_nonzero(mask):]


def _fill(text: str, fills) -> str:
    """`text` with its holes filled, in order, by `fills`."""
    pieces = text.split(_HOLE)
    return pieces[0] + "".join(map(str.__add__, fills, pieces[1:]))


def _is_float_array(value) -> bool:
    return isinstance(value, np.ndarray) and value.dtype == np.float64 \
        and value.ndim == 1 and value.size > 0


class _Labels(NamedTuple):
    """A label column: each value printed as its row of the `width` ASCII codes
    `chars(values, width)` gives (`gf2.bit_chars`, `stabilizer.pauli_letters`)."""

    values: np.ndarray
    width: int
    chars: Callable[[np.ndarray, int], np.ndarray]


def _field_of(column) -> SimpleNamespace:
    """How a column prints: its `kind`, its `data` with one entry or row per
    record, and `width`, the floats of an array or the bytes of a label.

    Kinds: "float" (a 1-D float64 array, or floats), "array" (a 2-D
    float64 array, or 1-D float64 arrays of one nonzero size), "label"
    (`_Labels`), "bool" (a bool array, or bools) and "hole" (any other
    values, each formatted on its own).
    """
    if isinstance(column, _Labels):
        return SimpleNamespace(kind="label", data=column.values, width=column.width,
                               chars=column.chars)
    if not isinstance(column, np.ndarray) and column:
        if all(isinstance(v, float) for v in column) or set(map(type, column)) == {bool} \
                or all(map(_is_float_array, column)) and len({v.size for v in column}) == 1:
            column = np.array(column)
    if isinstance(column, np.ndarray) and column.dtype == bool and column.ndim == 1:
        return SimpleNamespace(kind="bool", data=column, width=5)
    if isinstance(column, np.ndarray) and column.dtype == np.float64 \
            and column.ndim in (1, 2) and column.shape[-1]:
        return SimpleNamespace(kind=("float", "array")[column.ndim - 1], data=column,
                               width=column.shape[1] if column.ndim == 2 else 1)
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return SimpleNamespace(kind="hole", data=column, width=1)


def _columns(records: list[dict], fmt: str) -> dict:
    """Records as columns: each field's values, in the first record's
    field order.  Every record must have the same fields, for CSV also in
    the same order."""
    order = list if fmt == "csv" else sorted  # CSV cells follow the key order
    keys = order(records[0]) if records else []
    if any(order(rec) != keys for rec in records):
        raise ValueError("records of one command must have the same fields")
    return {key: [rec[key] for rec in records] for key in (records[0] if records else ())}


def _json(value, indent: str) -> str:
    """`json.dumps(_clean(value), indent=2, sort_keys=True)` for a value
    nested at `indent`."""
    text = json.dumps(_clean(value), indent=2, sort_keys=True)
    return text.replace("\n", "\n" + indent)


def _blocks(fields: list, heads: list[bytes], rows: int) -> Iterator[tuple[int, int]]:
    """The first and past-the-last row of each block: consecutive rows
    holding about _BLOCK_BYTES of the block matrix, at least one row."""
    row_bytes = sum(len(head) + f.width * (_FLOAT_BYTES if f.kind in ("float", "array")
                                           else 1) for f, head in zip(fields, heads))
    step = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    return ((start, min(start + step, rows)) for start in range(0, rows, step))


def _block_matrix(fields: list, heads: list[bytes], end: bytes, start: int, stop: int,
                  fmt: str) -> tuple[bytearray, list[str]]:
    """Records start..stop-1 as the bytes of a matrix with a row per
    record (each field's head and value, then `end`), and the text of its
    holes, in order."""
    rows = stop - start
    data = [f.data[start:stop] for f in fields]
    floats = [d.ravel() for f, d in zip(fields, data) if f.kind in ("float", "array")]
    values = np.concatenate(floats) if floats else np.zeros(0)
    tokens = _tokens(values, fmt)
    small = tokens is None  # every float a hole
    token = 0 if small else 4 * tokens.words
    sep = b",\n        " if fmt == "json" else b";"
    slot = -(-(token + len(sep)) // 4) * 4
    json_fmt = fmt == "json"
    row, places = bytearray(), []
    for f, head in zip(fields, heads):
        number, array = f.kind in ("float", "array"), f.kind == "array"
        quote = b'"' if json_fmt and f.kind == "label" else b""
        row += head + (b"[\n        " if json_fmt and array else quote)
        if number and not small:
            row += bytes(-len(row) % 4)  # token words 4-byte aligned
        places.append(len(row))
        if f.kind == "hole" or number and small:
            row += _HOLE.encode()
        elif array:
            row += (bytes(token) + sep).ljust(slot, b"\0") * (f.width - 1) + bytes(slot)
        else:
            row += bytes(token if number else f.width)
        row += b"\n      ]" if json_fmt and array else quote
    row += end + bytes(-len(row + end) % 4)
    buffer = row * rows
    if json_fmt and start == 0:
        buffer[0] = 0  # no comma before the first record
    matrix = np.frombuffer(buffer, dtype=np.uint8).reshape(rows, len(row))

    cell = functools.partial(_json, indent="      ") if json_fmt else \
        functools.partial(_csv_cell, alone=len(fields) == 1)
    slots, holes = [], []  # (rows, [entries,] bytes) of each float column; hole texts
    for f, d, place in zip(fields, data, places):
        if f.kind in ("label", "bool"):
            matrix[:, place:place + f.width] = \
                f.chars(d, f.width) if f.kind == "label" else _BOOLS[d.view(np.uint8)]
        elif f.kind == "hole":
            holes.append([cell(v) for v in d])
        elif small:
            texts = [_float_token(x, fmt) for x in d.ravel().tolist()]
            holes.append(texts if f.kind == "float" else [
                sep.decode().join(texts[i:i + f.width]) for i in range(0, len(texts), f.width)])
        elif f.kind == "array":
            slots.append(matrix[:, place:place + slot * f.width].reshape(rows, -1, slot))
        else:
            slots.append(matrix[:, place:place + token])
    if slots:
        _write_tokens(tokens, slots)
    return buffer, [text for texts in zip(*holes) for text in texts]


def _csv_cell(value, alone: bool) -> str:
    """`value` as `csv.writer` writes it in a cell of a row of several
    cells, or as the `alone` cell of its row."""
    buf = io.StringIO()
    cells = [_format_cell(_clean(value))] + [""] * (not alone)
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1 if alone else -2]


def _render(out, command: str, columns: dict, fmt: str, summary: dict | None) -> None:
    """Write the command's output to the text stream `out`: JSON, or CSV
    with one row per record.

    `columns` holds the records field by field (`_columns`, or an engine's
    columns with `_Labels`), in the CSV column order; `_field_of` tells how
    each prints.  The records are written block by block (`_blocks`,
    `_block_matrix`), so that only one block's text exists at a time.
    Every float is printed with 15 significant digits.  Array values are
    printed as lists (`;`-joined in a CSV cell).
    """
    keys = list(columns) if fmt == "csv" else sorted(columns)
    fields = [_field_of(columns[key]) for key in keys]
    if fmt == "csv":
        out.write(",".join(_csv_cell(key, len(keys) == 1) for key in keys) + "\n")
        heads, end = [b""] + [b","] * (len(keys) - 1), b"\n"
    else:
        out.write('{\n  "command": ' + json.dumps(command) + ',\n  "records": [')
        heads = [((",\n      " if i else ",\n    {\n      ") + json.dumps(key) + ": ")
                 .encode("ascii") for i, key in enumerate(keys)]
        end = b"\n    }"
    rows = len(fields[0].data) if fields else 0
    for start, stop in _blocks(fields, heads, rows):
        matrix, fills = _block_matrix(fields, heads, end, start, stop, fmt)
        out.write(_fill(matrix.translate(None, _PAD.encode()).decode("ascii"), fills))
        del matrix  # before the next block is built
    if fmt == "csv":
        return
    out.write("\n  ]" if rows else "]")
    if summary is not None:
        out.write(',\n  "summary": ' + _json(summary, "  "))
    out.write("\n}\n")


def _emit(args, columns: dict, summary: dict | None = None) -> None:
    if args.output is None:
        _render(sys.stdout, args.command, columns, args.format, summary)
        sys.stdout.flush()  # so that a closed pipe shows in `main`, not at exit
        return
    path = Path(args.output)
    if not path.is_absolute():
        base = os.environ.get("BELLDISTILL_OUTDIR")
        if base:
            path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            _render(out, args.command, columns, args.format, summary)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

# Most points a sweep grid may have; a lo:hi:step grid is checked before
# it is built, since a tiny step would otherwise exhaust memory.
MAX_GRID_POINTS = 10_000

_FORMATS = ("json", "csv")

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
    p.add_argument("--format", choices=_FORMATS, default=None,
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
        if attr == "format" and value not in (None, *_FORMATS):
            raise CliError(f"config key 'format' must be one of "
                           f"{', '.join(_FORMATS)}, got {value!r}")
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


def _as_permutation(proto) -> PermutationProtocol:
    if isinstance(proto, PermutationProtocol):
        return proto
    return equivalence.permutation_from_stabilizer(proto)


def _as_stabilizer(proto) -> StabilizerProtocol:
    if isinstance(proto, StabilizerProtocol):
        return proto
    # The generator form keeps no offset, so the translation would drop it.
    if proto.offset.value:
        raise CliError(f"offset {proto.offset} is not carried into the generator "
                       "protocol; run-code and verify need an all-zero offset "
                       "(ROADMAP item 3)")
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

def _bits(branches, name: str) -> _Labels:
    """A label column of a branch set, printed as bit strings."""
    return _Labels(getattr(branches, name), branches.widths[name], bit_chars)


def _branch_columns(branches, label: str, **fields) -> dict:
    """An engine's branch set as the command's columns: the label ("t" or
    "s") as bit strings, the statistics both engines report, and the
    engine's own `fields` before `accepted`."""
    return {
        label: _bits(branches, label),
        "prob": branches.prob,
        "fidelity": branches.fidelity,
        "unnormalized_fidelity": branches.unnormalized_fidelity,
        **fields,
        "accepted": branches.accepted,
        "output": branches.output,
    }


def _cmd_run_perm(args) -> int:
    proto = _as_permutation(_load_protocol(args))
    state = _load_state(args, proto.n)
    branches = permutation.run(state, proto, args.threshold)
    _emit(args, _branch_columns(branches, "t", correction=_bits(branches, "correction")))
    return 0


def _cmd_run_code(args) -> int:
    proto = _as_stabilizer(_load_protocol(args))
    state = _load_state(args, proto.n)
    branches = stabilizer.run(state, proto, args.threshold)
    _emit(args, _branch_columns(branches, "s", v=_bits(branches, "v"),
                                u=_bits(branches, "u"),
                                recovery=_Labels(branches.u, proto.n, pauli_letters)))
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
        _emit(args, _columns(records, args.format),
              {"instances": len(records), "failed": failed, "all_passed": failed == 0})
        return 0 if failed == 0 else 2

    proto = _as_stabilizer(_load_protocol(args))
    state = _load_state(args, proto.n)
    report = equivalence.verify_equivalence(state, proto, args.threshold)
    summary = {name: getattr(report, name) for name in (
        "n", "m", "subspaces_match", "branch_sets_match", "coset_match",
        "max_discrepancy", "tolerance", "passed")}
    branches = report.branches
    _emit(args, {name: _bits(branches, name) if name in branches.widths else column
                 for name, column in branches.columns.items()}, summary)
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
    _emit(args, _columns(records, args.format))
    return 0


def _cmd_oracle_check(args) -> int:
    sizes = _parse_sizes(args.sizes, (2, 3))
    if max(sizes) > oracle.MAX_ORACLE_PAIRS:
        raise CliError("oracle size cap exceeded: pair counts above "
                       f"{oracle.MAX_ORACLE_PAIRS} are not supported by the dense oracle")
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
    _emit(args, _columns(records, args.format), {"all_passed": all_passed})
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
    except BrokenPipeError:
        # Quiet the flush at exit too, and exit with 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
