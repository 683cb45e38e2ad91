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
All probabilities are printed with 15 significant digits; identical
configuration and seed produce byte-identical output.  Relative ``--output``
paths resolve against ``BELLDISTILL_OUTDIR`` when that variable is set; the
file is opened by that one path (`_output_path`), and its missing parent
directories are made only when that open fails.  A protocol or state
file key the command does not read is refused.
A Werner fidelity below 1/4 is one ``warning:`` line on stderr, printed
by the command once per value; any other warning keeps the caller's
filters.

Every float is printed as Python prints it after rounding to 15
significant digits: ``"%.15g"`` in CSV, ``json.dumps`` in JSON; every other
value as ``json.dumps`` or ``csv.writer`` writes it.  Output is bytes,
written to the ``--output`` file through its descriptor (``os.write``) or
to stdout's binary buffer (a stdout without one, such as ``io.StringIO``,
is written the same text).  An output of fewer than `_VALUE_MAX` floats is
built value by value as one string and written in one call
(`_text_records`); a larger one is written one call per block of whole
records of about `_BLOCK_BYTES`, so the memory rendering takes does not
grow with the size of the output.  Each block is one byte matrix
with a row per record (`_block_matrix`) and a NUL-padded slot per value,
copied from a row built once per layout (`_template`).  Floats are
written in 4-digit words, and what a float's decimal exponent e decides
is gathered from per-exponent tables (`_tables`).  The 15-digit mantissa
of each is x * 10^(14-e) in a 64-bit-significand long double, with 10^k
correctly rounded to long double, so the product is within 2^-13 of
exact.  Truncated to 2^-12 and rounded half up from there, in place, it
rounds as exact arithmetic would, except within 2^-12 of a half-way
point.  Those entries,
negatives, -0.0, NaN, infinities, subnormals, magnitudes from 1e14 up and
all other values are formatted on their own (`_float_token`), and so is
every float on a platform without such a long double.  Either way a CSV
text cell holding NUL is refused.
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
import warnings
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
from .states import BellDiagonalState, werner_pair


class CliError(Exception):
    """Configuration or validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Refuses with `CliError`.  The top-level parser keeps each command's
    parser in `commands` (`build_parser`)."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        raise CliError(message)


def _clean(value):
    if value is None or isinstance(value, (int, str)):  # bools are ints
        return value
    if isinstance(value, float):  # clamped to 15 significant digits
        return float(format(float(value), ".15g"))
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
    or the CSV cell ".15g" gives, for x rounded to 15 significant digits.
    From _FAST_TINY up to _FAST_MAX in magnitude, and at +-0, that is
    `"%.15g" % x`, with ".0" appended in JSON when it has neither "." nor
    "e" (see the rendering notes below)."""
    if _FAST_TINY <= abs(x) < _FAST_MAX or x == 0:  # False for NaN
        text = "%.15g" % x
        if fmt == "json" and "." not in text and "e" not in text:
            return text + ".0"
        return text
    x = _clean(x)  # may round up to inf
    if fmt == "csv":
        return format(x, ".15g")
    return repr(x) if math.isfinite(x) else json.dumps(x)


# ---------------------------------------------------------------------------
# Output: few floats value by value, more as a byte matrix a block
#
# `_render` makes one choice per output.  Below _VALUE_MAX floats, the
# records are one string built value by value (`_text_records`).
# Otherwise each block of records is one uint8 matrix with a row per
# record (`_block_matrix`): the constant bytes of a template row (keys,
# brackets, separators; one `_template` for all the blocks of a layout)
# and a slot per value, filled by numpy: label bytes (`_Labels`),
# booleans (`_BOOLS`), text cells and float tokens.  The tokens of all
# the block's floats are built first, as the rows of one matrix
# (`_tokens`), then copied into each float column's slots at once.  Text
# cells and floats the digit tables do not print are rows of the one
# per-value builder (`_padded`).  Bytes a value leaves unused are padding,
# deleted from the block at once.  Both paths print each float as
# `_float_token` does, and both refuse a CSV text cell holding NUL, the
# matrix's padding.
#
# For x with _FAST_TINY <= |x| < _FAST_MAX, and +-0, the JSON token
# `repr(_clean(x))` is `"%.15g" % x` with ".0" appended when it has
# neither "." nor "e": a decimal of at most 15 significant digits survives
# the round trip through a normal double (DBL_DIG = 15), so it is the only
# one that names its double, and below 1e15 ".15g" and repr pick the same
# notation.  The CSV token is `"%.15g" % x`.
# ---------------------------------------------------------------------------

_FAST_MAX = 1e14
_FAST_TINY = float(np.finfo(float).tiny)

# Below this many floats an output is formatted value by value.  The
# block path costs ~0.35 ms however few floats it prints (~90 numpy calls
# of digit-table work, a row template, a padding pass); value by value
# costs ~0.13 ms plus ~0.6 us a float.  Rendering each output of the
# benchmark's seed-0 `suite` both ways (after `gc.collect()`, as the
# benchmark runs an op; medians of 15), value by value took 0.32-0.66 of
# the block path's time at 8-80 floats, 0.56-0.95 at 152-268, 1.00-1.05
# at 304, 1.04-1.35 at 518-536 and 1.7-3.0 from 1036 (2-core x86-64,
# Python 3.11, numpy 2.4).
_VALUE_MAX = 256
# About the bytes of a block's matrix, and what a float takes of them with
# its separator (`_blocks`).  Formatting a block's floats holds ~60 bytes
# a float at most, its ~24-byte tokens included, so rendering holds under
# 2 MB whatever the size of the output (n=13 m=1 `run-code`: ~1 MB beyond
# its columns).  The traced-peak tests would allow 512 KB, and a process
# that has rendered before renders ~2% faster with it, but the benchmark's
# `wide` read `run_perm_s` 8-10% higher (its first command of a process
# pays; 2 of 10 pairs lower, seeds 0 and 1).
_BLOCK_BYTES = 3 << 17
_FLOAT_BYTES = 32

# The padding byte of a block's matrix, and what follows each float of an
# array but the last.
_PAD = b"\0"
_SEPARATORS = {"json": b",\n        ", "csv": b";"}
_BOOLS = np.frombuffer(b"falsetrue\0", dtype=np.uint8).reshape(2, 5)


def _digits() -> dict[str, np.ndarray]:
    """ASCII digits of 0..9999, 4 per row with leading zeros, keyed by the
    zeros that are NUL padding instead: "lead" the leading ones (all of 0's
    digits), "units" the leading ones but 0's last digit, "trim" the
    trailing ones, "" none.

    One index pass writes the digits.  Row g is the value g, so the padding
    is slices: digit k (of place 10^(3-k)) is a leading zero in the rows
    below 10^(3-k), and a trailing one in every 10^(4-k)-th row.
    """
    plain = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()
    plain += ord("0")
    lead, trim = plain.copy(), plain.copy()
    for k in range(4):
        lead[:10 ** (3 - k), k] = 0
        trim[::10 ** (4 - k), k] = 0
    units = lead.copy()
    units[0, 3] = ord("0")
    return {"": plain, "lead": lead, "units": units, "trim": trim}


def _padded(texts: list[str], width: int) -> np.ndarray:
    """The per-value path: each text's UTF-8 bytes as a row of a uint8
    matrix, NUL-padded to `width` bytes (0: the longest text's).  NUL is the
    padding, so a text holding it is refused (only CSV text can; JSON
    escapes it)."""
    data = list(map(str.encode, texts))
    if b"\0" in b"".join(data):
        raise ValueError("a CSV text cell cannot hold NUL")
    rows = np.array(data, dtype=f"S{width}")
    return rows.view(np.uint8).reshape(len(data), rows.itemsize)


# Every entry's scaled value x * 10^k is within 2^-13 of the exact product
# when long double has a 64-bit significand (two roundings of relative
# error 2^-64, on a value below 2^50).  Its fraction is read in units of
# 2^-_FRAC_BITS, truncated; unless it is within _HALF_WINDOW of those units
# of a half-way point, it rounds the value as exact arithmetic would.
_FRAC_BITS = 12
_HALF_WINDOW = 1
_WIDE_LONGDOUBLE = np.finfo(np.longdouble).nmant >= 63
# The decimal exponents the per-exponent tables cover: from -324, that of
# the least subnormal, past the least normal's -308, to 13, that of the
# doubles below _FAST_MAX, and 14, which rounding up reaches.  Entry e is
# at index e, a negative e read from the end, so that each table is
# gathered by the exponent itself.
_EXPONENTS = np.roll(np.arange(-324, 15), -324)
# 10^14 as a mantissa scaled by 2^_FRAC_BITS.
_LOW = 10 ** 14 << _FRAC_BITS


@functools.cache
def _tables() -> SimpleNamespace:
    """The tables of the one-pass path, built on first use, so that a
    command with few floats never builds them.

    Every digit group, integer and fraction alike, is a 4-digit word of a
    `_digits` table; the fraction's first has the point in place of its
    leading zero (`point`).  Each group table is two rows of 10^4 words,
    read at group + 10^4 * row: the group's digits, and the same with the
    zeros that are padding dropped, for a group with nothing above it
    (`lead`: its leading zeros; `units`, the last integer group: the same,
    but 0 keeps its last digit) or nothing below it (`point`, `frac`: its
    trailing zeros, and an empty fraction's point).

    A token ends in at most two words of `end`, read at the fraction's
    last 3 digits plus `code`.  A fraction has such digits only where its
    value prints no tail, so one column holds both: below 1000 those
    digits, trailing zeros dropped; at 1000 the ".0" of a JSON integral
    value; at 1001 + XX, and again at 2001 + XX, the exponent "e-XX" of a
    value below 1e-4 (its second word "X" of "e-1XX" and up).

    The per-exponent tables are read at an exponent e (`_EXPONENTS`):
    `scale`, 10^(14-e) * 2^_FRAC_BITS in long double; `divisor`, 10^p in
    float64, p the digits of the fraction "%.15g" prints (14 below 1e-4,
    14 - e from there); `shift`, 10^(18-p), which left-aligns those digits
    in 18; and `code`, 1001 - e below 1e-4, else 0, to which JSON adds
    1000 where the fraction is empty.  `pow10` holds 10^k for k < 340,
    numpy's correctly rounded parse of each "1e%d" (faster than converting
    the exact integers, and equal to it) into a 64-bit-significand long
    double, which holds them all.
    """
    digits = _digits()
    plain, trim, lead, units = (digits[pad].view(np.uint32).ravel()
                                for pad in ("", "trim", "lead", "units"))
    point = np.zeros((2, 10_000), dtype=np.uint32)
    point[:, :1000] = np.stack([plain[:1000], trim[:1000]])
    point.view(np.uint8)[:, ::4] = np.where(point != 0, ord("."), 0)
    exp = _EXPONENTS
    sci = exp < -4
    places = np.where(sci, 14, 14 - exp)
    tails = np.frombuffer(b"".join((b"e-%02d" % k).ljust(8, _PAD)
                                   for k in range(1 - exp.min())), np.uint32)
    tails = tails.reshape(-1, 2).T  # the two words of "e-XX", by XX
    end = np.zeros((2, 2001 + tails.shape[1]), dtype=np.uint32)
    end[0, :1000] = trim[::10]
    end[0, 1000] = np.frombuffer(b".0\0\0", np.uint32)[0]
    end[:, 1001:1001 + tails.shape[1]] = end[:, 2001:] = tails
    pow10 = np.array(["1e%d" % k for k in range(340)], dtype=np.longdouble)
    return SimpleNamespace(
        lead=np.concatenate([plain, lead]),
        units=np.concatenate([plain, units]),
        frac=np.concatenate([plain, trim]),
        point=point.ravel(),
        end=end,
        pow10=pow10,
        scale=np.ldexp(pow10[14 - exp], _FRAC_BITS),
        divisor=10.0 ** places,
        shift=10 ** (18 - places),
        code=np.where(sci, 1001 - exp, 0).astype(np.int32),
    )


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mantissa M (10^14 <= M < 10^15) and exponent e of every entry of `a`
    (positive normal doubles below _FAST_MAX), with M * 10^(e-14) the
    entry rounded to 15 significant digits, half to even, and the mask of
    the entries whose M and e this does not give: `_float_token` formats
    those on their own.

    e = floor(log10(a)), and the long double product a * `scale`[e] =
    a * 10^(14-e) * 2^_FRAC_BITS is truncated to an int64: M is its
    integer part, plus one where the fraction its low bits hold is 1/2 or
    more.  An entry whose fraction is within _HALF_WINDOW units of 1/2,
    where the product's error could flip the rounding, or whose M falls
    outside [10^14, 10^15), is masked.  The rounding and the masks work in
    place on the truncated product.  `_tokens` calls it only with such a
    long double.
    """
    exp = np.floor(np.log10(a)).astype(np.intp)
    fixed = _tables().scale[exp]
    fixed *= a
    fixed = fixed.astype(np.int64)
    # From here `fixed` holds M - 10^14 above its fraction's bits; log10
    # can miss by one just below a power of ten.
    fixed -= _LOW
    own = fixed.view(np.uint64) >= 9 * _LOW
    # Adding 1/2 and _HALF_WINDOW units rounds M half up, except in the
    # window, which now holds the fractions of 0 to 2 * _HALF_WINDOW units.
    fixed += (1 << (_FRAC_BITS - 1)) + _HALF_WINDOW
    own |= (fixed & ((1 << _FRAC_BITS) - 1)) <= 2 * _HALF_WINDOW
    fixed >>= _FRAC_BITS
    fixed += 10 ** 14
    carry = fixed == 10 ** 15  # rounded up into the next decade
    fixed[carry] = 10 ** 14
    exp += carry
    return fixed, exp, own


def _tokens(values: np.ndarray, fmt: str) -> np.ndarray:
    """The tokens of a block's floats as the NUL-padded rows of a uint8
    matrix.  Without a 64-bit-significand long double, or in a block with
    no floats, each is formatted on its own (`_padded`).  Otherwise they come
    from the digit tables (`_tables`) as rows of a (floats, words) uint32
    matrix, filled a word column at a time: the integer part in 4-digit
    groups (most significant first), the point and the first 15 of the
    fraction's 18 digits in groups of 3, 4, 4 and 4, and the end words,
    its last 3 digits or the tail (`_tables`).  What each entry
    needs of its rounded exponent (the notation, as "%.15g" decides it,
    and where its digits fall) is gathered from the per-exponent tables.
    Entries the tables do not print (anything but +0.0 and positive normal
    doubles below _FAST_MAX), and those `_decimal` masks, are formatted on
    their own: such a token takes at most 22 bytes
    ("-d.dddddddddddddde-ddd"), a row at least 24.
    """
    if not values.size or not _WIDE_LONGDOUBLE:
        return _padded([_float_token(x, fmt) for x in values.tolist()], 0)
    if values.min() >= _FAST_TINY and values.max() < _FAST_MAX:  # False with a NaN
        mant, exp, own = _decimal(values)
    else:
        nonzero = (values < _FAST_MAX) & (values >= _FAST_TINY)
        own = ~nonzero & (values.view(np.int64) != 0)  # all but +0.0
        mant, exp = np.zeros(values.size, np.int64), np.zeros(values.size, np.intp)
        mant[nonzero], exp[nonzero], own[nonzero] = _decimal(values[nonzero])
    own = np.flatnonzero(own)  # rows by index: a mask assignment is slower
    tables = _tables()
    # M < 2^50, so M / 10^p in float64 lies within 2^-53 (relative) of the
    # exact quotient, and a quotient below an integer lies at least 1/M
    # below it: the truncated float64 quotient is the floor.
    whole = (mant / tables.divisor[exp]).astype(np.int64)
    # The fraction's digits left-aligned in 18, M * 10^(18-p) - whole *
    # 10^18: below 10^18, so exact although the products wrap.
    mant *= tables.shift[exp]
    mant -= whole * 10 ** 18
    whole[own] = 0  # a masked entry's M and e do not size the integer words
    tail = tables.code[exp]
    del exp
    long_tail = tail.max() > 1100  # "e-100" takes 5 bytes
    if fmt == "json":
        np.add(tail, 1000, out=tail, where=mant == 0)
    integer = -(-len(str(whole.max())) // 4)
    words = np.empty((values.size, integer + 5 + long_tail), dtype=np.uint32)
    # Each array is deleted once read, so that few are held at a time.  A
    # masked entry's index clips to some word, which its own token
    # overwrites below.  A group table is read at group + 10^4 where the
    # group's padding zeros go.
    padded = 10_000  # where every integer group so far is zero
    for i in range(integer - 1):
        place = 10 ** (4 * (integer - 1 - i))
        group = whole // place
        whole -= group * place
        words[:, i] = tables.lead.take(group + padded, mode="clip")
        padded = padded * (group == 0)
    words[:, integer - 1] = tables.units.take(whole + padded, mode="clip")
    del whole
    # The fraction's first and last 9 digits, then its groups from the
    # last: 3 digits, 4, 4 (2 of each half), 4 and the point's 3.
    high = mant // 10 ** 9
    mant -= high * 10 ** 9
    low, high = mant.astype(np.int32), high.astype(np.int32)
    del mant
    rest = low // 1000
    group = low - rest * 1000
    del low
    tail += group  # the end words' column
    for i in range(1 + long_tail):
        words[:, integer + 4 + i] = tables.end[i].take(tail, mode="clip")
    del tail
    padded = (group == 0) * np.int32(10_000)  # where every group below is zero
    split = rest // 10_000
    group = rest - split * 10_000
    words[:, integer + 3] = tables.frac.take(group + padded, mode="clip")
    padded *= group == 0
    rest = high // 100
    group = (high - rest * 100) * 100 + split
    del high, split
    words[:, integer + 2] = tables.frac.take(group + padded, mode="clip")
    padded *= group == 0
    point = rest // 10_000
    group = rest - point * 10_000
    del rest
    words[:, integer + 1] = tables.frac.take(group + padded, mode="clip")
    padded *= group == 0
    words[:, integer] = tables.point.take(point + padded, mode="clip")
    if own.size:
        texts = [_float_token(x, fmt) for x in values[own].tolist()]
        words[own] = _padded(texts, 4 * words.shape[1]).view(np.uint32)
    return words.view(np.uint8).reshape(values.size, -1)


class _Labels(NamedTuple):
    """A label column: each value printed as its row of the `width` ASCII codes
    `chars(values, width)` gives (`gf2.bit_chars`, `stabilizer.pauli_letters`)."""

    values: np.ndarray
    width: int
    chars: Callable[[np.ndarray, int], np.ndarray]


def _field_of(column) -> SimpleNamespace:
    """How a column prints: its `kind`, its `data` with one entry or row per
    record, and `width`, the floats of an array or the bytes of a label.

    Kinds: "float" (a 1-D float64 array), "array" (a 2-D float64 array),
    "label" (`_Labels`), "bool" (a bool array) and "text" (a list of any
    other values, each formatted on its own, of the width `_blocks`
    measures; `_clean` refuses a value no command prints).
    """
    if isinstance(column, _Labels):
        return SimpleNamespace(kind="label", data=column.values, width=column.width,
                               chars=column.chars)
    if not isinstance(column, np.ndarray) or column.dtype not in (bool, np.float64):
        return SimpleNamespace(kind="text", data=column, width=0)
    if column.dtype == bool:
        return SimpleNamespace(kind="bool", data=column, width=5)
    return SimpleNamespace(kind=("float", "array")[column.ndim - 1], data=column,
                           width=column.shape[1] if column.ndim == 2 else 1)


def _json(value, indent: str) -> str:
    """`json.dumps(_clean(value), indent=2, sort_keys=True)` for a value
    nested at `indent`."""
    text = json.dumps(_clean(value), indent=2, sort_keys=True)
    return text.replace("\n", "\n" + indent)


def _blocks(fields: list, heads: list[bytes], rows: int, cell: Callable[[object], str]
            ) -> Iterator[tuple[int, int, list[list[str]]]]:
    """The first and past-the-last row of each block, consecutive rows
    holding about _BLOCK_BYTES of the block matrix (at least one row), and
    the `cell`s of its text fields.  A text field takes its widest cell's
    bytes in every row of a block, so text cells are rendered ahead, for
    as many rows as the other fields leave room for; the block takes the
    rows that fit, and the cells past it go on to the next block."""
    fixed = sum(len(head) + f.width * (_FLOAT_BYTES if f.kind in ("float", "array")
                                       else 1) for f, head in zip(fields, heads))
    step = max(1, _BLOCK_BYTES // max(fixed, 1))
    texts = [f.data for f in fields if f.kind == "text"]
    ahead, start = [[] for _ in texts], 0
    while start < rows:
        stop = min(start + step, rows)
        for data, cells in zip(texts, ahead):
            cells += map(cell, data[start + len(cells):stop])
        if texts:  # the bytes of a block ending at each row
            widths = np.maximum.accumulate([list(map(len, cells)) for cells in ahead], axis=1)
            fits = (fixed + widths.sum(axis=0)) * np.arange(1, stop - start + 1) <= _BLOCK_BYTES
            stop = start + max(1, np.count_nonzero(fits))
        yield start, stop, [cells[:stop - start] for cells in ahead]
        ahead, start = [cells[stop - start:] for cells in ahead], stop


def _brackets(kind: str, fmt: str) -> tuple[bytes, bytes]:
    """What a value of this kind is printed between: a JSON array's
    brackets, a JSON label's quotes, or nothing."""
    if fmt == "json" and kind == "array":
        return b"[\n        ", b"\n      ]"
    if fmt == "json" and kind == "label":
        return b'"', b'"'
    return b"", b""


def _template(fields: list, heads: list[bytes], end: bytes, widths: tuple[int, ...],
              fmt: str) -> tuple[bytearray, list[int]]:
    """The row of a block whose float tokens take `widths[0]` bytes and
    whose other values take `widths[1:]` (0 for a float field): each
    field's head and NUL-padded slots, then `end`; and where each field's
    slots start."""
    token, *widths = widths
    sep = _SEPARATORS[fmt]
    row, places = bytearray(), []
    for f, head, width in zip(fields, heads, widths):
        before, after = _brackets(f.kind, fmt)
        row += head + before
        places.append(len(row))
        if f.kind in ("float", "array"):  # f.width floats
            row += (bytes(token) + sep) * (f.width - 1) + bytes(token)
        else:
            row += bytes(width)
        row += after
    row += end
    return row, places


def _block_matrix(fields: list, heads: list[bytes], end: bytes, start: int, stop: int,
                  texts: list[list[str]], fmt: str, templates: dict) -> bytearray:
    """Records start..stop-1 as the bytes of a matrix with a row per
    record: each field's head and value (a text field's from its cells in
    `texts`), then `end`, and NUL padding.  The row's `_template` is kept
    in `templates` for the later blocks of the same layout."""
    rows = stop - start
    texts = iter(texts)
    data = [f.data[start:stop] for f in fields]
    floats = [d.ravel() for f, d in zip(fields, data) if f.kind in ("float", "array")]
    tokens = _tokens(np.concatenate(floats) if floats else np.zeros(0), fmt)
    token = tokens.shape[1]
    values = [f.chars(d, f.width) if f.kind == "label" else
              _BOOLS[d.view(np.uint8)] if f.kind == "bool" else
              _padded(next(texts), 0) if f.kind == "text" else None
              for f, d in zip(fields, data)]
    layout = (token, *[0 if value is None else value.shape[1] for value in values])
    if layout not in templates:
        templates[layout] = _template(fields, heads, end, layout, fmt)
    row, places = templates[layout]
    buffer = row * rows
    if fmt == "json" and start == 0:
        buffer[0] = 0  # no comma before the first record
    matrix = np.frombuffer(buffer, dtype=np.uint8).reshape(rows, len(row))

    # each token one element of `token` bytes, a float column at a time
    slot = token + len(_SEPARATORS[fmt])
    tokens = tokens.view(np.dtype((np.void, token))).ravel()
    for f, place, value in zip(fields, places, values):
        if value is not None:
            matrix[:, place:place + value.shape[1]] = value
            continue
        if f.kind == "array":
            region = matrix[:, place:place + slot * f.width].reshape(
                rows, -1, slot)[..., :token]
        else:
            region = matrix[:, place:place + token]
        view = region.view(tokens.dtype)
        view[...] = tokens[:view.size].reshape(view.shape)
        tokens = tokens[view.size:]
    return buffer


def _text_records(fields: list, heads: list[bytes], end: bytes, fmt: str,
                  cell: Callable[[object], str]) -> bytes:
    """Every record as the bytes the block path prints for it, built value
    by value into one row template (`_template`'s, a "%s" per value):
    floats by `_float_token`, each label column by one `chars` call,
    booleans as true/false and any other value by `cell`.  A CSV text cell
    holding NUL is refused, as `_padded` refuses it on the block path."""
    sep = _SEPARATORS[fmt].decode()
    row, columns = "", []
    for f, head in zip(fields, heads):
        before, after = _brackets(f.kind, fmt)
        row += (head + before).decode().replace("%", "%%") + "%s" + after.decode()
        if f.kind == "array":
            columns.append([sep.join([_float_token(x, fmt) for x in values])
                            for values in f.data.tolist()])
        elif f.kind == "float":
            columns.append([_float_token(x, fmt) for x in f.data.tolist()])
        elif f.kind == "label":
            chars, width = f.chars(f.data, f.width).tobytes().decode(), f.width
            columns.append([chars[i * width:(i + 1) * width] for i in range(len(f.data))])
        elif f.kind == "bool":
            columns.append([("false", "true")[b] for b in f.data.tolist()])
        else:
            columns.append(list(map(cell, f.data)))
    row += end.decode()
    text = "".join([row % values for values in zip(*columns)])
    if "\0" in text:  # only a CSV text cell can hold it; JSON escapes it
        raise ValueError("a CSV text cell cannot hold NUL")
    return text[fmt == "json":].encode()  # no comma before the first JSON record


def _csv_cell(value, alone: bool) -> str:
    """`value` as `csv.writer` writes it in a cell of a row of several
    cells, or as the `alone` cell of its row."""
    buf = io.StringIO()
    cells = [_format_cell(_clean(value))] + [""] * (not alone)
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1 if alone else -2]


def _render(write: Callable[[bytes], object], command: str, columns: dict, fmt: str,
            summary: dict | None) -> None:
    """Write the command's output, as bytes, through `write`: JSON, or CSV
    with one row per record.

    `columns` holds the records field by field, in the CSV column order;
    `_field_of` tells how each prints.  An output of fewer than _VALUE_MAX
    floats is one `write` call of text built value by value
    (`_text_records`).  A larger one is written block by block (`_blocks`,
    `_block_matrix`), so that only one block's bytes exist at a time, each
    block as the matrix's bytes less the padding, in one `write` call: the
    output's first bytes go with its first block, and its last bytes with
    its last, so an output of one block is one call.  Every float is
    printed with 15 significant digits.  Array values are printed as lists
    (`;`-joined in a CSV cell).
    """
    keys = list(columns) if fmt == "csv" else sorted(columns)
    fields = [_field_of(columns[key]) for key in keys]
    rows = len(fields[0].data) if fields else 0
    if fmt == "csv":
        first = (",".join(_csv_cell(key, len(keys) == 1) for key in keys) + "\n").encode()
        heads, end, last = [b""] + [b","] * (len(keys) - 1), b"\n", b""
    else:
        first = ('{\n  "command": ' + json.dumps(command) + ',\n  "records": [').encode()
        heads = [((",\n      " if i else ",\n    {\n      ") + json.dumps(key) + ": ")
                 .encode("ascii") for i, key in enumerate(keys)]
        end = b"\n    }"
        last = (b"\n  ]" if rows else b"]") + (b"" if summary is None else
                                               (',\n  "summary": ' + _json(summary, "  "))
                                               .encode()) + b"\n}\n"
    if not rows:
        write(first + last)
        return
    cell = functools.partial(_json, indent="      ") if fmt == "json" else \
        functools.partial(_csv_cell, alone=len(fields) == 1)
    floats = rows * sum(f.width for f in fields if f.kind in ("float", "array"))
    if floats < _VALUE_MAX:
        write(b"".join((first, _text_records(fields, heads, end, fmt, cell), last)))
        return
    templates = {}  # a block's row by its layout
    for start, stop, texts in _blocks(fields, heads, rows, cell):
        block = _block_matrix(fields, heads, end, start, stop, texts, fmt,
                              templates).translate(None, _PAD)
        if first or stop == rows:
            block = b"".join((first, block, last if stop == rows else b""))
        write(block)
        first = b""
        del block  # before the next block is built


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
        _render(binary.write if binary is not None else
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
            _render(functools.partial(_write_all, fd), args.command, columns,
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
        parts = [float(x) for x in str(args.pair).split(",")]
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
        columns[name] = (_Labels(column, branches.widths[name], bit_chars)
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
    _emit(args, _printed(branches, recovery=_Labels(branches.u, proto.n, pauli_letters)))
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
