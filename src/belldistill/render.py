"""Output: a command's columns as JSON or CSV bytes, through one entry,
`render`.

Every float is printed as Python prints it after rounding to 15
significant digits: ``"%.15g"`` in CSV, ``json.dumps`` in JSON; every other
value as ``json.dumps`` (in the layout ``indent=2, sort_keys=True`` gives)
or ``csv.writer`` writes it.  A value printed on its own goes through one
formatter (`_values`).  An output of fewer than `_VALUE_MAX` floats is
built value by value as one string and written in one call
(`_text_records`); a larger one is written one call per block of whole
records of about `_BLOCK_BYTES`, so the memory rendering takes does not
grow with the size of the output.  Each block is one byte matrix with a
row per record (`_block_matrix`) and a NUL-padded slot per value, copied
from a row built once per layout (`_template`).  Floats are written in
4-digit words, and what a float's decimal exponent e decides is gathered
from per-exponent tables (`_tables`).  The 15-digit mantissa of each is
x * 10^(14-e) in a 64-bit-significand long double, with 10^k correctly
rounded to long double, so the product is within 2^-13 of exact.
Truncated to 2^-12 and rounded half up from there, in place, it rounds as
exact arithmetic would, except within 2^-12 of a half-way point.  Those
entries, negatives, -0.0, NaN, infinities, subnormals, magnitudes from
1e14 up and all other values are formatted on their own (`_float_token`),
and so is every float on a platform without such a long double.  Either
way a CSV text cell holding NUL is refused.

This module reads only the standard library and numpy.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from collections.abc import Callable, Iterator
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np


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
    x = float("%.15g" % x)  # may round up to inf
    if fmt == "csv":
        return format(x, ".15g")
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _values(fmt: str, indent: str, values) -> list[str]:
    """Each of `values` formatted on its own: in JSON as `json.dumps(value,
    indent=2, sort_keys=True)` lays it out nested at `indent`, each float
    by `_float_token`; in CSV as the text of its cell, a list's entries
    `;`-joined, before `csv.writer` quotes it.  A dict in a CSV cell, an
    array and any other type are refused."""
    inner, texts = indent + "  ", []
    for value in values:
        if isinstance(value, float):
            texts.append(_float_token(value, fmt))
        elif isinstance(value, (list, tuple)):
            items = _values(fmt, inner, value)
            texts.append(";".join(items) if fmt == "csv" else "[]" if not items else
                         "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]")
        elif isinstance(value, bool):
            texts.append("true" if value else "false")
        elif value is None or isinstance(value, (int, str)):
            texts.append(json.dumps(value) if fmt == "json" else str(value))
        elif isinstance(value, dict) and fmt == "json":
            keys = sorted(value)
            items = [json.dumps(key) + ": " + text
                     for key, text in zip(keys, _values(fmt, inner, map(value.get, keys)))]
            texts.append("{}" if not items else
                         "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}")
        else:
            raise TypeError(f"unserializable value of type {type(value)!r}")
    return texts


# ---------------------------------------------------------------------------
# Output: few floats value by value, more as a byte matrix a block
#
# `render` makes one choice per output.  Below _VALUE_MAX floats, the
# records are one string built value by value (`_text_records`).
# Otherwise each block of records is one uint8 matrix with a row per
# record (`_block_matrix`): the constant bytes of a template row (keys,
# brackets, separators; one `_template` for all the blocks of a layout)
# and a slot per value, filled by numpy: label bytes (`Labels`),
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
# `repr(float("%.15g" % x))` is `"%.15g" % x` with ".0" appended when it has
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


class Labels(NamedTuple):
    """A label column: each value printed as its row of the `width` ASCII codes
    `chars(values, width)` gives (`gf2.bit_chars`, `stabilizer.pauli_letters`)."""

    values: np.ndarray
    width: int
    chars: Callable[[np.ndarray, int], np.ndarray]


def _field_of(column) -> SimpleNamespace:
    """How a column prints: its `kind`, its `data` with one entry or row per
    record, and `width`, the floats of an array or the bytes of a label.

    Kinds: "float" (a 1-D float64 array), "array" (a 2-D float64 array),
    "label" (`Labels`), "bool" (a bool array) and "text" (a list of any
    other values, each formatted on its own, of the width `_blocks`
    measures; `_values` refuses a value no command prints).
    """
    if isinstance(column, Labels):
        return SimpleNamespace(kind="label", data=column.values, width=column.width,
                               chars=column.chars)
    if not isinstance(column, np.ndarray) or column.dtype not in (bool, np.float64):
        return SimpleNamespace(kind="text", data=column, width=0)
    if column.dtype == bool:
        return SimpleNamespace(kind="bool", data=column, width=5)
    return SimpleNamespace(kind=("float", "array")[column.ndim - 1], data=column,
                           width=column.shape[1] if column.ndim == 2 else 1)


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
    by value into one row template (`_template`'s, a "%s" per value): each
    label column by one `chars` call, each text cell by `cell` and every
    other column by one `_values` call.  A CSV text cell holding NUL is
    refused, as `_padded` refuses it on the block path."""
    row, columns = "", []
    for f, head in zip(fields, heads):
        # a label's JSON quotes are the row's, as on the block path
        before, after = _brackets(f.kind, fmt) if f.kind == "label" else (b"", b"")
        row += (head + before).decode().replace("%", "%%") + "%s" + after.decode()
        if f.kind == "label":
            chars, width = f.chars(f.data, f.width).tobytes().decode(), f.width
            columns.append([chars[i * width:(i + 1) * width] for i in range(len(f.data))])
        else:
            columns.append(list(map(cell, f.data)) if f.kind == "text" else
                           _values(fmt, "      ", f.data.tolist()))
    row += end.decode()
    text = "".join([row % values for values in zip(*columns)])
    if "\0" in text:  # only a CSV text cell can hold it; JSON escapes it
        raise ValueError("a CSV text cell cannot hold NUL")
    return text[fmt == "json":].encode()  # no comma before the first JSON record


def _csv_cell(text: str, alone: bool) -> str:
    """`text` as `csv.writer` writes it in a cell of a row of several
    cells, or as the `alone` cell of its row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text] + [""] * (not alone))
    return buf.getvalue()[:-1 if alone else -2]


def render(write: Callable[[bytes], object], command: str, columns: dict, fmt: str,
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
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(keys)
        first = buf.getvalue().encode()
        heads, end, last = [b""] + [b","] * (len(keys) - 1), b"\n", b""
    else:
        first = ('{\n  "command": ' + json.dumps(command) + ',\n  "records": [').encode()
        heads = [((",\n      " if i else ",\n    {\n      ") + json.dumps(key) + ": ")
                 .encode("ascii") for i, key in enumerate(keys)]
        end = b"\n    }"
        last = (b"\n  ]" if rows else b"]") + (b"" if summary is None else (
            ',\n  "summary": ' + _values(fmt, "  ", [summary])[0]).encode()) + b"\n}\n"
    if not rows:
        write(first + last)
        return

    def cell(value) -> str:  # a text cell
        text, = _values(fmt, "      ", [value])
        return text if fmt == "json" else _csv_cell(text, len(fields) == 1)

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
