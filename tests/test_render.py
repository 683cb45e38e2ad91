"""The CLI renderer against the plain `json` and `csv` rendering it replaced.

`cli._render` writes an output of few floats as one string built value by
value (`_text_records`, each float by `_float_token`), and a larger one in
blocks of rows, each block one byte matrix (`_block_matrix`) whose floats
are formatted in one pass (`_tokens`: exact 15-digit decimals from
`_decimal`, then 4-digit words from digit tables), and whose other values
are rows of the per-value builder `_padded`, from columns: a record list
transposed by `columns_of`, or an engine's branch set, whose outputs are
one 2-D float column.  The one-pass helpers below force the block path
(`_VALUE_MAX` 0), however few floats they print.
The reference here is the rendering that predates
it: `json.dumps` of a list of records with every float rounded through
`"%.15g"`, and per-value CSV cells, with every array turned into a list of
Python floats first.  The reference shares no formatting code with the
renderer, so a byte-equal output means the one-pass path prints exactly
what the per-value path would.
"""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from belldistill import cli, equivalence, gf2, permutation, stabilizer
from belldistill.gf2 import BinaryMatrix
from belldistill.permutation import PermutationProtocol
from belldistill.stabilizer import StabilizerProtocol, to_pauli_string
from belldistill.states import BellDiagonalState, werner


def clean(value):
    if isinstance(value, np.ndarray):
        return clean(value.tolist())
    if isinstance(value, float):
        return float(format(float(value), ".15g"))
    if isinstance(value, (list, tuple)):
        return [clean(v) for v in value]
    if isinstance(value, dict):
        return {k: clean(v) for k, v in value.items()}
    return value


def cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    if isinstance(value, list):
        return ";".join(cell(v) for v in value)
    return str(value)


def reference(command, records, fmt, summary):
    records = clean(records)
    if fmt == "json":
        body = {"command": command, "records": records}
        if summary is not None:
            body["summary"] = clean(summary)
        return json.dumps(body, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(records[0]))
    for rec in records:
        writer.writerow([cell(v) for v in rec.values()])
    return buf.getvalue()


def _render(command, columns, fmt, summary):
    """The text `cli._render` writes, decoded."""
    out = io.BytesIO()
    cli._render(out.write, command, columns, fmt, summary)
    return out.getvalue().decode()


def columns_of(records):
    """The records field by field, in the first record's field order, as
    the commands hand them: a field of floats or of bools as one array, an
    array field stacked into one 2-D float column, any other as a list."""
    columns = {}
    for key in records[0] if records else ():
        column = [rec[key] for rec in records]
        if all(isinstance(v, float) for v in column) or \
                all(type(v) is bool for v in column):
            column = np.array(column)
        elif isinstance(column[0], np.ndarray):
            column = np.stack(column)
        columns[key] = column
    return columns


def assert_renders_as_reference(records, summary=None):
    for fmt in ("json", "csv"):
        assert _render("run-perm", columns_of(records), fmt, summary) == \
            reference("run-perm", records, fmt, summary)


def assert_csv_refuses_nul(records, summary=None):
    """NUL is the block matrix's padding: JSON escapes it and renders as
    the reference, and a CSV text cell holding it is refused."""
    assert _render("run-perm", columns_of(records), "json", summary) == \
        reference("run-perm", records, "json", summary)
    with pytest.raises(ValueError, match="NUL"):
        _render("run-perm", columns_of(records), "csv", summary)


def records_of(arrays, scalar=0.5):
    """Records with one array field, `output`: the arrays, of one size."""
    return [{"t": str(i), "prob": scalar, "generators": ["ZZ", "XX"],
             "accepted": i % 2 == 0, "output": arr, "instance": i}
            for i, arr in enumerate(arrays)]


def one_pass_tokens(values, fmt="csv"):
    """The token the one-pass path prints for each entry, however few: the
    block path, forced by a size threshold of 0."""
    values = np.asarray(values, dtype=float)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_VALUE_MAX", 0)
        text = _render("run-perm", {"x": values}, fmt, None)
    if fmt == "csv":
        return text.splitlines()[1:]
    return [line.split(": ", 1)[1] for line in text.splitlines() if '"x": ' in line]


def mark_own_tokens(monkeypatch):
    """Make entries formatted on their own print as None."""
    monkeypatch.setattr(cli, "_float_token", lambda x, fmt: "None")


def assert_tokens_as_reference(values):
    """The one-pass tokens of every entry, in JSON and CSV, against the
    per-value reference: the entries as one array value, on the block path
    however few they are."""
    values = np.asarray(values, dtype=float)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_VALUE_MAX", 0)
        for fmt in ("json", "csv"):
            assert _render("run-perm", {"x": values[None, :]}, fmt, None) == \
                reference("run-perm", [{"x": values}], fmt, None)


EDGES = [0.0, -0.0, 1.0, 0.9999999999999999, 5e-324, 1e-5, 1e-4, 1e14, 1e15,
         1e16, 1e17]


@pytest.mark.parametrize("x", EDGES)
def test_edge_value_renders_as_reference(x):
    arrays = [np.array([x, x, x]), np.array([x, 0.25, -x]),
              np.array([-x, 2 / 3, x * 0.1])]
    assert_renders_as_reference(records_of(arrays, scalar=x))


def test_all_edge_values_in_one_array():
    edges = np.array(EDGES)
    assert_renders_as_reference(records_of([edges, -edges, edges[::-1], -edges[::-1]]))


def test_near_the_notation_switches():
    # .15g rounds these up to 1e15 (exponent), where repr keeps 1e15 fixed
    values = [999999999999999.9, 999999999999999.5, 99999999999999.99,
              0.000099999999999999995, 2.2250738585072014e-308,
              2.225073858507201e-308, 1.7976931348623157e308, 123456789012345.6]
    for arr in (np.array(values), np.array(values[:4]), np.array(values[4:5])):
        assert_renders_as_reference(records_of([arr, -arr]))


def test_nan_in_scalar_field_and_summary():
    records = records_of([np.array([0.5, 0.5])], scalar=float("nan"))
    assert_renders_as_reference(records, {"output_max_diff": float("nan"),
                                          "passed": False})
    assert "NaN" in _render("verify", columns_of(records), "json", None)


STRINGS = ["", "plain", 'a "quoted" word', "back\\slash", "caf\u00e9", "\u2028",
           "tab\tand\nnewline", "\x7f", "\U0001f600", "~ !#$%&'()*+,-./09:;<=>?@[]^_`{|}",
           "\x00\x01\x02 control"]


@pytest.mark.parametrize("text", STRINGS)
def test_string_fields_and_keys_render_as_reference(text):
    records = records_of([np.array([0.5, 0.5])])
    for rec in records:
        rec["t"] = text
        rec["generators"] = [text, "ZZ"]
    check = assert_csv_refuses_nul if "\0" in text else assert_renders_as_reference
    check(records, {text: text, "passed": True})


def test_csv_text_cell_holding_nul_is_refused():
    # a trailing NUL too, which the padding pass would otherwise drop unseen
    for text in ("\0", "a\0b", "ab\0"):
        with pytest.raises(ValueError, match="NUL"):
            _render("run-perm", {"t": ["x", text], "prob": [0.5, 0.5]}, "csv", None)
        assert json.loads(_render("run-perm", {"t": [text]}, "json", None)) == \
            {"command": "run-perm", "records": [{"t": text}]}
    with pytest.raises(ValueError, match="NUL"):
        cli._padded(["x", "\0"], 0)


def test_keys_with_control_bytes_render_as_reference():
    records = [{"t\x02": "\x02", "prob\x01": p, "output": np.array([p, 1 - p])}
               for p in (0.25, 0.5)]
    assert_renders_as_reference(records)


def test_records_of_one_field_render_as_reference():
    # csv.writer quotes an empty cell that is alone in its row
    for key in ("t", ""):
        assert_renders_as_reference([{key: text} for text in ("", "a,b", "", "x")])
    assert_renders_as_reference([{"prob": 0.5}, {"prob": float("nan")}])


def test_json_sorts_the_fields():
    # JSON sorts the keys, so the columns' order does not matter there.
    records = records_of([np.array([0.5])] * 2)
    reordered = [dict(reversed(rec.items())) for rec in records]
    assert _render("run-perm", columns_of(reordered), "json", None) == \
        reference("run-perm", records, "json", None)
    assert _render("run-perm", columns_of(reordered), "csv", None) == \
        reference("run-perm", reordered, "csv", None)


def test_lists_of_floats_and_bools_print_as_their_arrays():
    # A list is a text column, each value printed on its own: the same
    # bytes as the one-pass path prints for the array.
    values = [0.5, 1 / 3, 0.0, -0.0, 1e-5, 5e-324, 1e15, float("nan"), 2.0] * 8
    flags = [i % 3 == 0 for i in range(len(values))]
    for fmt in ("json", "csv"):
        assert _render("sweep", {"x": values, "ok": flags}, fmt, None) == \
            _render("sweep", {"x": np.array(values), "ok": np.array(flags)}, fmt, None)


def test_scalars_the_direct_path_refuses():
    records = records_of([np.array([1.0])])
    for rec, value in zip(records * 5, (float("nan"), float("inf"), -float("inf"),
                                       np.float64(1 / 3), None)):
        rec["prob"] = value
    summary = {"big": 1 << 70, "negative": -3, "none": None, "nan": float("nan"),
               "floats": [float("-inf"), np.float64(2 / 3), 1e16, -0.0]}
    assert_renders_as_reference(records, summary)


@given(st.text(), st.one_of(st.none(), st.booleans(), st.integers(),
                            st.floats(allow_nan=True, allow_infinity=True)))
def test_any_string_and_scalar_render_as_reference(text, scalar):
    records = records_of([np.array([1.0])], scalar=scalar)
    records[0]["t"] = text
    check = assert_csv_refuses_nul if "\0" in text else assert_renders_as_reference
    check(records, {text: scalar})


def test_arrays_the_one_pass_path_refuses(monkeypatch):
    # No command hands a list of arrays, an array of ints or float32, or an
    # array in a text cell or the summary: each is refused, not printed.
    columns = [[np.array([0.5]), np.array([0.25])], np.arange(2),
               np.array([0.5, 0.25], dtype=np.float32), [[np.array([0.5])], ["x"]]]
    for fmt in ("json", "csv"):
        for column in columns:
            with pytest.raises(TypeError, match="unserializable"):
                _render("run-perm", {"t": ["a", "b"], "x": column}, fmt, None)
    with pytest.raises(TypeError, match="unserializable"):
        _render("run-perm", {"t": ["a"]}, "json", {"x": np.array([0.5])})
    # Entries the digit tables do not print go through `_float_token`.
    special = [float("nan"), float("inf"), -float("inf"), 5e-324, -1e-310,
               1e14, -1e15, 1.7976931348623157e308]
    mark_own_tokens(monkeypatch)
    assert one_pass_tokens([0.5, *special, 0.25]) == ["0.5", *["None"] * 8, "0.25"]


def test_one_pass_path_is_taken_for_probabilities(monkeypatch):
    mark_own_tokens(monkeypatch)
    # -0.0, like every negative, is formatted on its own
    assert one_pass_tokens([0.5, 1e-5, 0.0, -0.0, 1.0]) == \
        ["0.5", "1e-05", "0", "None", "1"]
    assert one_pass_tokens([0.5, 1e-5, 0.0, -0.0, 1.0], "json") == \
        ["0.5", "1e-05", "0.0", "None", "1.0"]
    for x in (5e-324, 1e14, 1e15):
        assert one_pass_tokens([0.5, x]) == ["0.5", "None"]


def test_nul_is_refused_alike_on_both_paths():
    # NUL is the block matrix's padding, and the value-by-value path
    # refuses it too, so the refusal does not depend on the output's size
    columns = {"t": ["x", "a\0b"], "prob": np.array([0.5, 0.5])}
    for value_max in (0, math.inf):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_VALUE_MAX", value_max)
            with pytest.raises(ValueError, match="^a CSV text cell cannot hold NUL$"):
                _render("run-perm", columns, "csv", None)
            assert json.loads(_render("run-perm", columns, "json", None))["records"][1] == \
                {"t": "a\0b", "prob": 0.5}


def arrays_of_one_size(elements):
    """1 to 3 float arrays of one size, 1 to 12."""
    return st.integers(1, 12).flatmap(lambda size: st.lists(
        hnp.arrays(np.float64, size, elements=elements), min_size=1, max_size=3))


@given(arrays_of_one_size(st.floats(allow_nan=False, allow_infinity=False)))
def test_finite_float_arrays_render_as_reference(arrays):
    assert_renders_as_reference(records_of(arrays))


@given(arrays_of_one_size(st.floats(-2.0, 2.0)))
def test_probability_sized_arrays_render_as_reference(arrays):
    assert_renders_as_reference(records_of(arrays))


def engine_records(command, branches):
    """The records of `run-perm` or `run-code`, one per branch, built from
    the branch set's per-branch records."""
    records = []
    for b in branches:
        label = {"t": str(b.t)} if command == "run-perm" else {"s": str(b.s)}
        fields = {"correction": str(b.correction)} if command == "run-perm" else \
            {"v": str(b.v), "u": str(b.u), "recovery": to_pauli_string(b.u)}
        records.append({**label, "prob": b.prob, "fidelity": b.fidelity,
                        "unnormalized_fidelity": b.unnormalized_fidelity, **fields,
                        "accepted": b.accepted, "output": b.output.probs})
    return records


def test_engine_records_render_as_reference():
    bcnot = BinaryMatrix.from_strings(["1100", "0100", "0010", "0011"])
    proto = PermutationProtocol.linear(2, 1, bcnot)
    for state in (BellDiagonalState.from_pairs([werner(0.8)] * 2),
                  BellDiagonalState.point_mass(2),
                  BellDiagonalState(2, np.full(16, 1 / 16))):
        branches = permutation.run(state, proto)
        records = engine_records("run-perm", branches)
        assert isinstance(records[0]["output"], np.ndarray)
        assert_renders_as_reference(records)
        for fmt in ("json", "csv"):
            assert _render("run-perm", cli._printed(branches), fmt, None) == \
                reference("run-perm", records, fmt, None)


# ---------------------------------------------------------------------------
# The one-pass formatter (`_decimal`, `_tokens`) entry by entry
# ---------------------------------------------------------------------------

@given(hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_doubles_format_as_reference(values):
    assert_tokens_as_reference(values)


@given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(
    min_value=-1e14, max_value=1e14, allow_subnormal=False)))
def test_doubles_the_tables_print_format_as_reference(values):
    assert_tokens_as_reference(values)


def reference_token(x, fmt):
    """The token of one float as the reference prints it."""
    x = clean(x)
    return cell(x) if fmt == "csv" else json.dumps(x)


def neighbours(x):
    return [float(np.nextafter(x, -math.inf)), x, float(np.nextafter(x, math.inf))]


# Where `_float_token` leaves "%.15g" for `_clean`, and where rounding to 15
# digits reaches 1e14 (the bound) and 1e15 (where ".15g" turns to exponents).
TOKEN_EDGES = [0.0, -0.0, 5e-324, *neighbours(cli._FAST_TINY), *neighbours(cli._FAST_MAX),
               99999999999999.99, 99999999999999.95, 999999999999999.4,
               999999999999999.5, *neighbours(1e15), 1e-5, 9.999999999999999e-05,
               math.inf, -math.inf, math.nan]


@given(st.one_of(st.floats(), st.sampled_from(TOKEN_EDGES + [-x for x in TOKEN_EDGES])),
       st.sampled_from(["json", "csv"]))
def test_float_token_is_the_clean_reference(x, fmt):
    assert cli._float_token(x, fmt) == reference_token(x, fmt)


def test_float_token_is_the_clean_reference_over_random_doubles():
    # every bit pattern alike (all decades, subnormals, NaNs and infinities)
    # and the edges with both signs
    rng = np.random.default_rng(17)
    values = rng.integers(0, 1 << 64, 20_000, dtype=np.uint64).view(float).tolist()
    values += TOKEN_EDGES + [-x for x in TOKEN_EDGES]
    for fmt in ("json", "csv"):
        tokens = [cli._float_token(x, fmt) for x in values]
        assert tokens == [reference_token(x, fmt) for x in values]


def test_random_doubles_over_every_decade_format_as_reference():
    rng = np.random.default_rng(7)
    sign = rng.choice([-1.0, 1.0], 20_000)
    values = np.concatenate([
        sign * np.exp(rng.uniform(-700, 32, 20_000)),
        rng.random(20_000),
        [round(x, k) for x, k in zip(rng.random(20_000).tolist(),
                                     rng.integers(1, 16, 20_000).tolist())],
        rng.integers(0, 1 << 40, 20_000) / 8.0,
        rng.integers(-10 ** 14, 10 ** 14, 20_000).astype(float),
    ])
    assert_tokens_as_reference(values)


def test_notation_edges_and_carries():
    assert one_pass_tokens([1e-4, 1e-5, np.nextafter(1e-4, 0), np.nextafter(1e-5, 0),
                            0.9999999999999999, np.nextafter(1e14, 0),
                            99999999999999.99, 9.999999999999999e-05,
                            123456789012345.0 / 10]) == [
        "0.0001", "1e-05", "0.0001", "1e-05", "1", "100000000000000",
        "100000000000000", "0.0001", "12345678901234.5"]
    assert_tokens_as_reference([1e-4, 1e-5, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
                                np.nextafter(1e-5, 0), np.nextafter(1e-5, 1),
                                0.9999999999999999, np.nextafter(1e14, 0),
                                99999999999999.99, 9.5, 1e-100, 2.2250738585072014e-308])


def test_exact_half_way_ties_take_the_correctly_rounded_path(monkeypatch):
    # q / 2^(k+1), q odd: the 16th significant digit is an exact 5.
    ties = [1 + 2.0 ** -15, 1 + 3 * 2.0 ** -15, 3 + 5 * 2.0 ** -15, 0.5 + 2.0 ** -16,
            10 + 2.0 ** -14]
    for x in ties:
        exp = int(format(x, ".0e").split("e")[1])
        assert (Fraction(x) * Fraction(10) ** (14 - exp)).denominator == 2
    taken = []
    real = cli._float_token

    def spy(x, fmt):
        taken.append(x)
        return real(x, fmt)

    monkeypatch.setattr(cli, "_float_token", spy)
    assert_tokens_as_reference(ties + [0.25, 1 / 3])
    assert set(ties) <= set(taken)
    if cli._WIDE_LONGDOUBLE:
        assert not {0.25, 1 / 3} & set(taken)
    assert one_pass_tokens([1 + 2.0 ** -15]) == ["1.00003051757812"]



@pytest.mark.skipif(not cli._WIDE_LONGDOUBLE,
                    reason="the digit tables need a 64-bit-significand long double")
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("masked", [np.nextafter(1e14, 0), np.nextafter(1e5, 0)])
def test_a_masked_entry_does_not_widen_the_tokens_of_its_block(fmt, masked):
    # log10 of these rounds up to a power of ten, so `_decimal` masks them
    # and their tokens are formatted on their own; sizing the integer words
    # by their M and e made the rows 36 and 28 bytes wide
    values = np.full(100, 0.25)
    assert cli._tokens(values, fmt).shape == (100, 24)
    values[7] = masked
    tokens = cli._tokens(values, fmt)
    assert tokens.shape == (100, 24)
    assert bytes(tokens[7]).strip(b"\0").decode() == cli._float_token(masked, fmt)

def test_largest_mantissa_splits_exactly_at_every_fixed_point_place():
    # M = 10^15 - 1 at exponents 0 .. -4, printed with 14 .. 18 places:
    # the float64 quotient M / 10^places is nearest the next integer here
    mant = 10 ** 15 - 1
    places = range(14, 19)
    values = np.array([float(f"{mant}e{-p}") for p in places])
    assert one_pass_tokens(values) == ["9.99999999999999", "0.999999999999999",
                                       "0.0999999999999999", "0.00999999999999999",
                                       "0.000999999999999999"]
    assert_tokens_as_reference(values)


def test_signs_zeros_and_integral_values():
    values = [-0.0, 0.0, 1.0, -1.0, 2.0, 1e13, -123456.0, 0.5, -0.5, 3e-7, -3e-7]
    assert_tokens_as_reference(values)
    assert one_pass_tokens([-0.0, 2.0, -123456.0], "json") == ["-0.0", "2.0", "-123456.0"]


def test_mixed_one_pass_and_per_value_entries_in_one_array():
    values = np.array([0.5, float("nan"), 1e-5, 5e-324, -0.0, 1e15, 1 / 3,
                       float("-inf"), 1e14, 99999999999999.99, 2e-310])
    assert_renders_as_reference(records_of([values, values[::-1], np.roll(values, 3)]))
    assert_tokens_as_reference(values)


def test_record_set_larger_than_one_chunk():
    rng = np.random.default_rng(3)
    # 3000 entries a record, so that the records span several blocks
    arrays = [rng.random(3000) ** 4
              for _ in range(cli._BLOCK_BYTES // (3000 * cli._FLOAT_BYTES) + 3)]
    arrays[1][17] = float("nan")
    arrays[-1][-1] = 1e15
    records = records_of(arrays, scalar=0.125)
    assert sum(a.size for a in arrays) * cli._FLOAT_BYTES > cli._BLOCK_BYTES
    assert_renders_as_reference(records)


def test_small_commands_take_the_per_value_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("one-pass path taken below _VALUE_MAX")

    monkeypatch.setattr(cli, "_decimal", refuse)
    assert_renders_as_reference(records_of([np.array([0.25, 0.75])] * 3))


# `_tokens` reads digits off `_decimal` only where long double has a 64-bit
# significand, which `_decimal` and its powers of ten need.
wide_long_double = pytest.mark.skipif(not cli._WIDE_LONGDOUBLE,
                                      reason="needs a 64-bit-significand long double")


def scaled(x: float) -> Fraction:
    """x * 10^(14-e) in exact arithmetic, e the decimal exponent of x."""
    e = math.floor(math.log10(x))
    e += (Fraction(x) >= Fraction(10) ** (e + 1)) - (Fraction(x) < Fraction(10) ** e)
    return Fraction(x) * Fraction(10) ** (14 - e)


def assert_decimal_correctly_rounded(values, masked):
    """`_decimal` gives every entry it does not mask the digits of Python's
    correctly rounded "%.14e", and masks every entry of `masked`; every
    token, masked or not, is the per-value reference's."""
    values = np.array(values, dtype=float)
    mant, exp, inexact = cli._decimal(values)
    texts = ["%.14e" % x for x in values.tolist()]
    exact = np.flatnonzero(~inexact)
    assert mant[exact].tolist() == [int(texts[i][0] + texts[i][2:16]) for i in exact]
    assert exp[exact].tolist() == [int(texts[i][17:]) for i in exact]
    assert inexact[np.isin(values, masked)].all()
    assert_tokens_as_reference(values)


@wide_long_double
def test_decimal_at_the_edges_of_the_half_way_window():
    # Found by a search over random doubles in [1e-3, 1e3].
    unit = Fraction(1, 2 ** cli._FRAC_BITS)
    window = cli._HALF_WINDOW * unit
    inside = [910.2558559602885, 897.9169953068415, 758.4036120930175]
    # Just beyond where the product's error, under half a unit, could move
    # the truncated fraction into the window: more than half a unit below
    # it, or more than 1.5 units above it, so the window never masks them.
    below = [10.72717629817625, 27.21654074499045]
    above = [7.971316023703225, 0.03977368298171325]
    outside = below + above
    # Just past the window's edge, within the product's error of it.
    edge = [884.5026298049155, 997.2412943710425, 758.6442983799285]
    # The long double product rounds the other way than the exact one.
    flipped = [564.1167661994225, 648.5592503951965, 68.28025318676805]
    off_half = {x: abs(scaled(x) % 1 - Fraction(1, 2)) for x in inside + edge + flipped}
    assert all(0.9 * window < off_half[x] <= window for x in inside)
    assert all(window < off_half[x] < 1.1 * window for x in edge)
    assert all(off_half[x] < window / 16 for x in flipped)
    signed = {x: scaled(x) % 1 - Fraction(1, 2) for x in outside}
    assert all(-window - unit < signed[x] < -window - unit / 2 for x in below)
    assert all(window + 3 * unit / 2 < signed[x] < window + 2 * unit for x in above)
    assert not cli._decimal(np.array(outside))[2].any()  # digits compared with "%.14e"
    for x in flipped:
        product = np.longdouble(x) * cli._tables().pow10[14 - math.floor(math.log10(x))]
        assert (Fraction(*product.as_integer_ratio()) % 1 >= Fraction(1, 2)) != \
            (scaled(x) % 1 > Fraction(1, 2)), x
    assert_decimal_correctly_rounded(inside + outside + edge + flipped, inside + flipped)


@wide_long_double
def test_decimal_just_below_powers_of_ten():
    # The 40 doubles below each 10^k: products just below 10^15, some of
    # which round up into the next decade, and log10s that miss by one,
    # whose products fall just below 10^14.
    values = []
    for k in range(-30, 14):
        x = 10.0 ** k
        for _ in range(40):
            x = np.nextafter(x, 0)
            values.append(float(x))
    carried = [x for x in values if scaled(x) >= 10 ** 15 - Fraction(1, 2)]
    missed = [x for x in values if Fraction(x) < Fraction(10) ** math.floor(np.log10(x))]
    assert carried and missed
    assert_decimal_correctly_rounded(values, missed)
    assert not cli._decimal(np.array(carried))[2].all()  # some carries are unmasked


@wide_long_double
def test_pow10_table_is_correctly_rounded():
    for k, power in enumerate(cli._tables().pow10):
        num, den = power.as_integer_ratio()
        exact = 10 ** k
        assert den == 1
        # within half a unit in the last place of a 64-bit significand
        assert 2 * abs(num - exact) <= 1 << max(exact.bit_length() - 64, 0)


def reference_digits(count, width, pad):
    """The digit table as first built: each digit divided out of its value."""
    value = np.arange(count, dtype=np.int32)[:, None]
    place = 10 ** np.arange(width - 1, -1, -1, dtype=np.int32)
    digits = (value // place % 10 + ord("0")).astype(np.uint8)
    if pad in ("lead", "units"):
        digits[(value < place) & ~((pad == "units") & (place == 1))] = 0
    elif pad == "trim":
        digits[value % (10 * place) == 0] = 0
    return digits


@pytest.mark.parametrize("width", [3, 4])
@pytest.mark.parametrize("pad", ["", "lead", "units", "trim"])
def test_digit_tables_equal_the_per_value_builder(width, pad):
    # The fraction's 3-digit groups are read off the first 1000 rows.
    digits = cli._digits()[pad]
    assert digits.dtype == np.uint8 and digits.flags.c_contiguous
    assert np.array_equal(digits[:10 ** width, 4 - width:],
                          reference_digits(10 ** width, width, pad))


@wide_long_double
def test_pow10_table_equals_the_conversion_of_exact_integers():
    exact = np.array([10 ** k for k in range(340)], dtype=np.longdouble)
    assert np.array_equal(cli._tables().pow10, exact)


@wide_long_double
def test_per_exponent_tables_equal_their_scalar_definitions():
    # Every exponent of a positive normal double below _FAST_MAX, and 14,
    # which rounding up reaches.
    tables = cli._tables()
    low = math.floor(math.log10(cli._FAST_TINY))
    high = len(str(int(np.nextafter(cli._FAST_MAX, 0))))  # its digits: 1 + 13
    assert (low, high) == (-308, 14)
    for e in range(low, high + 1):
        assert cli._EXPONENTS[e] == e  # each table is read at index e
        places = 14 if e < -4 else 14 - e  # the fraction's digits in "%.15g"
        assert tables.scale[e] == tables.pow10[14 - e] * np.longdouble(2) ** cli._FRAC_BITS
        assert tables.divisor[e] == 10 ** places
        assert tables.shift[e] == 10 ** (18 - places)
        # the words after the fraction's groups, read at code + 1000 where
        # JSON prints an empty fraction
        ends = [tables.end[:, tables.code[e] + empty].tobytes().rstrip(b"\0").decode()
                for empty in (0, 1000)]
        assert ends == (["e-%02d" % -e] * 2 if e < -4 else ["", ".0"])
    # Every word of the digit tables, as the NUL-padded text it stands for.
    def texts(table):
        return [bytes(word).decode() for word in table.view(np.uint8).reshape(-1, 4)]

    def word(text, align=str.ljust):
        return align(text, 4, "\0")

    groups = ["%04d" % g for g in range(10_000)]
    trimmed = [word(group.rstrip("0")) for group in groups]
    assert texts(tables.lead) == groups + [word(str(g) if g else "", str.rjust)
                                           for g in range(10_000)]
    assert texts(tables.units) == groups + [word(str(g), str.rjust) for g in range(10_000)]
    assert texts(tables.frac) == groups + trimmed
    assert texts(tables.point) == (["." + group[1:] for group in groups[:1000]]
                                   + [word("")] * 9000
                                   + [word("." + group[1:].rstrip("0") if g else "")
                                      for g, group in enumerate(groups[:1000])]
                                   + [word("")] * 9000)
    # "e-XX" for XX = 0..324 (that of the least subnormal), in two words
    tails = [word(("e-%02d" % k)[4 * i:4 * i + 4]) for i in (0, 1) for k in range(325)]
    gap = [word("")] * (2001 - 1001 - 325)
    assert texts(tables.end) == ([word(("%03d" % c).rstrip("0")) for c in range(1000)]
                                 + [word(".0")] + tails[:325] + gap + tails[:325]
                                 + [word("")] * 1001 + tails[325:] + gap + tails[325:])


# ---------------------------------------------------------------------------
# The batched path through the CLI
# ---------------------------------------------------------------------------

GENERATORS8 = "XXIIIIII,ZZIIIIII,IIXXIIII,IIIIZZII"


def spy_decimal(monkeypatch):
    """Record the entries the one-pass path reads digits of, a block at a time."""
    entries = []
    decimal = cli._decimal

    def count(values):
        entries.append(values.size)
        return decimal(values)

    monkeypatch.setattr(cli, "_decimal", count)
    return entries


def engine_reference(command, generators, m, pair, fmt):
    """The reference text of an engine command on identical pairs, from
    the library's per-branch records."""
    proto = StabilizerProtocol.from_pauli_strings(generators.split(","), m)
    state = BellDiagonalState.from_pairs([pair] * proto.n)
    if command == "run-perm":
        branches = permutation.run(state, equivalence.permutation_from_stabilizer(proto))
    else:
        branches = stabilizer.run(state, proto)
    return reference(command, engine_records(command, branches), fmt, None), branches


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["run-perm", "run-code"])
def test_cli_output_above_the_cutoff_is_the_reference(monkeypatch, capsys, command,
                                                      fmt):
    entries = spy_decimal(monkeypatch)
    code = cli.main([command, "--generators", GENERATORS8, "-m", "4",
                     "--werner", "0.8", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert sum(entries) == 16 * (3 + 256)  # 16 branches, all on the one-pass path
    assert out == engine_reference(command, GENERATORS8, 4, werner(0.8), fmt)[0]


def pauli_words(labels, n):
    return ",".join(to_pauli_string(g) for g in labels)


# n=13 m=1 Werner (the shape of the benchmark's `deep` workload), n=8 m=4,
# and a sparse pair, whose input leaves some syndromes at probability zero.
ENGINE_CASES = {
    "n13m1-werner": (pauli_words(gf2.random_isotropic_generators(
        13, 12, np.random.default_rng(5)), 13), 1, "--werner", "0.8"),
    "n8m4-werner": (GENERATORS8, 4, "--werner", "0.75"),
    "n4m1-sparse": ("ZZII,XXII,IIZZ", 1, "--pair", "0.7,0,0.3,0"),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["run-perm", "run-code"])
@pytest.mark.parametrize("case", ENGINE_CASES)
def test_engine_commands_print_the_per_record_reference(capsys, case, command, fmt):
    generators, m, flag, value = ENGINE_CASES[case]
    pair = werner(float(value)) if flag == "--werner" else \
        BellDiagonalState(1, [float(x) for x in value.split(",")])
    expected, branches = engine_reference(command, generators, m, pair, fmt)
    assert cli.main([command, "--generators", generators, "-m", str(m), flag, value,
                     "--format", fmt]) == 0
    assert capsys.readouterr().out == expected
    n = len(generators.split(",")[0])
    if case == "n4m1-sparse":
        assert 0 < len(branches) < 1 << (n - m)  # zero-probability branches left out
    else:
        assert len(branches) == 1 << (n - m)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_output_without_a_wide_long_double(monkeypatch, capsys, fmt):
    argv = ["run-code", "--generators", GENERATORS8, "-m", "4", "--werner", "0.8",
            "--format", fmt]
    assert cli.main(argv) == 0
    wide = capsys.readouterr().out
    monkeypatch.setattr(cli, "_WIDE_LONGDOUBLE", False)
    calls = spy_decimal(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == wide
    assert calls == []  # every block formatted value by value


# ---------------------------------------------------------------------------
# Block boundaries: `_render` writes the records in blocks of rows
# ---------------------------------------------------------------------------

def spy_blocks(monkeypatch):
    """Record the floats of each block `_render` formats."""
    sizes = []
    tokens = cli._tokens

    def count(values, *args):
        sizes.append(values.size)
        return tokens(values, *args)

    monkeypatch.setattr(cli, "_tokens", count)
    return sizes


# Floats in each record of `records_of` arrays of this size, so that three
# records fill a block.
WIDE = cli._BLOCK_BYTES // (3 * cli._FLOAT_BYTES) - 100 + 1


def test_record_count_the_block_size_does_not_divide(monkeypatch):
    sizes = spy_blocks(monkeypatch)
    rng = np.random.default_rng(11)
    # WIDE floats a record (the array and `prob`): blocks of 3, 3, 3, 1
    records = records_of([rng.random(WIDE - 1) for _ in range(10)])
    assert_renders_as_reference(records, {"instances": 10, "passed": True})
    assert sizes == [3 * WIDE, 3 * WIDE, 3 * WIDE, WIDE] * 2


def test_values_formatted_on_their_own_in_a_later_block(monkeypatch):
    sizes = spy_blocks(monkeypatch)
    arrays = [np.full(WIDE - 1, 0.25) for _ in range(7)]
    arrays[-1][[0, 17, -1]] = [float("nan"), 5e-324, 1e15]
    arrays[-2][5] = -2.5e-310
    assert_renders_as_reference(records_of(arrays), {"failed": 1})
    assert sizes == [3 * WIDE, 3 * WIDE, WIDE] * 2


def test_final_block_below_the_per_value_cutoff(monkeypatch):
    sizes = spy_blocks(monkeypatch)
    arrays = [np.linspace(0.0, 1.0, 20) / (i + 1) for i in range(cli._BLOCK_BYTES // 400)]
    for fmt in ("json", "csv"):
        # the records a full block holds, then one more: a final block of one
        _render("run-perm", columns_of(records_of(arrays)), fmt, None)
        rows = sizes[0] // 21 + 1
        assert len(sizes) > 1 and rows < len(arrays)
        sizes.clear()
        records = records_of(arrays[:rows])
        assert _render("run-perm", columns_of(records), fmt, {"instances": rows}) == \
            reference("run-perm", records, fmt, {"instances": rows})
        # the output is large, so its small last block takes the block path too
        assert sizes == [(rows - 1) * 21, 21]
        assert sizes[1] < cli._VALUE_MAX
        sizes.clear()


def test_rows_wider_than_a_block_are_one_block_each(monkeypatch):
    sizes = spy_blocks(monkeypatch)
    rng = np.random.default_rng(12)
    width = cli._BLOCK_BYTES // cli._FLOAT_BYTES + 100
    arrays = [rng.random(width) for _ in range(3)]
    arrays[1][-1] = float("nan")
    assert_renders_as_reference(records_of(arrays), {"passed": False})
    assert sizes == [width + 1] * 6


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_engine_rows_of_4_to_the_7_floats_are_one_block_each(monkeypatch, capsys, fmt):
    expected, branches = engine_reference("run-perm", "ZZIIIIII", 7, werner(0.8), fmt)
    sizes = spy_blocks(monkeypatch)
    assert cli.main(["run-perm", "--generators", "ZZIIIIII", "-m", "7",
                     "--werner", "0.8", "--format", fmt]) == 0
    assert capsys.readouterr().out == expected
    assert sizes == [3 + 4 ** 7] * len(branches)


def test_zero_records():
    columns = {"t": [], "prob": np.zeros(0), "output": np.zeros((0, 4))}
    for summary in (None, {"passed": True}):
        assert _render("run-perm", columns, "json", summary) == \
            reference("run-perm", [], "json", summary)
        assert _render("run-perm", columns_of([]), "json", summary) == \
            reference("run-perm", [], "json", summary)
    assert _render("run-perm", columns, "csv", None) == "t,prob,output\n"


def test_text_cells_with_control_bytes_in_a_later_block(monkeypatch):
    sizes = spy_blocks(monkeypatch)
    records = records_of([np.full(WIDE - 1, 0.5) for _ in range(5)])
    records[4]["t"] = "\x00\x01\x02,\"\n\x7f"
    records[4]["generators"] = ["\x00", "a,b"]
    assert_csv_refuses_nul(records)
    # the other control bytes print in both formats
    records[4]["t"] = "\x01\x02,\"\n\x7f"
    records[4]["generators"] = ["\x01", "a,b"]
    assert_renders_as_reference(records)
    assert sizes == [3 * WIDE, 2 * WIDE] * 4


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_text_fields_count_their_rendered_width_in_a_block(monkeypatch, fmt):
    # `verify --random` records at 6 pairs: 1 float, 3 booleans and 4 text
    # fields a record, one of them a list of up to 6 Pauli words.
    rng = np.random.default_rng(13)
    records = [{"instance": i, "n": 6, "m": 6 - k,
                "generators": ["".join(rng.choice(list("IXYZ"), 6)) for _ in range(k)],
                "passed": True, "subspaces_match": True, "coset_match": bool(k % 2),
                "max_discrepancy": float(rng.random() * 1e-15)}
               for i, k in enumerate(rng.integers(1, 7, 5000).tolist())]
    sizes, cells = [], []
    block_matrix = cli._block_matrix
    text_cell = cli._json if fmt == "json" else cli._csv_cell

    def spy_block(*args):
        block = block_matrix(*args)
        sizes.append(len(block))
        return block

    def spy_cell(value, *args, **kwargs):
        cells.append(value)
        return text_cell(value, *args, **kwargs)

    monkeypatch.setattr(cli, "_block_matrix", spy_block)
    monkeypatch.setattr(cli, "_json" if fmt == "json" else "_csv_cell", spy_cell)
    assert _render("verify", columns_of(records), fmt, None) == \
        reference("verify", records, fmt, None)
    assert len(sizes) > 1 and max(sizes) <= 1.1 * cli._BLOCK_BYTES
    # each text cell rendered once (CSV: the header's keys too)
    assert len(cells) == 4 * len(records) + (len(records[0]) if fmt == "csv" else 0)


CHAIN13 = ",".join("I" * i + "ZZ" + "I" * (11 - i) for i in range(12))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nan_output_gaps_in_a_verify_block_of_many_records(monkeypatch, capsys, fmt,
                                                             edit_columns):
    # The stabilizer engine drops two branches: their output gap is NaN.
    naming = stabilizer.name_by_syndrome
    monkeypatch.setattr(stabilizer, "name_by_syndrome", lambda *args: edit_columns(
        naming(*args), lambda _, column: np.delete(column, [1000, 3000], axis=0)))
    proto = StabilizerProtocol.from_pauli_strings(CHAIN13.split(","), 1)
    report = equivalence.verify_equivalence(
        BellDiagonalState.from_pairs([werner(0.8)] * 13), proto)
    columns = report.branches.columns
    records = [{"t": format(t, "012b"), **{name: column[i].item() for name, column
                                           in list(columns.items())[1:]}}
               for i, t in enumerate(columns["t"].tolist())]
    summary = {name: getattr(report, name) for name in (
        "n", "m", "subspaces_match", "branch_sets_match", "coset_match",
        "max_discrepancy", "tolerance", "passed")}
    blocks, own = spy_decimal(monkeypatch), []
    float_token = cli._float_token

    def spy(x, fmt):
        own.append(x)
        return float_token(x, fmt)

    monkeypatch.setattr(cli, "_float_token", spy)
    assert cli.main(["verify", "--generators", CHAIN13, "--werner", "0.8",
                     "--format", fmt]) == 2
    assert capsys.readouterr().out == reference("verify", records, fmt, summary)
    assert len(records) == 4096 and len(blocks) > 1
    assert len(own) == 2 and all(map(math.isnan, own))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_block_boundaries_inside_a_run_code_output(monkeypatch, capsys, fmt):
    expected, branches = engine_reference("run-code", CHAIN13, 1, werner(0.8), fmt)
    sizes = spy_blocks(monkeypatch)
    assert cli.main(["run-code", "--generators", CHAIN13, "--werner", "0.8",
                     "--format", fmt]) == 0
    assert capsys.readouterr().out == expected
    assert len(sizes) > 1 and sum(sizes) == 7 * len(branches) == 7 * 4096
