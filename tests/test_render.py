"""The CLI renderer against the plain `json` and `csv` rendering it replaced.

`cli._render` formats float arrays in one pass (`cli._float_tokens`).  The
reference here is the rendering that predates it: `json.dumps` of the
cleaned body, and `_format_cell` over the cleaned records, with every array
turned into a list of Python floats first.  The reference shares no array
formatting code with the renderer, so a byte-equal output means the one-pass
path prints exactly what the per-value path would.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from belldistill import permutation
from belldistill.cli import _branch_record, _clean, _float_tokens, _format_cell, _render
from belldistill.gf2 import BinaryMatrix
from belldistill.permutation import PermutationProtocol
from belldistill.states import BellDiagonalState, werner


def as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [as_lists(v) for v in value]
    return value


def reference(command, records, fmt, summary):
    records = as_lists(records)
    if fmt == "json":
        body = {"command": command, "records": records}
        if summary is not None:
            body["summary"] = summary
        return json.dumps(_clean(body), indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(records[0]))
    for rec in _clean(records):
        writer.writerow([_format_cell(v) for v in rec.values()])
    return buf.getvalue()


def assert_renders_as_reference(records, summary=None):
    for fmt in ("json", "csv"):
        assert _render("run-perm", records, fmt, summary) == \
            reference("run-perm", records, fmt, summary)


def records_of(arrays, scalar=0.5):
    return [{"t": str(i), "prob": scalar, "generators": ["ZZ", "XX"],
             "accepted": i % 2 == 0, "output": arr, "instance": i}
            for i, arr in enumerate(arrays)]


EDGES = [0.0, -0.0, 1.0, 0.9999999999999999, 5e-324, 1e-5, 1e-4, 1e14, 1e15,
         1e16, 1e17]


@pytest.mark.parametrize("x", EDGES)
def test_edge_value_renders_as_reference(x):
    arrays = [np.array([x]), np.array([x, 0.25, -x, 1 / 3]),
              np.array([-x, 2 / 3, x * 0.1])]
    assert_renders_as_reference(records_of(arrays, scalar=x))


def test_all_edge_values_in_one_array():
    edges = np.array(EDGES)
    assert_renders_as_reference(records_of([edges, -edges, edges[:7], -edges[:7]]))


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
    assert "NaN" in _render("verify", records, "json", None)


STRINGS = ["", "plain", 'a "quoted" word', "back\\slash", "caf\u00e9", "\u2028",
           "tab\tand\nnewline", "\x7f", "\U0001f600", "~ !#$%&'()*+,-./09:;<=>?@[]^_`{|}"]


@pytest.mark.parametrize("text", STRINGS)
def test_string_fields_and_keys_render_as_reference(text):
    records = records_of([np.array([0.5, 0.5])])
    for rec in records:
        rec["t"] = text
        rec["generators"] = [text, "ZZ"]
    assert_renders_as_reference(records, {text: text, "passed": True})


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
    assert_renders_as_reference(records, {text: scalar})


def test_arrays_the_one_pass_path_refuses():
    arrays = [np.array([0.5, float("nan")]), np.array([float("inf"), 0.5]),
              np.array([[0.25, 0.75], [1.0, 0.0]]), np.arange(4), np.array([])]
    assert_renders_as_reference(records_of(arrays))
    for arr in arrays[:4]:
        assert _float_tokens(arr) is None


def test_one_pass_path_is_taken_for_probabilities():
    assert _float_tokens(np.array([0.5, 1e-5, 0.0, -0.0, 1.0])) == \
        ["0.5", "1e-05", "0", "-0", "1"]
    for x in (5e-324, 1e14, 1e15):
        assert _float_tokens(np.array([0.5, x])) is None


@given(st.lists(hnp.arrays(np.float64, st.integers(0, 12),
                           elements=st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=3))
def test_finite_float_arrays_render_as_reference(arrays):
    assert_renders_as_reference(records_of(arrays))


@given(st.lists(hnp.arrays(np.float64, st.integers(1, 12),
                           elements=st.floats(-2.0, 2.0)),
                min_size=1, max_size=3))
def test_probability_sized_arrays_render_as_reference(arrays):
    assert_renders_as_reference(records_of(arrays))


def test_engine_records_render_as_reference():
    bcnot = BinaryMatrix.from_strings(["1100", "0100", "0010", "0011"])
    proto = PermutationProtocol.linear(2, 1, bcnot)
    for state in (BellDiagonalState.from_pairs([werner(0.8)] * 2),
                  BellDiagonalState.point_mass(2),
                  BellDiagonalState(2, np.full(16, 1 / 16))):
        records = [_branch_record("t", o, correction=str(o.correction))
                   for o in permutation.run(state, proto)]
        assert isinstance(records[0]["output"], np.ndarray)
        assert_renders_as_reference(records)
