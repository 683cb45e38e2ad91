"""Bell-diagonal state construction, label operations, serialization."""

import json
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from belldistill import gf2
from belldistill.gf2 import BinaryVector
from belldistill.states import (BellDiagonalState, random_bell_diagonal, werner,
                                werner_pair)


def vec(s):
    return BinaryVector.from_string(s)


# ---------------------------------------------------------------------------
# single pairs / werner
# ---------------------------------------------------------------------------

def test_werner_extremes():
    assert tuple(werner(1.0).probs) == (1.0, 0.0, 0.0, 0.0)
    assert werner(0.25).probs == pytest.approx((0.25,) * 4)


def test_werner_three_quarters():
    w = werner(0.75)
    assert w.n == 1
    assert w.probs == pytest.approx((0.75, 1 / 12, 1 / 12, 1 / 12))
    assert w.fidelity == pytest.approx(0.75)
    assert w.prob(vec("10")) == pytest.approx(1 / 12)


def test_werner_warns_below_quarter():
    text = "Werner fidelity 0.2 is below 1/4: state is not distillable"
    with pytest.warns(UserWarning, match=re.escape(text)):
        pair = werner(0.2)
    # `werner_pair` gives the same pair and the text without the warning,
    # which pytest would turn into an error
    quiet, warning = werner_pair(0.2)
    assert warning == text and np.array_equal(quiet.probs, pair.probs)
    assert werner_pair(0.25)[1] is None


def test_werner_rejects_out_of_range():
    with pytest.raises(ValueError):
        werner(1.2)
    with pytest.raises(ValueError):
        werner(-0.1)


def test_pair_distribution_validation():
    with pytest.raises(ValueError):
        BellDiagonalState(1, (0.5, 0.5, 0.25, -0.25))
    with pytest.raises(ValueError):
        BellDiagonalState(1, (0.5, 0.1, 0.1, 0.1))


# ---------------------------------------------------------------------------
# from_pairs
# ---------------------------------------------------------------------------

def test_from_pairs_point_mass():
    state = BellDiagonalState.from_pairs([BellDiagonalState(1, (1.0, 0.0, 0.0, 0.0))])
    assert state.probs[0] == 1.0
    assert state.fidelity == 1.0


def test_from_pairs_werner_products(werner2):
    assert werner2.prob(vec("0000")) == pytest.approx(9 / 16)
    assert werner2.prob(vec("1100")) == pytest.approx(1 / 144)
    # label (phase1=0, phase2=1 | parity1=0, parity2=1): pairs (0,0) and (1,1)
    assert werner2.prob(vec("0101")) == pytest.approx((3 / 4) * (1 / 12))


@given(st.lists(st.tuples(*[st.floats(0.01, 1) for _ in range(4)]),
                min_size=1, max_size=3))
def test_from_pairs_normalized(raw):
    pairs = [BellDiagonalState(1, [x / sum(w) for x in w]) for w in raw]
    state = BellDiagonalState.from_pairs(pairs)
    assert state.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert state.fidelity == pytest.approx(
        np.prod([p.fidelity for p in pairs]), abs=1e-12)


def test_from_pairs_empty_rejected():
    with pytest.raises(ValueError):
        BellDiagonalState.from_pairs([])


def test_from_pairs_equals_per_label_products(rng):
    pairs = [BellDiagonalState(1, w / w.sum()) for w in rng.random((3, 4))]
    state = BellDiagonalState.from_pairs(pairs)
    for x in range(1 << 6):
        expected = 1.0
        for i, pair in enumerate(pairs):
            expected *= pair.probs[2 * ((x >> (5 - i)) & 1) + ((x >> (2 - i)) & 1)]
        # construction renormalizes once, which may move the last bit
        assert state.probs[x] == pytest.approx(expected, rel=1e-15)


def test_from_pairs_bit_equals_normalized_kron_chain(rng):
    # the strided products must reproduce the Kronecker chain and the
    # constructor's division bit for bit, signed zeros included
    pool = [BellDiagonalState(1, w / w.sum()) for w in rng.random((4, 4))]
    pool += [BellDiagonalState(1, (0.5, 0.0, 0.5, 0.0)),
             BellDiagonalState(1, (0.5, -0.0, 0.25, 0.25)),
             BellDiagonalState(1, (1.0, -0.0, -0.0, 0.0)),
             werner(0.8)]
    # this product sums to 1 - 1.2e-15, where dividing by the total and
    # multiplying by its reciprocal give different bits
    drifting = [BellDiagonalState(1, (0.81, 0.07, 0.07, 0.05))] * 5
    draws = [[pool[i] for i in rng.integers(0, len(pool), n)] for n in range(1, 10)]
    for pairs in [drifting, *draws]:
        chain = reduce(np.kron, [p.probs.reshape(2, 2) for p in pairs]).ravel()
        expected = chain / chain.sum()
        state = BellDiagonalState.from_pairs(pairs)
        assert np.array_equal(state.probs.view(np.int64), expected.view(np.int64))
        assert not state.probs.flags.writeable
    assert np.signbit(BellDiagonalState.from_pairs([pool[-2]] * 2).probs).any()


def test_from_pairs_keeps_a_dense_head_and_one_factor_per_further_pair(rng):
    pairs = [BellDiagonalState(1, w / w.sum()) for w in rng.random((11, 4))]
    for n in (1, 8, 9, 11):
        state = BellDiagonalState.from_pairs(pairs[:n])
        head = BellDiagonalState.from_pairs(pairs[:min(n, 8)])
        assert len(state.factors) == 1 + max(n - 8, 0)
        assert np.array_equal(state.factors[0].view(np.int64), head.probs.view(np.int64))
        assert all(f is p.probs for f, p in zip(state.factors[1:], pairs[8:n]))
        # the fidelity is read off the factors; the dense table agrees
        assert state.fidelity == pytest.approx(float(state.probs[0]), rel=1e-14)
        assert state.fidelity == pytest.approx(np.prod([p.fidelity for p in pairs[:n]]),
                                               rel=1e-14)


def test_dense_state_is_one_factor(rng):
    state = random_bell_diagonal(3, rng)
    assert len(state.factors) == 1 and state.factors[0] is state.probs
    assert state.fidelity == state.probs[0]


def test_random_draw_holds_one_table():
    # The draw shifts and normalizes its one 4**n array in place, so its
    # traced peak stays near that table; its weights are bit for bit those
    # of the out-of-place formula, a new array at each step.
    n = 8
    table_bytes = 8 << (2 * n)
    for seed in range(3):
        tracemalloc.start()
        try:
            state = random_bell_diagonal(n, np.random.default_rng(seed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table_bytes
        raw = np.random.default_rng(seed).random(1 << (2 * n)) + 1e-12
        expected = BellDiagonalState(n, raw / raw.sum()).probs
        assert np.array_equal(state.probs.view(np.int64), expected.view(np.int64))
        assert not state.probs.flags.writeable


def test_pair_count_above_cap_refused_before_allocation(rng):
    n = gf2.MAX_PAIRS + 1
    with pytest.raises(ValueError, match="pair count"):
        BellDiagonalState.from_pairs([werner(0.8)] * n)
    with pytest.raises(ValueError, match="pair count"):
        BellDiagonalState.point_mass(n)
    with pytest.raises(ValueError, match="pair count"):
        random_bell_diagonal(n, rng)


# ---------------------------------------------------------------------------
# Construction guards
# ---------------------------------------------------------------------------

def test_sum_drift_is_error():
    with pytest.raises(ValueError):
        BellDiagonalState(1, [0.5, 0.2, 0.1, 0.1])


def test_negative_weight_is_error():
    with pytest.raises(ValueError):
        BellDiagonalState(1, [1.1, -0.1, 0.0, 0.0])


def test_wrong_size_is_error():
    with pytest.raises(ValueError):
        BellDiagonalState(2, [1.0, 0.0, 0.0, 0.0])


def test_immutability():
    state = BellDiagonalState.point_mass(1)
    with pytest.raises(AttributeError):
        state.n = 2
    with pytest.raises(ValueError):
        state.probs[0] = 0.5


def test_fidelity_examples():
    assert BellDiagonalState.point_mass(2).fidelity == 1.0
    assert BellDiagonalState.from_pairs([werner(0.75)]).fidelity == pytest.approx(0.75)
    uniform = BellDiagonalState(2, np.full(16, 1 / 16))
    assert uniform.fidelity == pytest.approx(1 / 16)


# ---------------------------------------------------------------------------
# pauli_shift
# ---------------------------------------------------------------------------

def test_shift_identity(werner2):
    assert werner2.pauli_shift(vec("0000")) is werner2


def test_shift_involution(werner2):
    a = vec("0110")
    twice = werner2.pauli_shift(a).pauli_shift(a)
    assert np.array_equal(twice.probs, werner2.probs)


def test_shift_moves_max_weight_to_fidelity(rng):
    state = random_bell_diagonal(2, rng)
    a = BinaryVector(int(np.argmax(state.probs)), 4)
    shifted = state.pauli_shift(a)
    assert shifted.fidelity == np.max(state.probs)
    assert shifted.fidelity == state.prob(a)


def test_shift_length_mismatch(werner2):
    with pytest.raises(ValueError):
        werner2.pauli_shift(vec("01"))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_round_trip(werner2):
    blob = json.dumps(werner2.to_dict())
    back = BellDiagonalState.from_dict(json.loads(blob))
    assert back.n == werner2.n
    assert np.array_equal(back.probs, werner2.probs)


def test_to_dict_lists_python_floats(werner2):
    probs = werner2.to_dict()["probs"]
    assert all(type(p) is float for p in probs)
    assert probs == [float(p) for p in werner2.probs]


def test_from_pairs_takes_single_pairs(werner2):
    single = BellDiagonalState.from_pairs([werner(0.6)])
    assert single.n == 1
    assert np.array_equal(single.probs, werner(0.6).probs)
    with pytest.raises(ValueError, match="1-pair"):
        BellDiagonalState.from_pairs([werner2])
