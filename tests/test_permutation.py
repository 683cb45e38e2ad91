"""Relabel-and-parity-check engine: frozen fixtures, literal coset-sum checks."""

import numpy as np
import pytest

from belldistill import gf2, stabilizer
from belldistill.gf2 import BinaryMatrix, BinaryVector, Coset, Subspace
from belldistill.permutation import (
    PermutationProtocol,
    embed_label,
    measured_subspace,
    optimal_correction,
    recurrence_sweep,
    run,
    unnormalized_fidelity,
)
from belldistill.stabilizer import StabilizerProtocol, generator_span
from belldistill.states import BellDiagonalState, random_bell_diagonal, werner


def vec(s):
    return BinaryVector.from_string(s)


@pytest.fixture
def bcnot_proto(bcnot):
    return PermutationProtocol.linear(2, 1, bcnot)


# ---------------------------------------------------------------------------
# Protocol validation
# ---------------------------------------------------------------------------

def test_protocol_rejects_non_symplectic():
    bad = BinaryMatrix.from_strings(["1100", "0100", "0010", "0010"])
    with pytest.raises(ValueError, match="symplectic"):
        PermutationProtocol.linear(2, 1, bad)


def test_protocol_rejects_bad_split(bcnot):
    with pytest.raises(ValueError):
        PermutationProtocol.linear(2, 3, bcnot)


# ---------------------------------------------------------------------------
# measured_subspace
# ---------------------------------------------------------------------------

def test_measured_subspace_identity():
    proto = PermutationProtocol.linear(2, 1, BinaryMatrix.identity(4))
    assert measured_subspace(proto) == Subspace.from_vectors([vec("0100")])


def test_measured_subspace_bcnot(bcnot_proto):
    assert measured_subspace(bcnot_proto) == Subspace.from_vectors([vec("1100")])


def test_measured_subspace_isotropic(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, n + 1))
        proto = PermutationProtocol.linear(n, m, gf2.random_symplectic(n, rng))
        sub = measured_subspace(proto)
        assert sub.dim == n - m
        assert sub.is_isotropic()


# ---------------------------------------------------------------------------
# embed_label
# ---------------------------------------------------------------------------

def test_embed_zero():
    assert embed_label(vec("00"), vec("0"), 2, 1) == vec("0000")


def test_embed_documented_layouts():
    assert embed_label(vec("10"), vec("1"), 2, 1) == vec("1001")
    assert embed_label(vec("11"), vec("01"), 3, 1) == vec("100101")


def test_embed_length_checks():
    with pytest.raises(ValueError):
        embed_label(vec("1"), vec("0"), 2, 1)
    with pytest.raises(ValueError):
        embed_label(vec("10"), vec("00"), 2, 1)


# ---------------------------------------------------------------------------
# run: frozen fixture values
# ---------------------------------------------------------------------------

def test_run_point_mass_identity():
    state = BellDiagonalState.point_mass(3)
    proto = PermutationProtocol.linear(3, 1, BinaryMatrix.identity(6))
    outcomes = run(state, proto)
    assert len(outcomes) == 1  # zero-probability branches never appear
    only = outcomes[0]
    assert only.t == vec("00")
    assert only.prob == pytest.approx(1.0, abs=1e-15)
    assert only.fidelity == 1.0
    assert only.output.probs[0] == 1.0
    assert only.accepted


def test_run_werner_bcnot_branch0(bcnot_proto, werner2):
    outcomes = {o.t.value: o for o in run(werner2, bcnot_proto)}
    good = outcomes[0]
    assert good.prob == pytest.approx(13 / 18, abs=1e-12)
    assert good.output.probs == pytest.approx(
        [41 / 52, 1 / 52, 9 / 52, 1 / 52], abs=1e-12)
    assert good.fidelity == pytest.approx(41 / 52, abs=1e-12)
    assert good.correction == vec("00")
    assert good.accepted  # 41/52 >= input fidelity 9/16


def test_run_werner_bcnot_branch1(bcnot_proto, werner2):
    outcomes = {o.t.value: o for o in run(werner2, bcnot_proto)}
    bad = outcomes[1]
    assert bad.prob == pytest.approx(5 / 18, abs=1e-12)
    assert bad.output.probs == pytest.approx([0.25] * 4, abs=1e-12)
    assert bad.fidelity == pytest.approx(0.25, abs=1e-12)
    assert sum(o.prob for o in outcomes.values()) == pytest.approx(1.0, abs=1e-12)


def test_run_outputs_normalized(bcnot_proto, werner2):
    for o in run(werner2, bcnot_proto):
        assert o.output.probs.sum() == pytest.approx(1.0, abs=1e-12)
        shifted = o.output.pauli_shift(o.correction)
        assert shifted.fidelity == pytest.approx(o.fidelity, abs=1e-15)


def test_run_threshold_semantics(bcnot_proto, werner2):
    outcomes = {o.t.value: o for o in run(werner2, bcnot_proto, threshold=0.2)}
    assert outcomes[0].accepted and outcomes[1].accepted
    outcomes = {o.t.value: o for o in run(werner2, bcnot_proto, threshold=0.9)}
    assert not outcomes[0].accepted and not outcomes[1].accepted


def test_run_dimension_mismatch(bcnot_proto):
    with pytest.raises(ValueError):
        run(BellDiagonalState.point_mass(3), bcnot_proto)


# ---------------------------------------------------------------------------
# Branch table vs the literal coset-sum formulas (independent implementations)
# ---------------------------------------------------------------------------

def literal_branches(probs, sub, lift, n, m):
    """{t: (prob, weights)} from one `gf2.coset_sum` per branch and per label.

    `lift(y, t)` is an input label that the protocol sends to logical label
    y in branch t; the branch is its coset of the complement of `sub`, the
    entry its coset of `sub`.  Zero-probability branches are left out.
    """
    perp = gf2.orthogonal_complement(sub)
    branches = {}
    for t in range(1 << (n - m)):
        prob = gf2.coset_sum(probs, Coset(perp, lift(0, t)))
        if prob == 0.0:
            continue
        branches[t] = (prob, np.array([gf2.coset_sum(probs, Coset(sub, lift(y, t)))
                                       for y in range(1 << (2 * m))]))
    return branches


def tie_heavy_and_random_inputs(n, rng):
    label = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
    return [random_bell_diagonal(n, rng),
            BellDiagonalState.from_pairs([werner(0.75)] * n),
            BellDiagonalState.point_mass(n, label),
            BellDiagonalState(n, np.full(1 << (2 * n), 0.25 ** n))]


def embed(y, t, n, m):
    return embed_label(BinaryVector(y, 2 * m), BinaryVector(t, n - m), n, m)


def test_coset_path_equals_direct_path(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, n + 1))
        matrix = gf2.random_symplectic(n, rng)
        offset = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n) \
            if rng.random() < 0.5 else BinaryVector.zeros(2 * n)
        proto = PermutationProtocol(n, m, matrix, offset)
        inverse = gf2.symplectic_inverse(matrix)
        shift = (inverse @ offset).value
        gens = tuple(gf2.random_isotropic_generators(n, n - m, rng)) if m < n else ()
        basis = gf2.complete_to_symplectic(gens, n, m, rng)
        code = StabilizerProtocol(n, m, gens, basis)
        span = generator_span(code)
        for state in tie_heavy_and_random_inputs(n, rng):
            # the offset moves the input: q_x = p_{x + A^-1 b}
            q = state.probs[np.arange(len(state.probs)) ^ shift]
            literal = literal_branches(
                q, measured_subspace(proto),
                lambda y, t: inverse @ embed(y, t, n, m), n, m)
            outcomes = {o.t.value: o for o in run(state, proto)}
            assert set(outcomes) == set(literal)
            for t, (prob, weights) in literal.items():
                o = outcomes[t]
                assert o.prob == pytest.approx(prob, abs=1e-12)
                assert o.output.probs == pytest.approx(weights / prob, abs=1e-12)
                assert o.fidelity == pytest.approx(weights.max() / prob, abs=1e-12)
                assert abs(weights[o.correction.value] - weights.max()) <= 1e-15

            literal = literal_branches(
                state.probs, span, lambda y, s: basis @ embed(y, s, n, m), n, m)
            branches = {b.s.value: b for b in stabilizer.run(state, code)}
            assert set(branches) == set(literal)
            for s, (prob, weights) in literal.items():
                b = branches[s]
                assert b.prob == pytest.approx(prob, abs=1e-12)
                assert b.output.probs == pytest.approx(weights / prob, abs=1e-12)
                assert b.fidelity == pytest.approx(weights.max() / prob, abs=1e-12)
                chosen = gf2.coset_sum(state.probs, Coset(span, b.u))
                assert abs(chosen - weights.max()) <= 1e-15


# ---------------------------------------------------------------------------
# optimal_correction
# ---------------------------------------------------------------------------

def test_correction_point_mass():
    assert optimal_correction(np.array([1.0, 0, 0, 0])) == vec("00")


def test_correction_werner_branch(bcnot_proto, werner2):
    good = run(werner2, bcnot_proto)[0]
    assert optimal_correction(good.output.probs) == vec("00")


def test_correction_brute_force_optimal(rng):
    for m in (1, 2, 3):
        for _ in range(5):
            cond = rng.random(1 << (2 * m))
            cond /= cond.sum()
            best = optimal_correction(cond)
            state = BellDiagonalState(m, cond)
            achieved = state.pauli_shift(best).fidelity
            for shift in range(1 << (2 * m)):
                other = state.pauli_shift(BinaryVector(shift, 2 * m)).fidelity
                assert achieved >= other - 1e-15


def test_correction_tie_breaks_lexicographically():
    assert optimal_correction(np.array([0.25, 0.25, 0.25, 0.25])) == vec("00")
    assert optimal_correction(np.array([0.1, 0.45, 0.45, 0.0])) == vec("01")


def test_correction_rejects_empty():
    with pytest.raises(ValueError):
        optimal_correction(np.array([]))


# ---------------------------------------------------------------------------
# Numerator-coset degeneracy
# ---------------------------------------------------------------------------

def test_correction_coset_degeneracy(bcnot_proto, werner2):
    # offsets that differ by a measured-subspace element index the same coset,
    # hence the same post-correction weight
    sub = measured_subspace(bcnot_proto)
    inverse = gf2.symplectic_inverse(bcnot_proto.matrix)
    for o in run(werner2, bcnot_proto):
        abar = embed_label(o.correction, o.t, 2, 1)
        base = Coset(sub, inverse @ abar)
        weight = gf2.coset_sum(werner2.probs, base)
        for s in sub.elements():
            moved = Coset(sub, (inverse @ abar) ^ s)
            assert moved == base
            assert gf2.coset_sum(werner2.probs, moved) == pytest.approx(
                weight, abs=1e-15)


# ---------------------------------------------------------------------------
# unnormalized (literal) fidelity expression
# ---------------------------------------------------------------------------

def test_literal_fidelity_point_mass_identity():
    state = BellDiagonalState.point_mass(2)
    proto = PermutationProtocol.linear(2, 1, BinaryMatrix.identity(4))
    assert unnormalized_fidelity(state, proto, vec("0")) == pytest.approx(2.0)


def test_literal_fidelity_werner_bcnot(bcnot_proto, werner2):
    value = unnormalized_fidelity(werner2, bcnot_proto, vec("0"))
    assert value == pytest.approx(41 / 26, abs=1e-12)


def test_literal_fidelity_zero_branch_raises(bcnot_proto):
    state = BellDiagonalState.point_mass(2)
    with pytest.raises(ValueError, match="probability zero"):
        unnormalized_fidelity(state, bcnot_proto, vec("1"))


def test_literal_equals_scaled_normalized(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, n))
        proto = PermutationProtocol.linear(n, m, gf2.random_symplectic(n, rng))
        state = random_bell_diagonal(n, rng)
        for o in run(state, proto):
            literal = unnormalized_fidelity(state, proto, o.t)
            assert literal == pytest.approx(
                o.fidelity * (1 << (n - m)), rel=1e-12)
            assert o.unnormalized_fidelity == pytest.approx(literal, rel=1e-12)


# ---------------------------------------------------------------------------
# Recurrence
# ---------------------------------------------------------------------------

def test_recurrence_perfect_input(bcnot_proto):
    reports = recurrence_sweep(werner(1.0), bcnot_proto, 3)
    for i, rep in enumerate(reports, start=1):
        assert rep.fidelity == pytest.approx(1.0)
        assert rep.accept_prob == pytest.approx(1.0)
        assert rep.cumulative_yield == pytest.approx(0.5 ** i)
        assert rep.accepted


def test_recurrence_one_round(bcnot_proto):
    rep = recurrence_sweep(werner(0.75), bcnot_proto, 1)[0]
    assert rep.fidelity == pytest.approx(41 / 52, abs=1e-12)
    assert rep.accept_prob == pytest.approx(13 / 18, abs=1e-12)
    assert rep.cumulative_yield == pytest.approx(13 / 36, abs=1e-12)
    assert rep.improved and rep.accepted
    assert rep.output_pair.probs == pytest.approx(
        (41 / 52, 1 / 52, 9 / 52, 1 / 52), abs=1e-12)


def test_recurrence_second_round_degrades(bcnot_proto):
    # fed straight back, the surviving phase-error weight squares up: the
    # second round lands at 1762/2504 and is reported, not raised
    reports = recurrence_sweep(werner(0.75), bcnot_proto, 2)
    second = reports[1]
    assert second.fidelity == pytest.approx(881 / 1252, abs=1e-12)
    assert not second.improved
    assert not second.accepted
    assert second.cumulative_yield == 0.0


def test_recurrence_requires_single_survivor(bcnot):
    proto = PermutationProtocol.linear(2, 0, bcnot)
    with pytest.raises(ValueError, match="m"):
        recurrence_sweep(werner(0.75), proto, 1)


def test_recurrence_explicit_threshold(bcnot_proto):
    reports = recurrence_sweep(werner(0.75), bcnot_proto, 2, threshold=0.5)
    assert reports[1].accepted  # 0.7037 >= 0.5
    assert reports[1].cumulative_yield > 0
