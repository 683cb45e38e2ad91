"""Generator-measurement engine: syndromes, recovery, frozen fixtures."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from belldistill import gf2, permutation
from belldistill.gf2 import BinaryVector, Coset, Subspace
from belldistill.stabilizer import (
    StabilizerProtocol,
    generator_span,
    optimal_recovery,
    parse_pauli_string,
    run,
    syndrome_distribution,
    syndrome_of_error,
    to_pauli_string,
)
from belldistill.states import BellDiagonalState, random_bell_diagonal


def vec(s):
    return BinaryVector.from_string(s)


@pytest.fixture
def zz_proto():
    return StabilizerProtocol.from_pauli_strings(["ZZ"])


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

def test_parse_pauli_examples():
    assert parse_pauli_string("XI") == vec("0010")
    assert parse_pauli_string("Y") == vec("11")
    assert parse_pauli_string("ZZ") == vec("1100")
    assert parse_pauli_string("IZX") == vec("010001")


def test_parse_pauli_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pauli_string("XQ")


@given(st.text(alphabet="IXYZ", min_size=1, max_size=6))
def test_pauli_string_round_trip(s):
    assert to_pauli_string(parse_pauli_string(s)) == s


# ---------------------------------------------------------------------------
# Protocol validation
# ---------------------------------------------------------------------------

def test_protocol_rejects_dependent_generators():
    with pytest.raises(ValueError, match="dependent"):
        StabilizerProtocol(2, 0, (vec("1100"), vec("1100")))


def test_protocol_rejects_anticommuting_generators():
    with pytest.raises(ValueError, match="commute"):
        StabilizerProtocol(2, 0, (vec("1000"), vec("0010")))


def test_protocol_rejects_count_mismatch():
    with pytest.raises(ValueError, match="count"):
        StabilizerProtocol(2, 0, (vec("1100"),))


def test_generator_span_isotropic(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        proto = StabilizerProtocol(n, n - k, gens)
        span = generator_span(proto)
        perp = gf2.orthogonal_complement(span)
        assert all(g in perp for g in gens)  # span inside its complement


# ---------------------------------------------------------------------------
# syndrome_of_error
# ---------------------------------------------------------------------------

def test_syndrome_of_zero_error(zz_proto):
    assert syndrome_of_error(zz_proto.generators, vec("0000")) == vec("0")


def test_syndrome_of_xi_error(zz_proto):
    assert syndrome_of_error(zz_proto.generators, vec("0010")) == vec("1")


def test_syndrome_of_span_element_is_zero(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        span = Subspace.from_vectors(gens)
        for e in span.elements():
            assert syndrome_of_error(gens, e).value == 0


# ---------------------------------------------------------------------------
# syndrome_distribution
# ---------------------------------------------------------------------------

def test_syndrome_distribution_point_mass(zz_proto):
    dist = syndrome_distribution(BellDiagonalState.point_mass(2), zz_proto)
    assert dist == pytest.approx([1.0, 0.0], abs=1e-15)


def test_syndrome_distribution_werner(zz_proto, werner2):
    dist = syndrome_distribution(werner2, zz_proto)
    assert dist == pytest.approx([13 / 18, 5 / 18], abs=1e-12)


def test_syndrome_distribution_sums_to_one(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        proto = StabilizerProtocol(n, n - k, gens)
        dist = syndrome_distribution(random_bell_diagonal(n, rng), proto)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# optimal_recovery
# ---------------------------------------------------------------------------

def test_recovery_point_mass(zz_proto):
    u = optimal_recovery(BellDiagonalState.point_mass(2), zz_proto, vec("0"))
    assert u == vec("0000")


def test_recovery_werner_syndrome0(zz_proto, werner2):
    u = optimal_recovery(werner2, zz_proto, vec("0"))
    assert u == vec("0000")
    span = generator_span(zz_proto)
    assert gf2.coset_sum(werner2.probs, Coset(span, u)) == pytest.approx(
        41 / 72, abs=1e-12)


def test_recovery_werner_syndrome1_tie(zz_proto, werner2):
    # all four cosets tie at weight 10/144: the smallest logical label wins,
    # and u is the lex-least representative of its coset under the default
    # completion
    u = optimal_recovery(werner2, zz_proto, vec("1"))
    assert u == vec("0001")


def test_recovery_commutation_postcondition(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        proto = StabilizerProtocol(n, n - k, gens)
        state = random_bell_diagonal(n, rng)
        for s in range(1 << k):
            s_vec = BinaryVector(s, k)
            u = optimal_recovery(state, proto, s_vec)
            assert syndrome_of_error(gens, u) == s_vec


def test_recovery_invariant_within_coset(zz_proto, werner2):
    span = generator_span(zz_proto)
    for s in ("0", "1"):
        branch = {b.s.value: b for b in run(werner2, zz_proto)}[int(s)]
        base = gf2.coset_sum(werner2.probs, Coset(span, branch.u)) / branch.prob
        for element in span.elements():
            alt = branch.u ^ element
            fid = gf2.coset_sum(werner2.probs, Coset(span, alt)) / branch.prob
            assert fid == pytest.approx(base, abs=1e-15)


def test_recovery_zero_probability_syndrome_raises(zz_proto):
    with pytest.raises(ValueError, match="probability zero"):
        optimal_recovery(BellDiagonalState.point_mass(2), zz_proto, vec("1"))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_point_mass(zz_proto):
    branches = run(BellDiagonalState.point_mass(2), zz_proto)
    assert len(branches) == 1
    assert branches[0].s == vec("0")
    assert branches[0].fidelity == pytest.approx(1.0)
    assert branches[0].accepted


def test_run_werner_syndrome0(zz_proto, werner2):
    branches = {b.s.value: b for b in run(werner2, zz_proto)}
    good = branches[0]
    assert good.prob == pytest.approx(13 / 18, abs=1e-12)
    assert good.fidelity == pytest.approx(41 / 52, abs=1e-12)
    assert good.u == vec("0000")
    assert good.output.probs == pytest.approx(
        [41 / 52, 1 / 52, 9 / 52, 1 / 52], abs=1e-12)
    assert good.unnormalized_fidelity == pytest.approx(41 / 26, abs=1e-12)


def test_run_werner_syndrome1(zz_proto, werner2):
    # every recovery coset carries weight 10/144: the failure branch is
    # maximally mixed with fidelity 1/4 (matches the dense oracle and the
    # relabeling engine's t=1 branch)
    branches = {b.s.value: b for b in run(werner2, zz_proto)}
    bad = branches[1]
    assert bad.prob == pytest.approx(5 / 18, abs=1e-12)
    assert bad.fidelity == pytest.approx(0.25, abs=1e-12)
    assert bad.output.probs == pytest.approx([0.25] * 4, abs=1e-12)
    assert sum(b.prob for b in branches.values()) == pytest.approx(1.0, abs=1e-12)


def test_run_branch_invariants(zz_proto, werner2):
    span = generator_span(zz_proto)
    perp = gf2.orthogonal_complement(span)
    for b in run(werner2, zz_proto):
        assert syndrome_of_error(zz_proto.generators, b.v) == b.s
        assert syndrome_of_error(zz_proto.generators, b.u) == b.s
        assert (b.u ^ b.v) in perp  # recovery stays in the syndrome's cell
        assert b.output.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert b.fidelity == pytest.approx(np.max(b.output.probs), abs=1e-12)


def test_run_fidelity_matches_permutation_engine(rng):
    from belldistill.equivalence import permutation_from_stabilizer
    for _ in range(15):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(0, n))
        gens = tuple(gf2.random_isotropic_generators(n, n - m, rng))
        proto = StabilizerProtocol(n, m, gens)
        state = random_bell_diagonal(n, rng)
        code = {b.s.value: b for b in run(state, proto)}
        perm = {o.t.value: o for o in permutation.run(
            state, permutation_from_stabilizer(proto))}
        assert set(code) == set(perm)
        for s in code:
            assert code[s].fidelity == pytest.approx(perm[s].fidelity, abs=1e-12)
            assert code[s].prob == pytest.approx(perm[s].prob, abs=1e-12)


def test_run_rejects_foreign_basis(zz_proto):
    basis = gf2.complete_to_symplectic([vec("0100")], 2, 1)
    with pytest.raises(ValueError, match="column"):
        StabilizerProtocol(2, 1, zz_proto.generators, basis)


def test_run_wrong_state_size(zz_proto):
    with pytest.raises(ValueError):
        run(BellDiagonalState.point_mass(3), zz_proto)
