"""Translation between the two protocol families and instance-level checks."""

import numpy as np
import pytest

from belldistill import gf2, stabilizer
from belldistill.equivalence import (
    permutation_from_stabilizer,
    random_instance,
    stabilizer_from_permutation,
    verify_equivalence,
)
from belldistill.gf2 import BinaryMatrix, BinaryVector, Subspace
from belldistill.permutation import PermutationProtocol, embed_label, measured_subspace
from belldistill.stabilizer import StabilizerProtocol, generator_span
from belldistill.states import BellDiagonalState, random_bell_diagonal, werner


def vec(s):
    return BinaryVector.from_string(s)


# ---------------------------------------------------------------------------
# permutation_from_stabilizer
# ---------------------------------------------------------------------------

def test_perm_from_zz_measures_generator_span():
    proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
    pp = permutation_from_stabilizer(proto)
    assert gf2.is_symplectic(pp.matrix)
    assert measured_subspace(pp) == Subspace.from_vectors([vec("1100")])


def test_perm_from_empty_generators_is_identity():
    proto = StabilizerProtocol(2, 2, ())
    pp = permutation_from_stabilizer(proto)
    assert pp.matrix == BinaryMatrix.identity(4)


def test_round_trip_preserves_span(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        proto = StabilizerProtocol(n, n - k, gens)
        back = stabilizer_from_permutation(permutation_from_stabilizer(proto))
        assert generator_span(back) == generator_span(proto)


# ---------------------------------------------------------------------------
# stabilizer_from_permutation
# ---------------------------------------------------------------------------

def test_stabilizer_from_bcnot(bcnot):
    proto = PermutationProtocol.linear(2, 1, bcnot)
    sp = stabilizer_from_permutation(proto)
    assert sp.generators == (vec("1100"),)
    assert stabilizer.to_pauli_string(sp.generators[0]) == "ZZ"


def test_stabilizer_from_identity():
    proto = PermutationProtocol.linear(2, 1, BinaryMatrix.identity(4))
    sp = stabilizer_from_permutation(proto)
    assert sp.generators == (vec("0100"),)
    assert stabilizer.to_pauli_string(sp.generators[0]) == "IZ"


def test_stabilizer_from_random_permutation_valid(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, n))
        proto = PermutationProtocol.linear(n, m, gf2.random_symplectic(n, rng))
        sp = stabilizer_from_permutation(proto)  # constructor revalidates
        assert len(sp.generators) == n - m


# ---------------------------------------------------------------------------
# Completion identities used by the branch matching
# ---------------------------------------------------------------------------

def test_completion_embedding_identities(rng):
    # column n+m+i pairs only with generator i, so the embedded outcome
    # vector has exactly the commutation pattern of the branch it labels:
    # (B 0bar_t)^T P g_i = t_i, and every B ybar stays in that same cell.
    for _ in range(15):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        m = n - k
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        basis = gf2.complete_to_symplectic(gens, n, m)
        span = Subspace.from_vectors(gens)
        perp = gf2.orthogonal_complement(span)
        for t in range(1 << k):
            t_vec = BinaryVector(t, k)
            anchor = basis @ embed_label(BinaryVector.zeros(2 * m), t_vec, n, m)
            for i, g in enumerate(gens):
                assert gf2.sympl_inner(anchor, g) == t_vec.bit(i)
            for y in range(1 << (2 * m)):
                moved = basis @ embed_label(BinaryVector(y, 2 * m), t_vec, n, m)
                assert (moved ^ anchor) in perp


# ---------------------------------------------------------------------------
# verify_equivalence
# ---------------------------------------------------------------------------

def test_verify_point_mass_zz():
    proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
    report = verify_equivalence(BellDiagonalState.point_mass(2), proto)
    assert report.passed
    assert report.max_discrepancy == 0.0
    assert report.subspaces_match and report.coset_match


def test_verify_werner_zz(werner2):
    proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
    report = verify_equivalence(werner2, proto)
    assert report.passed
    fidelities = {b.t.value: (b.fidelity_perm, b.fidelity_code)
                  for b in report.branches}
    assert fidelities[0] == pytest.approx((41 / 52, 41 / 52), abs=1e-12)
    assert fidelities[1] == pytest.approx((0.25, 0.25), abs=1e-12)


def test_verify_random_batch(rng):
    for _ in range(40):
        state, proto = random_instance(rng)
        report = verify_equivalence(state, proto)
        assert report.passed, report.to_dict()
        assert report.max_discrepancy <= 1e-12


def test_verify_tie_heavy_inputs_random_completions(rng):
    # Werner, point-mass and uniform inputs tie many cosets exactly; both
    # engines read the same branch table, so they still pick the same coset
    for n in range(2, 6):
        for _ in range(6):
            m = int(rng.integers(0, n))
            gens = tuple(gf2.random_isotropic_generators(n, n - m, rng))
            label = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
            for state in (BellDiagonalState.from_pairs([werner(0.75)] * n),
                          BellDiagonalState.point_mass(n, label),
                          BellDiagonalState(n, np.full(1 << (2 * n), 0.25 ** n))):
                frame = gf2.complete_to_symplectic(gens, n, m, rng)
                report = verify_equivalence(state, StabilizerProtocol(n, m, gens, frame))
                assert report.passed, report.to_dict()
                assert report.max_discrepancy == 0.0


def test_fidelity_invariant_across_completions(rng):
    # at least three distinct completions per instance must agree on every
    # branch probability and fidelity
    for _ in range(10):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, n))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        state = random_bell_diagonal(n, rng)
        completions = {}
        for seed in range(12):
            b = gf2.complete_to_symplectic(
                gens, n, n - k, np.random.default_rng(seed))
            completions[b.rows] = b
            if len(completions) >= 3:
                break
        assert len(completions) >= 3
        reference = None
        for basis in completions.values():
            branches = stabilizer.run(state, StabilizerProtocol(n, n - k, gens, basis))
            stats = {br.s.value: (br.prob, br.fidelity) for br in branches}
            if reference is None:
                reference = stats
            else:
                assert set(stats) == set(reference)
                for s, (p, f) in stats.items():
                    assert p == pytest.approx(reference[s][0], abs=1e-12)
                    assert f == pytest.approx(reference[s][1], abs=1e-12)


def test_verify_report_serializable(werner2):
    proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
    report = verify_equivalence(werner2, proto)
    data = report.to_dict()
    assert data["passed"] is True
    assert len(data["branches"]) == 2
    import json
    json.dumps(data)  # must be plain JSON types
