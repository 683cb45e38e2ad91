"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from belldistill import crosscheck, gf2, oracle, permutation, stabilizer
from belldistill.cli import main as cli_main
from belldistill.equivalence import (random_instance, stabilizer_from_permutation,
                                     verify_equivalence)
from belldistill.gf2 import BinaryMatrix, BinaryVector, Coset, Subspace
from belldistill.permutation import PermutationProtocol
from belldistill.stabilizer import StabilizerProtocol
from belldistill.states import BellDiagonalState, random_bell_diagonal, werner

BCNOT = BinaryMatrix.from_strings(["1100", "0100", "0010", "0011"])


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_recurrence_fixture():
    """Two Werner(0.75) pairs, bilateral CNOT == stabilizer {ZZ}: frozen values."""
    with criterion(1, "recurrence fixture"):
        start = time.perf_counter()
        state = BellDiagonalState.from_pairs([werner(0.75)] * 2)
        # conditional output by logical label: 00 -> 41/52, 01 -> 1/52,
        # 10 -> 9/52, 11 -> 1/52 (phase errors survive the parity check)
        expected = {0b00: 41 / 52, 0b01: 1 / 52, 0b10: 9 / 52, 0b11: 1 / 52}

        perm_proto = PermutationProtocol.linear(2, 1, BCNOT)
        good = permutation.run(state, perm_proto)
        assert good.t[0] == 0
        assert abs(good.prob[0] - 13 / 18) <= 1e-12
        assert abs(good.fidelity[0] - 41 / 52) <= 1e-12
        assert abs(good.fidelity[0] - 0.788461538461) <= 1e-9
        for label, value in expected.items():
            assert abs(good.output[0, label] - value) <= 1e-12

        code_proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
        branch = stabilizer.run(state, code_proto)
        assert branch.s[0] == 0
        assert abs(branch.prob[0] - 13 / 18) <= 1e-12
        assert abs(branch.fidelity[0] - 41 / 52) <= 1e-12
        for label, value in expected.items():
            assert abs(branch.output[0, label] - value) <= 1e-12

        # independent dense check of the same numbers
        dense = {b.t.value: b for b in oracle.simulate_parity_measurement(
            state.permute(BCNOT), 1)}[0]
        assert abs(dense.prob - 13 / 18) <= 1e-10
        for label, value in expected.items():
            assert abs(dense.output.probs[label] - value) <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_2_equivalence_theorem_suite():
    """200 random instances: both engines agree branchwise to 1e-12."""
    with criterion(2, "equivalence theorem suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            state, proto = random_instance(rng, sizes=(2, 3, 4))
            assert 0 <= proto.m < proto.n
            report = verify_equivalence(state, proto)
            assert report.subspaces_match
            assert report.branch_sets_match
            assert report.coset_match          # C + B abar == C + u per branch
            assert report.max_discrepancy <= 1e-12
        assert time.perf_counter() - start < 30.0


def test_criterion_3_oracle_equivalence():
    """Label-level engines match the dense oracle entrywise to 1e-10."""
    with criterion(3, "oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(31)
        parity = crosscheck.check_parity_measurement((2, 3), 50, rng)
        assert parity.cases >= 50
        assert parity.max_error <= 1e-10
        syndrome = crosscheck.check_syndrome_measurement((2, 3), 50, rng)
        assert syndrome.cases >= 50
        assert syndrome.max_error <= 1e-10
        assert time.perf_counter() - start < 60.0


def test_criterion_4_commutation_eigenvalue_identities():
    """Exhaustive n <= 2, randomized n = 3 operator identities."""
    with criterion(4, "commutation and eigenvalue identities"):
        for n in (1, 2):
            size = 1 << (2 * n)
            for av in range(size):
                a = BinaryVector(av, 2 * n)
                mat_a = oracle.pauli_matrix(a)
                for bv in range(size):
                    b = BinaryVector(bv, 2 * n)
                    mat_b = oracle.pauli_matrix(b)
                    sign = (-1.0) ** gf2.sympl_inner(a, b)
                    assert np.array_equal(mat_a @ mat_b, sign * (mat_b @ mat_a))
            for gv in range(size):
                g = BinaryVector(gv, 2 * n)
                op = np.kron(oracle.pauli_matrix(g).conj(), oracle.pauli_matrix(g))
                for xv in range(size):
                    x = BinaryVector(xv, 2 * n)
                    vec = oracle.bell_vector(x)
                    sign = (-1.0) ** gf2.sympl_inner(g, x)
                    assert np.linalg.norm(op @ vec - sign * vec) <= 1e-12
        rng = np.random.default_rng(4)
        commutation = crosscheck.check_commutation_rule(60, rng, pairs=3)
        eigenvalue = crosscheck.check_bell_eigenvalue(60, rng, pairs=3)
        assert commutation.passed and eigenvalue.passed


def test_criterion_5_gf2_layer(random_frame):
    """1000 randomized algebra checks plus completion postconditions."""
    with criterion(5, "GF(2) layer"):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            a = gf2.random_symplectic(n, rng)
            b = gf2.random_symplectic(n, rng)
            assert gf2.is_symplectic(a @ b)
            assert a @ gf2.symplectic_inverse(a) == BinaryMatrix.identity(2 * n)
            vecs = [BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
                    for _ in range(int(rng.integers(0, n + 1)))]
            sub = Subspace.from_vectors(vecs, length=2 * n)
            perp = gf2.orthogonal_complement(sub)
            assert sub.dim + perp.dim == 2 * n
            assert gf2.orthogonal_complement(perp) == sub

        for _ in range(100):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 1))
            gens = gf2.random_isotropic_generators(n, k, rng)
            basis = gf2.complete_to_symplectic(gens, n)
            assert gf2.is_symplectic(basis)
            cols = basis.column_values()
            m = n - k
            for i, g in enumerate(gens):
                assert cols[m + i] == g.value
                partner = BinaryVector(cols[n + m + i], 2 * n)
                for j in range(2 * n):
                    expected = 1 if j == m + i else 0
                    assert gf2.sympl_inner(
                        partner, BinaryVector(cols[j], 2 * n)) == expected

        # fidelity invariance across at least three distinct completions
        for _ in range(8):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(1, n))
            gens = tuple(gf2.random_isotropic_generators(n, k, rng))
            state = random_bell_diagonal(n, rng)
            seen = {}
            for seed in range(16):
                basis = random_frame(gens, n, np.random.default_rng(seed))
                seen[basis.rows] = basis
                if len(seen) >= 3:
                    break
            assert len(seen) >= 3
            reference = None
            for basis in seen.values():
                proto = stabilizer_from_permutation(PermutationProtocol.linear(
                    n, n - k, gf2.symplectic_inverse(basis)))
                branches = stabilizer.run(state, proto)
                if reference is None:
                    reference = branches
                    continue
                assert np.array_equal(branches.s, reference.s)
                assert np.abs(branches.prob - reference.prob).max() <= 1e-12
                assert np.abs(branches.fidelity - reference.fidelity).max() <= 1e-12


def test_criterion_6_correction_optimality():
    """Brute force over all 4**m shifts; degenerate cosets tie exactly."""
    with criterion(6, "correction optimality"):
        rng = np.random.default_rng(66)
        for m in (1, 2, 3):
            for _ in range(15):
                cond = rng.random(1 << (2 * m))
                cond /= cond.sum()
                state = BellDiagonalState(m, cond)
                best = permutation.optimal_correction(state.probs)
                achieved = state.pauli_shift(best).fidelity
                for shift in range(1 << (2 * m)):
                    other = state.pauli_shift(
                        BinaryVector(shift, 2 * m)).fidelity
                    assert achieved >= other - 1e-15

        # every element of the recovery coset yields the same fidelity
        for _ in range(20):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, n))
            gens = tuple(gf2.random_isotropic_generators(n, k, rng))
            proto = StabilizerProtocol(n, n - k, gens)
            state = random_bell_diagonal(n, rng)
            span = permutation.measured_subspace(proto)
            for u in stabilizer.run(state, proto).u.tolist():
                u = BinaryVector(u, 2 * n)
                base = gf2.coset_sum(state.probs, Coset(span, u))
                for element in span.elements():
                    alt = gf2.coset_sum(state.probs, Coset(span, u ^ element))
                    assert abs(alt - base) <= 1e-15


def test_criterion_7_prefactor_audit():
    """Literal expression == normalized fidelity x 2**(n-m), everywhere."""
    with criterion(7, "prefactor audit"):
        state = BellDiagonalState.from_pairs([werner(0.75)] * 2)
        proto = PermutationProtocol.linear(2, 1, BCNOT)
        good = permutation.run(state, proto)
        assert good.t[0] == 0
        assert abs(good.unnormalized_fidelity[0] - 2 * good.fidelity[0]) <= 1e-12
        assert abs(good.unnormalized_fidelity[0] - 41 / 26) <= 1e-12

        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(0, n))
            factor = 1 << (n - m)
            instance = random_bell_diagonal(n, rng)
            matrix = gf2.random_symplectic(n, rng)
            offset = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
            pp = PermutationProtocol(n, m, matrix, offset)
            outcomes = permutation.run(instance, pp)
            assert np.abs(outcomes.unnormalized_fidelity - factor * outcomes.fidelity) \
                .max() <= 1e-12 * factor
            for t, fidelity in zip(outcomes.t.tolist(), outcomes.fidelity):
                literal = permutation.unnormalized_fidelity(
                    instance, pp, BinaryVector(t, n - m))
                assert abs(literal - factor * fidelity) <= 1e-12 * factor
            gens = tuple(gf2.random_isotropic_generators(n, n - m, rng))
            branches = stabilizer.run(instance, StabilizerProtocol(n, m, gens))
            assert np.abs(branches.unnormalized_fidelity - factor * branches.fidelity) \
                .max() <= 1e-12 * factor


def test_criterion_8_determinism(capsys):
    """Fixed seeds give byte-identical reports, engine- and CLI-level."""
    with criterion(8, "determinism"):
        def run_cli(argv):
            code = cli_main(argv)
            out = capsys.readouterr().out
            return code, out

        for argv in (
            ["verify", "--random", "10", "--seed", "5"],
            ["oracle-check", "--sizes", "2", "--count", "4", "--seed", "2"],
            ["run-perm", "--matrix", "1100,0100,0010,0011", "-m", "1",
             "--werner", "0.75"],
            ["run-code", "--generators", "ZZ", "--werner", "0.75",
             "--format", "csv"],
            ["sweep", "--generators", "ZZ", "--grid", "0.55:0.95:0.05",
             "--rounds", "2"],
        ):
            code_a, out_a = run_cli(argv)
            code_b, out_b = run_cli(argv)
            assert code_a == code_b == 0
            assert out_a == out_b
            assert out_a  # something was actually reported

        def engine_report(seed):
            rng = np.random.default_rng(seed)
            blobs = []
            for _ in range(5):
                state, proto = random_instance(rng, (2, 3, 4))
                rep = verify_equivalence(state, proto)
                blobs.append(json.dumps([rep.n, rep.m, rep.subspaces_match,
                                         rep.branch_sets_match, rep.coset_match,
                                         rep.max_discrepancy]))
                blobs += [column.tobytes().hex()
                          for column in rep.branches.columns.values()]
            return "\n".join(blobs)

        assert engine_report(9) == engine_report(9)
