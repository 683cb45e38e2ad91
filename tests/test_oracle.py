"""Dense-simulation oracle: operator identities and measurement ground truth."""

import tracemalloc

import numpy as np
import pytest

from belldistill import crosscheck, gf2, oracle, permutation
from belldistill.gf2 import BinaryVector
from belldistill.states import BellDiagonalState


def vec(s):
    return BinaryVector.from_string(s)


# ---------------------------------------------------------------------------
# Pauli words
# ---------------------------------------------------------------------------

def test_pauli_identity():
    assert np.array_equal(oracle.pauli_matrix(vec("00")), np.eye(2))


def test_pauli_y():
    expected = np.array([[0, -1j], [1j, 0]])
    assert np.array_equal(oracle.pauli_matrix(vec("11")), expected)


def test_pauli_unitary_hermitian(rng):
    for _ in range(20):
        k = int(rng.integers(1, 4))
        label = BinaryVector(int(rng.integers(0, 1 << (2 * k))), 2 * k)
        mat = oracle.pauli_matrix(label)
        assert np.allclose(mat @ mat.conj().T, np.eye(1 << k), atol=1e-14)
        assert np.allclose(mat, mat.conj().T, atol=1e-14)


def test_pauli_product_law_exhaustive_one_pair():
    for av in range(4):
        for bv in range(4):
            a, b = BinaryVector(av, 2), BinaryVector(bv, 2)
            product = oracle.pauli_matrix(a) @ oracle.pauli_matrix(b)
            target = oracle.pauli_matrix(a ^ b)
            # proportional with a unit phase from {1, -1, i, -i}
            idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
            phase = product[idx] / target[idx]
            assert abs(abs(phase) - 1) < 1e-12
            assert phase ** 4 == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(product, phase * target, atol=1e-12)


def test_commutation_rule_exhaustive_two_pairs():
    for av in range(16):
        for bv in range(16):
            a, b = BinaryVector(av, 4), BinaryVector(bv, 4)
            lhs = oracle.pauli_matrix(a) @ oracle.pauli_matrix(b)
            sign = (-1.0) ** gf2.sympl_inner(a, b)
            rhs = sign * oracle.pauli_matrix(b) @ oracle.pauli_matrix(a)
            assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# Bell-product vectors
# ---------------------------------------------------------------------------

def test_bell_vectors_one_pair():
    r = 1 / np.sqrt(2)
    assert np.allclose(oracle.bell_vector(vec("00")), [r, 0, 0, r])
    assert np.allclose(oracle.bell_vector(vec("01")), [0, r, r, 0])
    assert np.allclose(oracle.bell_vector(vec("10")), [r, 0, 0, -r])
    # the fourth one only up to a global phase
    psi_minus = oracle.bell_vector(vec("11"))
    target = np.array([0, r, -r, 0])
    overlap = abs(np.vdot(target, psi_minus))
    assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bell_basis_orthonormal(n):
    basis = oracle.bell_basis(n)
    gram = basis.conj().T @ basis
    assert np.allclose(gram, np.eye(1 << (2 * n)), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bell_basis_columns_are_bell_vectors_bit_for_bit(n):
    basis = oracle.bell_basis(n)
    assert basis.flags.c_contiguous
    for x in range(1 << (2 * n)):
        assert basis[:, x].tobytes() == oracle.bell_vector(BinaryVector(x, 2 * n)).tobytes()


def test_bell_eigenvalue_identity_exhaustive_two_pairs():
    for gv in range(16):
        for xv in range(16):
            g, x = BinaryVector(gv, 4), BinaryVector(xv, 4)
            op = np.kron(oracle.pauli_matrix(g).conj(), oracle.pauli_matrix(g))
            sign = (-1.0) ** gf2.sympl_inner(g, x)
            b = oracle.bell_vector(x)
            assert np.linalg.norm(op @ b - sign * b) < 1e-12


def test_density_matrix_physical(werner2):
    rho = oracle.density_matrix(werner2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() > -1e-10


def test_bell_basis_is_built_once_and_read_only():
    basis = oracle.bell_basis(2)
    assert oracle.bell_basis(2) is basis
    assert not basis.flags.writeable


def test_oracle_size_cap():
    with pytest.raises(ValueError):
        oracle.bell_basis(5)


# ---------------------------------------------------------------------------
# Parity measurement
# ---------------------------------------------------------------------------

def test_parity_measurement_point_mass():
    state = BellDiagonalState.point_mass(2)
    branches = oracle.simulate_parity_measurement(state, 1)
    assert len(branches) == 1
    only = branches[0]
    assert only.t == vec("0")
    assert only.prob == pytest.approx(1.0, abs=1e-12)
    assert only.probs == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_parity_measurement_werner_unpermuted(werner2):
    # no relabeling: measuring pair 2 leaves pair 1's Werner marginal intact
    branches = {b.t.value: b for b in oracle.simulate_parity_measurement(werner2, 1)}
    assert branches[0].prob == pytest.approx(5 / 6, abs=1e-12)
    assert branches[1].prob == pytest.approx(1 / 6, abs=1e-12)
    for b in branches.values():
        assert b.probs == pytest.approx([0.75, 1 / 12, 1 / 12, 1 / 12], abs=1e-12)
        assert b.bell_offdiag < 1e-10


def test_parity_measurement_werner_after_bcnot(bcnot, werner2):
    relabeled = werner2.permute(bcnot)
    branches = {b.t.value: b for b in oracle.simulate_parity_measurement(relabeled, 1)}
    assert branches[0].prob == pytest.approx(13 / 18, abs=1e-12)
    assert branches[1].prob == pytest.approx(5 / 18, abs=1e-12)
    assert branches[0].probs == pytest.approx(
        [41 / 52, 1 / 52, 9 / 52, 1 / 52], abs=1e-12)
    assert branches[1].probs == pytest.approx([0.25] * 4, abs=1e-12)
    for b in branches.values():
        assert b.bell_offdiag < 1e-10
        assert b.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_parity_measurement_preserves_bell_diagonality(rng):
    from belldistill.states import random_bell_diagonal
    for _ in range(5):
        state = random_bell_diagonal(3, rng)
        for branch in oracle.simulate_parity_measurement(state, 1):
            assert branch.bell_offdiag < 1e-10


# ---------------------------------------------------------------------------
# Syndrome measurement
# ---------------------------------------------------------------------------

def test_syndrome_point_mass_zz():
    state = BellDiagonalState.point_mass(2)
    joint = oracle.simulate_syndrome_measurement(state, (vec("1100"),))
    diff = oracle.syndrome_difference_distribution(joint)
    assert diff[0] == pytest.approx(1.0, abs=1e-12)
    assert diff[1] == pytest.approx(0.0, abs=1e-12)


def test_syndrome_werner_zz(werner2):
    joint = oracle.simulate_syndrome_measurement(werner2, (vec("1100"),))
    diff = oracle.syndrome_difference_distribution(joint)
    assert diff[0] == pytest.approx(13 / 18, abs=1e-12)
    assert diff[1] == pytest.approx(5 / 18, abs=1e-12)


def test_syndrome_outcomes_deterministic_on_bell_products():
    # outcome difference on a pure Bell product equals the commutation bits
    gens = (vec("1100"), vec("0011"))
    for xv in range(16):
        x = BinaryVector(xv, 4)
        state = BellDiagonalState.point_mass(2, x)
        joint = oracle.simulate_syndrome_measurement(state, gens)
        diff = oracle.syndrome_difference_distribution(joint)
        expected = (gf2.sympl_inner(gens[0], x) << 1) | gf2.sympl_inner(gens[1], x)
        assert diff[expected] == pytest.approx(1.0, abs=1e-10)


def test_alice_marginal_uniform(werner2):
    joint = oracle.simulate_syndrome_measurement(werner2, (vec("1100"),))
    marginal = joint.sum(axis=1)
    assert marginal == pytest.approx([0.5, 0.5], abs=1e-12)


def test_syndrome_measurement_holds_no_full_register_projector(rng):
    # at the cap, n = 4 and k = 4 generators: one 4^n x 4^n complex matrix
    # is 1 MiB, and holding every projector of both sides took 46 MB
    state = BellDiagonalState(4, rng.dirichlet(np.ones(256)))
    gens = tuple(gf2.random_isotropic_generators(4, 4, rng))
    oracle.bell_basis(4)  # built once per n and cached
    tracemalloc.start()
    try:
        joint = oracle.simulate_syndrome_measurement(state, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joint.shape == (16, 16)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)
    assert peak < 8 << 20


@pytest.mark.parametrize("module, name", [(permutation, "run"),
                                          (oracle, "simulate_parity_measurement")])
def test_parity_check_counts_a_missing_branch_as_its_probability(
        monkeypatch, edit_columns, module, name):
    # a branch that only one side reports is an error of its whole weight;
    # the engine gives a branch set, the oracle a list of branches
    original, dropped = getattr(module, name), []

    def drop_first(*args):
        branches = original(*args)
        if isinstance(branches, list):
            dropped.append(branches[0].prob)
            return branches[1:]
        dropped.append(float(branches.prob[0]))
        return edit_columns(branches, lambda _, column: column[1:])

    monkeypatch.setattr(module, name, drop_first)
    result = crosscheck.check_parity_measurement((2,), 1, np.random.default_rng(5))
    assert result.max_error == dropped[0] > result.tolerance
    assert not result.passed
