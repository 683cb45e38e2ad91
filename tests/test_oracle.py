"""Dense-simulation oracle: operator identities and measurement ground truth."""

import tracemalloc

import numpy as np
import pytest

from belldistill import crosscheck, equivalence, gf2, oracle, permutation, stabilizer
from belldistill.gf2 import BinaryVector
from belldistill.permutation import PermutationProtocol
from belldistill.states import BellDiagonalState, random_bell_diagonal, werner


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


def kron_chain(label):
    """The Pauli word as first built: a chain of `np.kron` calls."""
    k = label.pair_count
    out = np.array([[1.0 + 0.0j]])
    for i in range(k):
        out = np.kron(out, oracle._SINGLE[(label.bit(i), label.bit(k + i))])
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_words_and_bell_vectors_are_the_kron_chain_bit_for_bit(n):
    for x in range(1 << (2 * n)):
        label = BinaryVector(x, 2 * n)
        word = kron_chain(label)
        assert oracle.pauli_matrix(label).tobytes() == word.tobytes()
        assert oracle.bell_vector(label).tobytes() == \
            (word / np.sqrt(2.0 ** n)).reshape(-1).tobytes()


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
        word = kron_chain(BinaryVector(x, 2 * n))
        assert basis[:, x].tobytes() == (word / np.sqrt(2.0 ** n)).reshape(-1).tobytes()


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


def test_pauli_words_beyond_the_cap_are_refused_before_allocating():
    # at MAX_ORACLE_PAIRS + 1 the word would be a 32 x 32 complex matrix
    k = oracle.MAX_ORACLE_PAIRS + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="oracle capped at"):
            oracle.pauli_matrix(BinaryVector((1 << (2 * k)) - 1, 2 * k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << (2 * k)


# ---------------------------------------------------------------------------
# Parity measurement
# ---------------------------------------------------------------------------

def test_parity_measurement_point_mass():
    state = BellDiagonalState.point_mass(2)
    branches = oracle.simulate_parity_measurement(state, 1)
    assert len(branches) == 1
    only, = branches
    assert only.t == vec("0")
    assert only.prob == pytest.approx(1.0, abs=1e-12)
    assert only.output.probs == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_parity_measurement_werner_unpermuted(werner2):
    # no relabeling: measuring pair 2 leaves pair 1's Werner marginal intact
    branches = {b.t.value: b for b in oracle.simulate_parity_measurement(werner2, 1)}
    assert branches[0].prob == pytest.approx(5 / 6, abs=1e-12)
    assert branches[1].prob == pytest.approx(1 / 6, abs=1e-12)
    for b in branches.values():
        assert b.output.probs == pytest.approx([0.75, 1 / 12, 1 / 12, 1 / 12], abs=1e-12)
        assert b.bell_offdiag < 1e-10


def test_parity_measurement_werner_after_bcnot(bcnot, werner2, relabel):
    relabeled = relabel(werner2, bcnot)
    branches = {b.t.value: b for b in oracle.simulate_parity_measurement(relabeled, 1)}
    assert branches[0].prob == pytest.approx(13 / 18, abs=1e-12)
    assert branches[1].prob == pytest.approx(5 / 18, abs=1e-12)
    assert branches[0].output.probs == pytest.approx(
        [41 / 52, 1 / 52, 9 / 52, 1 / 52], abs=1e-12)
    assert branches[1].output.probs == pytest.approx([0.25] * 4, abs=1e-12)
    for b in branches.values():
        assert b.bell_offdiag < 1e-10
        assert b.output.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # the engine on the same protocol, against an input it did not relabel
    engine = permutation.run(werner2, PermutationProtocol.linear(2, 1, bcnot))
    assert engine.t.tolist() == sorted(branches)
    for row, t in enumerate(engine.t.tolist()):
        assert engine.prob[row] == pytest.approx(branches[t].prob, abs=1e-12)
        assert engine.output[row] == pytest.approx(branches[t].output.probs, abs=1e-12)


def test_parity_measurement_preserves_bell_diagonality(rng):
    from belldistill.states import random_bell_diagonal
    for _ in range(5):
        state = random_bell_diagonal(3, rng)
        for branch in oracle.simulate_parity_measurement(state, 1):
            assert branch.bell_offdiag < 1e-10


def full_rho_parity_measurement(state, kept):
    """The parity oracle as first written: the whole density matrix, then
    one gather per outcome t and side pattern alpha, added in alpha order.
    Returns the arrays of t, prob, output and bell_offdiag, one entry per
    outcome of nonzero probability."""
    n = state.n
    m, k = kept, n - kept
    rho = oracle.density_matrix(state)
    kept_basis = oracle.bell_basis(m)
    kept_dim = 1 << m
    kept_indices = np.arange(kept_dim, dtype=np.int64)
    branches = []
    for t in range(1 << k):
        acc = np.zeros((kept_dim * kept_dim, kept_dim * kept_dim), dtype=complex)
        for alpha in range(1 << k):
            side_a = (kept_indices << k) | alpha
            side_b = (kept_indices << k) | (alpha ^ t)
            full = ((side_a[:, None] << n) | side_b[None, :]).reshape(-1)
            acc += rho[np.ix_(full, full)]
        prob = float(np.real(np.trace(acc)))
        if prob <= 0.0:
            continue
        bell_form = kept_basis.conj().T @ acc @ kept_basis
        diag = np.real(np.diag(bell_form)).copy()
        offdiag = float(np.max(np.abs(bell_form - np.diag(np.diag(bell_form)))))
        branches.append((t, prob, diag / prob, offdiag))
    return tuple(map(np.array, zip(*branches)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parity_measurement_equals_the_full_density_matrix_reference(rng, n):
    label = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
    states = [random_bell_diagonal(n, rng), random_bell_diagonal(n, rng),
              BellDiagonalState.from_pairs([werner(0.8)] * n),
              BellDiagonalState.point_mass(n, label),
              BellDiagonalState(n, np.full(1 << (2 * n), 0.25 ** n))]
    for state in states:
        for kept in range(n + 1):
            t, prob, output, offdiag = full_rho_parity_measurement(state, kept)
            branches = oracle.simulate_parity_measurement(state, kept)
            assert branches.t.tolist() == t.tolist()
            assert np.abs(branches.prob - prob).max() <= 1e-15
            assert np.abs(branches.output - output).max() <= 1e-15
            assert np.abs(branches.bell_offdiag - offdiag).max() <= 1e-15


@pytest.mark.parametrize("kept", [0, 1, 2, 3])
def test_parity_measurement_forms_no_full_density_matrix(monkeypatch, rng, kept):
    # At the cap, n = 4, one 4^n x 4^n complex matrix is 1 MiB, and forming
    # rho held 3 MiB (rho and its two operands).  The oracle holds the
    # gathered Bell-basis rows and their weighted copy, 2^(n+kept) of the
    # basis's 4^n rows each, plus less than half of one such matrix; for
    # kept <= n - 2 that is less than one in all.
    n = 4
    state = BellDiagonalState(n, rng.dirichlet(np.ones(1 << (2 * n))))
    oracle.bell_basis(n), oracle.bell_basis(kept)  # built once per n and cached
    monkeypatch.setattr(oracle, "density_matrix", None)
    full = 16 << (4 * n)
    gathered = 16 << (n + kept + 2 * n)
    tracemalloc.start()
    try:
        branches = oracle.simulate_parity_measurement(state, kept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert branches.prob.sum() == pytest.approx(1.0, abs=1e-12)
    assert peak < 2 * gathered + full // 2


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


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_syndrome_difference_is_the_double_loop_bit_for_bit(rng, k):
    joint = rng.random((1 << k, 1 << k))
    joint[0, 0] = -0.0
    expected = [sum(joint[a, a ^ s] for a in range(1 << k)) for s in range(1 << k)]
    assert oracle.syndrome_difference_distribution(joint).tobytes() == \
        np.array(expected, dtype=float).tobytes()


def test_alice_marginal_uniform(werner2):
    joint = oracle.simulate_syndrome_measurement(werner2, (vec("1100"),))
    marginal = joint.sum(axis=1)
    assert marginal == pytest.approx([0.5, 0.5], abs=1e-12)


def test_syndrome_measurement_is_its_literal_definition(rng):
    # P[a, b] = tr[(Q_a* (x) Q_b) rho]: Q_a the projector onto sign pattern
    # (-1)^a of the generators' words, rho the sum of p_x |Phi_x><Phi_x|
    # with Phi_x = vec(sigma_x) / 2^(n/2), every operator an np.kron chain.
    for _ in range(12):
        state, proto = equivalence.random_instance(rng, (1, 2, 3))
        n, k = state.n, len(proto.generators)
        words = [kron_chain(g) for g in proto.generators]
        bell = np.array([kron_chain(BinaryVector(x, 2 * n)).ravel()
                         for x in range(1 << (2 * n))]) / np.sqrt(2.0 ** n)
        rho = (bell.T * state.probs) @ bell.conj()
        eye = np.eye(1 << n)

        def projector(ops, outcome):
            proj = eye
            for i, op in enumerate(ops):
                proj = proj @ (eye + (-1) ** (outcome >> (k - 1 - i) & 1) * op) / 2
            return proj

        expected = [[np.trace(np.kron(projector([w.conj() for w in words], a),
                                      projector(words, b)) @ rho).real
                     for b in range(1 << k)] for a in range(1 << k)]
        joint = oracle.simulate_syndrome_measurement(state, proto.generators)
        np.testing.assert_allclose(joint, expected, rtol=0, atol=1e-13)


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



@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("full_set", [False, True])
def test_syndrome_measurement_forms_no_full_density_matrix(monkeypatch, rng, n,
                                                           full_set):
    # At the cap, n = 4, one 4^n x 4^n complex matrix is 1 MiB, and forming
    # rho held 3 MiB (rho and its two operands).  Formed one side-B row
    # index at a time, rho is held as a 2^n x 4^n block and its operands.
    k = n if full_set else 1
    state = BellDiagonalState(n, rng.dirichlet(np.ones(1 << (2 * n))))
    gens = tuple(gf2.random_isotropic_generators(n, k, rng))
    oracle.bell_basis(n)  # built once per n and cached
    monkeypatch.setattr(oracle, "density_matrix", None)
    tracemalloc.start()
    try:
        joint = oracle.simulate_syndrome_measurement(state, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joint.shape == (1 << k, 1 << k)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)
    if n == 4:
        assert peak < 16 << (4 * n)

def test_bell_eigenvalue_check_forms_no_full_register_operator(monkeypatch):
    # conj(sigma_g) x sigma_g at n = 4 is a 4^n x 4^n complex matrix, 1 MiB
    pairs = []
    bell_vector = oracle.bell_vector

    def spy(label):
        pairs.append(label.pair_count)
        return bell_vector(label)

    monkeypatch.setattr(oracle, "bell_vector", spy)
    tracemalloc.start()
    try:
        error = crosscheck.check_bell_eigenvalue(20, np.random.default_rng(9), pairs=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error <= crosscheck.TOLERANCE and 4 in pairs
    assert peak < 16 << 16


@pytest.mark.parametrize("module, name", [(permutation, "run"),
                                          (oracle, "simulate_parity_measurement")])
def test_parity_check_counts_a_missing_branch_as_its_probability(
        monkeypatch, edit_columns, module, name):
    # a branch that only one side reports is an error of its whole weight;
    # the engine and the oracle each give a branch set
    original, dropped = getattr(module, name), []

    def drop_first(*args):
        branches = original(*args)
        dropped.append(float(branches.prob[0]))
        return edit_columns(branches, lambda _, column: column[1:])

    monkeypatch.setattr(module, name, drop_first)
    error = crosscheck.check_parity_measurement((2,), 1, np.random.default_rng(5))
    assert error == dropped[0] > crosscheck.TOLERANCE


def test_parity_check_catches_a_wrong_label_map_in_the_engine(monkeypatch):
    # `gf2.affine_images` reading its columns in the other order maps the
    # engine's labels wrongly; the oracle's input shares no code with it
    original = gf2.affine_images
    monkeypatch.setattr(gf2, "affine_images",
                        lambda columns, offset: original(columns[::-1], offset))
    error = crosscheck.check_parity_measurement((2, 3, 4), 20, np.random.default_rng(0))
    assert error > crosscheck.TOLERANCE


def test_syndrome_check_reads_the_engines_probabilities(monkeypatch, edit_columns):
    # 1e-6 of probability moved from one syndrome to another in the columns
    # `stabilizer.run` returns, the numbers `run-code` prints, is an error
    # the syndrome suite sees
    original, moved = stabilizer.run, []

    def shift(*args):
        branches = original(*args)
        moved.append(len(branches))
        step = np.zeros(len(branches))
        step[:2] = -1e-6, 1e-6
        return edit_columns(branches, lambda name, column:
                            column + step if name == "prob" else column)

    monkeypatch.setattr(stabilizer, "run", shift)
    error = crosscheck.check_syndrome_measurement((2,), 1, np.random.default_rng(5))
    assert moved[0] >= 2
    assert error > crosscheck.TOLERANCE
