"""Randomized comparison suites pitting the label-level engines against the
dense oracle, plus the exact operator identities the label calculus relies on.

Each suite runs a batch of seeded random cases and returns the worst
entrywise error it saw.  The measurement suites read the columns the
engines' `run` returns, the numbers `run-perm` and `run-code` print,
against the dense oracle's; the oracle's input is built with no code the
engines run.  The suites back the acceptance tests, and `run_all` gives
the columns the command-line `oracle-check` command prints.
"""

from __future__ import annotations

import numpy as np

from . import equivalence, gf2, oracle, permutation, stabilizer
from .gf2 import BinaryVector
from .permutation import BranchSet, PermutationProtocol, align
from .states import BellDiagonalState, random_bell_diagonal

# Largest error a suite passes with; the commutation rule compares exact
# products of Pauli matrices, so its bound is tighter.
TOLERANCE = 1e-10
COMMUTATION_TOLERANCE = 1e-12


def check_parity_measurement(sizes: tuple[int, ...], count: int,
                             rng: np.random.Generator) -> float:
    """Branch-table statistics vs dense pairwise parity measurements.

    The oracle consumes the already-relabeled state (relabeling is an exact
    array permutation), so this isolates the coset bookkeeping.  The
    relabeling maps each of the 4^n labels with `BinaryMatrix.apply`, not
    with the engines' `gf2.affine_images`.
    """
    worst = 0.0
    for _ in range(count):
        n = int(rng.choice(sizes))
        m = int(rng.integers(0, n))
        matrix = gf2.random_symplectic(n, rng)
        offset = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n) \
            if rng.random() < 0.5 else BinaryVector.zeros(2 * n)
        proto = PermutationProtocol(n, m, matrix, offset)
        state = random_bell_diagonal(n, rng)

        relabeled = np.empty_like(state.probs)
        relabeled[matrix.apply(np.arange(relabeled.size)) ^ offset.value] = state.probs
        dense = oracle.simulate_parity_measurement(
            BellDiagonalState._trusted(n, relabeled), m)
        worst = max(worst, _branch_error(permutation.run(state, proto), dense))
    return worst


def _branch_error(engine: BranchSet, dense: BranchSet) -> float:
    """Largest gap between the engine's branches and the oracle's (both
    in label order): probability, output and the oracle's off-diagonal
    weight, or the probability of a branch only one side has (for the
    oracle, dust from a branch of exact probability zero)."""
    _, (e, d), (in_engine, in_dense) = align(engine.t, dense.t)
    output_diff = np.abs(engine.output[e] - dense.output[d])
    gaps = np.maximum.reduce([np.abs(engine.prob[e] - dense.prob[d]),
                              dense.bell_offdiag[d], output_diff.max(axis=1)])
    error = np.where(in_engine & in_dense, gaps,
                     np.where(in_engine, engine.prob[e], dense.prob[d]))
    return float(error.max())


def check_syndrome_measurement(sizes: tuple[int, ...], count: int,
                               rng: np.random.Generator) -> float:
    """`stabilizer.run`'s syndrome probabilities, the s and prob columns
    `run-code` prints (a syndrome it leaves out reads 0), vs dense
    two-sided generator measurements.

    Also checks that the first side's raw outcomes are uniform, which is
    why only the outcome difference is modelled at the label level.
    """
    worst = 0.0
    for _ in range(count):
        state, proto = equivalence.random_instance(rng, sizes)
        joint = oracle.simulate_syndrome_measurement(state, proto.generators)
        diff = oracle.syndrome_difference_distribution(joint)
        branches = stabilizer.run(state, proto)
        engine = np.bincount(branches.s, weights=branches.prob, minlength=diff.size)
        worst = max(worst, float(np.max(np.abs(engine - diff))))
        marginal = joint.sum(axis=1)
        worst = max(worst, float(np.max(np.abs(marginal - 1.0 / len(marginal)))))
    return worst


def check_commutation_rule(count: int, rng: np.random.Generator,
                           pairs: int) -> float:
    """sigma_a sigma_b = (-1)^(a^T P b) sigma_b sigma_a, as dense matrices."""
    worst = 0.0
    for _ in range(count):
        k = int(rng.integers(1, pairs + 1))
        a = BinaryVector(int(rng.integers(0, 1 << (2 * k))), 2 * k)
        b = BinaryVector(int(rng.integers(0, 1 << (2 * k))), 2 * k)
        lhs = oracle.pauli_matrix(a) @ oracle.pauli_matrix(b)
        sign = -1.0 if gf2.sympl_inner(a, b) else 1.0
        rhs = sign * (oracle.pauli_matrix(b) @ oracle.pauli_matrix(a))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def check_bell_eigenvalue(count: int, rng: np.random.Generator,
                          pairs: int) -> float:
    """conj(sigma_g) x sigma_g fixes each Bell product up to the sign
    (-1)^(g^T P x).  It acts on the Bell vector as a 2^n x 2^n matrix V
    (rows side A), as conj(sigma_g) V sigma_g^T: no 4^n x 4^n operator."""
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, pairs + 1))
        g = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
        x = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
        vec = oracle.bell_vector(x)
        word = oracle.pauli_matrix(g)
        image = word.conj() @ vec.reshape(word.shape) @ word.T
        sign = -1.0 if gf2.sympl_inner(g, x) else 1.0
        worst = max(worst, float(np.linalg.norm(image.reshape(-1) - sign * vec)))
    return worst


def run_all(sizes: tuple[int, ...], count: int,
            rng: np.random.Generator) -> dict:
    """The four suites, run in turn on `rng`, as the columns `oracle-check`
    prints: a row per suite."""
    pairs = max(sizes)
    errors = {"parity_measurement_vs_oracle": check_parity_measurement(sizes, count, rng),
              "syndrome_measurement_vs_oracle": check_syndrome_measurement(sizes, count, rng),
              "pauli_commutation_rule": check_commutation_rule(count, rng, pairs),
              "bell_product_eigenvalue": check_bell_eigenvalue(count, rng, pairs)}
    max_error = np.array(list(errors.values()))
    tolerance = np.array([TOLERANCE, TOLERANCE, COMMUTATION_TOLERANCE, TOLERANCE])
    return {"check": list(errors), "cases": [count] * len(errors), "max_error": max_error,
            "tolerance": tolerance, "passed": max_error <= tolerance}
