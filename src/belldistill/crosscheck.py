"""Randomized comparison suites pitting the label-level engines against the
dense oracle, plus the exact operator identities the label calculus relies on.

Each suite runs a batch of seeded random cases and reports the worst
entrywise error it saw.  The measurement suites read the columns the
engines' `run` returns, the numbers `run-perm` and `run-code` print,
against the dense oracle's.  These functions back both the command-line
`oracle-check` command and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equivalence, gf2, oracle, permutation, stabilizer
from .gf2 import BinaryVector
from .permutation import BranchSet, PermutationProtocol, align
from .states import random_bell_diagonal

# Largest error a suite passes with; the commutation rule compares exact
# products of Pauli matrices, so its bound is tighter.
TOLERANCE = 1e-10
COMMUTATION_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def check_parity_measurement(sizes: tuple[int, ...], count: int,
                             rng: np.random.Generator) -> CheckResult:
    """Branch-table statistics vs dense pairwise parity measurements.

    The oracle consumes the already-relabeled state (relabeling is an exact
    array permutation), so this isolates the coset bookkeeping.
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

        dense = oracle.simulate_parity_measurement(state.permute(matrix, offset), m)
        worst = max(worst, _branch_error(permutation.run(state, proto), dense))
    return CheckResult("parity_measurement_vs_oracle", count, worst, TOLERANCE)


def _branch_error(engine: BranchSet, dense: BranchSet) -> float:
    """Largest gap between the engine's branches and the oracle's (both
    in label order): probability, output and the oracle's off-diagonal
    weight, or the probability of a branch only one side has (for the
    oracle, dust from a branch of exact probability zero)."""
    _, e, in_engine, d, in_dense = align(engine.t, dense.t)
    output_diff = np.abs(engine.output[e] - dense.output[d])
    gaps = np.maximum.reduce([np.abs(engine.prob[e] - dense.prob[d]),
                              dense.bell_offdiag[d], output_diff.max(axis=1)])
    error = np.where(in_engine & in_dense, gaps,
                     np.where(in_engine, engine.prob[e], dense.prob[d]))
    return float(error.max())


def check_syndrome_measurement(sizes: tuple[int, ...], count: int,
                               rng: np.random.Generator) -> CheckResult:
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
    return CheckResult("syndrome_measurement_vs_oracle", count, worst, TOLERANCE)


def check_commutation_rule(count: int, rng: np.random.Generator,
                           pairs: int) -> CheckResult:
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
    return CheckResult("pauli_commutation_rule", count, worst, COMMUTATION_TOLERANCE)


def check_bell_eigenvalue(count: int, rng: np.random.Generator,
                          pairs: int) -> CheckResult:
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
    return CheckResult("bell_product_eigenvalue", count, worst, TOLERANCE)


def run_all(sizes: tuple[int, ...], count: int,
            rng: np.random.Generator) -> list[CheckResult]:
    return [
        check_parity_measurement(sizes, count, rng),
        check_syndrome_measurement(sizes, count, rng),
        check_commutation_rule(count, rng, pairs=max(sizes)),
        check_bell_eigenvalue(count, rng, pairs=max(sizes)),
    ]
