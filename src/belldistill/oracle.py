"""Brute-force dense quantum simulation used as ground truth for small systems.

Everything label-level in this package is cross-checked here against
explicit complex matrices: Pauli words, Bell-product vectors, pairwise
computational-basis measurements, and two-sided generator measurements.
The register holds one side's qubits 1..n followed by the other side's
qubits 1..n (pair i spans position i on both sides), most significant bit
first, so state vectors have dimension 4**n.

All comparisons against the rest of the package go through projectors or
outcome probabilities; global phases are never compared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf2 import BinaryVector
from .states import BellDiagonalState

# 256 x 256 complex density matrices at the cap; tests default to n in {2, 3}.
MAX_ORACLE_PAIRS = 4

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def pauli_matrix(label: BinaryVector) -> np.ndarray:
    """Kronecker product of single-qubit Paulis named by the label.

    Qubit i takes the (phase, parity) bit pair (label_i, label_{k+i});
    (0,0)->I, (0,1)->X, (1,0)->Z, (1,1)->Y.  The result is exactly unitary
    and Hermitian.
    """
    k = label.pair_count
    out = np.array([[1.0 + 0.0j]])
    for i in range(k):
        out = np.kron(out, _SINGLE[(label.bit(i), label.bit(k + i))])
    return out


def bell_vector(label: BinaryVector) -> np.ndarray:
    """The Bell-product state vector carrying the given 2n-bit label.

    Built as the label's Pauli word acting on one side of the maximally
    correlated pair product; defined up to a global phase.
    """
    n = label.pair_count
    if n > MAX_ORACLE_PAIRS:
        raise ValueError(f"oracle capped at {MAX_ORACLE_PAIRS} pairs")
    # Pair product of (|00>+|11>)/sqrt(2) is vec(I)/2^(n/2) in the A,B split;
    # acting with sigma on side A turns it into vec(sigma)/2^(n/2).
    return (pauli_matrix(label) / np.sqrt(2.0 ** n)).reshape(-1)


@functools.cache
def bell_basis(n: int) -> np.ndarray:
    """Unitary with column x equal to the Bell-product vector of label x.

    All 4^n Pauli words are built at once, one Kronecker step per pair in
    the order `pauli_matrix` multiplies, so column x is `bell_vector` of
    label x bit for bit.  Built once per n and shared read-only.
    """
    if n > MAX_ORACLE_PAIRS:
        raise ValueError(f"oracle capped at {MAX_ORACLE_PAIRS} pairs")
    singles = np.stack([_SINGLE[(z, x)] for z in (0, 1) for x in (0, 1)])
    words = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        count, size = words.shape[0], words.shape[1]
        words = (words[:, None, :, None, :, None]
                 * singles[None, :, None, :, None, :]).reshape(4 * count, 2 * size,
                                                               2 * size)
    # Word index: the digit 2*phase + parity of each pair, pair 0 first.
    labels = np.arange(1 << (2 * n))
    index = np.zeros_like(labels)
    for shift in range(n):
        digit = 2 * ((labels >> (n + shift)) & 1) + ((labels >> shift) & 1)
        index |= digit << (2 * shift)
    vectors = (words / np.sqrt(2.0 ** n))[index].reshape(labels.size, -1)
    basis = np.ascontiguousarray(vectors.T)
    basis.setflags(write=False)
    return basis


def density_matrix(state: BellDiagonalState) -> np.ndarray:
    """Dense density matrix of a Bell-diagonal state."""
    basis = bell_basis(state.n)
    return (basis * state.probs) @ basis.conj().T


@dataclass(frozen=True)
class ParityBranch:
    """One joint parity outcome of measuring the trailing pairs."""

    t: BinaryVector
    prob: float
    probs: np.ndarray          # kept pairs re-expanded in the Bell basis
    bell_offdiag: float        # largest off-diagonal magnitude, should vanish


def simulate_parity_measurement(state: BellDiagonalState,
                                kept: int) -> list[ParityBranch]:
    """Measure both qubits of each trailing pair and compare the sides.

    Projects every qubit of the last n-kept pairs onto the computational
    basis on both sides, records whether the sides agree (outcome bit 0)
    or differ (bit 1) per pair, and re-expands each post-measurement state
    in the kept pairs' Bell basis.
    """
    n = state.n
    if not 0 <= kept <= n:
        raise ValueError("kept pair count out of range")
    m, k = kept, n - kept
    rho = density_matrix(state)
    kept_basis = bell_basis(m)
    kept_dim = 1 << m
    kept_indices = np.arange(kept_dim, dtype=np.int64)

    branches = []
    for t in range(1 << k):
        acc = np.zeros((kept_dim * kept_dim, kept_dim * kept_dim), dtype=complex)
        for alpha in range(1 << k):
            beta = alpha ^ t
            side_a = (kept_indices << k) | alpha
            side_b = (kept_indices << k) | beta
            full = ((side_a[:, None] << n) | side_b[None, :]).reshape(-1)
            acc += rho[np.ix_(full, full)]
        prob = float(np.real(np.trace(acc)))
        if prob <= 0.0:
            continue
        bell_form = kept_basis.conj().T @ acc @ kept_basis
        diag = np.real(np.diag(bell_form)).copy()
        offdiag = float(np.max(np.abs(bell_form - np.diag(np.diag(bell_form)))))
        branches.append(ParityBranch(
            t=BinaryVector(t, k),
            prob=prob,
            probs=diag / prob,
            bell_offdiag=offdiag,
        ))
    return branches


def simulate_syndrome_measurement(state: BellDiagonalState,
                                  generators: tuple[BinaryVector, ...]
                                  ) -> np.ndarray:
    """Joint outcome distribution of two-sided generator measurements.

    One side measures the elementwise complex conjugate of each generator's
    Pauli word, the other the word itself; entry [a, b] is the probability
    of sign patterns (-1)^a and (-1)^b.  The first side's marginal is
    uniform; only the XOR of the two strings depends on the state.
    """
    n = state.n
    k = len(generators)
    rho = density_matrix(state)
    eye = np.eye(1 << n, dtype=complex)
    ops_a = [np.kron(pauli_matrix(g).conj(), eye) for g in generators]
    ops_b = [np.kron(eye, pauli_matrix(g)) for g in generators]
    full = np.eye(1 << (2 * n), dtype=complex)

    def projector(ops: list[np.ndarray], outcome: int) -> np.ndarray:
        proj = full
        for i, op in enumerate(ops):
            sign = -1.0 if (outcome >> (k - 1 - i)) & 1 else 1.0
            proj = proj @ (full + sign * op) / 2.0
        return proj

    proj_a = [projector(ops_a, a) for a in range(1 << k)]
    proj_b = [projector(ops_b, b) for b in range(1 << k)]
    joint = np.empty((1 << k, 1 << k))
    for a in range(1 << k):
        for b in range(1 << k):
            joint[a, b] = float(np.real(np.trace(proj_a[a] @ proj_b[b] @ rho)))
    return joint


def syndrome_difference_distribution(joint: np.ndarray) -> np.ndarray:
    """Distribution of the XOR of the two sides' outcome strings."""
    size = joint.shape[0]
    out = np.empty(size)
    for s in range(size):
        out[s] = sum(joint[a, a ^ s] for a in range(size))
    return out
