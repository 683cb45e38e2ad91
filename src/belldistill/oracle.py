"""Brute-force dense quantum simulation used as ground truth for small systems.

Everything label-level in this package is cross-checked here against
explicit complex matrices: Pauli words, Bell-product vectors, pairwise
computational-basis measurements, and two-sided generator measurements.
Pauli words are built by `pauli_matrix` alone; Bell-product vectors, and
the Bell basis column by column, are built from them.  The register holds
one side's qubits 1..n followed by the other side's qubits 1..n (pair i
spans position i on both sides), most significant bit first, so state
vectors have dimension 4**n.

All comparisons against the rest of the package go through projectors or
outcome probabilities; global phases are never compared.

The pairwise parity measurement builds only the blocks of
rho = U diag(p) U^H (U the Bell basis) that its outcomes sum, from the
gathered rows of U, and returns its outcomes as the columns t, prob,
output and bell_offdiag of a `permutation.BranchSet`, used only as a
container: it calls none of the engines' code.  The generator
measurement forms rho's rows of one side-B row index at a time and
contracts each block with side A's projectors as it is formed; side B's
projectors meet the result once.  Neither measurement calls
`density_matrix`: it is the reference the tests compare them with.
"""

from __future__ import annotations

import functools

import numpy as np

from .gf2 import BinaryVector
from .permutation import BranchSet
from .states import BellDiagonalState

# At the cap the Bell basis, built once and cached, is a 256 x 256 complex
# matrix (1 MiB); a parity measurement of at least one pair gathers at most
# half of its rows at a time, and a generator measurement forms a 16 x 256
# block of rho at a time (64 KiB).  Tests default to n in {2, 3}.
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
    and Hermitian.  Each factor is taken in by one broadcast product, the
    products `np.kron` forms, so the word is `np.kron`'s chain bit for bit.
    The only builder of Pauli words; refuses more than MAX_ORACLE_PAIRS.
    """
    k = label.pair_count
    if k > MAX_ORACLE_PAIRS:
        raise ValueError(f"oracle capped at {MAX_ORACLE_PAIRS} pairs")
    out = np.ones((1, 1), dtype=complex)
    for i in range(k):
        single = _SINGLE[(label.bit(i), label.bit(k + i))]
        size = 2 * out.shape[0]
        out = (out[:, None, :, None] * single[None, :, None, :]).reshape(size, size)
    return out


def bell_vector(label: BinaryVector) -> np.ndarray:
    """The Bell-product state vector carrying the given 2n-bit label.

    Built as the label's Pauli word acting on one side of the maximally
    correlated pair product; defined up to a global phase.
    """
    n = label.pair_count
    # Pair product of (|00>+|11>)/sqrt(2) is vec(I)/2^(n/2) in the A,B split;
    # acting with sigma on side A turns it into vec(sigma)/2^(n/2).
    return (pauli_matrix(label) / np.sqrt(2.0 ** n)).reshape(-1)


@functools.cache
def bell_basis(n: int) -> np.ndarray:
    """Unitary with column x equal to the Bell-product vector of label x.

    Filled a column at a time from `bell_vector`, so it holds no Pauli word
    of its own.  Built once per n and shared read-only.
    """
    if n > MAX_ORACLE_PAIRS:
        raise ValueError(f"oracle capped at {MAX_ORACLE_PAIRS} pairs")
    basis = np.empty((1 << (2 * n), 1 << (2 * n)), dtype=complex)
    for x in range(basis.shape[1]):
        basis[:, x] = bell_vector(BinaryVector(x, 2 * n))
    basis.setflags(write=False)
    return basis


def density_matrix(state: BellDiagonalState) -> np.ndarray:
    """Dense density matrix of a Bell-diagonal state: the reference the
    tests hold both measurements to, neither of which calls it."""
    basis = bell_basis(state.n)
    return (basis * state.probs) @ basis.conj().T


def simulate_parity_measurement(state: BellDiagonalState,
                                kept: int) -> BranchSet:
    """Measure both qubits of each trailing pair and compare the sides.

    Projects every qubit of the last n-kept pairs onto the computational
    basis on both sides, records whether the sides agree (outcome bit 0)
    or differ (bit 1) per pair, and re-expands each post-measurement state
    in the kept pairs' Bell basis.  Returns a `BranchSet` with one row per
    outcome t of nonzero probability: t, its probability prob, the
    post-measurement state's Bell-basis diagonal over prob as output, and
    bell_offdiag, the largest off-diagonal magnitude, which should vanish.
    The output rows are not renormalized or clipped, so they can hold tiny
    negative entries: read them as a column, not by iterating the set.

    Outcome t leaves the sum over alpha of the blocks of rho whose rows
    and columns read alpha on side A's measured qubits and alpha ^ t on
    side B's.  Only those blocks are formed, not rho (unless nothing is
    measured): for each t the Bell-basis rows of their register indices
    are gathered at once, weighted by the state's probabilities
    (rho = U diag(p) U^H, U the Bell basis), and the 2^(n-kept) blocks
    come out of one batched product, then are added in alpha order.
    """
    n = state.n
    if not 0 <= kept <= n:
        raise ValueError("kept pair count out of range")
    m, k = kept, n - kept
    basis = bell_basis(n)
    kept_basis = bell_basis(m)
    block = 1 << (2 * m)
    # Register index ((a << k | alpha) << n) | (b << k | beta) of side A's
    # kept qubits a and measured qubits alpha, and side B's b and beta;
    # outcome t reads beta = alpha ^ t, and index[t, alpha] lists the
    # indices of block (t, alpha) by (a, b).
    kept_indices = np.arange(1 << m, dtype=np.int64)
    kept_part = ((kept_indices[:, None] << (k + n)) | (kept_indices << k)).ravel()
    alpha = np.arange(1 << k, dtype=np.int64)
    index = ((alpha << n) | (alpha[:, None] ^ alpha))[:, :, None] | kept_part
    # The probabilities as complex numbers, as numpy casts them to weight
    # complex rows; the gathered rows and their weighted copy, reused by
    # every outcome.
    weights = state.probs.astype(complex)
    rows = np.empty((1 << k, block, basis.shape[1]), dtype=complex)
    weighted = np.empty_like(rows)
    products = np.empty((1 << k, block, block), dtype=complex)
    acc = np.empty_like(products)
    for t in range(1 << k):
        # "clip" (the indices are in range) writes to `out` unbuffered
        np.take(basis, index[t], axis=0, out=rows, mode="clip")
        np.multiply(rows, weights, out=weighted)
        np.conjugate(rows, out=rows)
        np.matmul(weighted, rows.swapaxes(1, 2), out=products)
        products.sum(axis=0, out=acc[t])
    del rows, weighted  # freed before the blocks' change of basis allocates
    probs = np.trace(acc, axis1=1, axis2=2).real
    bell_form = kept_basis.conj().T @ acc @ kept_basis
    diag = np.diagonal(bell_form, axis1=1, axis2=2).real.copy()
    on_diagonal = np.arange(block)
    bell_form[:, on_diagonal, on_diagonal] = 0.0
    offdiag = np.abs(bell_form).max(axis=(1, 2))
    live = np.flatnonzero(probs > 0.0)
    return BranchSet({"t": k}, {"t": live, "prob": probs[live],
                                "output": diag[live] / probs[live, None],
                                "bell_offdiag": offdiag[live]})


def simulate_syndrome_measurement(state: BellDiagonalState,
                                  generators: tuple[BinaryVector, ...]
                                  ) -> np.ndarray:
    """Joint outcome distribution of two-sided generator measurements.

    One side measures the elementwise complex conjugate of each generator's
    Pauli word, the other the word itself; entry [a, b] is the probability
    of sign patterns (-1)^a and (-1)^b.  The first side's marginal is
    uniform; only the XOR of the two strings depends on the state.  Each
    side's projectors act on its own qubits, so they are 2^n x 2^n matrices
    contracted with rho[i, k, j, l] (rows i, k and columns j, l of sides A,
    B), regrouped as (i, j) x (k, l), between each side's projectors,
    transposed and flattened.  rho = U diag(p) U^H (U the Bell basis) is
    formed d = 2^n rows at a time, those of one side-B row index k: read
    as (i, j) x l they are the columns (k, l) of the regrouped rho, so
    each block meets side A's projectors whole, in the same sums as the
    whole rho would, and side B's meet the product once.  No 4^n x 4^n
    matrix but the cached basis is held.
    """
    n = state.n
    d = 1 << n
    k = len(generators)
    basis = bell_basis(n)
    eye = np.eye(d, dtype=complex)
    words = [pauli_matrix(g) for g in generators]

    def projectors(ops: list[np.ndarray]) -> np.ndarray:
        out = np.empty((1 << k, d, d), dtype=complex)
        for outcome in range(1 << k):
            proj = eye
            for i, op in enumerate(ops):
                sign = -1.0 if (outcome >> (k - 1 - i)) & 1 else 1.0
                proj = proj @ (eye + sign * op) / 2.0
            out[outcome] = proj
        return out

    side_a, side_b = (projectors(ops).transpose(0, 2, 1).reshape(1 << k, d * d)
                      for ops in ([w.conj() for w in words], words))
    # rho's rows (i, b_row) for every i, side B's row index fixed, are the
    # conjugate of (conj(U_b) * p) @ U^T, U_b those rows of U (U^T is a
    # view).  Read as (i, j) x l they are the columns (b_row, l) of the
    # regrouped rho, so each block meets side A's projectors whole.
    side_a_rho = np.empty((1 << k, d * d), dtype=complex)
    for b_row in range(d):
        block = ((basis[b_row::d].conj() * state.probs) @ basis.T).conj()
        side_a_rho[:, b_row * d:(b_row + 1) * d] = side_a @ block.reshape(d * d, d)
    return (side_a_rho @ side_b.T).real


def syndrome_difference_distribution(joint: np.ndarray) -> np.ndarray:
    """Distribution of the XOR of the two sides' outcome strings."""
    outcomes = np.arange(joint.shape[0])
    return np.bincount((outcomes[:, None] ^ outcomes).ravel(), weights=joint.ravel(),
                       minlength=outcomes.size)
