"""Distillation by symplectic relabeling followed by pairwise parity checks.

The protocol relabels the joint Bell-product label by an affine symplectic
map x -> A x + b, measures both qubits of each of the last n-m pairs in the
computational basis, and compares the two sides.  At the label level the
relabeled label A x + b splits into the outcome bits t (parities of the
measured pairs), the logical label y of the survivors, and the phases of
the measured pairs, which nobody sees.  Every branch statistic is read off
one table, built in a single pass over the input by `branch_table`:

    W[t, y] = total input weight of the labels x with A x + b -> (t, y).

Summed over y this is the branch probability (a coset sum over the
symplectic complement of the measured subspace); each entry is a coset sum
over the measured subspace.  The stabilizer engine fills the same table
from its generators, so both engines read their branches off identical
numbers.  The literal coset-sum formula is kept in `unnormalized_fidelity`.

Conditional outputs are renormalized to total weight one.  The literal
coset-ratio expression additionally carries a 2**(n-m) branching factor
that would push the trace above one; that quantity is preserved separately
as `unnormalized_fidelity` for auditing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .gf2 import BinaryMatrix, BinaryVector, Coset, Subspace
from .states import BellDiagonalState


@dataclass(frozen=True)
class PermutationProtocol:
    """n-to-m protocol: symplectic matrix, affine offset, and the split n/m."""

    n: int
    m: int
    matrix: BinaryMatrix
    offset: BinaryVector

    def __post_init__(self) -> None:
        two_n = 2 * self.n
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")
        if self.matrix.shape != (two_n, two_n):
            raise ValueError("matrix must be 2n x 2n")
        if self.offset.length != two_n:
            raise ValueError("offset must have length 2n")
        if not gf2.is_symplectic(self.matrix):
            raise ValueError("protocol matrix is not symplectic (A^T P A != P)")

    @classmethod
    def linear(cls, n: int, m: int, matrix: BinaryMatrix) -> "PermutationProtocol":
        return cls(n, m, matrix, BinaryVector.zeros(2 * n))

    @property
    def generators(self) -> tuple[BinaryVector, ...]:
        """Rows n+m+1 .. 2n of A*P: independent commuting labels (A is
        symplectic) whose span the final parity measurement merges."""
        ap = self.matrix @ gf2.symplectic_form(self.n)
        return tuple(ap.row(i) for i in range(self.n + self.m, 2 * self.n))


@dataclass(frozen=True)
class ProtocolOutcome:
    """One measurement branch: outcome bits, statistics, chosen correction."""

    t: BinaryVector
    prob: float
    output: BellDiagonalState
    correction: BinaryVector
    fidelity: float
    unnormalized_fidelity: float
    accepted: bool


def measured_subspace(proto: PermutationProtocol) -> Subspace:
    """Span of the protocol's generators (isotropic by symplecticity of A).

    Labels whose difference lies in this subspace are merged by the final
    parity measurement, so its cosets carry all branch statistics.
    """
    return Subspace.from_vectors(proto.generators, length=2 * proto.n)


def embed_label(y: BinaryVector, t: BinaryVector, n: int, m: int) -> BinaryVector:
    """Spread a logical label y and outcome bits t over the full 2n positions.

    Layout: y's phase bits, then n-m zeros (phases of measured pairs), then
    y's parity bits, then the n-m outcome bits.
    """
    if y.length != 2 * m:
        raise ValueError("logical label must have length 2m")
    if t.length != n - m:
        raise ValueError("outcome must have length n-m")
    return BinaryVector(_embed_value(y.value, t.value, n, m), 2 * n)


def _embed_value(y: int, t: int, n: int, m: int) -> int:
    y_phase = y >> m
    y_parity = y & ((1 << m) - 1)
    return (y_phase << (2 * n - m)) | (y_parity << (n - m)) | t


def optimal_correction(cond: np.ndarray) -> BinaryVector:
    """Logical label of maximal weight; ties break to the smallest label.

    Shifting the conditional distribution by the returned label moves its
    largest weight onto the zero label.
    """
    cond = np.asarray(cond)
    if cond.size == 0:
        raise ValueError("empty conditional distribution")
    size = cond.size
    two_m = (size - 1).bit_length()
    if size != 1 << two_m or two_m % 2:
        raise ValueError("conditional distribution must have 4**m entries")
    return BinaryVector(int(np.argmax(cond)), two_m)


def branch_table(probs: np.ndarray, label_map: BinaryMatrix, offset: int,
                 m: int) -> np.ndarray:
    """Input weight per branch label: W[t, y] = sum of p_x over x with
    label_map x + offset == (t << 2m) | y.

    The label of every input comes from `gf2.affine_images` (one int64
    array the size of the table) and one unbuffered `np.add.at` adds the
    weights in input order, so the cost is two passes over the input
    whatever n and m are.  (`np.bincount` would add in the same order, but
    it copies a read-only weight table such as `BellDiagonalState.probs`.)
    """
    table = np.zeros(1 << label_map.nrows)
    np.add.at(table, gf2.affine_images(label_map, offset), probs)
    return table.reshape(-1, 1 << (2 * m))


def branch_outcomes(table: np.ndarray, m: int,
                    threshold: float) -> list[ProtocolOutcome]:
    """The branches of a branch table, one per row of nonzero weight.

    The probability is the row sum, the output the row renormalized, the
    correction the heaviest logical label of the row (among exactly equal
    weights the smallest label wins) and the fidelity the output's weight
    there.  Rows of weight exactly zero are skipped.
    """
    k = table.shape[0].bit_length() - 1
    probs = table.sum(axis=1)
    outcomes = []
    for t in np.flatnonzero(probs):
        prob = float(probs[t])
        output = BellDiagonalState(m, table[t] / prob)
        correction = optimal_correction(table[t])
        fid = float(output.probs[correction.value])
        outcomes.append(ProtocolOutcome(
            t=BinaryVector(int(t), k),
            prob=prob,
            output=output,
            correction=correction,
            fidelity=fid,
            unnormalized_fidelity=(1 << k) * fid,
            accepted=fid >= threshold,
        ))
    return outcomes


def run(state: BellDiagonalState, proto: PermutationProtocol,
        threshold: float | None = None) -> list[ProtocolOutcome]:
    """Evaluate every parity-outcome branch of the protocol exactly.

    The label map keeps the rows of A (and the bits of b) that become the
    outcome bits t and the logical label y of the relabeled label, so
    branch t of the table sums one coset of the complement of the measured
    subspace and its entry y one coset of the measured subspace.  Branches
    of probability zero are never produced.  `threshold` defaults to the
    input fidelity (acceptance requires non-degradation).
    """
    if state.n != proto.n:
        raise ValueError("state and protocol disagree on the pair count")
    if threshold is None:
        threshold = state.fidelity
    n, m = proto.n, proto.m
    positions = [*range(n + m, 2 * n), *range(m), *range(n, n + m)]
    selector = BinaryMatrix(tuple(1 << (2 * n - 1 - p) for p in positions), 2 * n)
    table = branch_table(state.probs, selector @ proto.matrix,
                         (selector @ proto.offset).value, m)
    return branch_outcomes(table, m, threshold)


def unnormalized_fidelity(state: BellDiagonalState, proto: PermutationProtocol,
                          t: BinaryVector) -> float:
    """Literal coset-ratio fidelity expression including its 2**(n-m) factor.

    Evaluates 2**(n-m) * (best numerator coset sum) / (branch coset sum)
    without renormalizing, so the value generally exceeds one; it equals
    the normalized branch fidelity times 2**(n-m).  Raises for branches of
    probability zero.
    """
    if t.length != proto.n - proto.m:
        raise ValueError("outcome length must be n-m")
    n, m = proto.n, proto.m
    inverse = gf2.symplectic_inverse(proto.matrix)
    # The offset absorbed into the input: the linear-part coset formulas
    # on q_x = p_{x + A^-1 b} reproduce the affine protocol exactly.
    q = state.pauli_shift(inverse @ proto.offset).probs
    sub = measured_subspace(proto)
    perp = gf2.orthogonal_complement(sub)
    off0 = inverse @ BinaryVector(_embed_value(0, t.value, n, m), 2 * n)
    denom = gf2.coset_sum(q, Coset(perp, off0))
    if denom == 0.0:
        raise ValueError(f"branch {t} has probability zero")
    best = max(
        gf2.coset_sum(q, Coset(sub, inverse @ BinaryVector(
            _embed_value(y, t.value, n, m), 2 * n)))
        for y in range(1 << (2 * m))
    )
    return (1 << (n - m)) * best / denom


@dataclass(frozen=True)
class RoundReport:
    """One recurrence round: what went in, what came out, what survives."""

    round_index: int
    input_fidelity: float
    branch: BinaryVector
    fidelity: float
    accept_prob: float
    cumulative_yield: float
    accepted: bool
    improved: bool
    output_pair: BellDiagonalState


def recurrence_sweep(pair: BellDiagonalState, proto: PermutationProtocol,
                     rounds: int, threshold: float | None = None) -> list[RoundReport]:
    """Iterate the protocol, feeding the surviving pair back in each round.

    Each round builds n identical pairs from the current distribution, runs
    the protocol, and continues from the corrected single-pair output of
    the best accepted branch (requires m = 1).  With no explicit threshold
    a branch is accepted when it does not degrade the current pair
    fidelity.  The cumulative yield multiplies (m/n) times the acceptance
    probability per round.  A non-improving round is reported, not raised;
    if no branch is accepted the sweep continues from the best branch with
    the yield zeroed.
    """
    if proto.m != 1:
        raise ValueError("recurrence mode needs an n -> 1 protocol")
    if rounds < 1:
        raise ValueError("need at least one round")
    reports = []
    current = pair
    cumulative_yield = 1.0
    for round_index in range(1, rounds + 1):
        state = BellDiagonalState.from_pairs([current] * proto.n)
        round_threshold = current.fidelity if threshold is None else threshold
        outcomes = run(state, proto, round_threshold)
        accepted = [o for o in outcomes if o.accepted]
        pool = accepted if accepted else outcomes
        best = max(pool, key=lambda o: (o.fidelity, -o.t.value))
        accept_prob = sum(o.prob for o in accepted)
        cumulative_yield *= (proto.m / proto.n) * accept_prob
        # Renormalize once per round: the sweep's accept/reject decisions
        # depend on the last bit of the pair fed into the next round.
        next_pair = BellDiagonalState(
            1, best.output.pauli_shift(best.correction).probs)
        reports.append(RoundReport(
            round_index=round_index,
            input_fidelity=current.fidelity,
            branch=best.t,
            fidelity=best.fidelity,
            accept_prob=accept_prob,
            cumulative_yield=cumulative_yield,
            accepted=bool(accepted),
            improved=best.fidelity > current.fidelity,
            output_pair=next_pair,
        ))
        current = next_pair
    return reports
