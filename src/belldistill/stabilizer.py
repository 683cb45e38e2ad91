"""Distillation driven by commuting generator measurements and syndrome recovery.

Both sides measure the n-m commuting Pauli observables named by the
generator labels (one side the elementwise complex conjugate); only the
XOR s of the two outcome strings is informative.  At the label level:

* syndrome bit i of an input label x is its symplectic inner product with
  generator i, and the chance of observing s is the weight of the coset of
  the generators' symplectic complement selected by s;
* recovery picks the heaviest coset of the generator span inside it.

Logical output labels need a basis choice inside the complement; the
protocol's `frame`, a symplectic completion B of the generators, fixes it.
The logical bits of x are its inner products with the partner columns of
B, so the branch table `permutation.branch_table` fills here is entry by
entry the one the permutation protocol P B^T P fills, and both engines
read their branches off it the same way.

`run` returns a `permutation.BranchSet` whose label columns, the syndrome
s, the representative v and the recovery u, hold int64 label values
tabulated for all syndromes at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .gf2 import BinaryMatrix, BinaryVector, Subspace
from .permutation import BranchSet, branch_outcomes, branch_table
from .states import BellDiagonalState

_PAULI_TO_BITS = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
_PAULI_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)


def parse_pauli_string(text: str) -> BinaryVector:
    """Pauli word like "XIZ" to its label: phase half then parity half."""
    phase = parity = 0
    for ch in text:
        try:
            z, x = _PAULI_TO_BITS[ch]
        except KeyError:
            raise ValueError(f"invalid Pauli letter {ch!r} in {text!r}") from None
        phase = (phase << 1) | z
        parity = (parity << 1) | x
    k = len(text)
    return BinaryVector((phase << k) | parity, 2 * k)


def to_pauli_string(label: BinaryVector) -> str:
    """Inverse of :func:`parse_pauli_string`."""
    k, value = label.pair_count, label.value
    phase, parity = value >> k, value
    return "".join("IXZY"[2 * (phase >> i & 1) + (parity >> i & 1)]
                   for i in reversed(range(k)))


def pauli_letters(labels: np.ndarray, k: int) -> np.ndarray:
    """The letters of every 2k-bit label value as a row of k ASCII codes:
    letter i is IXZY at the digit 2 * phase bit + parity bit of pair i."""
    bits = gf2.bit_matrix(labels, 2 * k)
    return _PAULI_LETTERS[2 * bits[:, :k] + bits[:, k:]]


@dataclass(frozen=True)
class StabilizerProtocol:
    """n pairs, m survivors, n-m independent commuting generator labels, and
    the frame B that names the logical output labels.

    B is a symplectic 2n x 2n completion of the generators with generator i
    in column m+i.  Left as None it is the deterministic
    :func:`belldistill.gf2.complete_to_symplectic`.  A given frame's own check
    covers the generators: B's columns m..n-1 are independent and commute.
    """

    n: int
    m: int
    generators: tuple[BinaryVector, ...]
    frame: BinaryMatrix | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")
        if len(self.generators) != self.n - self.m:
            raise ValueError("generator count must equal n - m")
        n, m, frame = self.n, self.m, self.frame
        if frame is None:
            object.__setattr__(self, "frame",
                               gf2.complete_to_symplectic(self.generators, n))
        elif frame.shape != (2 * n, 2 * n) or not gf2.is_symplectic(frame):
            raise ValueError("logical basis must be a symplectic 2n x 2n matrix")
        elif tuple(BinaryVector(c, 2 * n)
                   for c in frame.column_values()[m:n]) != tuple(self.generators):
            raise ValueError("logical basis must carry generator i in column m+i")

    @classmethod
    def from_pauli_strings(cls, strings: "list[str] | tuple[str, ...]",
                           m: int | None = None) -> "StabilizerProtocol":
        gens = tuple(parse_pauli_string(s) for s in strings)
        if not gens:
            raise ValueError("need at least one generator string")
        n = gens[0].pair_count
        return cls(n, n - len(gens) if m is None else m, gens)


def syndrome_of_error(generators: "tuple[BinaryVector, ...] | list[BinaryVector]",
                      error: BinaryVector) -> BinaryVector:
    """Commutation pattern of an error label against each generator."""
    bits = [gf2.sympl_inner(error, g) for g in generators]
    return BinaryVector.from_bits(bits)


def generator_span(proto: StabilizerProtocol) -> Subspace:
    return Subspace.from_vectors(proto.generators, length=2 * proto.n)


def _pairing_map(proto: StabilizerProtocol, partners: "list[int]") -> BinaryMatrix:
    """Label map x -> (<g_0, x>, ..., <g_last, x>, <p_0, x>, ...), top bit first.

    The symplectic inner product <v, x> is the dot product of x with v's
    halves swapped, so each row is one swapped vector.
    """
    vectors = [g.value for g in proto.generators] + partners
    return BinaryMatrix(tuple(gf2._swap_halves_value(v, proto.n) for v in vectors),
                        2 * proto.n)


def syndrome_distribution(state: BellDiagonalState,
                          proto: StabilizerProtocol) -> np.ndarray:
    """Probability of each syndrome, indexed by its packed integer value.

    Only the XOR of the two sides' outcome strings is modelled: one side's
    raw outcomes are uniform and carry no information (the dense oracle
    demonstrates this).
    """
    if state.n != proto.n:
        raise ValueError("state and protocol disagree on the pair count")
    return branch_table(state, _pairing_map(proto, []), 0, 0).sum(axis=1)


def optimal_recovery(state: BellDiagonalState, proto: StabilizerProtocol,
                     s: BinaryVector) -> BinaryVector:
    """Recovery `run` chooses for syndrome s.

    It is the lex-least representative of the generator-span coset
    B embed(c, s) + span, where B is the protocol's frame and c the
    heaviest logical label (`permutation.optimal_correction`: the smallest
    one within its tie band).  On ties the coset can depend on the frame.
    Raises for syndromes of probability zero.
    """
    if s.length != proto.n - proto.m:
        raise ValueError("syndrome length must equal the generator count")
    branches = run(state, proto)
    rows = np.flatnonzero(branches.s == s.value)
    if not rows.size:
        raise ValueError(f"syndrome {s} has probability zero")
    return BinaryVector(int(branches.u[rows[0]]), 2 * proto.n)


def run(state: BellDiagonalState, proto: StabilizerProtocol,
        threshold: float | None = None) -> BranchSet:
    """Evaluate every syndrome branch of the protocol exactly.

    Syndrome bits come from the generators and logical bits from the
    partner columns of the protocol's frame B (column n+j for the phase of
    logical pair j, column j for its parity), which reads off B^-1 x
    without inverting B.  Per branch, v is the lex-least label with
    syndrome s and the recovery u the lex-least representative of
    B embed(c, s) + span for the heaviest logical label c (the smallest
    within the tie band of `permutation.optimal_correction`).  The branch
    fidelity is the recovery coset's weight over the branch weight (the
    literal expression times 2**(n-m) is reported alongside as
    `unnormalized_fidelity`).  Zero-probability syndromes are never
    produced.  `threshold` defaults to the input fidelity.  The branches
    come as one `BranchSet` with the columns s, prob, v, u, output,
    fidelity, unnormalized_fidelity and accepted.
    """
    if state.n != proto.n:
        raise ValueError("state and protocol disagree on the pair count")
    if threshold is None:
        threshold = state.fidelity
    n, m = proto.n, proto.m
    cols = proto.frame.column_values()
    span = generator_span(proto)
    perp = gf2.orthogonal_complement(span)
    table = branch_table(state, _pairing_map(proto, [*cols[n:n + m], *cols[:m]]),
                         0, m)

    # v(s) and u(c, s) reduce B embed(c, s).  The embedding puts s on
    # positions n+m..2n-1 and c on 0..m-1 and n..n+m-1, and reduction by an
    # echelon basis is linear, so both are XORs of reduced frame columns:
    # tabulated once per part with `gf2.affine_images` and looked up for
    # all branches at once.
    def images(subspace: Subspace, positions) -> np.ndarray:
        return gf2.affine_images([subspace.reduce_value(cols[p]) for p in positions], 0)

    syndrome_part = range(n + m, 2 * n)
    logical_part = [*range(m), *range(n, n + m)]
    branches = branch_outcomes(table, m, threshold)
    s, c = branches.t, branches.correction
    return BranchSet(m, {"s": n - m, "v": 2 * n, "u": 2 * n}, {
        "s": s,
        "prob": branches.prob,
        "v": images(perp, syndrome_part)[s],
        "u": images(span, syndrome_part)[s] ^ images(span, logical_part)[c],
        "output": branches.output,
        "fidelity": branches.fidelity,
        "unnormalized_fidelity": branches.unnormalized_fidelity,
        "accepted": branches.accepted,
    })


__all__ = [
    "StabilizerProtocol", "parse_pauli_string", "to_pauli_string",
    "pauli_letters", "syndrome_of_error",
    "generator_span", "syndrome_distribution", "optimal_recovery", "run",
]
