"""Distillation driven by commuting generator measurements and syndrome recovery.

Both sides measure the n-m commuting Pauli observables named by the
generator labels (one side the elementwise complex conjugate); only the
XOR s of the two outcome strings is informative.  At the label level:

* syndrome bit i of an input label x is its symplectic inner product with
  generator i, and the chance of observing s is the weight of the coset of
  the generators' symplectic complement selected by s;
* recovery picks the heaviest coset of the generator span inside it.

Logical output labels need a basis choice inside the complement.  A
protocol holds it as its relabeling, the permutation protocol (A, b) with
A = B^-1 = P B^T P for a symplectic completion B of the generators (its
`frame`).  The syndrome and logical bits of x are the inner products
<g_i, x> and those with B's partner columns, bits of A x, plus those of b,
so `run` fills its table with the permutation engine's label map of
(A, b) and reads the branches off it the same way.

`run` returns a `permutation.BranchSet` whose label columns, the syndrome
s, the representative v and the recovery u, hold int64 label values
tabulated for all syndromes at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .gf2 import BinaryMatrix, BinaryVector, Subspace
from .permutation import BranchSet, PermutationProtocol, _branches, branch_table
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


@dataclass(frozen=True, eq=False)
class StabilizerProtocol:
    """n pairs, m survivors, n-m independent commuting generator labels, and
    the `relabeling` that names the logical output labels: the linear
    `PermutationProtocol` A = B^-1 of the deterministic completion B of the
    generators, or the protocol (A, b) `equivalence.stabilizer_from_permutation`
    got.  Row n+m+i of A is generator i with its halves swapped.  Protocols
    with equal relabelings are equal."""

    n: int
    m: int
    generators: tuple[BinaryVector, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")
        if len(self.generators) != self.n - self.m:
            raise ValueError("generator count must equal n - m")
        frame = gf2.complete_to_symplectic(self.generators, self.n)
        object.__setattr__(self, "relabeling", PermutationProtocol._trusted(
            self.n, self.m, gf2._inverse(frame)))

    @classmethod
    def _trusted(cls, relabeling: PermutationProtocol) -> "StabilizerProtocol":
        """Internal constructor of the protocol of a checked relabeling (A, b),
        its generators read off A, skipping the completion."""
        proto = object.__new__(cls)
        proto.__dict__.update(n=relabeling.n, m=relabeling.m,
                              generators=relabeling.generators, relabeling=relabeling)
        return proto

    @property
    def frame(self) -> BinaryMatrix:
        """B = A^-1 = P A^T P, with generator i in column m+i."""
        return gf2._inverse(self.relabeling.matrix)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StabilizerProtocol) and self.relabeling == other.relabeling

    def __hash__(self) -> int:
        return hash(self.relabeling)

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


def syndrome_distribution(state: BellDiagonalState,
                          proto: StabilizerProtocol) -> np.ndarray:
    """Probability of each syndrome, indexed by its packed integer value.

    Only the XOR of the two sides' outcome strings is modelled: one side's
    raw outcomes are uniform and carry no information (the dense oracle
    demonstrates this).  The relabeling's offset b flips syndrome bits.
    """
    if state.n != proto.n:
        raise ValueError("state and protocol disagree on the pair count")
    n, m, b = proto.n, proto.m, proto.relabeling.offset.value
    label_map = BinaryMatrix(proto.relabeling.matrix.rows[n + m:], 2 * n)
    return branch_table(state, label_map, b & ((1 << (n - m)) - 1), 0).sum(axis=1)


def optimal_recovery(state: BellDiagonalState, proto: StabilizerProtocol,
                     s: BinaryVector) -> BinaryVector:
    """Recovery `run` chooses for syndrome s.

    It is the lex-least representative of the generator-span coset
    B embed(c, s) + B b + span, where (B^-1, b) is the protocol's relabeling
    and c the heaviest logical label (`permutation.optimal_correction`: the
    smallest one within its tie band).  On ties the coset can depend on the
    frame.  Raises for syndromes of probability zero.
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

    The branches are the permutation engine's for the protocol's
    relabeling (A, b) (bits n+m.. of A x + b are the syndrome); no
    zero-probability syndrome is produced.  Per branch, v is the lex-least
    label with syndrome s and the recovery u the lex-least representative
    of B embed(c, s) + B b + span for the frame B = A^-1 and the heaviest
    logical label c (`permutation.optimal_correction`), so the fidelity is
    the recovery coset's weight over the branch weight.  `threshold` defaults
    to the input fidelity.  The columns are s, prob, v, u, output,
    fidelity, unnormalized_fidelity and accepted.
    """
    branches = _branches(state, proto.relabeling, threshold)
    n, m = proto.n, proto.m
    span = generator_span(proto)
    perp = gf2.orthogonal_complement(span)

    # v(s) and u(c, s) reduce B embed(c, s) + B b.  The embedding puts s on
    # positions n+m..2n-1 and c on 0..m-1 and n..n+m-1, and reduction by an
    # echelon basis is linear, so both are XORs of reduced frame columns and
    # B b, tabulated per part (`gf2.affine_images`).  As B = P A^T P, column
    # j of B is row j+n (mod 2n) of A with its halves swapped, and the input
    # Pauli B b is the XOR of the rows of A that P b selects, halves swapped.
    rows = proto.relabeling.matrix.rows
    pauli = gf2._swap_halves_value(gf2._combination(
        rows[::-1], gf2._swap_halves_value(proto.relabeling.offset.value, n)), n)

    def images(subspace: Subspace, part, offset: int) -> np.ndarray:
        return gf2.affine_images([subspace.reduce_value(gf2._swap_halves_value(r, n))
                                  for r in part], subspace.reduce_value(offset))

    syndrome_part = rows[m:n]
    logical_part = rows[n:n + m] + rows[:m]
    s, c = branches.t, branches.correction
    return BranchSet(m, {"s": n - m, "v": 2 * n, "u": 2 * n}, {
        "s": s,
        "prob": branches.prob,
        "v": images(perp, syndrome_part, pauli)[s],
        "u": images(span, syndrome_part, pauli)[s] ^ images(span, logical_part, 0)[c],
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
