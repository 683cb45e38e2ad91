"""Distillation driven by commuting generator measurements and syndrome recovery.

Both sides measure the n-m commuting Pauli observables named by the
generator labels (one side the elementwise complex conjugate); only the
XOR s of the two outcome strings is informative.  At the label level:

* syndrome bit i of an input label x is its symplectic inner product with
  generator i, and the chance of observing s is the weight of the coset of
  the generators' symplectic complement selected by s;
* recovery picks the heaviest coset of the generator span inside it.

Logical output labels need a basis choice inside the complement: a
`StabilizerProtocol` is the `permutation.PermutationProtocol` (A, b) with
A = B^-1 = P B^T P for a symplectic completion B of its generators (the
frame) and b = 0, so row i of A is column i+n (mod 2n) of B, halves
swapped.  The syndrome and logical bits of x are the inner products
<g_i, x> and those with B's partner columns, bits of A x + b, so `run`
takes any protocol (A, b), reads its branches off the permutation
engine's table, and names them by s, v and u from B's columns
(`name_by_syndrome`, the step `equivalence.verify_equivalence` applies
to the permutation engine's branches, so it builds no second table).

`run` returns a `permutation.BranchSet` whose label columns, the syndrome
s, the representative v and the recovery u, hold int64 label values
tabulated for all syndromes at once.
"""

from __future__ import annotations

import numpy as np

from . import gf2
from .gf2 import BinaryMatrix, BinaryVector
from .permutation import BranchSet, PermutationProtocol, _branches
from .states import BellDiagonalState, _check_pair_count

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


class StabilizerProtocol(PermutationProtocol):
    """The `PermutationProtocol` (A, b) built from n-m independent commuting
    generator labels: A = B^-1 = P B^T P for their deterministic completion
    B (`gf2._frame_columns`) and b = 0, holding B's columns and the
    completion's echelons of the generator span and its commutant as the
    protocol's `_frame`.  Row n+m+i of A is generator i with
    its halves swapped, so `generators` gives them back in order.  Equality,
    hashing and `repr` are the dataclass's, on (n, m, A, b) and the class:
    a generator protocol never equals the plain protocol of its (A, b)."""

    def __init__(self, n: int, m: int,
                 generators: "tuple[BinaryVector, ...] | list[BinaryVector]") -> None:
        _check_pair_count(n)
        if not 0 <= m <= n:
            raise ValueError("need 0 <= m <= n")
        if len(generators) != n - m:
            raise ValueError("generator count must equal n - m")
        columns, span, commutant = gf2._frame_columns(generators, n)
        self.__dict__.update(n=n, m=m,
                             matrix=BinaryMatrix(gf2._form_conjugate(columns, n), 2 * n),
                             offset=BinaryVector.zeros(2 * n),
                             _frame=(tuple(columns), span, commutant))

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


def optimal_recovery(state: BellDiagonalState, proto: PermutationProtocol,
                     s: BinaryVector) -> BinaryVector:
    """Recovery `run` chooses for syndrome s.

    It is the lex-least representative of the generator-span coset
    B embed(c, s) + B b + span, where (B^-1, b) is the protocol and c the
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


def run(state: BellDiagonalState, proto: PermutationProtocol,
        threshold: float | None = None) -> BranchSet:
    """Evaluate every syndrome branch of the protocol exactly.

    The branches are the permutation engine's for the protocol (A, b)
    (bits n+m.. of A x + b are the syndrome); no zero-probability
    syndrome is produced.  Per branch, v is the lex-least
    label with syndrome s and the recovery u the lex-least representative
    of B embed(c, s) + B b + span for the frame B = A^-1 and the heaviest
    logical label c (`permutation.optimal_correction`), so the fidelity is
    the recovery coset's weight over the branch weight.  Both are read off
    B's columns, taken from the rows of A.  `threshold` defaults to the
    input fidelity.  The columns are s, prob, fidelity,
    unnormalized_fidelity, v, u, accepted and output, in the order
    `run-code` prints them (with its `recovery` before accepted).
    """
    return name_by_syndrome(_branches(state, proto, threshold), proto)


def name_by_syndrome(branches: BranchSet, proto: PermutationProtocol) -> BranchSet:
    """The permutation engine's branches of the protocol (A, b), named as
    `run` names them: outcome t read as the syndrome s, and the columns v
    and u of every branch added (see `run`).  The statistics and outputs
    are the given set's own columns."""
    n, m, two_n = proto.n, proto.m, 2 * proto.n

    # v(s) and u(c, s) reduce B embed(c, s) + B b.  The embedding puts s on
    # positions n+m..2n-1 and c on 0..m-1 and n..n+m-1, and reduction by an
    # echelon basis is linear, so both are XORs of reduced frame columns and
    # B b, tabulated per part (`gf2.affine_images`).  B's columns are the
    # rows of B^T = P A P, and B b is the XOR of those b selects.  Columns
    # m..n-1 are the generators; 0..n+m-1, all but their partners, span
    # the generators' symplectic complement.  The syndrome part of v and of
    # u is one table of values reduced both ways, v's above u's 2n bits.
    frame, span, perp = proto._frame
    pauli = gf2._combination(frame[::-1], proto.offset.value)

    def both(col: int) -> int:
        return (gf2._reduce_by(col, *perp, two_n) << two_n) | gf2._reduce_by(col, *span, two_n)

    named = gf2.affine_images([both(col) for col in frame[n + m:]], both(pauli))[branches.t]
    return BranchSet({"s": n - m, "v": two_n, "u": two_n}, {
        "s": branches.t,
        "prob": branches.prob,
        "fidelity": branches.fidelity,
        "unnormalized_fidelity": branches.unnormalized_fidelity,
        "v": named >> two_n,
        "u": (named & ((1 << two_n) - 1)) ^ gf2.affine_images([gf2._reduce_by(
            col, *span, two_n) for col in frame[:m] + frame[n:n + m]], 0)[branches.correction],
        "accepted": branches.accepted,
        "output": branches.output,
    })


__all__ = [
    "StabilizerProtocol", "parse_pauli_string", "to_pauli_string",
    "pauli_letters", "syndrome_of_error",
    "optimal_recovery", "run", "name_by_syndrome",
]
