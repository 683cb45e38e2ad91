"""Distillation driven by commuting generator measurements and syndrome recovery.

Both sides measure the n-m commuting Pauli observables named by the
generator labels (one side the elementwise complex conjugate); only the
XOR s of the two outcome strings is informative.  At the label level:

* syndrome bit i of an input label x is its symplectic inner product with
  generator i, and the chance of observing s is the weight of the coset of
  the generators' symplectic complement selected by s;
* recovery picks the heaviest coset of the generator span inside it.

Logical output labels need a basis choice inside the complement; the
completed symplectic matrix B from
:func:`belldistill.gf2.complete_to_symplectic` fixes it.  The logical bits
of x are its inner products with the partner columns of B, so the branch
table `permutation.branch_table` fills here is entry by entry the one the
permutation engine built from the same completion fills, and both engines
read their branches off it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .gf2 import BinaryMatrix, BinaryVector, Subspace
from .permutation import _embed_value, branch_outcomes, branch_table
from .states import BellDiagonalState

_PAULI_TO_BITS = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
_BITS_TO_PAULI = {bits: letter for letter, bits in _PAULI_TO_BITS.items()}


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
    k = label.pair_count
    return "".join(_BITS_TO_PAULI[(label.bit(i), label.bit(k + i))] for i in range(k))


@dataclass(frozen=True)
class StabilizerProtocol:
    """n pairs, m survivors, and n-m independent commuting generator labels."""

    n: int
    m: int
    generators: tuple[BinaryVector, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")
        if len(self.generators) != self.n - self.m:
            raise ValueError("generator count must equal n - m")
        if self.generators:
            if gf2._check_generators(self.generators) != self.n:
                raise ValueError("generator length does not match the pair count")

    @classmethod
    def from_pauli_strings(cls, strings: "list[str] | tuple[str, ...]",
                           m: int | None = None) -> "StabilizerProtocol":
        gens = tuple(parse_pauli_string(s) for s in strings)
        if not gens:
            raise ValueError("need at least one generator string")
        n = gens[0].pair_count
        return cls(n, n - len(gens) if m is None else m, gens)


@dataclass(frozen=True)
class SyndromeBranch:
    """One syndrome: its probability, representative, recovery, and output."""

    s: BinaryVector
    prob: float
    v: BinaryVector
    u: BinaryVector
    output: BellDiagonalState
    fidelity: float
    unnormalized_fidelity: float
    accepted: bool


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
    return branch_table(state.probs, _pairing_map(proto, []), 0, 0).sum(axis=1)


def optimal_recovery(state: BellDiagonalState, proto: StabilizerProtocol,
                     s: BinaryVector) -> BinaryVector:
    """Recovery `run` chooses for syndrome s under the default completion.

    It is the lex-least representative of the generator-span coset
    B embed(c, s) + span, where c is the heaviest logical label (the
    smallest one among exactly equal weights).  On exact ties the coset
    can depend on the completion B.  Raises for syndromes of probability
    zero.
    """
    if s.length != proto.n - proto.m:
        raise ValueError("syndrome length must equal the generator count")
    for branch in run(state, proto):
        if branch.s == s:
            return branch.u
    raise ValueError(f"syndrome {s} has probability zero")


def run(state: BellDiagonalState, proto: StabilizerProtocol,
        threshold: float | None = None,
        basis: BinaryMatrix | None = None) -> list[SyndromeBranch]:
    """Evaluate every syndrome branch of the protocol exactly.

    `basis` is a symplectic completion B of the generators used to name the
    logical output labels; by default the deterministic completion is
    used.  Syndrome bits come from the generators and logical bits from
    B's partner columns (column n+j for the phase of logical pair j,
    column j for its parity), which reads off B^-1 x without inverting B.
    Per branch, v is the lex-least label with syndrome s and the recovery
    u the lex-least representative of B embed(c, s) + span for the
    heaviest logical label c (the smallest among exact ties).  The branch
    fidelity is the recovery coset's weight over the branch weight (the
    literal expression times 2**(n-m) is reported alongside as
    `unnormalized_fidelity`).  Zero-probability syndromes are never
    produced.  `threshold` defaults to the input fidelity.
    """
    if state.n != proto.n:
        raise ValueError("state and protocol disagree on the pair count")
    if threshold is None:
        threshold = state.fidelity
    n, m = proto.n, proto.m
    if basis is None:
        basis = gf2.complete_to_symplectic(proto.generators, n, m)
    else:
        if basis.shape != (2 * n, 2 * n) or not gf2.is_symplectic(basis):
            raise ValueError("logical basis must be a symplectic 2n x 2n matrix")
        for i, g in enumerate(proto.generators):
            if basis.column(m + i) != g:
                raise ValueError("logical basis must carry generator i in column m+i")
    span = generator_span(proto)
    perp = gf2.orthogonal_complement(span)
    cols = basis.column_values()
    table = branch_table(state.probs, _pairing_map(proto, [*cols[n:n + m], *cols[:m]]),
                         0, m)

    def lifted(y: int, s: int) -> int:
        return (basis @ BinaryVector(_embed_value(y, s, n, m), 2 * n)).value

    return [
        SyndromeBranch(
            s=o.t,
            prob=o.prob,
            v=BinaryVector(perp.reduce_value(lifted(0, o.t.value)), 2 * n),
            u=BinaryVector(span.reduce_value(lifted(o.correction.value, o.t.value)),
                           2 * n),
            output=o.output,
            fidelity=o.fidelity,
            unnormalized_fidelity=o.unnormalized_fidelity,
            accepted=o.accepted,
        )
        for o in branch_outcomes(table, m, threshold)
    ]


__all__ = [
    "StabilizerProtocol", "SyndromeBranch", "parse_pauli_string",
    "to_pauli_string", "syndrome_of_error", "generator_span",
    "syndrome_distribution", "optimal_recovery", "run",
]
