"""Instance-level retyping and cross-checking of the two protocol engines.

There is one protocol type, (A, b), with two constructors: a matrix
(`PermutationProtocol`) or generators (`StabilizerProtocol`, A the inverse
of their frame, b = 0).  Either engine takes either and names its branches
by outcome t (`permutation.run`) or syndrome s (`stabilizer.run`); the
translations only retype (A, b).  `verify_equivalence` runs both engines
on one protocol and input and compares their branch sets column by column
(t identified with s): probabilities, output distributions, fidelities,
and the chosen correction/recovery cosets, as a `BranchSet` with one row
per label either engine produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import gf2, permutation, stabilizer
from .permutation import BranchSet, PermutationProtocol, _embed_value, align
from .stabilizer import StabilizerProtocol
from .states import BellDiagonalState, random_bell_diagonal


def permutation_from_stabilizer(proto: PermutationProtocol) -> PermutationProtocol:
    """The protocol (A, b) as a plain permutation protocol."""
    return PermutationProtocol._retyped(proto)


def stabilizer_from_permutation(proto: PermutationProtocol) -> StabilizerProtocol:
    """The protocol (A, b) as a generator protocol: its generators are the
    trailing rows of A*P, and `permutation_from_stabilizer` gives it back."""
    return StabilizerProtocol._retyped(proto)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one instance-level cross-check of the two engines.
    `subspaces_match` and `branch_sets_match` are true by construction while
    both engines read one protocol's branch table (ROADMAP item 8)."""

    n: int
    m: int
    subspaces_match: bool
    branches: BranchSet
    branch_sets_match: bool
    coset_match: bool
    max_discrepancy: float
    # Largest discrepancy a passing check may show.
    tolerance: ClassVar[float] = 1e-12

    @property
    def passed(self) -> bool:
        return (self.subspaces_match and self.branch_sets_match
                and self.coset_match and self.max_discrepancy <= self.tolerance)


def verify_equivalence(state: BellDiagonalState, proto: PermutationProtocol,
                       threshold: float | None = None) -> EquivalenceReport:
    """Run both engines on one input and compare them branch by branch.

    Both engines run the one protocol (A, b), so output labels are
    directly comparable.  A branch's recovery u matches the permutation
    engine's correction c when B embed(c, t) + B b + u lies in the
    generator span, B = A^-1 the frame; that is
    A u + b = embed(c, t) outside positions m..n-1, where A puts the span.
    `max_discrepancy` is the largest probability, fidelity or output gap,
    counting a branch only one engine has by its probability.  Mismatches
    are reported in the returned record, never raised.  Its `branches` has
    the columns t (outcome t matched to syndrome s = t), prob_perm,
    prob_code, fidelity_perm, fidelity_code, output_max_diff and
    coset_match, a row per label either engine produced; a branch one
    engine lacks has probability and fidelity 0 there, `output_max_diff`
    NaN and `coset_match` False.
    """
    n, m = proto.n, proto.m
    perm = permutation.run(state, proto, threshold)
    code = stabilizer.run(state, proto, threshold)
    t, p, in_perm, c, in_code = align(perm.t, code.s)
    both = in_perm & in_code
    prob_perm = np.where(in_perm, perm.prob[p], 0.0)
    prob_code = np.where(in_code, code.prob[c], 0.0)
    fidelity_perm = np.where(in_perm, perm.fidelity[p], 0.0)
    fidelity_code = np.where(in_code, code.fidelity[c], 0.0)
    output_diff = np.where(both, np.abs(perm.output[p] - code.output[c]).max(axis=1),
                           np.nan)
    moved = (proto.matrix.apply(code.u[c]) ^ proto.offset.value
             ^ _embed_value(perm.correction[p], t, n, m))
    coset_match = both & ((moved & ~(((1 << (n - m)) - 1) << n)) == 0)
    gaps = np.maximum.reduce([np.abs(prob_perm - prob_code),
                              np.abs(fidelity_perm - fidelity_code), output_diff])
    discrepancy = np.where(both, gaps, prob_perm + prob_code)

    return EquivalenceReport(
        n=n,
        m=m,
        subspaces_match=True,
        branches=BranchSet(m, {"t": n - m}, {
            "t": t,
            "prob_perm": prob_perm,
            "prob_code": prob_code,
            "fidelity_perm": fidelity_perm,
            "fidelity_code": fidelity_code,
            "output_max_diff": output_diff,
            "coset_match": coset_match,
        }),
        branch_sets_match=np.array_equal(perm.t, code.s),
        coset_match=bool(coset_match.all()),
        max_discrepancy=float(discrepancy.max(initial=0.0)),
    )


def random_instance(rng: np.random.Generator, sizes: tuple[int, ...]
                    ) -> tuple[BellDiagonalState, StabilizerProtocol]:
    """Random input state plus random commuting generator set, 0 <= m < n."""
    n = int(rng.choice(sizes))
    m = int(rng.integers(0, n))
    gens = gf2.random_isotropic_generators(n, n - m, rng)
    return random_bell_diagonal(n, rng), StabilizerProtocol(n, m, tuple(gens))
