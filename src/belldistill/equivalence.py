"""Instance-level translation and cross-checking of the two protocol engines.

A generator protocol holds its relabeling, the permutation protocol
A = B^-1 = P B^T P of its frame B (generator i in column m+i), which
reproduces the generator measurements.  The translations hand A over both
ways: a zero-offset permutation protocol A becomes its `generators` (the
trailing rows of A*P) holding A, so the round trip is exact.
`verify_equivalence` runs both engines on the same input and compares
their branch sets column by column (outcome t identified with syndrome
s): probabilities, output distributions, fidelities, and the chosen
correction/recovery cosets.  The comparison is itself a `BranchSet`, one
row per label either engine produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import gf2, permutation, stabilizer
from .permutation import (BranchSet, PermutationProtocol, _embed_value, align,
                          measured_subspace)
from .stabilizer import StabilizerProtocol, generator_span
from .states import BellDiagonalState, random_bell_diagonal


def permutation_from_stabilizer(proto: StabilizerProtocol) -> PermutationProtocol:
    """The protocol's relabeling, the linear protocol P B^T P of its frame
    B: its measured subspace is the generator span, and it names its
    logical outputs as the stabilizer engine does."""
    return proto.relabeling


def stabilizer_from_permutation(proto: PermutationProtocol) -> StabilizerProtocol:
    """The generators of the protocol (A, 0) holding A as their relabeling,
    so that `permutation_from_stabilizer` gives back A.  The generator form
    carries no offset, so a nonzero one is refused."""
    if proto.offset.value:
        raise ValueError(f"offset {proto.offset} is not carried into the generator "
                         "protocol; run-code and verify need an all-zero offset "
                         "(ROADMAP item 3)")
    return StabilizerProtocol._trusted(proto)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one instance-level cross-check of the two engines."""

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


def verify_equivalence(state: BellDiagonalState, proto: StabilizerProtocol,
                       threshold: float | None = None) -> EquivalenceReport:
    """Run both engines on one input and compare them branch by branch.

    The permutation protocol is the protocol's relabeling A, so output
    labels are directly comparable.  A branch's recovery u matches the
    permutation engine's correction c when B embed(c, t) + u lies in the
    generator span, B = A^-1 the frame; that is A u = embed(c, t) outside
    positions m..n-1, where A puts the span.
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
    perm_proto = permutation_from_stabilizer(proto)
    subspaces_match = measured_subspace(perm_proto) == generator_span(proto)

    perm = permutation.run(state, perm_proto, threshold)
    code = stabilizer.run(state, proto, threshold)
    t, p, in_perm, c, in_code = align(perm.t, code.s)
    both = in_perm & in_code
    prob_perm = np.where(in_perm, perm.prob[p], 0.0)
    prob_code = np.where(in_code, code.prob[c], 0.0)
    fidelity_perm = np.where(in_perm, perm.fidelity[p], 0.0)
    fidelity_code = np.where(in_code, code.fidelity[c], 0.0)
    output_diff = np.where(both, np.abs(perm.output[p] - code.output[c]).max(axis=1),
                           np.nan)
    moved = perm_proto.matrix.apply(code.u[c]) ^ _embed_value(perm.correction[p], t, n, m)
    coset_match = both & ((moved & ~(((1 << (n - m)) - 1) << n)) == 0)
    gaps = np.maximum.reduce([np.abs(prob_perm - prob_code),
                              np.abs(fidelity_perm - fidelity_code), output_diff])
    discrepancy = np.where(both, gaps, prob_perm + prob_code)

    return EquivalenceReport(
        n=n,
        m=m,
        subspaces_match=subspaces_match,
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
