"""Instance-level translation and cross-checking of the two protocol engines.

A generator protocol's frame, a symplectic matrix B carrying generator i in
column m+i, has the inverse P B^T P: exactly the relabeling a permutation
protocol needs to reproduce the generator measurements.  Conversely, the
trailing rows of A*P of any permutation protocol (its `generators`) form a
valid commuting generator set.  `verify_equivalence` runs both engines on
the same input and checks, branch by branch (outcome t identified with
syndrome s), that probabilities, output distributions, fidelities, and the
chosen correction/recovery cosets all agree.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import gf2, permutation, stabilizer
from .gf2 import BinaryVector
from .permutation import PermutationProtocol, embed_label, measured_subspace
from .stabilizer import StabilizerProtocol, generator_span
from .states import BellDiagonalState, random_bell_diagonal

DEFAULT_TOLERANCE = 1e-12


def permutation_from_stabilizer(proto: StabilizerProtocol) -> PermutationProtocol:
    """Relabeling protocol equivalent to the generator-measurement protocol.

    Returns the linear protocol with matrix P B^T P for the protocol's
    frame B; its measured subspace equals the generator span, and it names
    its logical outputs as the stabilizer engine does.
    """
    matrix = gf2.symplectic_inverse(proto.frame)
    return PermutationProtocol.linear(proto.n, proto.m, matrix)


def stabilizer_from_permutation(proto: PermutationProtocol) -> StabilizerProtocol:
    """Generator set measured by a permutation protocol (its `generators`)."""
    return StabilizerProtocol(proto.n, proto.m, proto.generators)


@dataclass(frozen=True)
class BranchComparison:
    """Per-branch agreement record (outcome t matched to syndrome s = t)."""

    t: BinaryVector
    prob_perm: float
    prob_code: float
    fidelity_perm: float
    fidelity_code: float
    output_max_diff: float
    coset_match: bool

    @property
    def max_discrepancy(self) -> float:
        return max(abs(self.prob_perm - self.prob_code),
                   abs(self.fidelity_perm - self.fidelity_code),
                   self.output_max_diff)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one instance-level cross-check of the two engines."""

    n: int
    m: int
    subspaces_match: bool
    branches: tuple[BranchComparison, ...]
    branch_sets_match: bool
    coset_match: bool
    max_discrepancy: float
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def passed(self) -> bool:
        return (self.subspaces_match and self.branch_sets_match
                and self.coset_match and self.max_discrepancy <= self.tolerance)

    def to_dict(self) -> dict:
        branches = [{**_fields(b), "t": str(b.t)} for b in self.branches]
        return {**_fields(self), "passed": self.passed, "branches": branches}


def _fields(record) -> dict:
    """A dataclass record's fields by name, values as they are."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def verify_equivalence(state: BellDiagonalState, proto: StabilizerProtocol,
                       threshold: float | None = None) -> EquivalenceReport:
    """Run both engines on one input and compare them branch by branch.

    The permutation protocol comes from the protocol's frame, so output
    labels are directly comparable.  Mismatches are reported in the
    returned record, never raised.
    """
    perm_proto = permutation_from_stabilizer(proto)
    span = generator_span(proto)
    subspaces_match = measured_subspace(perm_proto) == span

    perm_branches = {o.t.value: o for o in permutation.run(state, perm_proto, threshold)}
    code_branches = {b.s.value: b for b in stabilizer.run(state, proto, threshold)}
    branch_sets_match = set(perm_branches) == set(code_branches)

    comparisons = []
    max_disc = 0.0
    all_cosets = True
    k = proto.n - proto.m
    for t in sorted(set(perm_branches) | set(code_branches)):
        po = perm_branches.get(t)
        co = code_branches.get(t)
        if po is None or co is None:
            present = po or co
            comparisons.append(BranchComparison(
                t=BinaryVector(t, k),
                prob_perm=po.prob if po else 0.0,
                prob_code=co.prob if co else 0.0,
                fidelity_perm=po.fidelity if po else 0.0,
                fidelity_code=co.fidelity if co else 0.0,
                output_max_diff=float("nan"),
                coset_match=False,
            ))
            max_disc = max(max_disc, present.prob)
            all_cosets = False
            continue
        output_diff = float(np.max(np.abs(po.output.probs - co.output.probs)))
        shifted = proto.frame @ embed_label(po.correction, po.t, proto.n, proto.m)
        coset_ok = span.contains(shifted ^ co.u)
        comparisons.append(BranchComparison(
            t=BinaryVector(t, k),
            prob_perm=po.prob,
            prob_code=co.prob,
            fidelity_perm=po.fidelity,
            fidelity_code=co.fidelity,
            output_max_diff=output_diff,
            coset_match=coset_ok,
        ))
        max_disc = max(max_disc, comparisons[-1].max_discrepancy)
        all_cosets = all_cosets and coset_ok

    return EquivalenceReport(
        n=proto.n,
        m=proto.m,
        subspaces_match=subspaces_match,
        branches=tuple(comparisons),
        branch_sets_match=branch_sets_match,
        coset_match=all_cosets,
        max_discrepancy=max_disc,
    )


def random_instance(rng: np.random.Generator,
                    sizes: tuple[int, ...] = (2, 3, 4)
                    ) -> tuple[BellDiagonalState, StabilizerProtocol]:
    """Random input state plus random commuting generator set, 0 <= m < n."""
    n = int(rng.choice(sizes))
    m = int(rng.integers(0, n))
    gens = gf2.random_isotropic_generators(n, n - m, rng)
    return random_bell_diagonal(n, rng), StabilizerProtocol(n, m, tuple(gens))
