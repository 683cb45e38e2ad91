"""Exact label-level simulation of entanglement distillation on Bell-diagonal
states, with two interchangeable protocol engines and a dense quantum oracle.

A mixture of Bell-pair products is a probability table over binary labels;
local Clifford-style operations act as affine symplectic relabelings over
GF(2).  The package provides:

* :mod:`belldistill.gf2` - bit-packed GF(2)/symplectic linear algebra,
* :mod:`belldistill.states` - Bell-diagonal states and label operations,
* :mod:`belldistill.permutation` - relabel-then-parity-check protocols,
* :mod:`belldistill.stabilizer` - generator-measurement protocols,
* :mod:`belldistill.equivalence` - translation and cross-verification,
* :mod:`belldistill.oracle` - dense small-system ground truth,
* :mod:`belldistill.crosscheck` - randomized oracle comparison suites,
* :mod:`belldistill.render` - the JSON and CSV output of a command,
* :mod:`belldistill.cli` - the ``belldistill`` command.
"""

from .gf2 import (
    BinaryMatrix,
    BinaryVector,
    Coset,
    Subspace,
    complete_to_symplectic,
    coset_sum,
    is_symplectic,
    orthogonal_complement,
    solve_commutation,
    sympl_inner,
    symplectic_form,
    symplectic_inverse,
)
from .states import BellDiagonalState, werner
from .permutation import (
    BranchSet,
    PermutationProtocol,
    recurrence_sweep,
)
from .stabilizer import StabilizerProtocol, parse_pauli_string
from .equivalence import (
    EquivalenceReport,
    permutation_from_stabilizer,
    stabilizer_from_permutation,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "BinaryVector",
    "Coset",
    "Subspace",
    "complete_to_symplectic",
    "coset_sum",
    "is_symplectic",
    "orthogonal_complement",
    "solve_commutation",
    "sympl_inner",
    "symplectic_form",
    "symplectic_inverse",
    "BellDiagonalState",
    "werner",
    "BranchSet",
    "PermutationProtocol",
    "recurrence_sweep",
    "StabilizerProtocol",
    "parse_pauli_string",
    "EquivalenceReport",
    "permutation_from_stabilizer",
    "stabilizer_from_permutation",
    "verify_equivalence",
    "__version__",
]
