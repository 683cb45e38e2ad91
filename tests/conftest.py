import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from belldistill import gf2
from belldistill.gf2 import BinaryMatrix, BinaryVector
from belldistill.permutation import BranchSet
from belldistill.states import BellDiagonalState, werner

settings.register_profile(
    "belldistill",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("belldistill")

# Bilateral CNOT on two pairs: phases add into pair 1, parities into pair 2.
BCNOT_ROWS = ["1100", "0100", "0010", "0011"]


@pytest.fixture
def bcnot() -> BinaryMatrix:
    return BinaryMatrix.from_strings(BCNOT_ROWS)


@pytest.fixture
def werner2() -> BellDiagonalState:
    return BellDiagonalState.from_pairs([werner(0.75)] * 2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture
def edit_columns():
    """A function giving a branch set with each column replaced by
    edit(name, column), for engines that misbehave on purpose."""
    def edit(branches: BranchSet, change) -> BranchSet:
        return BranchSet(branches.widths,
                         {name: change(name, column)
                          for name, column in branches.columns.items()})
    return edit


@pytest.fixture
def table_calls(monkeypatch) -> list[int]:
    """The batch size of each `permutation.branch_table` call made while
    the test runs, in call order."""
    from belldistill import permutation
    calls = []
    table = permutation.branch_table
    monkeypatch.setattr(permutation, "branch_table", lambda factors, *args: (
        calls.append(len(factors[0])), table(factors, *args))[1])
    return calls


@pytest.fixture
def relabel():
    """A function giving the state relabeled x -> A x + b, every label
    mapped by `BinaryMatrix.apply`: not by the kernel's own
    `gf2.affine_images`, so a dense oracle fed this state shares no label
    map with the engines it checks."""
    def relabeled(state: BellDiagonalState, matrix: BinaryMatrix,
                  offset: BinaryVector | None = None) -> BellDiagonalState:
        probs = np.empty_like(state.probs)
        images = matrix.apply(np.arange(probs.size))
        probs[images ^ (0 if offset is None else offset.value)] = state.probs
        return BellDiagonalState._trusted(state.n, probs)
    return relabeled


@pytest.fixture
def random_frame():
    """A function giving a random valid frame for n - m commuting
    generators: the deterministic completion times random transvections
    x -> x + <x,h> h.  No h has a bit at positions n+m..2n-1, so each
    transvection fixes the generator columns m..n-1, and the product stays
    symplectic.  A protocol of another frame B is the one of its inverse,
    stabilizer_from_permutation(PermutationProtocol.linear(n, m,
    gf2.symplectic_inverse(B)))."""
    def frame(gens, n: int, rng: np.random.Generator) -> BinaryMatrix:
        two_n, k = 2 * n, len(gens)
        basis = gf2.complete_to_symplectic(gens, n)
        for _ in range(two_n):
            h = BinaryVector(int(rng.integers(0, 1 << two_n)) >> k << k, two_n)
            ph = (gf2.symplectic_form(n) @ h).value
            # T = I + h (P h)^T: row i of T is e_i, plus (P h)^T where h has bit i
            rows = ((1 << (two_n - 1 - i)) ^ (ph if h.bit(i) else 0) for i in range(two_n))
            basis = basis @ BinaryMatrix(tuple(rows), two_n)
        return basis
    return frame
