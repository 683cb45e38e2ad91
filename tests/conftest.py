import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from belldistill.gf2 import BinaryMatrix
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
        return BranchSet(branches.m, branches.widths,
                         {name: change(name, column)
                          for name, column in branches.columns.items()})
    return edit
