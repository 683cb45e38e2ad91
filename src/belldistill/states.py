"""Bell-diagonal states as probability tables over binary labels.

A mixture of tensor products of Bell states on n pairs is fully described by
one weight per 2n-bit label.  The table index of a label is its packed
integer value (see :mod:`belldistill.gf2` for the bit convention), which
makes label-level operations plain array permutations.  A single pair is
the case n = 1: `werner` returns one, and `BellDiagonalState.from_pairs`
builds product states from them.

A state keeps the factors it was built from: a dense input is one factor,
and a product of more than _HEAD_PAIRS pairs is a dense head over the first
_HEAD_PAIRS pairs followed by one factor per further pair.  The branch
kernel (`permutation.branch_table`) reads the factors, so a product input
never needs its 4**n table; `probs` builds that table on first use, for the
label operations, serialization and the dense oracle.

States are immutable after construction; weights are validated and
renormalized exactly once, at construction, and any later drift beyond
1e-9 is treated as a bug and raised, never hidden.  Three builders skip
the constructor's new array and normalize a table they have just written,
in place, with the same check and division (`_normalize`): `from_pairs`,
`random_bell_diagonal`, and `permutation.branch_outcomes`, whose branch
outputs are the rows of one such table.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from . import gf2
from .gf2 import BinaryMatrix, BinaryVector

_SUM_TOLERANCE = 1e-9
_NEGATIVE_TOLERANCE = 1e-12

# Pairs in the dense head factor of `from_pairs`; each further pair is a
# factor of its own.  A product of at most this many pairs is one dense
# table, summed by the branch kernel exactly as a dense input is, and its
# 4**8 labels are one 2^16-input block of that kernel's scatter.
_HEAD_PAIRS = 8


def werner(fidelity: float) -> "BellDiagonalState":
    """Pair with the given target weight and the rest spread evenly.

    Below fidelity 1/4 the pair carries no distillable structure for the
    protocols here, so that range is accepted only with a warning.
    """
    pair, warning = werner_pair(fidelity)
    if warning is not None:
        warnings.warn(warning, stacklevel=2)
    return pair


def werner_pair(fidelity: float) -> tuple["BellDiagonalState", str | None]:
    """The pair `werner` returns, and the text of the warning it gives
    below fidelity 1/4 (None from 1/4 up) without giving it, for a caller
    that shows the warning itself."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity} outside [0, 1]")
    warning = (f"Werner fidelity {fidelity} is below 1/4: state is not distillable"
               if fidelity < 0.25 else None)
    rest = (1.0 - fidelity) / 3.0
    return BellDiagonalState(1, (fidelity, rest, rest, rest)), warning


class BellDiagonalState:
    """Probability distribution over the 4**n labels of n Bell pairs.

    `factors` holds it as a product of independent normalized tables over
    consecutive pairs, in pair order: a table over k pairs has 4**k
    entries indexed like a k-pair state.  The dense table `probs` is built
    from the pair tables of a product on first use.
    """

    __slots__ = ("n", "factors", "_pairs", "_probs")

    def __init__(self, n: int, probs: Sequence[float] | np.ndarray):
        _check_pair_count(n)
        try:
            arr = np.asarray(probs, dtype=float)
        except OverflowError:  # a Python int beyond float range
            raise ValueError("weight beyond float range") from None
        if arr.shape != (1 << (2 * n),):
            raise ValueError(f"expected {1 << (2 * n)} weights for n={n}, got {arr.shape}")
        # A new array: the caller's is never written, and is never aliased.
        self._freeze(n, (_normalize(arr, None),), None)

    def _freeze(self, n: int, factors: tuple[np.ndarray, ...],
                pairs: tuple[np.ndarray, ...] | None) -> None:
        for factor in factors:
            factor.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_probs", factors[0] if len(factors) == 1 else None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("BellDiagonalState is immutable")

    @classmethod
    def _trusted(cls, n: int, arr: np.ndarray) -> "BellDiagonalState":
        """Internal constructor that takes `arr` as it is and freezes it.

        For exact permutations of validated tables, and for tables their
        builder has just normalized with `_normalize`: `from_pairs`,
        `random_bell_diagonal` and the output rows of a `permutation.BranchSet`.
        """
        state = object.__new__(cls)
        state._freeze(n, (arr,), None)
        return state

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence["BellDiagonalState"]) -> "BellDiagonalState":
        """Product state of independent pairs: p_x = prod_i pair_i(x_i, x_{n+i}).

        The factors are the normalized dense product of the first
        _HEAD_PAIRS pairs, then the table of each further pair.  With at
        most _HEAD_PAIRS pairs the state is that one dense table.
        """
        if not pairs:
            raise ValueError("need at least one pair")
        if any(p.n != 1 for p in pairs):
            raise ValueError("from_pairs takes 1-pair states")
        _check_pair_count(len(pairs))
        tables = tuple(p.probs for p in pairs)
        state = object.__new__(cls)
        state._freeze(len(tables), _product_factors(tables), tables)
        return state

    @classmethod
    def point_mass(cls, n: int, label: BinaryVector | None = None) -> "BellDiagonalState":
        _check_pair_count(n)
        probs = np.zeros(1 << (2 * n))
        probs[label.value if label is not None else 0] = 1.0
        return cls(n, probs)

    # -- queries -----------------------------------------------------------

    @property
    def probs(self) -> np.ndarray:
        """The dense, read-only table of all 4**n weights.

        A product of more than _HEAD_PAIRS pairs builds it on first use as
        the normalized product of all its pair tables, the table a dense
        `from_pairs` would hold.
        """
        if self._probs is None:
            arr = _pair_product(self._pairs)
            arr = _normalize(arr, arr)
            arr.setflags(write=False)
            object.__setattr__(self, "_probs", arr)
        return self._probs

    @property
    def fidelity(self) -> float:
        """Weight of the all-zero label (the all-target Bell product): the
        product of the factors' weights there."""
        return math.prod(float(factor[0]) for factor in self.factors)

    def prob(self, label: BinaryVector) -> float:
        if label.length != 2 * self.n:
            raise ValueError("label length does not match pair count")
        return float(self.probs[label.value])

    # -- label-level local operations ---------------------------------------

    def pauli_shift(self, a: BinaryVector) -> "BellDiagonalState":
        """Relabel x -> x + a (one side applies the Pauli with label a)."""
        if a.length != 2 * self.n:
            raise ValueError("shift label length does not match pair count")
        if a.value == 0:
            return self
        idx = np.arange(len(self.probs), dtype=np.int64)
        return BellDiagonalState._trusted(self.n, self.probs[idx ^ np.int64(a.value)])

    def permute(self, matrix: BinaryMatrix, offset: BinaryVector | None = None
                ) -> "BellDiagonalState":
        """Relabel x -> A x + b for a symplectic A.

        Non-symplectic matrices are refused: only maps preserving the
        commutation structure (A^T P A = P) are realizable by local
        unitaries acting on the two sides.
        """
        two_n = 2 * self.n
        if matrix.shape != (two_n, two_n):
            raise ValueError("matrix shape does not match pair count")
        if not gf2.is_symplectic(matrix):
            raise ValueError(
                "matrix is not symplectic (A^T P A != P): "
                "this label map is not realizable by local unitaries")
        b = 0 if offset is None else offset.value
        if offset is not None and offset.length != two_n:
            raise ValueError("offset length does not match pair count")
        image = gf2.affine_images(matrix.column_values(), b)
        out = np.empty_like(self.probs)
        out[image] = self.probs
        return BellDiagonalState._trusted(self.n, out)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"n": self.n, "probs": self.probs.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "BellDiagonalState":
        return cls(int(data["n"]), data["probs"])

    def __repr__(self) -> str:
        return f"BellDiagonalState(n={self.n}, fidelity={self.fidelity:.6g})"


def _check_pair_count(n: int) -> None:
    """Refuse pair counts beyond the cap before any 4**n table is allocated."""
    if not 0 <= n <= gf2.MAX_PAIRS:
        raise ValueError(f"pair count {n} outside supported range 0..{gf2.MAX_PAIRS}")


def _product_factors(tables: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The factors of a product of 1-pair tables: the normalized dense
    product of the first _HEAD_PAIRS, then each further table.  The tables
    may share leading batch axes (shape (..., 4)); each factor then has
    them too, its rows each the factor of one product."""
    head = _pair_product(tables[:_HEAD_PAIRS])
    return (_normalize(head, head), *tables[_HEAD_PAIRS:])


def _pair_product(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Dense product of 1-pair tables in label order, not normalized; tables
    of shape (..., 4) give products of shape (..., 4**len(tables)).

    Each table reshaped to 2x2 is indexed [phase][parity].  The Kronecker
    product of those matrices is indexed by (all phases, all parities),
    which is already the label order.  Each step is one broadcast multiply
    of arr by the pair's 2x2 matrix into a fresh (rows, 2, cols, 2) table,
    its block [:, a, :, b] being arr * pair[a, b]: bit for bit the chain
    `reduce(np.kron, ...)`, without its full-size temporaries.  The multiply
    runs over the blocks in C order, so its inner loop is a row of arr, not
    the last axis of length 2.
    """
    *batch, _ = tables[0].shape
    lead = len(batch)
    blocks = (*range(lead), lead + 1, lead + 3, lead, lead + 2)  # [.., a, b, rows, cols]
    arr = np.ones((*batch, 1, 1, 1, 1))
    for table in tables:
        rows, cols = arr.shape[-2:]
        out = np.empty((*batch, rows, 2, cols, 2))
        np.multiply(arr, table.reshape(*batch, 2, 2, 1, 1), out=out.transpose(blocks),
                    order="C")
        arr = out.reshape(*batch, 1, 1, 2 * rows, 2 * cols)
    return arr.reshape(*batch, -1)


def _normalize(arr: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Each row (last axis) of `arr` validated and rescaled to total one.

    Weights below -1e-12 are refused and smaller negative ones clipped to
    zero; a row whose total is more than 1e-9 from one (or NaN) is refused.
    The result goes to `out`: None for a new array, as the constructor
    needs, or `arr` itself when its builder owns it.
    """
    low = arr.min(initial=0.0)
    if low < -_NEGATIVE_TOLERANCE:
        raise ValueError(f"negative weight in distribution: {low}")
    if low < 0.0:
        arr = np.maximum(arr, 0.0, out=out)
    with np.errstate(over="ignore"):  # a total beyond float range is inf, refused below
        total = arr.sum(axis=-1, keepdims=True)
    drifted = ~(np.abs(total - 1.0) <= _SUM_TOLERANCE)  # NaN drifts too
    if drifted.any():
        raise ValueError(f"weights sum to {total[drifted][0]}, drifted beyond 1e-9 from 1")
    return np.divide(arr, total, out=out)


def random_bell_diagonal(n: int, rng: np.random.Generator) -> BellDiagonalState:
    """Random normalized weight table (for verification suites), in one array."""
    _check_pair_count(n)
    raw = rng.random(1 << (2 * n))
    raw += 1e-12
    raw /= raw.sum()
    return BellDiagonalState._trusted(n, _normalize(raw, raw))
