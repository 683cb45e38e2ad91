"""Distillation by symplectic relabeling followed by pairwise parity checks.

The protocol relabels the joint Bell-product label by an affine symplectic
map x -> A x + b, measures both qubits of each of the last n-m pairs in the
computational basis, and compares the two sides.  At the label level the
relabeled label A x + b splits into the outcome bits t (parities of the
measured pairs), the logical label y of the survivors, and the phases of
the measured pairs, which nobody sees.  Every branch statistic is read off
one table, built from the input's factors by `branch_table`:

    W[t, y] = total input weight of the labels x with A x + b -> (t, y).

Summed over y this is the branch probability (a coset sum over the
symplectic complement of the measured subspace); each entry is a coset sum
over the measured subspace.  A product input's pairs past the dense head
are folded into the table in place, one cache-sized block of whole cosets
of their columns' span at a time.  Both engines run `_branches` on the one
protocol type (A, b), built from a matrix or from generators
(`stabilizer.StabilizerProtocol`), and name its branches by outcome t here
or syndrome s there.  The literal coset-sum formula is kept in
`unnormalized_fidelity`.

Corrections are chosen within a relative band, TIE_BAND, of the heaviest
logical label, so labels whose weights differ only by summation order
count as tied and the smallest of them wins.

Conditional outputs are renormalized to total weight one.  The literal
coset-ratio expression additionally carries a 2**(n-m) branching factor
that would push the trace above one; that quantity is preserved separately
as `unnormalized_fidelity` for auditing.

`run` returns a `BranchSet`: the branches as columns read off the table in
one pass (label, probability, fidelities, acceptance, correction, and the
outputs as one 2-D array).  The package reads the columns; the set's
row view (`len` and iteration) is for callers outside it.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from . import gf2
from .gf2 import BinaryMatrix, BinaryVector, Coset, Subspace
from .states import BellDiagonalState, _normalize


@dataclass(frozen=True)
class PermutationProtocol:
    """n-to-m protocol: symplectic matrix, affine offset, and the split n/m;
    `stabilizer.StabilizerProtocol` builds one from generators."""

    n: int
    m: int
    matrix: BinaryMatrix
    offset: BinaryVector

    def __post_init__(self) -> None:
        two_n = 2 * self.n
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")
        if self.matrix.shape != (two_n, two_n):
            raise ValueError("matrix must be 2n x 2n")
        if self.offset.length != two_n:
            raise ValueError("offset must have length 2n")
        if not gf2.is_symplectic(self.matrix):
            raise ValueError("protocol matrix is not symplectic (A^T P A != P)")

    @staticmethod
    def linear(n: int, m: int, matrix: BinaryMatrix) -> "PermutationProtocol":
        return PermutationProtocol(n, m, matrix, BinaryVector.zeros(2 * n))

    @classmethod
    def _retyped(cls, proto: "PermutationProtocol") -> "PermutationProtocol":
        """Internal constructor: the checked protocol (A, b) as a `cls`,
        skipping the checks."""
        retyped = object.__new__(cls)
        retyped.__dict__.update(vars(proto))
        return retyped

    @property
    def generators(self) -> tuple[BinaryVector, ...]:
        """Rows n+m+1 .. 2n of A*P, A's rows with halves swapped: independent
        commuting labels whose span the final parity measurement merges."""
        return tuple(BinaryVector(gf2._swap_halves_value(row, self.n), 2 * self.n)
                     for row in self.matrix.rows[self.n + self.m:])


@dataclass(frozen=True, eq=False)
class BranchSet:
    """The branches of one engine run as read-only columns, one row per
    branch of nonzero probability, in label order.

    `columns` maps each field name, label first, to its column, and each
    column reads as an attribute of the set (`branches.prob`).  Label
    columns hold int64 label values of the bit lengths in `widths`,
    `accepted` and `coset_match` are bool, `output` holds one row of 4**m
    weights per branch (normalized where the engines build it), and the
    other columns are float64.
    `len` and iteration give the branches row by row as named tuples of
    the columns, labels as `BinaryVector`s and outputs as `BellDiagonalState`s.
    """

    m: int
    widths: Mapping[str, int]
    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        for column in self.columns.values():
            column.setflags(write=False)
        object.__setattr__(self, "widths", MappingProxyType(dict(self.widths)))
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __iter__(self) -> Iterator[tuple]:
        values = []
        for name, column in self.columns.items():
            if name == "output":
                values.append([BellDiagonalState._trusted(self.m, row) for row in column])
            elif name in self.widths:
                values.append([BinaryVector(v, self.widths[name]) for v in column.tolist()])
            else:
                values.append(column.tolist())
        return map(_row_type(tuple(self.columns)), *values)


# The named tuple of a branch set's rows, one class per tuple of column names.
_row_type = functools.cache(functools.partial(namedtuple, "Branch"))


def align(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """The sorted union of two sorted, nonempty label columns, then for
    each column the row of every union label in it and whether the label
    is there (else the row is any valid one).  The union is sorted here,
    since `np.union1d` imports numpy.ma (~1 MB)."""
    labels = np.sort(np.concatenate((a, b)))
    labels = labels[np.concatenate(([True], labels[1:] != labels[:-1]))]
    found = [labels]
    for column in (a, b):
        rows = np.minimum(np.searchsorted(column, labels), column.size - 1)
        found += [rows, column[rows] == labels]
    return tuple(found)


def measured_subspace(proto: PermutationProtocol) -> Subspace:
    """Span of the protocol's generators (isotropic by symplecticity of A).

    Labels whose difference lies in this subspace are merged by the final
    parity measurement, so its cosets carry all branch statistics.
    """
    return Subspace.from_vectors(proto.generators, length=2 * proto.n)


def embed_label(y: BinaryVector, t: BinaryVector, n: int, m: int) -> BinaryVector:
    """Spread a logical label y and outcome bits t over the full 2n positions.

    Layout: y's phase bits, then n-m zeros (phases of measured pairs), then
    y's parity bits, then the n-m outcome bits.
    """
    if y.length != 2 * m:
        raise ValueError("logical label must have length 2m")
    if t.length != n - m:
        raise ValueError("outcome must have length n-m")
    return BinaryVector(_embed_value(y.value, t.value, n, m), 2 * n)


def _embed_value(y: int, t: int, n: int, m: int) -> int:
    y_phase = y >> m
    y_parity = y & ((1 << m) - 1)
    return (y_phase << (2 * n - m)) | (y_parity << (n - m)) | t


# Relative band within which two weights count as tied: the spread of
# sums of the same nonnegative terms in different orders stays far below
# it (<= 1.2e-13 relative, measured up to n = 11).
TIE_BAND = 1e-12


def optimal_correction(cond: np.ndarray) -> BinaryVector:
    """Smallest logical label whose weight is within TIE_BAND (relative) of
    the maximal weight.

    Shifting the conditional distribution by the returned label moves a
    largest weight, up to the band, onto the zero label.
    """
    cond = np.asarray(cond)
    if cond.size == 0:
        raise ValueError("empty conditional distribution")
    size = cond.size
    two_m = (size - 1).bit_length()
    if size != 1 << two_m or two_m % 2:
        raise ValueError("conditional distribution must have 4**m entries")
    return BinaryVector(int(_corrections(cond.reshape(1, -1))[0]), two_m)


def _corrections(rows: np.ndarray) -> np.ndarray:
    """`optimal_correction` of every row, as label values."""
    band = (1.0 - TIE_BAND) * rows.max(axis=1)
    return np.argmax(rows >= band[:, None], axis=1)


# Inputs per `np.add.at` block of the scatter in `branch_table`: the label
# array of one block is 2^16 int64 (512 KiB), not the size of the weight
# table.
_BLOCK_BITS = 16

# Cells per block of the folds in `branch_table`: the few block-sized
# buffers (2^15 floats, 256 KiB each) stay in cache together.  A fold
# group's span takes at most _FOLD_BITS - 6 dimensions, so the block rows
# of a table of 2^_FOLD_BITS cells or more hold at least 64 cells.
_FOLD_BITS = 15


def branch_table(state: BellDiagonalState, label_map: BinaryMatrix, offset: int,
                 m: int) -> np.ndarray:
    """Input weight per branch label: W[t, y] = sum of p_x over x with
    label_map x + offset == (t << 2m) | y.

    A factor over pairs i..j of the state sees the map's columns of those
    pairs: the phase columns i..j, then the parity columns n+i..n+j.  The
    first factor is scattered into the table (`_scatter`); each further
    factor is folded in (`_fold_cosets`), since the image of a product of
    independent factors is the XOR convolution of their images.  A dense
    input is one factor, so its table is the scatter alone.  The folds go
    in groups of consecutive factors whose columns span at most
    _FOLD_BITS - 6 dimensions, and each group runs in place on one block
    of whole cosets of its span at a time, so the table is the only
    table-sized array.
    """
    n = state.n
    columns = label_map.column_values()
    table = np.zeros(1 << label_map.nrows)
    group: list[tuple[np.ndarray, tuple[int, ...]]] = []
    first = 0
    for factor in state.factors:
        k = factor.size.bit_length() // 2
        cols = columns[first:first + k] + columns[n + first:n + first + k]
        if first == 0:
            _scatter(table, factor, cols, offset)
        else:
            span = [c for _, group_cols in group for c in group_cols] + list(cols)
            if group and len(gf2._rref(span, label_map.nrows)[0]) > _FOLD_BITS - 6:
                _fold_cosets(table, group)
                group = []
            group.append((factor, cols))
        first += k
    if group:
        _fold_cosets(table, group)
    return table.reshape(-1, 1 << (2 * m))


def _scatter(table: np.ndarray, weights: np.ndarray, columns: tuple[int, ...],
             offset: int) -> None:
    """Add weights[x] to table[A x + offset] for every input x, A the
    matrix of the given columns.

    Inputs go in blocks of 2^_BLOCK_BITS consecutive labels: the label of
    input (c << _BLOCK_BITS) | j is high[c] ^ low[j], with `low` the images
    (`gf2.affine_images`) of the last _BLOCK_BITS columns and `high` those
    of the other columns plus the offset.  Unbuffered `np.add.at` adds the
    weights block after block, so every entry sums its terms in input order
    whatever the block size, and the cost is two passes over the input.
    (`np.bincount` would add in the same order, but it copies a read-only
    weight table such as a state's factor.)
    """
    split = max(len(columns) - _BLOCK_BITS, 0)
    low = gf2.affine_images(columns[split:], 0)
    for c, high in enumerate(gf2.affine_images(columns[:split], offset).tolist()):
        np.add.at(table, low ^ high, weights[c * low.size:(c + 1) * low.size])


def _fold_cosets(table: np.ndarray,
                 folds: list[tuple[np.ndarray, tuple[int, ...]]]) -> None:
    """Replace the table, in place, by its XOR convolution with each factor
    in turn, mapped by the factor's columns: sum over the factor's labels a
    of weights[a] * table[y ^ A a].

    For one pair that is p00 D + p01 D[y ^ c_par] + p10 D[y ^ c_ph]
    + p11 D[y ^ c_ph ^ c_par], added in that order.  All terms are
    nonnegative, so nothing cancels.  Zero weights add nothing and are
    skipped.

    Every shift lies in S, the span of the columns, so the folds act on
    each coset of S alone.  Cell (c, j) of a block of 2^_FOLD_BITS cells is
    table[comb[c] ^ rep[j]], with comb[c] the combination c of the rows of
    S's RREF basis (`gf2._rref`) and rep[j] a coset representative, zero at
    the pivots.  A shift moves cell (c, j) to (c ^ s, j), s the shift's
    pivot bits: it flips axes of the block viewed as 2 x ... x 2 x b, whole
    rows of b cells at a time (numpy's ufunc buffer is no longer than a
    row, so the flipped rows are read in place).  A product w * block is
    formed once per distinct weight and read flipped: the same products,
    added in the same order, as a gather table[y ^ shift].
    """
    k = table.size.bit_length() - 1
    basis, pivot_columns = gf2._rref([c for _, cols in folds for c in cols], k)
    d = len(basis)
    pivots = [k - 1 - p for p in pivot_columns]  # bit positions, top first
    free = [1 << b for b in range(k - 1, -1, -1) if b not in pivots]
    split = max(len(free) - _FOLD_BITS + d, 0)
    cells = gf2.affine_images(basis, 0)[:, None] ^ gf2.affine_images(free[split:], 0)
    steps = [[(w, tuple(i for i, p in enumerate(pivots) if s >> p & 1))
              for w, s in zip(weights.tolist(), gf2.affine_images(cols, 0).tolist()) if w]
             for weights, cols in folds]
    index = np.empty_like(cells)
    block, out, *products = (np.empty((2,) * d + (cells.shape[1],)) for _ in range(
        2 + max(len({w for w, _ in terms[1:]}) for terms in steps)))
    with np.errstate():
        np.setbufsize(max(cells.shape[1], 16))
        for high in gf2.affine_images(free[:split], 0).tolist():
            np.bitwise_xor(cells, high, out=index)
            # "clip" as the index is in range: "raise" would buffer `out`
            table.take(index, out=block.reshape(index.shape), mode="clip")
            for (w, axes), *terms in steps:
                np.multiply(np.flip(block, axes), w, out=out)
                formed: dict[float, np.ndarray] = {}
                for w, axes in terms:
                    if w not in formed:
                        formed[w] = np.multiply(block, w, out=products[len(formed)])
                    out += np.flip(formed[w], axes)
                block, out = out, block
            table[index] = block.reshape(index.shape)


def branch_outcomes(table: np.ndarray, m: int, threshold: float) -> BranchSet:
    """The branches of a branch table, one per row of nonzero weight, as a
    `BranchSet` with the columns t, prob, output, correction, fidelity,
    unnormalized_fidelity and accepted.

    The probability is the row sum, the output the row renormalized, the
    correction the heaviest logical label of the row (`optimal_correction`,
    taken for all rows at once) and the fidelity the output's weight
    there.  Rows of weight exactly zero are skipped.  The outputs are
    divided and checked as one array, in place, with the constructor's
    check and division: in the table itself when every row is live, so
    the table is consumed, else in the copy of its live rows.
    """
    k = table.shape[0].bit_length() - 1
    probs = table.sum(axis=1)
    live = np.flatnonzero(probs).astype(np.int64, copy=False)
    if live.size < probs.size:
        table, probs = table[live], probs[live]
    corrections = _corrections(table).astype(np.int64, copy=False)
    outputs = np.divide(table, probs[:, None], out=table)
    _normalize(outputs, outputs)
    fids = outputs[np.arange(live.size), corrections]
    return BranchSet(m, {"t": k, "correction": 2 * m}, {
        "t": live,
        "prob": probs,
        "output": outputs,
        "correction": corrections,
        "fidelity": fids,
        "unnormalized_fidelity": (1 << k) * fids,
        "accepted": fids >= threshold,
    })


def run(state: BellDiagonalState, proto: PermutationProtocol,
        threshold: float | None = None) -> BranchSet:
    """Evaluate every parity-outcome branch of the protocol exactly.

    Branch t of the table sums one coset of the complement of the measured
    subspace and its entry y one coset of the measured subspace.  Branches
    of probability zero are never produced.  `threshold` defaults to the
    input fidelity (acceptance requires non-degradation).  The branches
    come as one `BranchSet` with the columns of `branch_outcomes`.
    """
    return _branches(state, proto, threshold)


def _branches(state: BellDiagonalState, proto: PermutationProtocol,
              threshold: float | None) -> BranchSet:
    """Both engines' branches: the label map keeps the rows of A (and bits
    of b) that become the outcome bits t and the logical label y."""
    if state.n != proto.n:
        raise ValueError("state and protocol disagree on the pair count")
    if threshold is None:
        threshold = state.fidelity
    n, m = proto.n, proto.m
    positions = [*range(n + m, 2 * n), *range(m), *range(n, n + m)]
    label_map = BinaryMatrix(tuple(proto.matrix.rows[p] for p in positions), 2 * n)
    offset = BinaryVector.from_bits([proto.offset.bit(p) for p in positions])
    table = branch_table(state, label_map, offset.value, m)
    return branch_outcomes(table, m, threshold)


def unnormalized_fidelity(state: BellDiagonalState, proto: PermutationProtocol,
                          t: BinaryVector) -> float:
    """Literal coset-ratio fidelity expression including its 2**(n-m) factor.

    Evaluates 2**(n-m) * (best numerator coset sum) / (branch coset sum)
    without renormalizing, so the value generally exceeds one; it equals
    the normalized branch fidelity times 2**(n-m).  Raises for branches of
    probability zero.
    """
    if t.length != proto.n - proto.m:
        raise ValueError("outcome length must be n-m")
    n, m = proto.n, proto.m
    inverse = gf2._inverse(proto.matrix)
    # The offset absorbed into the input: the linear-part coset formulas
    # on q_x = p_{x + A^-1 b} reproduce the affine protocol exactly.
    q = state.pauli_shift(inverse @ proto.offset).probs
    sub = measured_subspace(proto)
    perp = gf2.orthogonal_complement(sub)
    off0 = inverse @ BinaryVector(_embed_value(0, t.value, n, m), 2 * n)
    denom = gf2.coset_sum(q, Coset(perp, off0))
    if denom == 0.0:
        raise ValueError(f"branch {t} has probability zero")
    best = max(
        gf2.coset_sum(q, Coset(sub, inverse @ BinaryVector(
            _embed_value(y, t.value, n, m), 2 * n)))
        for y in range(1 << (2 * m))
    )
    return (1 << (n - m)) * best / denom


def recurrence_sweep(pair: BellDiagonalState, proto: PermutationProtocol,
                     rounds: int, threshold: float | None = None) -> dict[str, np.ndarray]:
    """Iterate the protocol, feeding the surviving pair back in each round.

    Each round builds n identical pairs from the current distribution, runs
    the protocol, and continues from the corrected single-pair output of
    the best accepted branch: the highest fidelity, the smallest label
    among equals (requires m = 1).  With no explicit threshold
    a branch is accepted when it does not degrade the current pair
    fidelity.  If no branch is accepted the sweep continues from the best
    branch with the yield zeroed.

    Returns the columns `sweep` prints, one entry per round: `f_out` (the
    best branch's fidelity), `yield` (multiplied by (m/n) times the
    acceptance probability each round) and `accept_prob` (the accepted
    branches' probability, summed in label order) as float64 arrays, and
    `accepted` (whether any branch was) as a bool array.
    """
    if proto.m != 1:
        raise ValueError("recurrence mode needs an n -> 1 protocol")
    if rounds < 1:
        raise ValueError("need at least one round")
    f_out, accept_probs = np.empty((2, rounds))
    any_accepted = np.empty(rounds, dtype=bool)
    current = pair
    for r in range(rounds):
        state = BellDiagonalState.from_pairs([current] * proto.n)
        round_threshold = current.fidelity if threshold is None else threshold
        branches = run(state, proto, round_threshold)
        accepted = branches.accepted
        any_accepted[r] = accepted.any()
        pool = np.flatnonzero(accepted if any_accepted[r] else ~accepted)
        # the pool is in label order, and argmax takes the first maximum
        best = pool[np.argmax(branches.fidelity[pool])]
        f_out[r] = branches.fidelity[best]
        accept_probs[r] = sum(branches.prob[accepted].tolist(), 0.0)
        # Renormalize once per round: the sweep's accept/reject decisions
        # depend on the last bit of the pair fed into the next round.
        current = BellDiagonalState(
            1, branches.output[best][np.arange(4) ^ branches.correction[best]])
    # the running product, one multiplication a round, in round order
    return {"f_out": f_out, "yield": np.cumprod((proto.m / proto.n) * accept_probs),
            "accept_prob": accept_probs, "accepted": any_accepted}
