"""Bit-packed exact linear algebra over GF(2) with the symplectic form [[0,I],[I,0]].

Vectors are immutable bit strings packed into Python ints, most significant
bit first: the string "1001" is stored as the integer 0b1001 and bit 0 is
the leftmost character.  A length-2n Pauli/Bell label splits into a phase
half (bits 0..n-1) and a parity half (bits n..2n-1), so the packed value is
``(phase << n) | parity``.  With this packing, integer order equals
lexicographic order on bit strings, and a label's integer value doubles as
its index into a dense probability table.

Everything here is a pure function on immutable values; nothing mutates
shared state after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

# 4**14 dense labels ~ 2.7e8 doubles: hard configuration limit.
MAX_PAIRS = 14


@dataclass(frozen=True)
class BinaryVector:
    """Fixed-length bit vector over GF(2), packed MSB-first into an int."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("vector length must be nonnegative")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value {self.value} does not fit in {self.length} bits")

    @classmethod
    def from_string(cls, bits: str) -> "BinaryVector":
        if set(bits) - {"0", "1"}:
            raise ValueError(f"invalid bit string {bits!r}")
        return cls(int(bits or "0", 2), len(bits))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BinaryVector":
        value = 0
        for b in bits:
            value = (value << 1) | (b & 1)
        return cls(value, len(bits))

    @classmethod
    def zeros(cls, length: int) -> "BinaryVector":
        return cls(0, length)

    def bit(self, i: int) -> int:
        """Bit at 0-based position i, counting from the left."""
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        return (self.value >> (self.length - 1 - i)) & 1

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(self.length))

    def to_string(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    @property
    def pair_count(self) -> int:
        """n for a length-2n label."""
        if self.length % 2:
            raise ValueError("odd-length vector has no pair count")
        return self.length // 2

    def __xor__(self, other: "BinaryVector") -> "BinaryVector":
        if self.length != other.length:
            raise ValueError("length mismatch in GF(2) addition")
        return BinaryVector(self.value ^ other.value, self.length)

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"BinaryVector({self.to_string()!r})"


def _swap_halves_value(value: int, n: int) -> int:
    mask = (1 << n) - 1
    return ((value & mask) << n) | (value >> n)


@dataclass(frozen=True)
class BinaryMatrix:
    """Dense GF(2) matrix stored as one packed int per row (MSB = column 0)."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        for r in self.rows:
            if not 0 <= r < (1 << self.ncols):
                raise ValueError("row value out of range for column count")

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "BinaryMatrix":
        rows = list(rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows in matrix literal")
        return cls(tuple(BinaryVector.from_string(r).value for r in rows), width)

    @classmethod
    def identity(cls, k: int) -> "BinaryMatrix":
        return cls(tuple(1 << (k - 1 - i) for i in range(k)), k)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def column_values(self) -> tuple[int, ...]:
        """Columns packed as nrows-bit ints (top row = MSB)."""
        columns = [0] * self.ncols
        for i, row in enumerate(self.rows):
            while row:  # each set bit of row i sets bit nrows-1-i of its column
                columns[self.ncols - (row & -row).bit_length()] |= 1 << (self.nrows - 1 - i)
                row &= row - 1
        return tuple(columns)

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.column_values(), self.nrows)

    def to_strings(self) -> list[str]:
        return [format(r, f"0{self.ncols}b") if self.ncols else "" for r in self.rows]

    def __matmul__(self, other: "BinaryMatrix | BinaryVector"):
        if isinstance(other, BinaryVector):
            if other.length != self.ncols:
                raise ValueError("matrix/vector dimension mismatch")
            value = 0
            for r in self.rows:
                value = (value << 1) | ((r & other.value).bit_count() & 1)
            return BinaryVector(value, self.nrows)
        if isinstance(other, BinaryMatrix):
            if other.nrows != self.ncols:
                raise ValueError("matrix dimension mismatch")
            rows = []
            for r in self.rows:
                acc = 0
                for k in range(self.ncols):
                    if (r >> (self.ncols - 1 - k)) & 1:
                        acc ^= other.rows[k]
                rows.append(acc)
            return BinaryMatrix(tuple(rows), other.ncols)
        return NotImplemented

    def apply(self, values: np.ndarray) -> np.ndarray:
        """`self @ v` of every packed value v of the int64 array, as packed
        values: bit i of each image is the parity of row i AND v."""
        rows = np.array(self.rows, dtype=np.int64)
        bits = np.bitwise_count(values[:, None] & rows) & 1
        return bits @ (1 << np.arange(self.nrows - 1, -1, -1))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.to_strings()!r})"


def affine_images(columns: Sequence[int], offset: int) -> np.ndarray:
    """Array y with y[x] = A x + b over all 2^k packed inputs x, where A is
    the matrix with the k given packed columns (`BinaryMatrix.column_values`).

    Built by subset doubling: once the first 2^j entries hold the images of
    the inputs using only the j lowest bits, XOR with the column of bit j
    fills the next 2^j.  One int64 array, written in place.
    """
    images = np.empty(1 << len(columns), dtype=np.int64)
    images[0] = offset
    for j, col in enumerate(reversed(columns)):
        np.bitwise_xor(images[:1 << j], col, out=images[1 << j:2 << j])
    return images


def bit_matrix(values: np.ndarray, length: int) -> np.ndarray:
    """The bits of each value as a row of `length` uint8 zeros and ones,
    most significant first: the last `length` bits of its big-endian bytes,
    unpacked, so that a bit takes one byte."""
    size = -(-length // 8)  # the bytes that hold them
    octets = np.ascontiguousarray(values, dtype=">u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets[:, 8 - size:], axis=1)[:, 8 * size - length:]


def bit_chars(values: np.ndarray, length: int) -> np.ndarray:
    """The bit string of every value as a row of `length` ASCII codes."""
    return bit_matrix(values, length) + ord("0")


def symplectic_form(n: int) -> BinaryMatrix:
    """The 2n x 2n block matrix [[0,I],[I,0]]."""
    two_n = 2 * n
    rows = [1 << (two_n - 1 - (n + i)) for i in range(n)]
    rows += [1 << (two_n - 1 - i) for i in range(n)]
    return BinaryMatrix(tuple(rows), two_n)


def sympl_inner(a: BinaryVector, b: BinaryVector) -> int:
    """Symplectic inner product a^T P b over GF(2).

    Zero exactly when the Pauli operators labelled a and b commute.
    """
    if a.length != b.length:
        raise ValueError("length mismatch in symplectic inner product")
    if a.length % 2:
        raise ValueError("symplectic inner product needs even length")
    return (a.value & _swap_halves_value(b.value, a.length // 2)).bit_count() & 1


def is_symplectic(matrix: BinaryMatrix) -> bool:
    """True iff A^T P A = P, i.e. the label map A preserves commutation.

    Checked on the rows as the equivalent A P A^T = P: rows i and j have
    symplectic product 1 exactly when |i - j| = n.  That matrix is
    symmetric with a zero diagonal, so each pair i < j is read once, as the
    parity of row i AND row j with its halves swapped.  The rows stay
    Python ints, so every size is exact and no array is built.
    """
    r, c = matrix.shape
    if r != c:
        raise ValueError("symplectic test needs a square matrix")
    if r % 2:
        raise ValueError("symplectic test needs even dimension")
    n = r // 2
    swapped = [_swap_halves_value(v, n) for v in matrix.rows]
    for i, row in enumerate(matrix.rows):
        pairs = [(row & s).bit_count() & 1 for s in swapped[i + 1:]]
        if sum(pairs) != (i < n) or (i < n and not pairs[n - 1]):  # j = i + n alone
            return False
    return True


def symplectic_inverse(matrix: BinaryMatrix) -> BinaryMatrix:
    """Inverse of a symplectic matrix, computed as P A^T P (also symplectic)."""
    if not is_symplectic(matrix):
        raise ValueError("matrix is not symplectic (A^T P A != P)")
    return _inverse(matrix)


def _inverse(matrix: BinaryMatrix) -> BinaryMatrix:
    """`symplectic_inverse` of a matrix already known to be symplectic."""
    return BinaryMatrix(_form_conjugate(matrix.transpose().rows, matrix.nrows // 2),
                        matrix.ncols)


def _form_conjugate(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Rows of P M P for the matrix M with these rows: row and column halves swapped."""
    return tuple(_swap_halves_value(r, n) for r in rows[n:] + rows[:n])


# ---------------------------------------------------------------------------
# Row reduction and linear solving
# ---------------------------------------------------------------------------

def _rref(vectors: Iterable[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns), both sorted."""
    reduced: dict[int, int] = {}  # pivot bit -> row, zero at the other pivots
    for vec in vectors:
        for mask, row in reduced.items():
            if vec & mask:
                vec ^= row
        if vec:
            mask = 1 << (vec.bit_length() - 1)
            for pivot, row in reduced.items():
                if row & mask:
                    reduced[pivot] = row ^ vec
            reduced[mask] = vec
    masks = sorted(reduced, reverse=True)
    return [reduced[mask] for mask in masks], [ncols - mask.bit_length() for mask in masks]


def _kernel(rows: Iterable[int], ncols: int) -> tuple[list[int], list[int]]:
    """RREF basis of the right null space of the given row constraints."""
    reduced, pivots = _rref(rows, ncols)
    pivot_bits = [1 << (ncols - 1 - p) for p in pivots]
    basis = []
    for f in range(ncols - 1, -1, -1):  # each free column, leftmost first
        v = 1 << f
        if v not in pivot_bits:
            for row, bit in zip(reduced, pivot_bits):
                if row & v:
                    v |= bit
            basis.append(v)
    return _rref(basis, ncols)


def _reduce_by(v: int, rref_rows: Sequence[int], pivots: Sequence[int], ncols: int) -> int:
    """Zero out the pivot columns of v; yields the lex-least element of v + span."""
    for row, p in zip(rref_rows, pivots):
        if (v >> (ncols - 1 - p)) & 1:
            v ^= row
    return v


def _combination(basis: Sequence[int], pick: int) -> int:
    """XOR of the basis vectors selected by the bits of pick (bit i: basis[i])."""
    value = 0
    while pick:
        low = pick & -pick
        value ^= basis[low.bit_length() - 1]
        pick ^= low
    return value


def _unit_solutions(rows: Sequence[int], ncols: int
                    ) -> tuple[list[int], list[int], list[int]]:
    """For k independent rows, the lex-least x_i with <rows[j], x_i> = [i = j],
    then the RREF rows and pivots of the rows' null space, all from one
    `_kernel` call: with k unit columns in front, row j is (e_j, rows[j]).
    Its reduced null-space basis is the k rows (e_i, x_i), then the rows'
    null space as rows (0, c); x_i is zero at their pivots, so least."""
    k = len(rows)
    basis, pivots = _kernel([(1 << (ncols + k - 1 - j)) | row for j, row in enumerate(rows)],
                            ncols + k)
    mask = (1 << ncols) - 1
    return [b & mask for b in basis[:k]], basis[k:], [p - k for p in pivots[k:]]


def _deflate(rows: list[int], pivots: list[int], v: int, n: int) -> tuple[list[int], list[int]]:
    """RREF of the span's part orthogonal to v, off the span's RREF: the last row
    pairing with v leaves, added to the others that do, which keeps them reduced."""
    sv = _swap_halves_value(v, n)
    pairs = [(r & sv).bit_count() & 1 for r in rows]
    j = len(rows) - 1 - pairs[::-1].index(1) if 1 in pairs else len(rows)
    return ([r ^ rows[j] if p else r for r, p in zip(rows[:j], pairs)] + rows[j + 1:],
            pivots[:j] + pivots[j + 1:])


# ---------------------------------------------------------------------------
# Subspaces and cosets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """Linear subspace of GF(2)^length, held as a canonical RREF basis."""

    length: int
    basis: tuple[int, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[BinaryVector], length: int) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if v.length != length:
                raise ValueError("subspace generators must share one length")
        rows, pivots = _rref((v.value for v in vectors), length)
        return cls(length, tuple(rows), tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce_value(self, value: int) -> int:
        """Lexicographically smallest element of value + subspace."""
        return _reduce_by(value, self.basis, self.pivots, self.length)

    def contains(self, v: BinaryVector) -> bool:
        if v.length != self.length:
            raise ValueError("dimension mismatch in membership test")
        return self.reduce_value(v.value) == 0

    def __contains__(self, v: BinaryVector) -> bool:
        return self.contains(v)

    def is_isotropic(self) -> bool:
        """All pairwise symplectic inner products of the span vanish."""
        if self.length % 2:
            raise ValueError("isotropy is defined for even length only")
        swapped = [_swap_halves_value(b, self.length // 2) for b in self.basis]
        return not any((a & b).bit_count() & 1
                       for i, a in enumerate(self.basis) for b in swapped[i:])

    @cached_property
    def element_values(self) -> np.ndarray:
        """All 2^dim subspace elements as packed ints (XOR-subset order)."""
        return affine_images(self.basis[::-1], 0)

    def elements(self) -> Iterator[BinaryVector]:
        for v in self.element_values:
            yield BinaryVector(int(v), self.length)


@dataclass(frozen=True)
class Coset:
    """Coset of a subspace; the stored offset is the lex-least element."""

    subspace: Subspace
    offset: BinaryVector

    def __post_init__(self) -> None:
        if self.offset.length != self.subspace.length:
            raise ValueError("coset offset must match the ambient length")
        canonical = self.subspace.reduce_value(self.offset.value)
        if canonical != self.offset.value:
            object.__setattr__(self, "offset",
                               BinaryVector(canonical, self.offset.length))

    def element_values(self) -> np.ndarray:
        return self.subspace.element_values ^ np.int64(self.offset.value)

    def elements(self) -> Iterator[BinaryVector]:
        for v in self.element_values():
            yield BinaryVector(int(v), self.subspace.length)


def orthogonal_complement(subspace: Subspace) -> Subspace:
    """All vectors with zero symplectic inner product against the subspace."""
    if subspace.length % 2:
        raise ValueError("symplectic complement needs even ambient length")
    n = subspace.length // 2
    constraint_rows = [_swap_halves_value(b, n) for b in subspace.basis]
    rows, pivots = _kernel(constraint_rows, subspace.length)
    return Subspace(subspace.length, tuple(rows), tuple(pivots))


def coset_sum(probs: np.ndarray, coset: Coset) -> float:
    """Exact sum of the dense weight table over the 2^dim coset elements."""
    probs = np.asarray(probs)
    if len(probs) != 1 << coset.subspace.length:
        raise ValueError("weight table size does not match the ambient space")
    return float(probs[coset.element_values()].sum())


# ---------------------------------------------------------------------------
# Commutation solving and symplectic completion
# ---------------------------------------------------------------------------

def _check_generators(gens: Sequence[BinaryVector]) -> Subspace:
    """The span of independent commuting generators; raises otherwise."""
    if not gens:
        raise ValueError("need at least one generator")
    length = gens[0].length
    if length % 2:
        raise ValueError("generator labels must have even length")
    if any(g.length != length for g in gens):
        raise ValueError("generators must share one length")
    span = Subspace.from_vectors(gens, length)
    if span.dim != len(gens):
        raise ValueError("generators are linearly dependent over GF(2)")
    if not span.is_isotropic():
        raise ValueError("generators do not pairwise commute")
    return span


def solve_commutation(gens: Sequence[BinaryVector], s: BinaryVector) -> BinaryVector:
    """Lex-least v whose symplectic inner products with the generators equal s."""
    n = _check_generators(gens).length // 2
    if s.length != len(gens):
        raise ValueError("target bit count must match the generator count")
    solutions, _, _ = _unit_solutions([_swap_halves_value(g.value, n) for g in gens], 2 * n)
    return BinaryVector(_combination(solutions[::-1], s.value), 2 * n)


def complete_to_symplectic(gens: Sequence[BinaryVector], n: int) -> BinaryMatrix:
    """Complete commuting independent generators to a full symplectic matrix.

    The returned 2n x 2n matrix B satisfies B^T P B = P, carries the i-th
    of the k generators in column m+i, where m = n - k, and pairs it with
    column n+m+i (symplectic inner product 1 against its generator, 0
    against every other column).
    The completion is deterministic and takes one null space
    (`_unit_solutions`): per generator the least label x_i pairing with it
    alone, and the RREF of the generators' commutant C, which shrinks as
    each hyperbolic pair is placed.  Partner i is the lex-least label
    pairing with generator i alone and with no earlier partner.  Other
    valid frames are B times symplectic maps that fix the generator columns.
    """
    return BinaryMatrix(tuple(_frame_columns(gens, n)[0]), 2 * n).transpose()


_Echelon = tuple[list[int], list[int]]  # `_rref`'s rows and pivots


def _frame_columns(gens: Sequence[BinaryVector], n: int
                   ) -> tuple[list[int], _Echelon, _Echelon]:
    """`complete_to_symplectic`'s B as its columns (B^T, symplectic iff B
    is), then the `_rref` of the generators' span and of their commutant,
    which the checks and the null space have already built: columns
    m..n-1 of B and columns 0..n+m-1."""
    k = len(gens)
    m = n - k
    if m < 0:
        raise ValueError("generator count must be at most n")
    two_n = 2 * n
    span: _Echelon = ([], [])
    if k:
        checked = _check_generators(gens)
        if checked.length != two_n:
            raise ValueError("generator length does not match the pair count")
        span = (list(checked.basis), list(checked.pivots))
    values = [g.value for g in gens]
    solutions, work, pivots = _unit_solutions(
        [_swap_halves_value(v, n) for v in values], two_n)
    commutant = (work, pivots)  # `_deflate` builds new lists
    # Partner i: x_i plus g_j for each earlier partner h_j it pairs with,
    # least in C; then C loses its part pairing with h_i.
    partners: list[int] = []
    for x in solutions:
        for gj, hj in zip(values, partners):
            if (_swap_halves_value(x, n) & hj).bit_count() & 1:
                x ^= gj
        h = _reduce_by(x, work, pivots, two_n)
        partners.append(h)
        work, pivots = _deflate(work, pivots, h, n)

    # Further hyperbolic pairs: C's first vector and the first it pairs with.
    cols = [0] * m + values + [0] * m + partners
    for j in range(m):
        u = work[0]
        su = _swap_halves_value(u, n)
        w = next((b for b in work if (b & su).bit_count() & 1), None)
        if w is None:
            raise RuntimeError("degenerate complement during symplectic completion")
        cols[j], cols[n + j] = u, w
        work, pivots = _deflate(*_deflate(work, pivots, u, n), w, n)

    if not is_symplectic(BinaryMatrix(tuple(cols), two_n)):
        raise RuntimeError("symplectic completion failed its own postcondition")
    return cols, span, commutant


# ---------------------------------------------------------------------------
# Random instances (seeded generators for test and verification suites)
# ---------------------------------------------------------------------------

def random_symplectic(n: int, rng: np.random.Generator) -> BinaryMatrix:
    """Random symplectic 2n x 2n matrix as a product of 4n + 4 random
    transvections."""
    two_n = 2 * n
    rows = list(BinaryMatrix.identity(two_n).rows)
    for _ in range(2 * two_n + 4):
        h = int(rng.integers(1, 1 << two_n))
        ph = _swap_halves_value(h, n)
        # x -> x + (x^T P h) h applied to each row of the accumulated matrix.
        rows = [r ^ h if (r & ph).bit_count() & 1 else r for r in rows]
    return BinaryMatrix(tuple(rows), two_n).transpose()


def random_isotropic_generators(n: int, k: int,
                                rng: np.random.Generator) -> list[BinaryVector]:
    """k independent, pairwise-commuting labels in GF(2)^(2n)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n for an isotropic generating set")
    two_n = 2 * n
    chosen: list[int] = []
    while len(chosen) < k:
        rows = [_swap_halves_value(c, n) for c in chosen]
        candidates, _ = _kernel(rows, two_n)
        span_rows, span_pivots = _rref(chosen, two_n)
        for _ in range(64):
            v = _combination(candidates, int(rng.integers(1, 1 << len(candidates))))
            if _reduce_by(v, span_rows, span_pivots, two_n):
                chosen.append(v)
                break
        else:  # pragma: no cover - candidate space always exceeds the span
            raise RuntimeError("failed to extend isotropic set")
    return [BinaryVector(c, two_n) for c in chosen]
