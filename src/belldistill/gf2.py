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


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


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
        if bits and set(bits) - {"0", "1"}:
            raise ValueError(f"invalid bit string {bits!r}")
        return cls(int(bits, 2) if bits else 0, len(bits))

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

    @property
    def phase_half(self) -> "BinaryVector":
        n = self.pair_count
        return BinaryVector(self.value >> n, n)

    @property
    def parity_half(self) -> "BinaryVector":
        n = self.pair_count
        return BinaryVector(self.value & ((1 << n) - 1), n)

    def swap_halves(self) -> "BinaryVector":
        """Exchange phase and parity halves (multiplication by the form P)."""
        return BinaryVector(_swap_halves_value(self.value, self.pair_count), self.length)

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
        return cls(tuple(int(r, 2) if r else 0 for r in rows), width)

    @classmethod
    def identity(cls, k: int) -> "BinaryMatrix":
        return cls(tuple(1 << (k - 1 - i) for i in range(k)), k)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> BinaryVector:
        return BinaryVector(self.rows[i], self.ncols)

    def column_values(self) -> tuple[int, ...]:
        """Columns packed as nrows-bit ints (top row = MSB)."""
        return tuple(
            sum(((r >> (self.ncols - 1 - j)) & 1) << (self.nrows - 1 - i)
                for i, r in enumerate(self.rows))
            for j in range(self.ncols)
        )

    def column(self, j: int) -> BinaryVector:
        return BinaryVector(self.column_values()[j], self.nrows)

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.column_values(), self.nrows)

    def rank(self) -> int:
        return len(_rref(self.rows, self.ncols)[0])

    def to_strings(self) -> list[str]:
        return [format(r, f"0{self.ncols}b") if self.ncols else "" for r in self.rows]

    def __matmul__(self, other: "BinaryMatrix | BinaryVector"):
        if isinstance(other, BinaryVector):
            if other.length != self.ncols:
                raise ValueError("matrix/vector dimension mismatch")
            value = 0
            for r in self.rows:
                value = (value << 1) | _parity(r & other.value)
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

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.to_strings()!r})"


def affine_images(matrix: BinaryMatrix, offset: int) -> np.ndarray:
    """Array y with y[x] = A x + b over all 2^ncols packed inputs x.

    Built by subset doubling: once the first 2^j entries hold the images of
    the inputs using only the j lowest bits, XOR with the column of bit j
    fills the next 2^j.  One int64 array, written in place.
    """
    images = np.empty(1 << matrix.ncols, dtype=np.int64)
    images[0] = offset
    for j, col in enumerate(reversed(matrix.column_values())):
        np.bitwise_xor(images[:1 << j], col, out=images[1 << j:2 << j])
    return images


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
    return _sympl_value(a.value, b.value, a.length // 2)


def _sympl_value(a: int, b: int, n: int) -> int:
    mask = (1 << n) - 1
    return _parity(((a >> n) & (b & mask)) ^ ((a & mask) & (b >> n)))


def is_symplectic(matrix: BinaryMatrix) -> bool:
    """True iff A^T P A = P, i.e. the label map preserves commutation."""
    r, c = matrix.shape
    if r != c:
        raise ValueError("symplectic test needs a square matrix")
    if r % 2:
        raise ValueError("symplectic test needs even dimension")
    n = r // 2
    cols = matrix.column_values()
    for i in range(r):
        for j in range(i, r):
            expected = 1 if abs(i - j) == n else 0
            if _sympl_value(cols[i], cols[j], n) != expected:
                return False
    return True


def symplectic_inverse(matrix: BinaryMatrix) -> BinaryMatrix:
    """Inverse of a symplectic matrix, computed as P A^T P (also symplectic)."""
    if not is_symplectic(matrix):
        raise ValueError("matrix is not symplectic (A^T P A != P)")
    n = matrix.nrows // 2
    transposed = matrix.transpose().rows
    # P M P: reorder rows by half-swap, then half-swap each row.
    reordered = transposed[n:] + transposed[:n]
    rows = tuple(_swap_halves_value(r, n) for r in reordered)
    return BinaryMatrix(rows, matrix.ncols)


# ---------------------------------------------------------------------------
# Row reduction and linear solving
# ---------------------------------------------------------------------------

def _rref(vectors: Iterable[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns), both sorted."""
    reduced: list[int] = []
    pivots: list[int] = []
    for vec in vectors:
        for row, col in zip(reduced, pivots):
            if (vec >> (ncols - 1 - col)) & 1:
                vec ^= row
        if vec == 0:
            continue
        col = ncols - vec.bit_length()
        reduced = [r ^ vec if (r >> (ncols - 1 - col)) & 1 else r for r in reduced]
        at = next((i for i, c in enumerate(pivots) if c > col), len(pivots))
        reduced.insert(at, vec)
        pivots.insert(at, col)
    return reduced, pivots


def _kernel(rows: Iterable[int], ncols: int) -> tuple[list[int], list[int]]:
    """RREF basis of the right null space of the given row constraints."""
    reduced, pivots = _rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = 1 << (ncols - 1 - f)
        for row, p in zip(reduced, pivots):
            if (row >> (ncols - 1 - f)) & 1:
                v |= 1 << (ncols - 1 - p)
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
    for i, b in enumerate(basis):
        if (pick >> i) & 1:
            value ^= b
    return value


def _solve(rows: Sequence[int], rhs: Sequence[int], ncols: int,
           rng: np.random.Generator | None = None) -> int:
    """One solution of <rows[i], x> = rhs[i].

    Deterministic mode returns the lexicographically smallest solution;
    with an rng, a uniformly random solution.  Raises on inconsistency.
    """
    aug = [(row << 1) | (bit & 1) for row, bit in zip(rows, rhs)]
    reduced, pivots = _rref(aug, ncols + 1)
    if ncols in pivots:
        raise ValueError("inconsistent linear system over GF(2)")
    x = 0
    for row, p in zip(reduced, pivots):
        if row & 1:
            x |= 1 << (ncols - 1 - p)
    kernel_rows, kernel_pivots = _kernel(rows, ncols)
    if rng is None:
        return _reduce_by(x, kernel_rows, kernel_pivots, ncols)
    if kernel_rows:
        x ^= _combination(kernel_rows, int(rng.integers(0, 1 << len(kernel_rows))))
    return x


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
    def from_vectors(cls, vectors: Iterable[BinaryVector],
                     length: int | None = None) -> "Subspace":
        vectors = list(vectors)
        if length is None:
            if not vectors:
                raise ValueError("length required for an empty generating set")
            length = vectors[0].length
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
        n = self.length // 2
        return all(_sympl_value(a, b, n) == 0
                   for i, a in enumerate(self.basis) for b in self.basis[i:])

    @cached_property
    def element_values(self) -> np.ndarray:
        """All 2^dim subspace elements as packed ints (XOR-subset order)."""
        vals = np.zeros(1, dtype=np.int64)
        for b in self.basis:
            vals = np.concatenate([vals, vals ^ np.int64(b)])
        return vals

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

def _check_generators(gens: Sequence[BinaryVector]) -> int:
    if not gens:
        raise ValueError("need at least one generator")
    length = gens[0].length
    if length % 2:
        raise ValueError("generator labels must have even length")
    if any(g.length != length for g in gens):
        raise ValueError("generators must share one length")
    n = length // 2
    rows, _ = _rref((g.value for g in gens), length)
    if len(rows) != len(gens):
        raise ValueError("generators are linearly dependent over GF(2)")
    for i, a in enumerate(gens):
        for b in gens[i:]:
            if _sympl_value(a.value, b.value, n):
                raise ValueError("generators do not pairwise commute")
    return n


def solve_commutation(gens: Sequence[BinaryVector], s: BinaryVector) -> BinaryVector:
    """Lex-least v whose symplectic inner products with the generators equal s."""
    n = _check_generators(gens)
    if s.length != len(gens):
        raise ValueError("target bit count must match the generator count")
    rows = [_swap_halves_value(g.value, n) for g in gens]
    value = _solve(rows, s.bits, 2 * n)
    return BinaryVector(value, 2 * n)


def complete_to_symplectic(gens: Sequence[BinaryVector], n: int,
                           m: int | None = None,
                           rng: np.random.Generator | None = None) -> BinaryMatrix:
    """Complete commuting independent generators to a full symplectic matrix.

    The returned 2n x 2n matrix B satisfies B^T P B = P, carries the i-th
    generator in column m+i, and pairs it with column n+m+i (symplectic
    inner product 1 against its generator, 0 against every other column).
    Without an rng the completion is deterministic (lex-least choice at
    every step); an rng yields a random valid completion instead.
    """
    k = len(gens)
    if m is None:
        m = n - k
    if m != n - k or not 0 <= m <= n:
        raise ValueError("generator count must equal n - m with 0 <= m <= n")
    two_n = 2 * n
    if k:
        if _check_generators(gens) != n:
            raise ValueError("generator length does not match n")
    values = [g.value for g in gens]
    cols = [0] * two_n
    for i, gv in enumerate(values):
        cols[m + i] = gv

    # Symplectic partners of the generators, one linear solve each.
    partners: list[int] = []
    for i in range(k):
        rows = [_swap_halves_value(v, n) for v in values + partners]
        rhs = [1 if j == i else 0 for j in range(k)] + [0] * len(partners)
        h = _solve(rows, rhs, two_n, rng)
        cols[n + m + i] = h
        partners.append(h)

    # Hyperbolic pairs spanning the complement of the generator/partner block.
    anchor_rows = [_swap_halves_value(v, n) for v in values + partners]
    work, _ = _kernel(anchor_rows, two_n)
    for j in range(m):
        if rng is None:
            u = work[0]
        else:
            u = _combination(work, int(rng.integers(1, 1 << len(work))))
        pairing = [_sympl_value(u, b, n) for b in work]
        ones = [i for i, bit in enumerate(pairing) if bit]
        if not ones:
            raise RuntimeError("degenerate complement during symplectic completion")
        if rng is None:
            w = work[ones[0]]
        else:
            pick = int(rng.integers(0, 1 << len(work)))
            if _parity(pick & sum(1 << i for i in ones)) == 0:
                pick ^= 1 << ones[0]
            w = _combination(work, pick)
        cols[j] = u
        cols[n + j] = w
        deflated = []
        for b in work:
            v = b
            if _sympl_value(v, w, n):
                v ^= u
            if _sympl_value(v, u, n):
                v ^= w
            deflated.append(v)
        work, _ = _rref(deflated, two_n)

    matrix = BinaryMatrix(tuple(cols), two_n).transpose()
    if not is_symplectic(matrix):
        raise RuntimeError("symplectic completion failed its own postcondition")
    return matrix


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
        rows = [r ^ h if _parity(r & ph) else r for r in rows]
    matrix = BinaryMatrix(tuple(rows), two_n).transpose()
    if not is_symplectic(matrix):
        raise RuntimeError("transvection product is not symplectic")
    return matrix


def random_isotropic_generators(n: int, k: int,
                                rng: np.random.Generator) -> list[BinaryVector]:
    """k independent, pairwise-commuting labels in GF(2)^(2n)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n for an isotropic generating set")
    two_n = 2 * n
    chosen: list[int] = []
    while len(chosen) < k:
        rows = [_swap_halves_value(c, n) for c in chosen]
        candidates, _ = _kernel(rows, two_n) if rows else _rref(
            [1 << i for i in range(two_n)], two_n)
        span_rows, span_pivots = _rref(chosen, two_n)
        for _ in range(64):
            v = _combination(candidates, int(rng.integers(1, 1 << len(candidates))))
            if _reduce_by(v, span_rows, span_pivots, two_n):
                chosen.append(v)
                break
        else:  # pragma: no cover - candidate space always exceeds the span
            raise RuntimeError("failed to extend isotropic set")
    return [BinaryVector(c, two_n) for c in chosen]
