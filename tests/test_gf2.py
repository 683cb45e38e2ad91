"""GF(2)/symplectic layer: frozen examples, brute-force oracles, properties."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from belldistill import gf2
from belldistill.gf2 import (
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
from belldistill.stabilizer import StabilizerProtocol


def vec(s: str) -> BinaryVector:
    return BinaryVector.from_string(s)


def char_rows(chars: np.ndarray) -> list[str]:
    """Each row of a 2-D array of ASCII codes as a string."""
    return [bytes(row).decode("ascii") for row in chars.astype(np.uint8)]


def test_bit_strings_of_every_value_up_to_eight_bits():
    for length in range(9):
        values = np.arange(1 << length)
        assert char_rows(gf2.bit_chars(values, length)) == \
            [BinaryVector(v, length).to_string() for v in values.tolist()]
    assert char_rows(gf2.bit_chars(np.zeros(3, dtype=np.int64), 0)) == ["", "", ""]
    assert char_rows(gf2.bit_chars(np.array([], dtype=np.int64), 5)) == []


def test_bit_strings_of_random_26_bit_values():
    values = np.random.default_rng(11).integers(0, 1 << 26, 10_000)
    assert char_rows(gf2.bit_chars(values, 26)) == \
        [BinaryVector(v, 26).to_string() for v in values.tolist()]


def test_bit_matrix_equals_the_binary_format_at_every_width():
    rng = np.random.default_rng(12)
    for length in range(1, 63):
        values = np.concatenate([rng.integers(0, 1 << length, 64),
                                 [0, (1 << length) - 1], 1 << np.arange(length)])
        rows = gf2.bit_matrix(values, length)
        assert rows.dtype == np.uint8
        assert ["".join(map(str, row)) for row in rows.tolist()] == \
            [format(v, f"0{length}b") for v in values.tolist()]


def test_bit_strings_take_about_a_byte_a_bit():
    # 4096 labels of 26 bits, as `run-code` prints its `v` and `u` at 13
    # pairs: the unpacked bytes, not an int64 a bit.
    values = np.random.default_rng(13).integers(0, 1 << 26, 4096)
    gf2.bit_chars(values, 26)
    tracemalloc.start()
    try:
        chars = gf2.bit_chars(values, 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert char_rows(chars[:3]) == [format(v, "026b") for v in values[:3].tolist()]
    assert peak <= 4 * 26 * values.size, peak / (26 * values.size)


def even_vectors(max_pairs: int = 4):
    return st.integers(1, max_pairs).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (2 * n)) - 1)))


# ---------------------------------------------------------------------------
# BinaryVector / BinaryMatrix basics
# ---------------------------------------------------------------------------

@given(st.integers(0, 6).flatmap(
    lambda k: st.integers(0, (1 << k) - 1 if k else 0).map(lambda v: (k, v))))
def test_vector_string_round_trip(kv):
    length, value = kv
    v = BinaryVector(value, length)
    assert BinaryVector.from_string(v.to_string()) == v
    assert len(v.to_string()) == length


def test_vector_bits_and_halves():
    v = vec("010011")
    assert v.bits == (0, 1, 0, 0, 1, 1)
    assert v.pair_count == 3
    assert v.bit(1) == 1 and v.bit(0) == 0


def test_vector_validation():
    with pytest.raises(ValueError):
        BinaryVector(4, 2)
    with pytest.raises(ValueError):
        vec("01") ^ vec("011")
    with pytest.raises(ValueError):
        BinaryVector.from_string("012")


def test_matrix_round_trip_and_transpose():
    m = BinaryMatrix.from_strings(["110", "011"])
    assert m.to_strings() == ["110", "011"]
    assert m.transpose().to_strings() == ["10", "11", "01"]
    assert m.transpose().transpose() == m
    assert m.column_values() == (0b10, 0b11, 0b01)


@pytest.mark.parametrize("row", ["0_01", "+001", "\u0660\u0660\u0660\u0661", "10 1"])
def test_matrix_literal_refuses_any_character_but_bits(row):
    # int(row, 2) alone would read the first three as 0001
    with pytest.raises(ValueError, match="invalid bit string"):
        BinaryMatrix.from_strings([row, "1000", "1101", "0011"])


def test_matrix_vector_product():
    m = BinaryMatrix.from_strings(["110", "011"])
    assert m @ vec("101") == vec("11")
    with pytest.raises(ValueError):
        m @ vec("10")


def test_affine_images_match_matrix_vector_products(rng):
    # rectangular maps too: the branch tables use (n+m) x 2n label maps
    for nrows, ncols in ((1, 1), (3, 4), (6, 6), (5, 8)):
        matrix = BinaryMatrix(tuple(int(rng.integers(0, 1 << ncols))
                                    for _ in range(nrows)), ncols)
        offset = int(rng.integers(0, 1 << nrows))
        images = gf2.affine_images(matrix.column_values(), offset)
        assert images.dtype == np.int64
        assert images.tolist() == [(matrix @ BinaryVector(x, ncols)).value ^ offset
                                   for x in range(1 << ncols)]
        # `apply` maps given inputs, in any order
        inputs = rng.permutation(1 << ncols)
        assert (matrix.apply(inputs) ^ offset).tolist() == images[inputs].tolist()


@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1),
       st.integers(0, 2 ** 16 - 1))
def test_matrix_multiplication_associative(a, b, c):
    def mat(bits):
        return BinaryMatrix(tuple((bits >> (4 * i)) & 15 for i in range(4)), 4)
    ma, mb, mc = mat(a), mat(b), mat(c)
    assert (ma @ mb) @ mc == ma @ (mb @ mc)


# ---------------------------------------------------------------------------
# Symplectic inner product
# ---------------------------------------------------------------------------

def test_sympl_inner_z_x_anticommute():
    assert sympl_inner(vec("10"), vec("01")) == 1


def test_sympl_inner_zz_xi():
    assert sympl_inner(vec("1100"), vec("0010")) == 1


@given(even_vectors())
def test_sympl_inner_self_zero(nv):
    n, value = nv
    a = BinaryVector(value, 2 * n)
    assert sympl_inner(a, a) == 0


@given(st.integers(1, 4), st.data())
def test_sympl_inner_bilinear_symmetric(n, data):
    bound = (1 << (2 * n)) - 1
    a = BinaryVector(data.draw(st.integers(0, bound)), 2 * n)
    b = BinaryVector(data.draw(st.integers(0, bound)), 2 * n)
    c = BinaryVector(data.draw(st.integers(0, bound)), 2 * n)
    assert sympl_inner(a, b) == sympl_inner(b, a)
    assert sympl_inner(a ^ b, c) == (sympl_inner(a, c) + sympl_inner(b, c)) % 2


def test_sympl_inner_errors():
    with pytest.raises(ValueError):
        sympl_inner(vec("10"), vec("1000"))
    with pytest.raises(ValueError):
        sympl_inner(vec("101"), vec("110"))


def test_sympl_inner_matches_form_matrix():
    n = 2
    p = symplectic_form(n)
    for av in range(16):
        for bv in range(16):
            a, b = BinaryVector(av, 4), BinaryVector(bv, 4)
            via_matrix = sum(a.bit(i) * (p @ b).bit(i) for i in range(4)) % 2
            assert sympl_inner(a, b) == via_matrix


# ---------------------------------------------------------------------------
# Symplectic matrices
# ---------------------------------------------------------------------------

def test_identity_is_symplectic():
    assert is_symplectic(BinaryMatrix.identity(6))


def test_bcnot_is_symplectic(bcnot):
    assert is_symplectic(bcnot)


def test_rank_deficient_not_symplectic():
    rows = ["1100", "1100", "0010", "0011"]
    assert not is_symplectic(BinaryMatrix.from_strings(rows))
    assert not is_symplectic(BinaryMatrix(tuple([0] * 4), 4))


def test_is_symplectic_shape_errors():
    with pytest.raises(ValueError):
        is_symplectic(BinaryMatrix.from_strings(["10", "01", "11"]))
    with pytest.raises(ValueError):
        is_symplectic(BinaryMatrix.from_strings(["101", "010", "001"]))


def literal_is_symplectic(matrix: BinaryMatrix) -> bool:
    """A^T P A = P, column pair by column pair."""
    n = matrix.nrows // 2
    cols = [BinaryVector(c, 2 * n) for c in matrix.column_values()]
    return all(sympl_inner(cols[i], cols[j]) == (abs(i - j) == n)
               for i in range(2 * n) for j in range(2 * n))


def flip_bit(matrix: BinaryMatrix, i: int, j: int) -> BinaryMatrix:
    rows = list(matrix.rows)
    rows[i] ^= 1 << j
    return BinaryMatrix(tuple(rows), matrix.ncols)


def test_is_symplectic_equals_the_pairwise_definition(rng):
    for _ in range(200):
        n = int(rng.integers(0, gf2.MAX_PAIRS + 1))
        matrix = gf2.random_symplectic(n, rng) if n else BinaryMatrix((), 0)
        # flip one bit in most draws, so that both answers occur
        if n and rng.random() < 0.7:
            matrix = flip_bit(matrix, *rng.integers(0, 2 * n, 2).tolist())
        assert is_symplectic(matrix) == literal_is_symplectic(matrix)
    assert is_symplectic(BinaryMatrix((), 0))
    # Rows of 64 bits, past int64: the rows are tested as Python ints.
    eye = BinaryMatrix.identity(64)
    assert is_symplectic(eye) and literal_is_symplectic(eye)
    flipped = flip_bit(eye, 0, 63)
    assert not is_symplectic(flipped) and not literal_is_symplectic(flipped)


def test_column_values_are_the_bit_transpose(rng):
    for nrows, ncols in [(0, 3), (3, 0), (0, 0), (1, 1), (5, 9), (26, 26), (40, 70)]:
        bits = rng.integers(0, 2, (nrows, ncols)).tolist()
        matrix = BinaryMatrix(tuple(int("".join(map(str, row)) or "0", 2) for row in bits),
                              ncols)
        assert matrix.column_values() == tuple(
            sum(((r >> (ncols - 1 - j)) & 1) << (nrows - 1 - i)
                for i, r in enumerate(matrix.rows)) for j in range(ncols))


def test_symplectic_inverse_identity():
    eye = BinaryMatrix.identity(4)
    assert symplectic_inverse(eye) == eye


def test_symplectic_inverse_bcnot(bcnot):
    inv = symplectic_inverse(bcnot)
    assert bcnot @ inv == BinaryMatrix.identity(4)
    assert inv @ bcnot == BinaryMatrix.identity(4)
    assert is_symplectic(inv)


def test_symplectic_inverse_rejects_non_symplectic():
    with pytest.raises(ValueError):
        symplectic_inverse(BinaryMatrix(tuple([0] * 4), 4))


def test_random_symplectic_properties(rng):
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = gf2.random_symplectic(n, rng)
        b = gf2.random_symplectic(n, rng)
        assert is_symplectic(a)
        assert is_symplectic(a @ b)
        assert a @ symplectic_inverse(a) == BinaryMatrix.identity(2 * n)


# ---------------------------------------------------------------------------
# Subspaces, complements, cosets
# ---------------------------------------------------------------------------

def brute_span(basis_values, length):
    out = {0}
    for b in basis_values:
        out |= {x ^ b for x in out}
    return out


def test_complement_of_zero_is_full():
    s = Subspace.from_vectors([], length=4)
    perp = orthogonal_complement(s)
    assert perp.dim == 4


def test_complement_of_zz_span():
    s = Subspace.from_vectors([vec("1100")], 4)
    perp = orthogonal_complement(s)
    assert perp.dim == 3
    assert vec("1100") in perp  # isotropic: S inside its complement
    members = {v.value for v in perp.elements()}
    expected = {x for x in range(16)
                if sympl_inner(BinaryVector(x, 4), vec("1100")) == 0}
    assert members == expected


def test_complement_properties(rng):
    for _ in range(60):
        n = int(rng.integers(1, 5))
        count = int(rng.integers(0, 2 * n + 1))
        vecs = [BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
                for _ in range(count)]
        s = Subspace.from_vectors(vecs, length=2 * n)
        perp = orthogonal_complement(s)
        assert s.dim + perp.dim == 2 * n
        assert orthogonal_complement(perp) == s


def test_isotropic_span_inside_complement(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        gens = gf2.random_isotropic_generators(n, k, rng)
        s = Subspace.from_vectors(gens, 2 * n)
        assert s.is_isotropic()
        perp = orthogonal_complement(s)
        assert all(g in perp for g in gens)


def test_subspace_membership_matches_brute_force(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        vecs = [BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
                for _ in range(int(rng.integers(1, 4)))]
        s = Subspace.from_vectors(vecs, length=2 * n)
        span = brute_span([v.value for v in vecs], 2 * n)
        assert {v.value for v in s.elements()} == span
        for x in range(1 << (2 * n)):
            assert (BinaryVector(x, 2 * n) in s) == (x in span)


def test_coset_equality_and_enumeration():
    s = Subspace.from_vectors([vec("1100")], 4)
    c1 = Coset(s, vec("0100"))
    c2 = Coset(s, vec("1000"))  # differs by 1100: same coset
    c3 = Coset(s, vec("0010"))
    assert c1 == c2
    assert c1 != c3
    assert {v.value for v in c1.elements()} == {0b0100, 0b1000}
    assert len(set(c1.element_values())) == 2 ** s.dim


def test_cosets_of_complement_partition_space(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        gens = gf2.random_isotropic_generators(n, k, rng)
        perp = orthogonal_complement(Subspace.from_vectors(gens, 2 * n))
        seen: set[int] = set()
        reps = set()
        for x in range(1 << (2 * n)):
            c = Coset(perp, BinaryVector(x, 2 * n))
            reps.add(c.offset.value)
        assert len(reps) == 1 << k
        for r in reps:
            cells = set(int(v) for v in Coset(perp, BinaryVector(r, 2 * n)).element_values())
            assert not cells & seen
            seen |= cells
        assert len(seen) == 1 << (2 * n)


# ---------------------------------------------------------------------------
# coset_sum
# ---------------------------------------------------------------------------

def test_coset_sum_singleton_and_full():
    probs = np.arange(16, dtype=float)
    probs /= probs.sum()
    zero = Subspace.from_vectors([], length=4)
    assert coset_sum(probs, Coset(zero, vec("0000"))) == probs[0]
    full = orthogonal_complement(zero)
    assert coset_sum(probs, Coset(full, vec("0000"))) == pytest.approx(1.0, abs=1e-15)


def test_coset_sum_werner_example(werner2):
    s = Subspace.from_vectors([vec("1100")], 4)
    total = coset_sum(werner2.probs, Coset(s, vec("0000")))
    assert total == pytest.approx(41 / 72, abs=1e-15)


def test_coset_sum_matches_brute_force(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        probs = rng.random(1 << (2 * n))
        probs /= probs.sum()
        vecs = [BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
                for _ in range(int(rng.integers(0, 3)))]
        s = Subspace.from_vectors(vecs, length=2 * n)
        offset = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
        coset = Coset(s, offset)
        brute = sum(probs[offset.value ^ e]
                    for e in brute_span([v.value for v in vecs], 2 * n))
        assert coset_sum(probs, coset) == pytest.approx(brute, abs=1e-14)
    with pytest.raises(ValueError):
        coset_sum(np.ones(8), Coset(Subspace.from_vectors([], length=4), vec("0000")))


# ---------------------------------------------------------------------------
# _unit_solutions and _kernel against brute force
# ---------------------------------------------------------------------------

def test_solve_and_kernel_match_brute_force(rng):
    # the last row is the sum of two others, so the rows are dependent
    for _ in range(300):
        ncols = int(rng.integers(1, 9))
        rows = [int(rng.integers(0, 1 << ncols)) for _ in range(int(rng.integers(0, 6)))]
        if len(rows) >= 2:
            rows.append(rows[0] ^ rows[-1])

        def solves(x, targets, rows=rows):
            return all(bin(r & x).count("1") % 2 == t for r, t in zip(rows, targets))

        # `_unit_solutions` takes independent rows: each row outside the
        # enumerated span of the ones kept before it
        independent = []
        for r in rows:
            if r not in brute_span(independent, ncols):
                independent.append(r)
        solutions, commutant, commutant_pivots = gf2._unit_solutions(independent, ncols)
        for i, x in enumerate(solutions):
            unit = [int(j == i) for j in range(len(independent))]
            assert x == min(y for y in range(1 << ncols) if solves(y, unit, independent))
        assert_reduced_basis(commutant, commutant_pivots, ncols)
        assert brute_span(commutant, ncols) == \
            {x for x in range(1 << ncols) if solves(x, [0] * len(independent), independent)}

        basis, pivots = gf2._kernel(rows, ncols)
        assert_reduced_basis(basis, pivots, ncols)
        null_space = {x for x in range(1 << ncols) if solves(x, [0] * len(rows))}
        assert brute_span(basis, ncols) == null_space


def assert_reduced_basis(basis, pivots, ncols):
    """RREF: each row leads at its pivot, which no other row has set."""
    assert len(basis) == len(pivots)
    assert pivots == sorted(set(pivots))
    for row, p in zip(basis, pivots):
        assert row.bit_length() == ncols - p  # leading bit at its pivot
        assert [(b >> (ncols - 1 - p)) & 1 for b in basis] == \
            [int(b == row) for b in basis]


# ---------------------------------------------------------------------------
# solve_commutation
# ---------------------------------------------------------------------------

def syndrome_bits(v, gens):
    return tuple(sympl_inner(v, g) for g in gens)


def test_solve_commutation_zero_target():
    gens = [vec("1100")]
    assert solve_commutation(gens, vec("0")) == vec("0000")


def test_solve_commutation_zz_example():
    gens = [vec("1100")]
    v = solve_commutation(gens, vec("1"))
    assert syndrome_bits(v, gens) == (1,)
    # the other documented solution is valid too, just not lex-least
    assert syndrome_bits(vec("0010"), gens) == (1,)
    assert v == vec("0001")


def test_solve_commutation_is_lex_least(rng):
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        gens = gf2.random_isotropic_generators(n, k, rng)
        target = BinaryVector(int(rng.integers(0, 1 << k)), k)
        got = solve_commutation(gens, target)
        solutions = [x for x in range(1 << (2 * n))
                     if syndrome_bits(BinaryVector(x, 2 * n), gens) == target.bits]
        assert got.value == min(solutions)


def test_solve_commutation_round_trip(rng):
    for _ in range(60):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        gens = gf2.random_isotropic_generators(n, k, rng)
        target = BinaryVector(int(rng.integers(0, 1 << k)), k)
        v = solve_commutation(gens, target)
        assert syndrome_bits(v, gens) == target.bits


def test_solve_commutation_rejects_dependent_gens():
    with pytest.raises(ValueError):
        solve_commutation([vec("1100"), vec("1100")], vec("01"))


# ---------------------------------------------------------------------------
# complete_to_symplectic
# ---------------------------------------------------------------------------

def completion_postconditions(matrix, gens, n, m):
    assert is_symplectic(matrix)
    cols = matrix.column_values()
    two_n = 2 * n
    for i, g in enumerate(gens):
        assert cols[m + i] == g.value, "generator must sit in column m+i"
        partner = BinaryVector(cols[n + m + i], two_n)
        for j in range(two_n):
            expected = 1 if j == m + i else 0
            assert sympl_inner(partner, BinaryVector(cols[j], two_n)) == expected


def test_complete_empty_gens_identity():
    assert complete_to_symplectic([], 3) == BinaryMatrix.identity(6)


def test_complete_zz_example():
    g = vec("1100")
    b = complete_to_symplectic([g], 2)
    completion_postconditions(b, [g], 2, 1)


def test_complete_random_isotropic(rng):
    for _ in range(40):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        gens = gf2.random_isotropic_generators(n, k, rng)
        b = complete_to_symplectic(gens, n)
        completion_postconditions(b, gens, n, n - k)


def test_complete_rejects_bad_gens():
    with pytest.raises(ValueError):
        complete_to_symplectic([vec("1100"), vec("1100")], 2)
    with pytest.raises(ValueError):
        complete_to_symplectic([vec("1000"), vec("0010")], 2)  # anticommuting
    with pytest.raises(ValueError, match="at most n"):
        complete_to_symplectic([vec("1100")] * 3, 2)  # more generators than pairs
    with pytest.raises(ValueError, match="generator count"):
        StabilizerProtocol(2, 0, (vec("1100"),))  # m inconsistent


def pairing_table(n: int) -> np.ndarray:
    """<a, b> of every two 2n-bit labels, straight from the bits: the
    parity of phase(a) & parity(b) ^ parity(a) & phase(b)."""
    labels = np.arange(1 << (2 * n))
    phase, parity = labels >> n, labels & ((1 << n) - 1)
    return np.bitwise_count(phase[:, None] & parity ^ parity[:, None] & phase) & 1


def isotropic_sets(n: int, pairing: np.ndarray):
    """Every nonempty set of independent, pairwise commuting labels, once,
    in increasing order: each label is larger than the one before, commutes
    with them and lies outside their enumerated span."""
    def extend(chosen, span):
        if chosen:
            yield chosen
        if len(chosen) < n:
            for v in range(chosen[-1] + 1 if chosen else 1, 1 << (2 * n)):
                if v not in span and not any(pairing[v, c] for c in chosen):
                    yield from extend(chosen + [v], span | {x ^ v for x in span})
    yield from extend([], {0})


def test_partners_are_the_least_labels_meeting_their_constraints():
    # the enumeration shares no code with the null space the completion uses
    for n in range(1, 4):
        pairing = pairing_table(n)
        sets = 0
        for gens in isotropic_sets(n, pairing):
            sets += 1
            frame = complete_to_symplectic([BinaryVector(g, 2 * n) for g in gens], n)
            partners = frame.column_values()[2 * n - len(gens):]
            for i, h in enumerate(partners):
                # pairs with generator i alone, and with no earlier partner
                meets = np.ones(1 << (2 * n), dtype=bool)
                for j, g in enumerate(gens):
                    meets &= pairing[g] == (i == j)
                for earlier in partners[:i]:
                    meets &= pairing[earlier] == 0
                assert h == np.flatnonzero(meets)[0]
        assert sets == {1: 3, 2: 60, 3: 4788}[n]


# sha256 of the frames of 10 seeded generator sets for every m < n <= 14.
# The frame names the logical outputs, so any change to it shows here.
FRAME_DIGEST = "5fe890461f8e3dc39e285839cd303db427ad28ce02499423c12f5530bfa1c245"


def test_completion_frames_are_pinned():
    digest = hashlib.sha256()
    for n in range(1, gf2.MAX_PAIRS + 1):
        for m in range(n):
            rng = np.random.default_rng([n, m])
            for _ in range(10):
                gens = gf2.random_isotropic_generators(n, n - m, rng)
                digest.update(repr(complete_to_symplectic(gens, n).rows).encode())
    assert digest.hexdigest() == FRAME_DIGEST


def test_relabeling_is_the_inverse_of_the_pinned_frame():
    # the constructor reads A off the completion's columns; here A is the
    # inverse of the frame, P B^T P through the transpose
    for n in range(1, gf2.MAX_PAIRS + 1):
        for m in range(n):
            rng = np.random.default_rng([n, m])
            for _ in range(10):
                gens = gf2.random_isotropic_generators(n, n - m, rng)
                assert StabilizerProtocol(n, m, tuple(gens)).matrix.rows == \
                    gf2._inverse(complete_to_symplectic(gens, n)).rows


def test_a_corrupted_partner_fails_the_completion_postcondition(monkeypatch):
    # the first partner column comes out zero, so the frame is singular
    reduce_by, calls = gf2._reduce_by, []

    def corrupted(*args):
        calls.append(args)
        return 0 if len(calls) == 1 else reduce_by(*args)

    monkeypatch.setattr(gf2, "_reduce_by", corrupted)
    for build in (lambda: complete_to_symplectic([vec("1100"), vec("0011")], 2),
                  lambda: StabilizerProtocol.from_pauli_strings(["ZZ", "XX"])):
        calls.clear()
        with pytest.raises(RuntimeError,
                           match="^symplectic completion failed its own postcondition$"):
            build()
        assert len(calls) == 2


def test_completion_takes_one_null_space(rng, monkeypatch):
    kernel, calls = gf2._kernel, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(gf2, "_kernel", counted)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(0, n + 1))
        gens = gf2.random_isotropic_generators(n, k, rng) if k else []
        calls.clear()
        complete_to_symplectic(gens, n)
        assert len(calls) == 1
