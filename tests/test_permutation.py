"""Relabel-and-parity-check engine: frozen fixtures, literal coset-sum checks."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from belldistill import cli, gf2, oracle, permutation, stabilizer
from belldistill.equivalence import stabilizer_from_permutation
from belldistill.gf2 import BinaryMatrix, BinaryVector, Coset, Subspace
from belldistill.permutation import (
    PermutationProtocol,
    branch_outcomes,
    branch_table,
    embed_label,
    measured_subspace,
    optimal_correction,
    recurrence_sweep,
    run,
    unnormalized_fidelity,
)
from belldistill.stabilizer import StabilizerProtocol
from belldistill.states import BellDiagonalState, random_bell_diagonal, werner, werner_pair


def vec(s):
    return BinaryVector.from_string(s)


@pytest.fixture
def bcnot_proto(bcnot):
    return PermutationProtocol.linear(2, 1, bcnot)


# ---------------------------------------------------------------------------
# Protocol validation
# ---------------------------------------------------------------------------

def test_protocol_rejects_non_symplectic():
    bad = BinaryMatrix.from_strings(["1100", "0100", "0010", "0010"])
    with pytest.raises(ValueError, match="symplectic"):
        PermutationProtocol.linear(2, 1, bad)


def test_protocol_rejects_bad_split(bcnot):
    with pytest.raises(ValueError):
        PermutationProtocol.linear(2, 3, bcnot)


def test_protocol_refuses_pairs_beyond_the_cap():
    # Refused before the 64-bit rows reach the int64 symplecticity check.
    identity = BinaryMatrix.from_strings(["0" * i + "1" + "0" * (63 - i) for i in range(64)])
    with pytest.raises(ValueError, match="pair count 32 outside supported range 0..14"):
        PermutationProtocol.linear(32, 1, identity)


# ---------------------------------------------------------------------------
# measured_subspace
# ---------------------------------------------------------------------------

def test_measured_subspace_identity():
    proto = PermutationProtocol.linear(2, 1, BinaryMatrix.identity(4))
    assert measured_subspace(proto) == Subspace.from_vectors([vec("0100")], 4)


def test_measured_subspace_bcnot(bcnot_proto):
    assert measured_subspace(bcnot_proto) == Subspace.from_vectors([vec("1100")], 4)


def test_measured_subspace_isotropic(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, n + 1))
        proto = PermutationProtocol.linear(n, m, gf2.random_symplectic(n, rng))
        sub = measured_subspace(proto)
        assert sub.dim == n - m
        assert sub.is_isotropic()


# ---------------------------------------------------------------------------
# embed_label
# ---------------------------------------------------------------------------

def test_embed_zero():
    assert embed_label(vec("00"), vec("0"), 2, 1) == vec("0000")


def test_embed_documented_layouts():
    assert embed_label(vec("10"), vec("1"), 2, 1) == vec("1001")
    assert embed_label(vec("11"), vec("01"), 3, 1) == vec("100101")


def test_embed_length_checks():
    with pytest.raises(ValueError):
        embed_label(vec("1"), vec("0"), 2, 1)
    with pytest.raises(ValueError):
        embed_label(vec("10"), vec("00"), 2, 1)


# ---------------------------------------------------------------------------
# run: frozen fixture values
# ---------------------------------------------------------------------------

def test_run_point_mass_identity():
    state = BellDiagonalState.point_mass(3)
    proto = PermutationProtocol.linear(3, 1, BinaryMatrix.identity(6))
    outcomes = run(state, proto)
    assert outcomes.t.tolist() == [0]  # zero-probability branches never appear
    assert outcomes.prob[0] == pytest.approx(1.0, abs=1e-15)
    assert outcomes.fidelity[0] == 1.0
    assert outcomes.output[0, 0] == 1.0
    assert outcomes.accepted[0]


def test_run_werner_bcnot_branch0(bcnot_proto, werner2):
    outcomes = run(werner2, bcnot_proto)
    assert outcomes.t.tolist() == [0, 1]
    assert outcomes.prob[0] == pytest.approx(13 / 18, abs=1e-12)
    assert outcomes.output[0] == pytest.approx(
        [41 / 52, 1 / 52, 9 / 52, 1 / 52], abs=1e-12)
    assert outcomes.fidelity[0] == pytest.approx(41 / 52, abs=1e-12)
    assert outcomes.correction[0] == 0
    assert outcomes.accepted[0]  # 41/52 >= input fidelity 9/16


def test_run_werner_bcnot_branch1(bcnot_proto, werner2):
    outcomes = run(werner2, bcnot_proto)
    assert outcomes.t.tolist() == [0, 1]
    assert outcomes.prob[1] == pytest.approx(5 / 18, abs=1e-12)
    assert outcomes.output[1] == pytest.approx([0.25] * 4, abs=1e-12)
    assert outcomes.fidelity[1] == pytest.approx(0.25, abs=1e-12)
    assert outcomes.prob.sum() == pytest.approx(1.0, abs=1e-12)


def test_run_outputs_normalized(bcnot_proto, werner2):
    outcomes = run(werner2, bcnot_proto)
    for output, correction, fidelity in zip(outcomes.output, outcomes.correction.tolist(),
                                            outcomes.fidelity):
        assert output.sum() == pytest.approx(1.0, abs=1e-12)
        shifted = BellDiagonalState(1, output).pauli_shift(BinaryVector(correction, 2))
        assert shifted.fidelity == pytest.approx(fidelity, abs=1e-15)


def test_run_threshold_semantics(bcnot_proto, werner2):
    assert run(werner2, bcnot_proto, threshold=0.2).accepted.tolist() == [True, True]
    assert run(werner2, bcnot_proto, threshold=0.9).accepted.tolist() == [False, False]


def test_run_dimension_mismatch(bcnot_proto):
    with pytest.raises(ValueError):
        run(BellDiagonalState.point_mass(3), bcnot_proto)


# ---------------------------------------------------------------------------
# Branch table vs the literal coset-sum formulas (independent implementations)
# ---------------------------------------------------------------------------

def literal_branches(probs, sub, lift, n, m):
    """{t: (prob, weights)} from one `gf2.coset_sum` per branch and per label.

    `lift(y, t)` is an input label that the protocol sends to logical label
    y in branch t; the branch is its coset of the complement of `sub`, the
    entry its coset of `sub`.  Zero-probability branches are left out.
    """
    perp = gf2.orthogonal_complement(sub)
    branches = {}
    for t in range(1 << (n - m)):
        prob = gf2.coset_sum(probs, Coset(perp, lift(0, t)))
        if prob == 0.0:
            continue
        branches[t] = (prob, np.array([gf2.coset_sum(probs, Coset(sub, lift(y, t)))
                                       for y in range(1 << (2 * m))]))
    return branches


def tie_heavy_and_random_inputs(n, rng):
    label = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
    return [random_bell_diagonal(n, rng),
            BellDiagonalState.from_pairs([werner(0.75)] * n),
            BellDiagonalState.point_mass(n, label),
            BellDiagonalState(n, np.full(1 << (2 * n), 0.25 ** n))]


def embed(y, t, n, m):
    return embed_label(BinaryVector(y, 2 * m), BinaryVector(t, n - m), n, m)


def test_coset_path_equals_direct_path(rng, random_frame):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, n + 1))
        matrix = gf2.random_symplectic(n, rng)
        offset = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n) \
            if rng.random() < 0.5 else BinaryVector.zeros(2 * n)
        proto = PermutationProtocol(n, m, matrix, offset)
        inverse = gf2.symplectic_inverse(matrix)
        shift = (inverse @ offset).value
        gens = tuple(gf2.random_isotropic_generators(n, n - m, rng)) if m < n else ()
        basis = random_frame(gens, n, rng)
        code = stabilizer_from_permutation(PermutationProtocol.linear(
            n, m, gf2.symplectic_inverse(basis)))
        span = measured_subspace(code)
        for state in tie_heavy_and_random_inputs(n, rng):
            # the offset moves the input: q_x = p_{x + A^-1 b}
            q = state.probs[np.arange(len(state.probs)) ^ shift]
            literal = literal_branches(
                q, measured_subspace(proto),
                lambda y, t: inverse @ embed(y, t, n, m), n, m)
            outcomes = run(state, proto)
            assert outcomes.t.tolist() == sorted(literal)
            for row, t in enumerate(outcomes.t.tolist()):
                prob, weights = literal[t]
                assert outcomes.prob[row] == pytest.approx(prob, abs=1e-12)
                assert outcomes.output[row] == pytest.approx(weights / prob, abs=1e-12)
                assert outcomes.fidelity[row] == pytest.approx(weights.max() / prob,
                                                               abs=1e-12)
                assert abs(weights[outcomes.correction[row]] - weights.max()) <= 1e-15

            literal = literal_branches(
                state.probs, span, lambda y, s: basis @ embed(y, s, n, m), n, m)
            branches = stabilizer.run(state, code)
            assert branches.s.tolist() == sorted(literal)
            for row, s in enumerate(branches.s.tolist()):
                prob, weights = literal[s]
                assert branches.prob[row] == pytest.approx(prob, abs=1e-12)
                assert branches.output[row] == pytest.approx(weights / prob, abs=1e-12)
                assert branches.fidelity[row] == pytest.approx(weights.max() / prob,
                                                               abs=1e-12)
                u = BinaryVector(int(branches.u[row]), 2 * n)
                chosen = gf2.coset_sum(state.probs, Coset(span, u))
                assert abs(chosen - weights.max()) <= 1e-15


# ---------------------------------------------------------------------------
# Branch table and read-out: bit equality with the one-shot forms
# ---------------------------------------------------------------------------

def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def one_table(state, label_map, offset, m):
    """`branch_table` of a batch of one input."""
    return branch_table([factor[None] for factor in state.factors], label_map, offset, m)[0]


@pytest.mark.parametrize("m", [0, 4, 9])
def test_blocked_branch_table_bit_equals_one_shot(rng, m):
    n = 9  # 2n = 18 input bits: four blocks
    assert 2 * n - permutation._BLOCK_BITS == 2
    state = random_bell_diagonal(n, rng)
    for _ in range(3):
        # random rows, so most entries sum many inputs whose order matters
        label_map = BinaryMatrix(tuple(int(rng.integers(0, 1 << (2 * n)))
                                       for _ in range(n + m)), 2 * n)
        offset = int(rng.integers(0, 1 << (n + m)))
        expected = np.zeros(1 << (n + m))
        np.add.at(expected, gf2.affine_images(label_map.column_values(), offset),
                  state.probs)
        table = one_table(state, label_map, offset, m)
        assert table.shape == (1 << (n - m), 1 << (2 * m))
        assert np.array_equal(bits(table.ravel()), bits(expected))


def test_label_map_is_the_protocol_rows_and_offset_bits_at_its_positions(rng, monkeypatch):
    # the former formulation: the rows of A and the bits of b at the
    # positions of t, then of y's phases and parities, b's through
    # `BinaryVector.from_bits`
    seen, table = [], permutation.branch_table
    monkeypatch.setattr(permutation, "branch_table", lambda factors, *args: (
        seen.append(args), table(factors, *args))[1])
    for _ in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n + 1))
        matrix = gf2.random_symplectic(n, rng)
        b = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
        seen.clear()
        run(random_bell_diagonal(n, rng), PermutationProtocol(n, m, matrix, b))
        (label_map, offset, _), = seen
        positions = [*range(n + m, 2 * n), *range(m), *range(n, n + m)]
        assert label_map == BinaryMatrix(tuple(matrix.rows[p] for p in positions), 2 * n)
        assert offset == BinaryVector.from_bits([b.bit(p) for p in positions]).value


PAIR_KINDS = {
    "werner": lambda rng: werner(0.8),
    "random": lambda rng: BellDiagonalState(1, (w := rng.random(4) + 1e-3) / w.sum()),
    "sparse": lambda rng: BellDiagonalState(1, (0.7, 0.0, 0.3, 0.0)),
    "point-mass": lambda rng: BellDiagonalState(1, (0.0, 1.0, 0.0, 0.0)),
    "uniform": lambda rng: BellDiagonalState(1, (0.25,) * 4),
}


def product_input(kind, n, rng):
    """n pairs of one kind, or of every kind in turn for "mixed"."""
    if kind == "mixed":
        makers = list(PAIR_KINDS.values())
        return BellDiagonalState.from_pairs([makers[i % 5](rng) for i in range(n)])
    return BellDiagonalState.from_pairs([PAIR_KINDS[kind](rng) for _ in range(n)])


def dense_copy(state):
    """The same weights as one dense factor, bit for bit."""
    return BellDiagonalState._trusted(state.n, state.probs.copy())


def random_label_map(n, m, rng):
    matrix = gf2.random_symplectic(n, rng)
    return (BinaryMatrix(matrix.rows[:n + m], 2 * n),
            int(rng.integers(0, 1 << (n + m))))


@pytest.mark.parametrize("kind", [*PAIR_KINDS, "mixed"])
def test_product_tables_up_to_the_head_bit_equal_dense(rng, kind):
    for n in (1, 2, 5, 8):
        state = product_input(kind, n, rng)
        assert len(state.factors) == 1
        m = int(rng.integers(0, n + 1))
        label_map, offset = random_label_map(n, m, rng)
        table = one_table(state, label_map, offset, m)
        dense = one_table(dense_copy(state), label_map, offset, m)
        assert np.array_equal(bits(table.ravel()), bits(dense.ravel()))


def assert_engines_agree_with_dense(state, rng):
    """Factored against dense: tables to 1e-12 relative, and the same
    branches, corrections, recoveries and acceptance from both engines."""
    n = state.n
    dense = dense_copy(state)
    m = int(rng.integers(0, 4))
    label_map, offset = random_label_map(n, m, rng)
    table = one_table(state, label_map, offset, m)
    expected = one_table(dense, label_map, offset, m)
    assert np.all(np.abs(table - expected) <= 1e-12 * expected)

    threshold = state.fidelity
    assert threshold == pytest.approx(dense.fidelity, rel=1e-14)
    proto = PermutationProtocol(n, m, gf2.random_symplectic(n, rng),
                                BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n))
    got, want = run(state, proto, threshold), run(dense, proto, threshold)
    assert [o.t for o in got] == [o.t for o in want]
    for o, w in zip(got, want):
        assert o.correction == w.correction and o.accepted == w.accepted
        assert o.prob == pytest.approx(w.prob, rel=1e-12)
        assert o.fidelity == pytest.approx(w.fidelity, rel=1e-12)
    code = StabilizerProtocol(n, m, tuple(gf2.random_isotropic_generators(n, n - m, rng)))
    got, want = stabilizer.run(state, code, threshold), stabilizer.run(dense, code, threshold)
    assert [(b.s, b.v, b.u, b.accepted) for b in got] == \
        [(b.s, b.v, b.u, b.accepted) for b in want]


@pytest.mark.parametrize("kind", [*PAIR_KINDS, "mixed"])
def test_product_tables_beyond_the_head_match_dense(rng, kind):
    for n in (9, 10) if kind != "mixed" else (9, 10, 11):
        state = product_input(kind, n, rng)
        assert len(state.factors) == 1 + n - 8
        assert_engines_agree_with_dense(state, rng)


def test_product_branches_beyond_the_head_equal_literal_coset_sums(rng):
    n = 9
    for kind in ("werner", "mixed"):
        state = product_input(kind, n, rng)
        m = int(rng.integers(1, 3))
        proto = PermutationProtocol(n, m, gf2.random_symplectic(n, rng),
                                    BinaryVector.zeros(2 * n))
        inverse = gf2.symplectic_inverse(proto.matrix)
        literal = literal_branches(state.probs, measured_subspace(proto),
                                   lambda y, t: inverse @ embed(y, t, n, m), n, m)
        outcomes = run(state, proto)
        assert outcomes.t.tolist() == sorted(literal)
        for row, t in enumerate(outcomes.t.tolist()):
            prob, weights = literal[t]
            assert outcomes.prob[row] == pytest.approx(prob, rel=1e-12)
            assert outcomes.output[row] == pytest.approx(weights / prob, rel=1e-12,
                                                         abs=1e-15)
            assert outcomes.fidelity[row] == pytest.approx(weights.max() / prob,
                                                           rel=1e-12)


def per_row_outcomes(table, m, threshold):
    """The read-out one row at a time through the public constructor."""
    k = table.shape[0].bit_length() - 1
    rows = []
    for t, row in enumerate(table):
        prob = float(row.sum())
        if prob == 0.0:
            continue
        output = BellDiagonalState(m, row / prob)
        correction = optimal_correction(row)
        fid = float(output.probs[correction.value])
        rows.append((t, prob, output.probs, correction, fid, (1 << k) * fid,
                     fid >= threshold))
    return rows


def test_branch_outcomes_bit_equal_per_row_constructor(rng):
    for _ in range(12):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n + 1))
        label_map = gf2.random_symplectic(n, rng)
        label_map = BinaryMatrix(label_map.rows[:n + m], 2 * n)
        offset = int(rng.integers(0, 1 << (n + m)))
        for state in tie_heavy_and_random_inputs(n, rng):
            table = one_table(state, label_map, offset, m)
            expected = per_row_outcomes(table, m, state.fidelity)
            _, outcomes = branch_outcomes(table[None], m, np.array([state.fidelity]))
            assert outcomes.t.tolist() == [row[0] for row in expected]
            assert not outcomes.output.flags.writeable
            # a table whose rows are all live is divided in place
            assert np.shares_memory(outcomes.output, table) == \
                (outcomes.t.size == table.shape[0])
            for row, (_, prob, output, correction, fid, raw, accepted) in enumerate(
                    expected):
                assert bits(outcomes.prob[row]) == bits(prob)
                assert np.array_equal(bits(outcomes.output[row]), bits(output))
                assert outcomes.correction[row] == correction.value
                assert bits(outcomes.fidelity[row]) == bits(fid)
                assert bits(outcomes.unnormalized_fidelity[row]) == bits(raw)
                assert outcomes.accepted[row] == accepted


def gather_fold(table, weights, columns):
    """The fold as it was first written: one index gather per term."""
    labels = np.arange(table.size)
    out = np.zeros_like(table)
    for w, shift in zip(weights.tolist(), gf2.affine_images(columns, 0).tolist()):
        if w:
            out += w * table[labels ^ shift]
    return out


def degenerate_label_map(n, m, rng):
    """Random columns, except that the folded pairs' columns are zero,
    equal, or already in the span of earlier folded pairs' columns."""
    columns = [int(rng.integers(0, 1 << (n + m))) for _ in range(2 * n)]
    columns[8] = 0  # pair 8: a zero phase column
    if n > 9:
        columns[n + 9] = columns[9]  # pair 9: two equal columns
    if n > 10:
        columns[10] = columns[n + 8] ^ columns[9]  # pair 10: phase in the span
    if n > 11:
        columns[11], columns[n + 11] = columns[10], columns[n + 8]  # pair 11: both
    return (BinaryMatrix(tuple(columns), n + m).transpose(),
            int(rng.integers(0, 1 << (n + m))))


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_fold_bit_equals_the_gather(rng, monkeypatch, n):
    # pairs with zero weights, point masses and uniform pairs, beyond a
    # Werner head, folded in one after another by the per-term gather; with
    # 2^8-cell blocks every table spans many blocks, and a group splits
    # once its span outgrows 2 dimensions
    groups = []
    fold_cosets = permutation._fold_cosets
    monkeypatch.setattr(permutation, "_fold_cosets",
                        lambda table, folds: (groups.append(len(folds)),
                                              fold_cosets(table, folds)))
    pairs = [werner(0.8)] * 8 + [BellDiagonalState(1, w) for w in (
        (0.7, 0.0, 0.3, 0.0), (0.0, 1.0, 0.0, 0.0), (0.25,) * 4, (0.6, 0.1, 0.0, 0.3))]
    state = BellDiagonalState.from_pairs(pairs[:n])
    for fold_bits in (permutation._FOLD_BITS, 8):
        monkeypatch.setattr(permutation, "_FOLD_BITS", fold_bits)
        for m in (0, n // 2):
            for make_map in (random_label_map, degenerate_label_map):
                label_map, offset = make_map(n, m, rng)
                columns = label_map.column_values()
                expected = np.zeros(1 << (n + m))
                permutation._scatter(expected[None], state.factors[0][None],
                                     columns[:8] + columns[n:n + 8], offset)
                for i, factor in enumerate(state.factors[1:], start=8):
                    expected = gather_fold(expected, factor, (columns[i], columns[n + i]))
                groups.clear()
                table = one_table(state, label_map, offset, m)
                assert np.array_equal(bits(table.ravel()), bits(expected))
                assert sum(groups) == n - 8
                if fold_bits == 8 and make_map is random_label_map:
                    assert len(groups) == n - 8  # one pair per group


def test_branch_table_peak_at_the_pair_cap(rng):
    # 14 pairs, 7 kept: a 2^21-cell (16 MiB) table, folded in place
    n, m = 14, 7
    state = BellDiagonalState.from_pairs([werner(0.8)] * n)
    label_map, offset = random_label_map(n, m, rng)
    tracemalloc.start()
    try:
        table = one_table(state, label_map, offset, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 8 << 21
    assert peak <= 1.25 * table.nbytes


# ---------------------------------------------------------------------------
# The branch set: columns, the row view, read-only
# ---------------------------------------------------------------------------

def branch_set_inputs(n, rng):
    """Werner, point-mass, uniform and sparse inputs; the point mass and
    the sparse pairs leave branches at probability zero."""
    label = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
    return [BellDiagonalState.from_pairs([werner(0.8)] * n),
            BellDiagonalState.point_mass(n, label),
            BellDiagonalState(n, np.full(1 << (2 * n), 0.25 ** n)),
            BellDiagonalState.from_pairs([BellDiagonalState(1, (0.7, 0.0, 0.3, 0.0))] * n)]


def random_protocol(n, m, rng):
    offset = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
    return PermutationProtocol(n, m, gf2.random_symplectic(n, rng), offset)


def test_branch_set_columns_equal_literal_coset_sums(rng):
    skipped = 0
    for n in (1, 2, 3, 4):
        for m in sorted({0, n // 2, n}):
            proto = random_protocol(n, m, rng)
            inverse = gf2.symplectic_inverse(proto.matrix)
            shift = (inverse @ proto.offset).value
            for state in branch_set_inputs(n, rng):
                branches = run(state, proto)
                q = state.probs[np.arange(len(state.probs)) ^ shift]
                literal = literal_branches(q, measured_subspace(proto),
                                           lambda y, t: inverse @ embed(y, t, n, m), n, m)
                assert branches.t.dtype == branches.correction.dtype == np.int64
                assert branches.t.tolist() == sorted(literal)
                skipped += (1 << (n - m)) - len(branches)
                for row, t in enumerate(branches.t.tolist()):
                    prob, weights = literal[t]
                    fid = weights.max() / prob
                    assert branches.prob[row] == pytest.approx(prob, abs=1e-12)
                    assert branches.output[row] == pytest.approx(weights / prob, abs=1e-12)
                    assert branches.fidelity[row] == pytest.approx(fid, abs=1e-12)
                    assert abs(weights[branches.correction[row]] - weights.max()) <= 1e-15
                    assert branches.unnormalized_fidelity[row] == pytest.approx(
                        unnormalized_fidelity(state, proto, BinaryVector(t, n - m)),
                        rel=1e-12)
                    assert branches.accepted[row] == \
                        (branches.fidelity[row] >= state.fidelity)
    assert skipped > 0


def test_branch_set_columns_equal_the_dense_oracle(rng, relabel):
    for n in (2, 3):
        for m in (0, 1, n):
            proto = random_protocol(n, m, rng)
            for state in branch_set_inputs(n, rng):
                branches = run(state, proto)
                dense = {b.t.value: b for b in oracle.simulate_parity_measurement(
                    relabel(state, proto.matrix, proto.offset), m) if b.prob > 1e-12}
                assert branches.t.tolist() == sorted(dense)
                for row, t in enumerate(branches.t.tolist()):
                    assert branches.prob[row] == pytest.approx(dense[t].prob, abs=1e-12)
                    assert branches.output[row] == pytest.approx(dense[t].output.probs,
                                                                  abs=1e-12)
                    assert dense[t].bell_offdiag <= 1e-12


def reference_outcome(branches, row, n, m):
    """Row `row` of a permutation branch set as a record, built here."""
    return SimpleNamespace(
        t=BinaryVector(int(branches.t[row]), n - m),
        prob=float(branches.prob[row]),
        fidelity=float(branches.fidelity[row]),
        unnormalized_fidelity=float(branches.unnormalized_fidelity[row]),
        correction=BinaryVector(int(branches.correction[row]), 2 * m),
        accepted=bool(branches.accepted[row]),
        # the row as it is: the constructor would renormalize it again
        output=BellDiagonalState._trusted(m, branches.output[row].copy()),
    )


def assert_same_record(got, want):
    for name in ("t", "s", "correction", "v", "u", "accepted"):
        assert getattr(got, name, None) == getattr(want, name, None)
        assert type(getattr(got, name, None)) is type(getattr(want, name, None))
    for name in ("prob", "fidelity", "unnormalized_fidelity"):
        assert type(getattr(got, name)) is float
        assert bits(getattr(got, name)) == bits(getattr(want, name))
    assert got.output.n == want.output.n
    assert np.array_equal(bits(got.output.probs), bits(want.output.probs))
    assert not got.output.probs.flags.writeable


def assert_read_only(branches):
    with pytest.raises(ValueError, match="read-only"):
        branches.prob[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        branches.output[0, 0] = 0.5
    for column in branches.columns.values():
        assert not column.flags.writeable
    with pytest.raises(TypeError):
        branches.columns["prob"] = branches.prob
    with pytest.raises(AttributeError):
        branches.prob = branches.prob
    with pytest.raises(AttributeError):
        branches.no_such_column


def test_branch_set_records_equal_the_per_row_reference(rng):
    for n, m in ((1, 0), (1, 1), (3, 0), (3, 1), (3, 3), (5, 2)):
        proto = random_protocol(n, m, rng)
        for state in branch_set_inputs(n, rng):
            branches = run(state, proto)
            expected = [reference_outcome(branches, row, n, m)
                        for row in range(len(branches))]
            for got, want in zip(list(branches), expected, strict=True):
                assert got._fields == tuple(branches.columns) == tuple(vars(want))
                assert_same_record(got, want)
            assert_read_only(branches)


# ---------------------------------------------------------------------------
# optimal_correction
# ---------------------------------------------------------------------------

def test_correction_point_mass():
    assert optimal_correction(np.array([1.0, 0, 0, 0])) == vec("00")


def test_correction_werner_branch(bcnot_proto, werner2):
    good = run(werner2, bcnot_proto).output[0]
    assert optimal_correction(good) == vec("00")


def test_correction_brute_force_optimal(rng):
    for m in (1, 2, 3):
        for _ in range(5):
            cond = rng.random(1 << (2 * m))
            cond /= cond.sum()
            best = optimal_correction(cond)
            state = BellDiagonalState(m, cond)
            achieved = state.pauli_shift(best).fidelity
            for shift in range(1 << (2 * m)):
                other = state.pauli_shift(BinaryVector(shift, 2 * m)).fidelity
                assert achieved >= other - 1e-15


def test_correction_tie_breaks_lexicographically():
    assert optimal_correction(np.array([0.25, 0.25, 0.25, 0.25])) == vec("00")
    assert optimal_correction(np.array([0.1, 0.45, 0.45, 0.0])) == vec("01")


def test_correction_ties_within_the_band():
    band = permutation.TIE_BAND
    # weights that differ by summation order only count as tied
    assert optimal_correction(np.array([0.5 * (1 - band / 4), 0.5, 0.0, 0.0])) == vec("00")
    assert optimal_correction(np.array([0.0, 0.4 * (1 - band / 2), 0.2, 0.4])) == vec("01")
    # a gap wider than the band is not a tie
    assert optimal_correction(np.array([0.5 * (1 - 4 * band), 0.5, 0.0, 0.0])) == vec("01")


def test_correction_does_not_depend_on_summation_order(rng):
    for n in (3, 5):
        pool = [werner(0.75), BellDiagonalState(1, (1.0, 0.0, 0.0, 0.0)),
                BellDiagonalState(1, (0.25,) * 4)]
        for pairs in ([pool[0]] * n, [pool[1]] * n, [pool[2]] * n,
                      [pool[i % 3] for i in range(n)]):
            probs = BellDiagonalState.from_pairs(pairs).probs
            m = int(rng.integers(1, n))
            label_map = gf2.random_symplectic(n, rng)
            images = gf2.affine_images(label_map.column_values(), 0) >> (n - m)
            forward, backward = np.zeros(1 << (n + m)), np.zeros(1 << (n + m))
            np.add.at(forward, images, probs)
            np.add.at(backward, images[::-1], probs[::-1])
            for a, b in zip(forward.reshape(-1, 1 << (2 * m)),
                            backward.reshape(-1, 1 << (2 * m))):
                assert optimal_correction(a) == optimal_correction(b)


def band_rule(row):
    """The correction rule written out: the smallest label whose weight is
    within the band of the row maximum."""
    weights = row.tolist()
    top = max(weights)
    return next(y for y, w in enumerate(weights)
                if w >= (1.0 - permutation.TIE_BAND) * top)


def test_corrections_of_all_rows_equal_the_per_row_rule(rng):
    for n, m in ((3, 1), (4, 2), (6, 2)):
        label_map = gf2.random_symplectic(n, rng)
        label_map = BinaryMatrix(label_map.rows[:n + m], 2 * n)
        inputs = [BellDiagonalState.from_pairs([werner(0.8)] * n),
                  BellDiagonalState.point_mass(n),
                  BellDiagonalState(n, np.full(1 << (2 * n), 0.25 ** n)),
                  random_bell_diagonal(n, rng)]
        for state in inputs:
            table = one_table(state, label_map, 0, m)
            _, outcomes = branch_outcomes(table.copy()[None], m,
                                          np.array([state.fidelity]))
            assert outcomes
            for o in outcomes:
                row = table[o.t.value]
                assert o.correction == optimal_correction(row)
                assert o.correction.value == band_rule(row)


def test_correction_rejects_empty():
    with pytest.raises(ValueError):
        optimal_correction(np.array([]))


# ---------------------------------------------------------------------------
# Numerator-coset degeneracy
# ---------------------------------------------------------------------------

def test_correction_coset_degeneracy(bcnot_proto, werner2):
    # offsets that differ by a measured-subspace element index the same coset,
    # hence the same post-correction weight
    sub = measured_subspace(bcnot_proto)
    inverse = gf2.symplectic_inverse(bcnot_proto.matrix)
    for o in run(werner2, bcnot_proto):
        abar = embed_label(o.correction, o.t, 2, 1)
        base = Coset(sub, inverse @ abar)
        weight = gf2.coset_sum(werner2.probs, base)
        for s in sub.elements():
            moved = Coset(sub, (inverse @ abar) ^ s)
            assert moved == base
            assert gf2.coset_sum(werner2.probs, moved) == pytest.approx(
                weight, abs=1e-15)


# ---------------------------------------------------------------------------
# unnormalized (literal) fidelity expression
# ---------------------------------------------------------------------------

def test_literal_fidelity_point_mass_identity():
    state = BellDiagonalState.point_mass(2)
    proto = PermutationProtocol.linear(2, 1, BinaryMatrix.identity(4))
    assert unnormalized_fidelity(state, proto, vec("0")) == pytest.approx(2.0)


def test_literal_fidelity_werner_bcnot(bcnot_proto, werner2):
    value = unnormalized_fidelity(werner2, bcnot_proto, vec("0"))
    assert value == pytest.approx(41 / 26, abs=1e-12)


def test_literal_fidelity_zero_branch_raises(bcnot_proto):
    state = BellDiagonalState.point_mass(2)
    with pytest.raises(ValueError, match="probability zero"):
        unnormalized_fidelity(state, bcnot_proto, vec("1"))


def test_literal_equals_scaled_normalized(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, n))
        proto = PermutationProtocol.linear(n, m, gf2.random_symplectic(n, rng))
        state = random_bell_diagonal(n, rng)
        for o in run(state, proto):
            literal = unnormalized_fidelity(state, proto, o.t)
            assert literal == pytest.approx(
                o.fidelity * (1 << (n - m)), rel=1e-12)
            assert o.unnormalized_fidelity == pytest.approx(literal, rel=1e-12)


# ---------------------------------------------------------------------------
# Recurrence
# ---------------------------------------------------------------------------

def test_recurrence_perfect_input(bcnot_proto):
    sweep = recurrence_sweep(werner(1.0), bcnot_proto, 3)
    assert sweep["f_out"] == pytest.approx([1.0] * 3)
    assert sweep["accept_prob"] == pytest.approx([1.0] * 3)
    assert sweep["yield"] == pytest.approx([0.5, 0.25, 0.125])
    assert sweep["accepted"].all()


def test_recurrence_one_round(bcnot_proto):
    sweep = recurrence_sweep(werner(0.75), bcnot_proto, 1)
    assert sweep["f_out"][0] == pytest.approx(41 / 52, abs=1e-12)
    assert sweep["accept_prob"][0] == pytest.approx(13 / 18, abs=1e-12)
    assert sweep["yield"][0] == pytest.approx(13 / 36, abs=1e-12)
    assert sweep["f_out"][0] > werner(0.75).fidelity and sweep["accepted"][0]


def test_recurrence_carries_the_corrected_output(bcnot_proto):
    # round 2 starts from round 1's corrected output, (41, 1, 9, 1) / 52
    carried = recurrence_sweep(werner(0.75), bcnot_proto, 2)
    fresh = recurrence_sweep(BellDiagonalState(1, (41 / 52, 1 / 52, 9 / 52, 1 / 52)),
                             bcnot_proto, 1)
    for name in ("f_out", "accept_prob"):
        assert carried[name][1] == pytest.approx(fresh[name][0], abs=1e-12)
    assert carried["accepted"][1] == fresh["accepted"][0]
    assert carried["yield"][1] == pytest.approx(carried["yield"][0] * fresh["yield"][0],
                                                abs=1e-12)
    # the pair with its phase and parity errors swapped, or with label 10 on
    # top, would print another acceptance probability
    for other in ((41, 9, 1, 1), (9, 1, 41, 1)):
        moved = recurrence_sweep(BellDiagonalState(1, np.array(other) / 52), bcnot_proto, 1)
        assert moved["accept_prob"][0] != pytest.approx(fresh["accept_prob"][0], abs=1e-6)


def test_recurrence_second_round_degrades(bcnot_proto):
    # fed straight back, the surviving phase-error weight squares up: the
    # second round lands at 1762/2504, below the pair it started from, and
    # is reported, not raised
    sweep = recurrence_sweep(werner(0.75), bcnot_proto, 2)
    assert sweep["f_out"][1] == pytest.approx(881 / 1252, abs=1e-12)
    assert sweep["f_out"][1] < sweep["f_out"][0]
    assert not sweep["accepted"][1]
    assert sweep["yield"][1] == 0.0


def test_recurrence_requires_single_survivor(bcnot):
    proto = PermutationProtocol.linear(2, 0, bcnot)
    with pytest.raises(ValueError, match="m"):
        recurrence_sweep(werner(0.75), proto, 1)


def reference_sweep(pair, proto, rounds, threshold):
    """`recurrence_sweep` branch by branch, as lists: the best branch is the
    maximum by (fidelity, -t) over the accepted branches, or over all of
    them when none is accepted."""
    columns = {"f_out": [], "yield": [], "accept_prob": [], "accepted": []}
    current, cumulative = pair, 1.0
    for _ in range(rounds):
        state = BellDiagonalState.from_pairs([current] * proto.n)
        branches = run(state, proto, current.fidelity if threshold is None else threshold)
        t, prob, fidelity = (branches.t.tolist(), branches.prob.tolist(),
                             branches.fidelity.tolist())
        accepted = [row for row in range(len(t)) if branches.accepted[row]]
        best = max(accepted or range(len(t)), key=lambda row: (fidelity[row], -t[row]))
        accept_prob = sum((prob[row] for row in accepted), 0.0)
        cumulative *= (proto.m / proto.n) * accept_prob
        for name, value in zip(columns, (fidelity[best], cumulative, accept_prob,
                                         bool(accepted))):
            columns[name].append(value)
        output, correction = branches.output[best], int(branches.correction[best])
        current = BellDiagonalState(1, [output[x ^ correction] for x in range(4)])
    return columns


def test_recurrence_equals_the_per_branch_rule(rng):
    """Every round's four columns, so the pair carried into rounds 2 and 3
    shows in what they print."""
    protocols = [PermutationProtocol.linear(n, 1, gf2.random_symplectic(n, rng))
                 for n in (2, 2, 3, 3, 4)]
    protocols.append(PermutationProtocol.linear(
        2, 1, BinaryMatrix.from_strings(["1100", "0100", "0010", "0011"])))
    pairs = [werner(0.7), werner(0.9), werner(0.5), BellDiagonalState(1, (0.25,) * 4),
             BellDiagonalState(1, (0.6, 0.0, 0.4, 0.0))]
    for proto in protocols:
        for pair in pairs:
            for threshold in (None, 0.3, 0.99):
                sweep = recurrence_sweep(pair, proto, 3, threshold)
                kinds = [(name, column.dtype, column.shape) for name, column in sweep.items()]
                assert kinds == [("f_out", float, (3,)), ("yield", float, (3,)),
                                 ("accept_prob", float, (3,)), ("accepted", bool, (3,))]
                assert {name: column.tolist() for name, column in sweep.items()} == \
                    reference_sweep(pair, proto, 3, threshold)


def test_recurrence_explicit_threshold(bcnot_proto):
    sweep = recurrence_sweep(werner(0.75), bcnot_proto, 2, threshold=0.5)
    assert sweep["accepted"][1]  # 0.7037 >= 0.5
    assert sweep["yield"][1] > 0


def sweep_pairs(rng):
    """Distinct input pairs: Werner pairs across the distillable range, a
    perfect pair (its branch tables have rows of weight zero), one below
    F = 1/4, a sparse pair and random pairs."""
    return [werner(f) for f in (0.55, 0.7, 0.8, 0.95)] + [
        werner(1.0), werner_pair(0.2)[0], BellDiagonalState(1, (0.7, 0.0, 0.3, 0.0)),
        *(BellDiagonalState(1, (w := rng.random(4) + 1e-3) / w.sum()) for _ in range(3))]


@pytest.mark.parametrize("n", range(2, 11))
def test_batched_sweep_bit_equals_one_point_at_a_time(rng, monkeypatch, n):
    # n = 9 and 10 fold pairs beyond the head; a budget of two points a
    # chunk splits the grid, the default runs it as one chunk
    proto = PermutationProtocol.linear(n, 1, gf2.random_symplectic(n, rng))
    pairs = sweep_pairs(rng)
    rounds = 3 if n <= 8 else 2
    for threshold in (None, 0.6):
        alone = [recurrence_sweep(pair, proto, rounds, threshold) for pair in pairs]
        for pair, sweep in zip(pairs, alone):
            assert {name: column.tolist() for name, column in sweep.items()} == \
                reference_sweep(pair, proto, rounds, threshold)
        for budget in (permutation._SWEEP_BYTES, 2 * (64 << 2 * min(n, 8))):
            monkeypatch.setattr(permutation, "_SWEEP_BYTES", budget)
            batch = recurrence_sweep(pairs, proto, rounds, threshold)
            assert list(batch) == list(alone[0])
            for name, column in batch.items():
                expected = np.concatenate([sweep[name] for sweep in alone])
                assert column.dtype == expected.dtype
                assert np.array_equal(column.view(np.uint8), expected.view(np.uint8)), name


def test_sweep_refuses_no_pairs_and_states_of_two_pairs(bcnot_proto):
    with pytest.raises(ValueError, match="at least one pair"):
        recurrence_sweep([], bcnot_proto, 1)
    with pytest.raises(ValueError, match="1-pair"):
        recurrence_sweep([werner(0.8), BellDiagonalState.point_mass(2)], bcnot_proto, 1)


@pytest.mark.parametrize("n, points", [(2, 41), (3, 9), (8, 9)])
def test_sweep_builds_one_table_per_round_per_chunk(table_calls, capsys, n, points):
    gens = ["Z" * n] + ["I" * i + "XX" + "I" * (n - 2 - i) for i in range(n - 2)]
    grid = ",".join(str(0.55 + 0.01 * i) for i in range(points))
    assert cli.main(["sweep", "--generators", ",".join(gens), "-m", "1", "--grid", grid,
                     "--rounds", "3", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * points
    chunk = permutation._SWEEP_BYTES // (64 << 2 * min(n, 8))
    sizes = [min(chunk, points - start) for start in range(0, points, chunk)]
    assert table_calls == [size for size in sizes for _ in range(3)]


def test_sweep_engine_peak_is_the_chunk_budget_plus_the_columns():
    # 2,000 points at n = 8: four points a chunk, 500 chunks
    n = 8
    gens = ["Z" * n] + ["I" * i + "XX" + "I" * (n - 2 - i) for i in range(n - 2)]
    proto = StabilizerProtocol.from_pauli_strings(gens, 1)
    pairs = [werner(0.55 + 0.4 * i / 1999) for i in range(2000)]
    tracemalloc.start()
    try:
        sweep = recurrence_sweep(pairs, proto, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(column.nbytes for column in sweep.values())
    assert columns == 25 * 2000
    assert peak <= permutation._SWEEP_BYTES + columns
