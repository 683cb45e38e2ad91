"""Generator-measurement engine: syndromes, recovery, frozen fixtures."""

import collections

import numpy as np
import pytest
from hypothesis import given, strategies as st

from belldistill import gf2, oracle, permutation, stabilizer
from belldistill.equivalence import stabilizer_from_permutation
from belldistill.gf2 import BinaryMatrix, BinaryVector, Coset, Subspace
from belldistill.permutation import PermutationProtocol, measured_subspace
from belldistill.stabilizer import (
    StabilizerProtocol,
    optimal_recovery,
    parse_pauli_string,
    pauli_letters,
    run,
    syndrome_of_error,
    to_pauli_string,
)
from belldistill.states import BellDiagonalState, random_bell_diagonal, werner


def vec(s):
    return BinaryVector.from_string(s)


@pytest.fixture
def zz_proto():
    return StabilizerProtocol.from_pauli_strings(["ZZ"])


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

def test_parse_pauli_examples():
    assert parse_pauli_string("XI") == vec("0010")
    assert parse_pauli_string("Y") == vec("11")
    assert parse_pauli_string("ZZ") == vec("1100")
    assert parse_pauli_string("IZX") == vec("010001")


def test_parse_pauli_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pauli_string("XQ")


@given(st.text(alphabet="IXYZ", min_size=1, max_size=6))
def test_pauli_string_round_trip(s):
    assert to_pauli_string(parse_pauli_string(s)) == s


def test_every_label_up_to_four_pairs_round_trips():
    for n in range(5):
        for value in range(1 << (2 * n)):
            label = BinaryVector(value, 2 * n)
            text = to_pauli_string(label)
            assert len(text) == n
            assert parse_pauli_string(text) == label


def test_random_labels_at_thirteen_pairs_round_trip(rng):
    for value in rng.integers(0, 1 << 26, 200).tolist():
        label = BinaryVector(value, 26)
        text = to_pauli_string(label)
        assert parse_pauli_string(text) == label
        # the letter of pair i from its phase and parity bits
        assert text == "".join("IXZY"[2 * label.bit(i) + label.bit(13 + i)]
                               for i in range(13))


def pauli_strings(labels, k):
    """The rows of `pauli_letters` as strings."""
    return [bytes(row).decode("ascii") for row in pauli_letters(labels, k)]


def test_pauli_strings_of_every_label_up_to_four_pairs():
    for n in range(5):
        labels = np.arange(1 << (2 * n))
        assert pauli_strings(labels, n) == \
            [to_pauli_string(BinaryVector(v, 2 * n)) for v in labels.tolist()]
    assert pauli_strings(np.array([], dtype=np.int64), 3) == []


def test_pauli_strings_of_random_labels_at_thirteen_pairs(rng):
    labels = rng.integers(0, 1 << 26, 10_000)
    assert pauli_strings(labels, 13) == \
        [to_pauli_string(BinaryVector(v, 26)) for v in labels.tolist()]


# ---------------------------------------------------------------------------
# Protocol validation
# ---------------------------------------------------------------------------

def test_protocol_rejects_dependent_generators():
    with pytest.raises(ValueError, match="dependent"):
        StabilizerProtocol(2, 0, (vec("1100"), vec("1100")))


def test_protocol_rejects_anticommuting_generators():
    with pytest.raises(ValueError, match="commute"):
        StabilizerProtocol(2, 0, (vec("1000"), vec("0010")))


def test_protocol_rejects_count_mismatch():
    with pytest.raises(ValueError, match="count"):
        StabilizerProtocol(2, 0, (vec("1100"),))


def test_protocol_refuses_pairs_beyond_the_cap():
    with pytest.raises(ValueError, match="pair count 32 outside supported range 0..14"):
        StabilizerProtocol.from_pauli_strings(["Z" * 32])


def test_generator_span_isotropic(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        proto = StabilizerProtocol(n, n - k, gens)
        span = measured_subspace(proto)
        perp = gf2.orthogonal_complement(span)
        assert all(g in perp for g in gens)  # span inside its complement


# ---------------------------------------------------------------------------
# syndrome_of_error
# ---------------------------------------------------------------------------

def test_syndrome_of_zero_error(zz_proto):
    assert syndrome_of_error(zz_proto.generators, vec("0000")) == vec("0")


def test_syndrome_of_xi_error(zz_proto):
    assert syndrome_of_error(zz_proto.generators, vec("0010")) == vec("1")


def test_syndrome_of_span_element_is_zero(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        span = Subspace.from_vectors(gens, 2 * n)
        for e in span.elements():
            assert syndrome_of_error(gens, e).value == 0


# ---------------------------------------------------------------------------
# Syndrome distribution: `run`'s s and prob columns
# ---------------------------------------------------------------------------

def syndrome_distribution(state, proto):
    """Probability of every syndrome, indexed by its value: `run`'s s and
    prob columns spread over all 2^(n-m) syndromes, 0 where it has no branch."""
    branches = run(state, proto)
    return np.bincount(branches.s, weights=branches.prob,
                       minlength=1 << (proto.n - proto.m))


def test_syndrome_distribution_point_mass(zz_proto):
    dist = syndrome_distribution(BellDiagonalState.point_mass(2), zz_proto)
    assert dist == pytest.approx([1.0, 0.0], abs=1e-15)


def test_syndrome_distribution_werner(zz_proto, werner2):
    dist = syndrome_distribution(werner2, zz_proto)
    assert dist == pytest.approx([13 / 18, 5 / 18], abs=1e-12)


def test_syndrome_distribution_sums_to_one(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        proto = StabilizerProtocol(n, n - k, gens)
        dist = syndrome_distribution(random_bell_diagonal(n, rng), proto)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# optimal_recovery
# ---------------------------------------------------------------------------

def test_recovery_point_mass(zz_proto):
    u = optimal_recovery(BellDiagonalState.point_mass(2), zz_proto, vec("0"))
    assert u == vec("0000")


def test_recovery_werner_syndrome0(zz_proto, werner2):
    u = optimal_recovery(werner2, zz_proto, vec("0"))
    assert u == vec("0000")
    span = measured_subspace(zz_proto)
    assert gf2.coset_sum(werner2.probs, Coset(span, u)) == pytest.approx(
        41 / 72, abs=1e-12)


def test_recovery_werner_syndrome1_tie(zz_proto, werner2):
    # all four cosets tie at weight 10/144: the smallest logical label wins,
    # and u is the lex-least representative of its coset under the default
    # completion
    u = optimal_recovery(werner2, zz_proto, vec("1"))
    assert u == vec("0001")


def test_recovery_commutation_postcondition(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        proto = StabilizerProtocol(n, n - k, gens)
        state = random_bell_diagonal(n, rng)
        for s in range(1 << k):
            s_vec = BinaryVector(s, k)
            u = optimal_recovery(state, proto, s_vec)
            assert syndrome_of_error(gens, u) == s_vec


def test_recovery_invariant_within_coset(zz_proto, werner2):
    span = measured_subspace(zz_proto)
    branches = run(werner2, zz_proto)
    assert branches.s.tolist() == [0, 1]
    for u, prob in zip(branches.u.tolist(), branches.prob.tolist()):
        u = BinaryVector(u, 4)
        base = gf2.coset_sum(werner2.probs, Coset(span, u)) / prob
        for element in span.elements():
            fid = gf2.coset_sum(werner2.probs, Coset(span, u ^ element)) / prob
            assert fid == pytest.approx(base, abs=1e-15)


def test_recovery_zero_probability_syndrome_raises(zz_proto):
    with pytest.raises(ValueError, match="probability zero"):
        optimal_recovery(BellDiagonalState.point_mass(2), zz_proto, vec("1"))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_point_mass(zz_proto):
    branches = run(BellDiagonalState.point_mass(2), zz_proto)
    assert branches.s.tolist() == [0]
    assert branches.fidelity[0] == pytest.approx(1.0)
    assert branches.accepted[0]


def test_run_werner_syndrome0(zz_proto, werner2):
    branches = run(werner2, zz_proto)
    assert branches.s.tolist() == [0, 1]
    assert branches.prob[0] == pytest.approx(13 / 18, abs=1e-12)
    assert branches.fidelity[0] == pytest.approx(41 / 52, abs=1e-12)
    assert branches.u[0] == 0
    assert branches.output[0] == pytest.approx(
        [41 / 52, 1 / 52, 9 / 52, 1 / 52], abs=1e-12)
    assert branches.unnormalized_fidelity[0] == pytest.approx(41 / 26, abs=1e-12)


def test_run_werner_syndrome1(zz_proto, werner2):
    # every recovery coset carries weight 10/144: the failure branch is
    # maximally mixed with fidelity 1/4 (matches the dense oracle and the
    # relabeling engine's t=1 branch)
    branches = run(werner2, zz_proto)
    assert branches.s.tolist() == [0, 1]
    assert branches.prob[1] == pytest.approx(5 / 18, abs=1e-12)
    assert branches.fidelity[1] == pytest.approx(0.25, abs=1e-12)
    assert branches.output[1] == pytest.approx([0.25] * 4, abs=1e-12)
    assert branches.prob.sum() == pytest.approx(1.0, abs=1e-12)


def test_run_branch_invariants(zz_proto, werner2):
    span = measured_subspace(zz_proto)
    perp = gf2.orthogonal_complement(span)
    branches = run(werner2, zz_proto)
    for row, (s, v, u) in enumerate(zip(branches.s.tolist(), branches.v.tolist(),
                                        branches.u.tolist())):
        s, v, u = BinaryVector(s, 1), BinaryVector(v, 4), BinaryVector(u, 4)
        assert syndrome_of_error(zz_proto.generators, v) == s
        assert syndrome_of_error(zz_proto.generators, u) == s
        assert (u ^ v) in perp  # recovery stays in the syndrome's cell
        assert branches.output[row].sum() == pytest.approx(1.0, abs=1e-12)
        assert branches.fidelity[row] == pytest.approx(branches.output[row].max(),
                                                       abs=1e-12)


def test_run_fidelity_matches_permutation_engine(rng):
    from belldistill.equivalence import permutation_from_stabilizer
    for _ in range(15):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(0, n))
        gens = tuple(gf2.random_isotropic_generators(n, n - m, rng))
        proto = StabilizerProtocol(n, m, gens)
        state = random_bell_diagonal(n, rng)
        code = run(state, proto)
        perm = permutation.run(state, permutation_from_stabilizer(proto))
        assert code.s.tolist() == perm.t.tolist()
        assert code.fidelity == pytest.approx(perm.fidelity, abs=1e-12)
        assert code.prob == pytest.approx(perm.prob, abs=1e-12)


def test_run_wrong_state_size(zz_proto):
    with pytest.raises(ValueError):
        run(BellDiagonalState.point_mass(3), zz_proto)


def test_run_labels_equal_per_branch_reduction(rng, random_frame):
    # v and u are table lookups; here they are recomputed per branch as
    # reductions of the frame image B embed(c, s), c the heaviest label
    for _ in range(12):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n))
        gens = tuple(gf2.random_isotropic_generators(n, n - m, rng))
        proto = stabilizer_from_permutation(PermutationProtocol.linear(
            n, m, gf2.symplectic_inverse(random_frame(gens, n, rng))))
        span = measured_subspace(proto)
        perp = gf2.orthogonal_complement(span)
        frame = gf2.symplectic_inverse(proto.matrix)
        label = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
        for state in (random_bell_diagonal(n, rng),
                      BellDiagonalState.from_pairs([werner(0.75)] * n),
                      BellDiagonalState.point_mass(n, label),
                      BellDiagonalState(n, np.full(1 << (2 * n), 0.25 ** n))):
            for b in run(state, proto):
                c = permutation.optimal_correction(b.output.probs)
                lifted = [frame @ permutation.embed_label(y, b.s, n, m)
                          for y in (BinaryVector.zeros(2 * m), c)]
                assert b.v.value == perp.reduce_value(lifted[0].value)
                assert b.u.value == span.reduce_value(lifted[1].value)


# ---------------------------------------------------------------------------
# The branch set: columns, per-branch records, read-only
# ---------------------------------------------------------------------------

def branch_set_inputs(n, rng):
    """Werner, point-mass, uniform and sparse inputs; the point mass and
    the sparse pairs leave syndromes at probability zero."""
    label = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
    return [BellDiagonalState.from_pairs([werner(0.8)] * n),
            BellDiagonalState.point_mass(n, label),
            BellDiagonalState(n, np.full(1 << (2 * n), 0.25 ** n)),
            BellDiagonalState.from_pairs([BellDiagonalState(1, (0.7, 0.0, 0.3, 0.0))] * n)]


def random_code(n, m, rng):
    gens = tuple(gf2.random_isotropic_generators(n, n - m, rng)) if m < n else ()
    return StabilizerProtocol(n, m, gens)


def test_branch_set_columns_equal_literal_coset_sums(rng):
    skipped = 0
    for n in (1, 2, 3):
        for m in sorted({0, n // 2, n}):
            proto = random_code(n, m, rng)
            span = measured_subspace(proto)
            perp = gf2.orthogonal_complement(span)
            labels = [BinaryVector(x, 2 * n) for x in range(1 << (2 * n))]
            for state in branch_set_inputs(n, rng):
                branches = run(state, proto)
                assert branches.s.dtype == branches.v.dtype == branches.u.dtype == np.int64
                skipped += (1 << (n - m)) - len(branches)
                live = []
                for s in range(1 << (n - m)):
                    # v: the lex-least label with syndrome s
                    v = next(x for x in labels
                             if syndrome_of_error(proto.generators, x).value == s)
                    if gf2.coset_sum(state.probs, Coset(perp, v)) > 0.0:
                        live.append((s, v))
                assert branches.s.tolist() == [s for s, _ in live]
                for row, (s, v) in enumerate(live):
                    prob = gf2.coset_sum(state.probs, Coset(perp, v))
                    cosets = {}  # the cosets of the span inside the cell, by least element
                    for x in perp.elements():
                        coset = Coset(span, x ^ v)
                        cosets[int(coset.element_values().min())] = \
                            gf2.coset_sum(state.probs, coset)
                    best = max(cosets.values())
                    u = int(branches.u[row])
                    assert branches.v[row] == v.value
                    assert u in cosets  # lex-least representative of its coset
                    assert abs(cosets[u] - best) <= 1e-15
                    assert branches.prob[row] == pytest.approx(prob, abs=1e-12)
                    assert branches.fidelity[row] == pytest.approx(best / prob, abs=1e-12)
                    assert branches.unnormalized_fidelity[row] == pytest.approx(
                        (1 << (n - m)) * best / prob, abs=1e-12)
                    assert branches.accepted[row] == \
                        (branches.fidelity[row] >= state.fidelity)
                    assert branches.output[row].sum() == pytest.approx(1.0, abs=1e-12)
    assert skipped > 0


def test_offset_labels_are_the_least_of_their_cell_and_coset(rng):
    # a relabeling (A, b), every m: v is the least x whose A x + b has the
    # syndrome s, and u the least x whose A x + b equals embed(c, s) outside
    # positions m..n-1 (the measured pairs' phases), c the heaviest label
    for _ in range(60):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, n + 1))
        b = int(rng.integers(0, 1 << (2 * n)))
        relabeling = PermutationProtocol(n, m, gf2.random_symplectic(n, rng),
                                         BinaryVector(b, 2 * n))
        x = np.arange(1 << (2 * n))
        z = relabeling.matrix.apply(x) ^ b
        syndromes = (1 << (n - m)) - 1
        outside = ((1 << (2 * n)) - 1) ^ (syndromes << n)
        for state in branch_set_inputs(n, rng):
            branches = run(state, stabilizer_from_permutation(relabeling))
            for s, v, u, output in zip(branches.s.tolist(), branches.v, branches.u,
                                       branches.output, strict=True):
                c = permutation.optimal_correction(output)
                lifted = permutation.embed_label(c, BinaryVector(s, n - m), n, m).value
                assert v == x[(z & syndromes) == s].min()
                assert u == x[((z ^ lifted) & outside) == 0].min()


def reference_labels(proto, branches):
    """(v, u) of every branch of `run`'s branch set, from their definitions
    alone: v is the least of all 4^n labels whose syndrome, the pairings
    with the generators XOR b's syndrome bits, is s; u is the least element
    of B embed(c, s) + B b + span for the frame B = A^-1 = P A^T P,
    multiplied out here, the offset b and the heaviest logical label c,
    reduced by a span built from the generators."""
    n, m, b = proto.n, proto.m, proto.offset
    x = np.arange(1 << (2 * n))
    low = (1 << n) - 1
    syndromes = np.full(x.shape, b.value & ((1 << (n - m)) - 1))
    for i, g in enumerate(proto.generators):
        pairs = np.bitwise_count(x >> n & g.value & low ^ x & low & g.value >> n) & 1
        syndromes ^= pairs.astype(np.int64) << (n - m - 1 - i)
    span = Subspace.from_vectors(proto.generators, 2 * n)
    form = gf2.symplectic_form(n)
    frame = form @ proto.matrix.transpose() @ form
    shift = (frame @ b).value
    labels = []
    for s, output in zip(branches.s.tolist(), branches.output):
        c = permutation.optimal_correction(output)
        lifted = frame @ permutation.embed_label(c, BinaryVector(s, n - m), n, m)
        labels.append((int(np.flatnonzero(syndromes == s)[0]),
                       span.reduce_value(lifted.value ^ shift)))
    return labels


def test_generator_protocol_labels_equal_their_definitions(rng):
    # random generator sets through the constructor, each with a random
    # offset b on its matrix
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, n))
        code = StabilizerProtocol(n, m, tuple(gf2.random_isotropic_generators(n, n - m, rng)))
        b = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
        proto = stabilizer_from_permutation(
            PermutationProtocol(n, m, code.matrix, b))
        for state in branch_set_inputs(n, rng)[:3] + [random_bell_diagonal(n, rng)]:
            branches = run(state, proto)
            assert list(zip(branches.v.tolist(), branches.u.tolist())) == \
                reference_labels(proto, branches)


def test_generator_path_makes_no_strings_and_no_subspace(rng, monkeypatch):
    # A is read off the completion's columns and `run` names v
    # and u from A's rows: no string transpose, no string Gram check, and
    # no Subspace but the one that checks the generators
    calls = collections.Counter()
    for cls, name in [(BinaryMatrix, "to_strings"), (Subspace, "__init__")]:
        def counted(*args, name=name, call=getattr(cls, name)):
            calls[name] += 1
            return call(*args)
        monkeypatch.setattr(cls, name, counted)
    for n in range(1, 7):
        for m in range(n):
            gens = tuple(gf2.random_isotropic_generators(n, n - m, rng))
            calls.clear()
            proto = StabilizerProtocol(n, m, gens)
            assert calls == {"__init__": 1}
            # the branch table is the permutation engine's: naming only here
            state = random_bell_diagonal(n, rng)
            branches = permutation._branches(state, proto, None)
            monkeypatch.setattr(stabilizer, "_branches", lambda *args: branches)
            calls.clear()
            run(state, proto)
            assert calls == {}


def frame_from_matrix(proto):
    """The frame `name_by_syndrome` reads, recomputed from (A, b) alone:
    B = A^-1's columns, the RREF of the generators' span and that of
    their symplectic complement, each its own `Subspace` here."""
    n, m = proto.n, proto.m
    columns = gf2.symplectic_inverse(proto.matrix).transpose().rows
    span = Subspace.from_vectors(proto.generators, 2 * n)
    perp = gf2.orthogonal_complement(span)
    return columns, *((list(s.basis), list(s.pivots)) for s in (span, perp))


def test_held_frame_equals_the_one_recomputed_from_the_matrix(rng, random_frame,
                                                                 monkeypatch):
    # A generator protocol holds the completion's echelons; a matrix
    # protocol computes them on first use.  Neither is a field.
    protocols = [StabilizerProtocol(3, 3, ()), PermutationProtocol.linear(
        2, 2, BinaryMatrix.from_strings(["1100", "0100", "0010", "0011"]))]
    for _ in range(30):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, n))
        gens = tuple(gf2.random_isotropic_generators(n, n - m, rng))
        code = StabilizerProtocol(n, m, gens)
        b = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
        protocols += [code, PermutationProtocol(n, m, code.matrix, b),
                      stabilizer_from_permutation(PermutationProtocol.linear(
                          n, m, gf2.symplectic_inverse(random_frame(gens, n, rng))))]
    for proto in protocols:
        assert proto._frame == frame_from_matrix(proto)
        assert "_frame" not in repr(proto)
    code = protocols[2]
    assert isinstance(code, StabilizerProtocol) and "_frame" in vars(code)
    assert code == StabilizerProtocol(code.n, code.m, code.generators)
    # a generator protocol names its branches with no further row reduction
    calls = []
    monkeypatch.setattr(gf2, "_rref", lambda *args: calls.append(1))
    run(BellDiagonalState.from_pairs([werner(0.8)] * code.n), code)
    assert calls == []


def test_branch_set_columns_equal_the_dense_oracle(rng):
    for n in (2, 3):
        for m in (0, 1, n):
            proto = random_code(n, m, rng)
            for state in branch_set_inputs(n, rng):
                branches = run(state, proto)
                dense = np.zeros(1 << (n - m))
                if proto.generators:
                    dense = oracle.syndrome_difference_distribution(
                        oracle.simulate_syndrome_measurement(state, proto.generators))
                else:
                    dense[0] = 1.0
                assert branches.s.tolist() == np.flatnonzero(dense > 1e-12).tolist()
                assert branches.prob == pytest.approx(dense[branches.s], abs=1e-12)


def reference_branch(branches, row, n, m):
    """Row `row` of a stabilizer branch set as a dict of its fields, built
    here."""
    return dict(
        s=BinaryVector(int(branches.s[row]), n - m),
        prob=float(branches.prob[row]),
        fidelity=float(branches.fidelity[row]),
        unnormalized_fidelity=float(branches.unnormalized_fidelity[row]),
        v=BinaryVector(int(branches.v[row]), 2 * n),
        u=BinaryVector(int(branches.u[row]), 2 * n),
        accepted=bool(branches.accepted[row]),
        output=BellDiagonalState._trusted(m, branches.output[row].copy()),
    )


def test_branch_set_records_equal_the_per_row_reference(rng):
    for n, m in ((1, 0), (1, 1), (3, 0), (3, 1), (3, 3), (5, 2)):
        proto = random_code(n, m, rng)
        for state in branch_set_inputs(n, rng):
            branches = run(state, proto)
            expected = [reference_branch(branches, row, n, m)
                        for row in range(len(branches))]
            for got, want in zip(list(branches), expected, strict=True):
                assert got._fields == tuple(branches.columns) == tuple(want)
                assert list(map(type, got)) == list(map(type, want.values()))
                assert got._replace(output=None) == tuple({**want, "output": None}.values())
                assert np.array_equal(got.output.probs.view(np.int64),
                                      want["output"].probs.view(np.int64))
                assert not got.output.probs.flags.writeable
            for name in ("s", "prob", "fidelity", "unnormalized_fidelity", "v", "u",
                         "accepted", "output"):
                column = getattr(branches, name)
                assert not column.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[0]
