"""Translation between the two protocol families and instance-level checks."""

import json
import math

import numpy as np
import pytest

from belldistill import cli, gf2, permutation, stabilizer
from belldistill.equivalence import (
    permutation_from_stabilizer,
    random_instance,
    stabilizer_from_permutation,
    verify_equivalence,
)
from belldistill.gf2 import BinaryMatrix, BinaryVector, Subspace
from belldistill.permutation import PermutationProtocol, embed_label, measured_subspace
from belldistill.stabilizer import StabilizerProtocol
from belldistill.states import BellDiagonalState, random_bell_diagonal, werner


def vec(s):
    return BinaryVector.from_string(s)


# ---------------------------------------------------------------------------
# permutation_from_stabilizer
# ---------------------------------------------------------------------------

def test_perm_from_zz_measures_generator_span():
    proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
    pp = permutation_from_stabilizer(proto)
    assert gf2.is_symplectic(pp.matrix)
    assert measured_subspace(pp) == Subspace.from_vectors([vec("1100")], 4)


def test_perm_from_empty_generators_is_identity():
    proto = StabilizerProtocol(2, 2, ())
    pp = permutation_from_stabilizer(proto)
    assert pp.matrix == BinaryMatrix.identity(4)


def test_round_trip_preserves_span(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        proto = StabilizerProtocol(n, n - k, gens)
        back = stabilizer_from_permutation(permutation_from_stabilizer(proto))
        assert measured_subspace(back) == measured_subspace(proto)


# ---------------------------------------------------------------------------
# stabilizer_from_permutation
# ---------------------------------------------------------------------------

def test_stabilizer_from_bcnot(bcnot):
    proto = PermutationProtocol.linear(2, 1, bcnot)
    sp = stabilizer_from_permutation(proto)
    assert sp.generators == (vec("1100"),)
    assert stabilizer.to_pauli_string(sp.generators[0]) == "ZZ"


def test_stabilizer_from_identity():
    proto = PermutationProtocol.linear(2, 1, BinaryMatrix.identity(4))
    sp = stabilizer_from_permutation(proto)
    assert sp.generators == (vec("0100"),)
    assert stabilizer.to_pauli_string(sp.generators[0]) == "IZ"


def test_an_offset_is_carried_not_dropped(werner2, bcnot):
    # (A, b) and (A, 0) are other protocols: here their two branches swap
    # probabilities, and the generator form of (A, b) keeps them swapped
    proto = PermutationProtocol(2, 1, bcnot, BinaryVector.from_string("0001"))
    linear = PermutationProtocol.linear(2, 1, bcnot)
    shifted = permutation.run(werner2, proto).prob
    assert shifted.tolist() == permutation.run(werner2, linear).prob[::-1].tolist()
    code = stabilizer_from_permutation(proto)
    assert stabilizer.run(werner2, code).prob.tolist() == shifted.tolist()
    assert code.generators == stabilizer_from_permutation(linear).generators
    assert code != stabilizer_from_permutation(linear)
    assert permutation_from_stabilizer(code) == proto


def test_protocols_are_equal_when_their_matrices_and_offsets_are(rng):
    # the README's DEJMPS matrix measures ZZ, but is another matrix than the
    # completion of ZZ, so it names its outputs otherwise
    dejmps = stabilizer_from_permutation(PermutationProtocol.linear(
        2, 1, BinaryMatrix.from_strings(["0001", "1000", "1101", "0011"])))
    zz = StabilizerProtocol.from_pauli_strings(["ZZ"])
    assert dejmps.generators == zz.generators
    assert dejmps != zz
    assert zz == StabilizerProtocol.from_pauli_strings(["ZZ"])
    assert len({zz, StabilizerProtocol.from_pauli_strings(["ZZ"]), dejmps}) == 2
    assert repr(zz) == (f"StabilizerProtocol(n=2, m=1, matrix={zz.matrix!r}, "
                        f"offset={zz.offset!r})")
    # a generator protocol is the permutation protocol its generators name,
    # and never equal to the plain protocol of the same (A, b)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, n))
        gens = gf2.random_isotropic_generators(n, n - m, rng)
        code = StabilizerProtocol(n, m, gens)
        assert code.generators == tuple(gens)
        assert isinstance(code, PermutationProtocol)
        plain = PermutationProtocol(n, m, code.matrix, code.offset)
        assert code != plain and plain != code


def test_stabilizer_from_random_permutation_valid(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, n))
        proto = PermutationProtocol.linear(n, m, gf2.random_symplectic(n, rng))
        sp = stabilizer_from_permutation(proto)  # (A, b) retyped, checked once
        assert len(sp.generators) == n - m


def test_round_trip_returns_the_matrix(rng):
    # translating a protocol (A, b) retypes it, the offset zero or not, and
    # both engines and the cross-check take the plain protocol as they take
    # its generator form
    for i in range(30):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, n + 1))
        b = BinaryVector(int(rng.integers(0, 1 << (2 * n))) if i % 2 else 0, 2 * n)
        proto = PermutationProtocol(n, m, gf2.random_symplectic(n, rng), b)
        code = stabilizer_from_permutation(proto)
        back = permutation_from_stabilizer(code)
        assert back.matrix == proto.matrix
        assert back.offset == proto.offset
        assert type(back) is PermutationProtocol and back == proto
        again = stabilizer_from_permutation(permutation_from_stabilizer(code))
        assert type(again) is StabilizerProtocol and again == code
        state = random_bell_diagonal(n, rng)
        plain, coded = stabilizer.run(state, proto), stabilizer.run(state, code)
        assert list(plain.columns) == list(coded.columns)
        for name, column in plain.columns.items():
            assert np.array_equal(column, coded.columns[name]), name
        assert verify_equivalence(state, proto).passed


# ---------------------------------------------------------------------------
# Completion identities used by the branch matching
# ---------------------------------------------------------------------------

def test_completion_embedding_identities(rng):
    # column n+m+i pairs only with generator i, so the embedded outcome
    # vector has exactly the commutation pattern of the branch it labels:
    # (B 0bar_t)^T P g_i = t_i, and every B ybar stays in that same cell.
    for _ in range(15):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        m = n - k
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        basis = gf2.complete_to_symplectic(gens, n)
        span = Subspace.from_vectors(gens, 2 * n)
        perp = gf2.orthogonal_complement(span)
        for t in range(1 << k):
            t_vec = BinaryVector(t, k)
            anchor = basis @ embed_label(BinaryVector.zeros(2 * m), t_vec, n, m)
            for i, g in enumerate(gens):
                assert gf2.sympl_inner(anchor, g) == t_vec.bit(i)
            for y in range(1 << (2 * m)):
                moved = basis @ embed_label(BinaryVector(y, 2 * m), t_vec, n, m)
                assert (moved ^ anchor) in perp


# ---------------------------------------------------------------------------
# verify_equivalence
# ---------------------------------------------------------------------------

def test_verify_point_mass_zz():
    proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
    report = verify_equivalence(BellDiagonalState.point_mass(2), proto)
    assert report.passed
    assert report.max_discrepancy == 0.0
    assert report.subspaces_match and report.coset_match


def test_verify_werner_zz(werner2):
    proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
    report = verify_equivalence(werner2, proto)
    assert report.passed
    branches = report.branches
    assert branches.t.tolist() == [0, 1]
    assert branches.fidelity_perm == pytest.approx((41 / 52, 0.25), abs=1e-12)
    assert branches.fidelity_code == pytest.approx((41 / 52, 0.25), abs=1e-12)
    assert branches.coset_match.tolist() == [True, True]


def test_verify_reports_a_branch_one_engine_drops(monkeypatch, werner2, edit_columns):
    naming = stabilizer.name_by_syndrome
    monkeypatch.setattr(stabilizer, "name_by_syndrome",
                        lambda *args: edit_columns(naming(*args), lambda _, column: column[1:]))
    report = verify_equivalence(werner2, StabilizerProtocol.from_pauli_strings(["ZZ"]))
    assert not report.branch_sets_match
    branches = report.branches
    assert branches.t.tolist() == [0, 1]
    assert branches.prob_code[0] == branches.fidelity_code[0] == 0.0
    assert branches.prob_perm[0] == pytest.approx(13 / 18, abs=1e-12)
    assert math.isnan(branches.output_max_diff[0])
    assert branches.coset_match.tolist() == [False, True]
    assert report.max_discrepancy == pytest.approx(13 / 18, abs=1e-12)
    assert not report.passed


def test_verify_reports_a_syndrome_only_the_naming_produces(monkeypatch, edit_columns):
    # the naming calls branch 2 branch 3, which no parity outcome is: each
    # label is a row of one engine alone
    naming = stabilizer.name_by_syndrome
    monkeypatch.setattr(stabilizer, "name_by_syndrome", lambda *args: edit_columns(
        naming(*args), lambda name, column: np.array([0, 3]) if name == "s" else column))
    proto = StabilizerProtocol.from_pauli_strings(["ZZZ", "IXX"])
    state = BellDiagonalState.from_pairs([BellDiagonalState(1, (0.7, 0.3, 0.0, 0.0))] * 3)
    perm = permutation.run(state, proto)
    assert perm.t.tolist() == [0, 2]
    report = verify_equivalence(state, proto)
    assert not report.branch_sets_match and not report.passed
    branches = report.branches
    assert branches.t.tolist() == [0, 2, 3]
    assert branches.prob_perm.tolist() == [perm.prob[0], perm.prob[1], 0.0]
    assert branches.prob_code.tolist() == [perm.prob[0], 0.0, perm.prob[1]]
    assert branches.fidelity_perm.tolist() == [perm.fidelity[0], perm.fidelity[1], 0.0]
    assert branches.fidelity_code.tolist() == [perm.fidelity[0], 0.0, perm.fidelity[1]]
    assert branches.output_max_diff[0] == 0.0
    assert np.isnan(branches.output_max_diff[1:]).all()
    assert branches.coset_match.tolist() == [True, False, False]
    assert not report.coset_match
    assert report.max_discrepancy == perm.prob[1] == pytest.approx(0.468, abs=1e-12)


def test_verify_reports_an_output_gap(monkeypatch, werner2, edit_columns):
    # the stabilizer engine's outputs reversed, its statistics as they are
    naming = stabilizer.name_by_syndrome
    monkeypatch.setattr(stabilizer, "name_by_syndrome", lambda *args: edit_columns(
        naming(*args), lambda name, column: column[:, ::-1] if name == "output" else column))
    report = verify_equivalence(werner2, StabilizerProtocol.from_pauli_strings(["ZZ"]))
    assert report.branch_sets_match and report.coset_match
    assert report.branches.output_max_diff == pytest.approx((40 / 52, 0.0), abs=1e-12)
    assert report.max_discrepancy == pytest.approx(40 / 52, abs=1e-12)
    assert not report.passed


def shift_recoveries(monkeypatch, edit_columns, shifts):
    """Make the syndrome naming step, `stabilizer.name_by_syndrome`, which
    `stabilizer.run` and `verify_equivalence` call, XOR its recovery column
    with `shifts`."""
    naming = stabilizer.name_by_syndrome
    monkeypatch.setattr(stabilizer, "name_by_syndrome", lambda *args: edit_columns(
        naming(*args), lambda name, column: column ^ shifts if name == "u" else column))


def test_verify_reports_a_recovery_off_the_generator_span(monkeypatch, edit_columns):
    # the first branch's recovery moves to another coset of the span; the
    # statistics stay as they are
    proto = StabilizerProtocol.from_pauli_strings(["ZZZ", "IXX"])
    state = BellDiagonalState.from_pairs([werner(0.8)] * 3)
    shift = stabilizer.parse_pauli_string("XXI")
    assert not measured_subspace(proto).contains(shift)
    shift_recoveries(monkeypatch, edit_columns, np.array([shift.value, 0, 0, 0]))
    report = verify_equivalence(state, proto)
    assert report.subspaces_match and report.branch_sets_match
    assert report.max_discrepancy == 0.0
    assert report.branches.coset_match.tolist() == [False, True, True, True]
    assert not report.coset_match and not report.passed


def test_coset_match_equals_the_literal_span_test(monkeypatch, edit_columns, rng):
    # per branch: frame @ embed(correction, t) + u in the generator span,
    # with u shifted by a span element or by a random label
    seen = set()
    for _ in range(30):
        state, proto = random_instance(rng, (1, 2, 3, 4))
        n, m = proto.n, proto.m
        span = measured_subspace(proto)
        perm = permutation.run(state, permutation_from_stabilizer(proto))
        elements = span.element_values
        shifts = np.where(rng.random(perm.t.size) < 0.5,
                          rng.choice(elements, perm.t.size),
                          rng.integers(0, 1 << (2 * n), perm.t.size))
        shift_recoveries(monkeypatch, edit_columns, shifts)
        code = stabilizer.run(state, proto)
        frame = gf2.symplectic_inverse(proto.matrix)
        expected = [span.contains(frame @ embed_label(
                        BinaryVector(c, 2 * m), BinaryVector(t, n - m), n, m)
                        ^ BinaryVector(u, 2 * n))
                    for t, c, u in zip(perm.t.tolist(), perm.correction.tolist(),
                                       code.u.tolist())]
        report = verify_equivalence(state, proto)
        assert report.branches.coset_match.tolist() == expected
        assert report.coset_match == all(expected)
        seen.update(expected)
        monkeypatch.undo()
    assert seen == {True, False}


def reference_report(perm, code, proto):
    """The report's columns and summary as first written: the union of the
    labels sorted and searched, one `np.where` a column, and the coset
    test on every row of A, masked outside positions m..n-1."""
    n, m = proto.n, proto.m
    labels = np.sort(np.concatenate((perm.t, code.s)))
    t = labels[np.concatenate(([True], labels[1:] != labels[:-1]))]
    p, c = (np.minimum(np.searchsorted(column, t), column.size - 1)
            for column in (perm.t, code.s))
    in_perm, in_code = perm.t[p] == t, code.s[c] == t
    both = in_perm & in_code
    prob_perm = np.where(in_perm, perm.prob[p], 0.0)
    prob_code = np.where(in_code, code.prob[c], 0.0)
    fidelity_perm = np.where(in_perm, perm.fidelity[p], 0.0)
    fidelity_code = np.where(in_code, code.fidelity[c], 0.0)
    output_diff = np.where(both, np.abs(perm.output[p] - code.output[c]).max(axis=1), np.nan)
    moved = (proto.matrix.apply(code.u[c]) ^ proto.offset.value
             ^ permutation._embed_value(perm.correction[p], t, n, m))
    coset_match = both & ((moved & ~(((1 << (n - m)) - 1) << n)) == 0)
    gaps = np.maximum.reduce([np.abs(prob_perm - prob_code),
                              np.abs(fidelity_perm - fidelity_code), output_diff])
    discrepancy = np.where(both, gaps, prob_perm + prob_code)
    columns = {"t": t, "prob_perm": prob_perm, "prob_code": prob_code,
               "fidelity_perm": fidelity_perm, "fidelity_code": fidelity_code,
               "output_max_diff": output_diff, "coset_match": coset_match}
    return columns, (bool(np.array_equal(perm.t, code.s)), bool(coset_match.all()),
                     float(discrepancy.max(initial=0.0)))


def rename_a_row(columns, rng, width):
    """Row i's s moved to a label no row has, rows reordered to keep s sorted."""
    s = columns["s"].copy()
    free = np.setdiff1d(np.arange(1 << (width + 1)), s)
    s[rng.integers(s.size)] = rng.choice(free)
    order = np.argsort(s)
    return {name: (s if name == "s" else column)[order] for name, column in columns.items()}


FAULTS = {
    "none": lambda columns, rng, width: columns,
    "drop-first": lambda columns, rng, width: {k: v[1:] for k, v in columns.items()},
    "drop-last": lambda columns, rng, width: {k: v[:-1] for k, v in columns.items()},
    "rename": rename_a_row,
    "shift-recoveries": lambda columns, rng, width: {**columns, "u": columns["u"] ^ np.where(
        rng.random(columns["u"].size) < 0.5, rng.integers(0, 1 << 8, columns["u"].size), 0)},
    "perturb-statistics": lambda columns, rng, width: {**columns, **{
        name: columns[name] + rng.choice([0.0, 1e-9, -0.25], columns[name].shape)
        for name in ("prob", "fidelity", "output")}},
    "reverse-outputs": lambda columns, rng, width: {**columns,
                                                    "output": columns["output"][:, ::-1]},
}


@pytest.mark.parametrize("fault", FAULTS)
def test_report_equals_the_column_by_column_reference(monkeypatch, rng, fault):
    seen, naming = [], stabilizer.name_by_syndrome

    def faulty(branches, proto):
        named = naming(branches, proto)
        columns = FAULTS[fault](dict(named.columns), rng, proto.n - proto.m)
        if not columns["s"].size:  # a report reads at least one label a side
            columns = dict(named.columns)
        code = permutation.BranchSet(named.widths, columns)
        seen.append((branches, code))
        return code

    monkeypatch.setattr(stabilizer, "name_by_syndrome", faulty)
    for _ in range(40):
        state, proto = random_instance(rng, (1, 2, 3, 4))
        if rng.random() < 0.5:
            b = BinaryVector(int(rng.integers(0, 1 << (2 * proto.n))), 2 * proto.n)
            proto = PermutationProtocol(proto.n, proto.m, proto.matrix, b)
        seen.clear()
        report = verify_equivalence(state, proto)
        (perm, code), = seen
        columns, summary = reference_report(perm, code, proto)
        assert list(report.branches.columns) == list(columns)
        for name, column in columns.items():
            got = report.branches.columns[name]
            assert got.dtype == column.dtype, name
            assert np.array_equal(got, column, equal_nan=True), name
        assert (report.branch_sets_match, report.coset_match, report.max_discrepancy) == summary


def test_verify_random_batch(rng):
    for _ in range(40):
        state, proto = random_instance(rng, (2, 3, 4))
        report = verify_equivalence(state, proto)
        assert report.passed, report
        assert report.max_discrepancy <= 1e-12


def test_verify_tie_heavy_inputs_random_completions(rng, random_frame):
    # Werner, point-mass and uniform inputs tie many cosets exactly; both
    # engines read the same branch table, so they still pick the same coset
    for n in range(2, 6):
        for _ in range(6):
            m = int(rng.integers(0, n))
            gens = tuple(gf2.random_isotropic_generators(n, n - m, rng))
            label = BinaryVector(int(rng.integers(0, 1 << (2 * n))), 2 * n)
            for state in (BellDiagonalState.from_pairs([werner(0.75)] * n),
                          BellDiagonalState.point_mass(n, label),
                          BellDiagonalState(n, np.full(1 << (2 * n), 0.25 ** n))):
                frame = random_frame(gens, n, rng)
                proto = stabilizer_from_permutation(PermutationProtocol.linear(
                    n, m, gf2.symplectic_inverse(frame)))
                report = verify_equivalence(state, proto)
                assert report.passed, report
                assert report.max_discrepancy == 0.0


def test_fidelity_invariant_across_completions(rng, random_frame):
    # at least three distinct completions per instance must agree on every
    # branch probability and fidelity
    for _ in range(10):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, n))
        gens = tuple(gf2.random_isotropic_generators(n, k, rng))
        state = random_bell_diagonal(n, rng)
        completions = {}
        for seed in range(12):
            b = random_frame(gens, n, np.random.default_rng(seed))
            completions[b.rows] = b
            if len(completions) >= 3:
                break
        assert len(completions) >= 3
        reference = None
        for basis in completions.values():
            proto = stabilizer_from_permutation(PermutationProtocol.linear(
                n, n - k, gf2.symplectic_inverse(basis)))
            branches = stabilizer.run(state, proto)
            if reference is None:
                reference = branches
            else:
                assert branches.s.tolist() == reference.s.tolist()
                assert branches.prob == pytest.approx(reference.prob, abs=1e-12)
                assert branches.fidelity == pytest.approx(reference.fidelity, abs=1e-12)


def test_verify_report_serializable(werner2):
    # the CLI prints the report's scalars as they are: plain Python values
    proto = StabilizerProtocol.from_pauli_strings(["ZZ"])
    report = verify_equivalence(werner2, proto)
    scalars = {name: getattr(report, name) for name in (
        "n", "m", "subspaces_match", "branch_sets_match", "coset_match",
        "max_discrepancy", "passed")}
    assert scalars["passed"] is True
    assert {type(v) for v in scalars.values()} == {int, bool, float}
    assert json.loads(json.dumps(scalars)) == scalars
    assert len(report.branches.t) == 2


def test_verify_builds_one_branch_table(table_calls, capsys):
    """Both engines' columns come from one table: the naming step takes
    the permutation engine's branches, in the library and the CLI."""
    proto = StabilizerProtocol.from_pauli_strings(["ZZZ", "IXX"])
    assert verify_equivalence(BellDiagonalState.from_pairs([werner(0.8)] * 3), proto).passed
    assert table_calls == [1]
    assert cli.main(["verify", "--generators", "ZZZ,IXX", "--werner", "0.75"]) == 0
    assert table_calls == [1, 1]
    assert cli.main(["verify", "--random", "5", "--seed", "1"]) == 0
    assert table_calls == [1] * 7
    capsys.readouterr()
