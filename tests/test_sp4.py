"""Every 2-pair protocol, in both forms: all 720 symplectic 4 x 4 matrices
over GF(2) (the group Sp(4, 2)), each with m = 0, 1 and 2 survivors, and
with m = 1 also at the offsets 0001 and 1000.

A permutation protocol (A, b) and the stabilizer protocol
`stabilizer_from_permutation` makes of it are one protocol: its frame is
A^-1 and it holds b, so translating back gives (A, b), and the two
engines print the same branches.  The group is enumerated here by its
definition, A^T P A = P, so the enumeration shares no code with
`gf2.is_symplectic`.
"""

import functools

import numpy as np
import pytest

from belldistill import crosscheck, gf2, oracle, permutation, stabilizer
from belldistill.equivalence import (permutation_from_stabilizer,
                                     stabilizer_from_permutation, verify_equivalence)
from belldistill.gf2 import BinaryMatrix, BinaryVector
from belldistill.permutation import PermutationProtocol, recurrence_sweep
from belldistill.stabilizer import StabilizerProtocol
from belldistill.states import BellDiagonalState, werner

from test_literature import dejmps
from test_stabilizer import reference_labels, syndrome_distribution

PAIR = BellDiagonalState(1, (0.5, 0.3, 0.15, 0.05))
INPUTS = {
    "tie-free": BellDiagonalState.from_pairs([PAIR] * 2),
    "werner": BellDiagonalState.from_pairs([werner(0.7)] * 2),
}
COLUMNS = ("prob", "fidelity", "unnormalized_fidelity", "output")
OFFSETS = ("0001", "1000")


@functools.cache
def sp4() -> tuple[BinaryMatrix, ...]:
    """The symplectic 4 x 4 matrices in row-value order: one Gram check
    A^T P A == P over all 2^16 candidates (P A is A with its halves of
    rows swapped)."""
    values = np.arange(1 << 16)
    bits = (values[:, None] >> np.arange(15, -1, -1) & 1).reshape(-1, 4, 4)
    gram = np.einsum("vri,vrj->vij", bits, bits[:, [2, 3, 0, 1]]) & 1
    form = np.eye(4, dtype=gram.dtype)[[2, 3, 0, 1]]
    found = values[(gram == form).all(axis=(1, 2))].tolist()
    return tuple(BinaryMatrix(tuple(v >> s & 15 for s in (12, 8, 4, 0)), 4) for v in found)


@functools.cache
def protocols() -> tuple[tuple[PermutationProtocol, StabilizerProtocol], ...]:
    """Each matrix with each m, and with m = 1 and each of OFFSETS, as a
    permutation protocol and as the stabilizer protocol
    `stabilizer_from_permutation` makes of it."""
    cases = [(m, "0000") for m in (0, 1, 2)] + [(1, b) for b in OFFSETS]
    perms = [PermutationProtocol(2, m, a, BinaryVector.from_string(b))
             for a in sp4() for m, b in cases]
    return tuple((p, stabilizer_from_permutation(p)) for p in perms)


def test_the_group_has_720_elements():
    group = sp4()
    assert len(group) == len(set(group)) == 720  # 2^4 (2^2 - 1)(2^4 - 1)
    assert BinaryMatrix.identity(4) in group


def test_every_matrix_translates_back_to_itself():
    for proto, code in protocols():
        assert permutation_from_stabilizer(code) == proto, proto


@pytest.mark.parametrize("name", INPUTS)
def test_both_engines_print_the_same_branches(name):
    state = INPUTS[name]
    for proto, code in protocols():
        perm, syndromes = permutation.run(state, proto), stabilizer.run(state, code)
        assert np.array_equal(perm.t, syndromes.s), proto
        for column in COLUMNS:
            assert np.array_equal(getattr(perm, column), getattr(syndromes, column)), \
                (proto, column)


def test_every_protocol_passes_verify():
    state = INPUTS["tie-free"]
    for proto, code in protocols():
        report = verify_equivalence(state, code)
        assert report.passed, (proto, report.max_discrepancy)


def test_every_protocol_names_its_labels_by_their_definitions():
    state = INPUTS["werner"]
    for proto, code in protocols():
        branches = stabilizer.run(state, code)
        assert list(zip(branches.v.tolist(), branches.u.tolist())) == \
            reference_labels(code, branches), proto


@pytest.mark.parametrize("offset", ["0000", *OFFSETS])
def test_run_perm_matches_the_dense_oracle(offset):
    """Every 2 -> 1 protocol with the offset b, against dense pairwise
    parity measurements of the input relabeled x -> A x + b, here as
    table[A x + b] = p[x] with bit i of A x the parity of row i AND x."""
    state, b = INPUTS["tie-free"], BinaryVector.from_string(offset)
    rows, x = np.array([a.rows for a in sp4()]), np.arange(16)
    parities = np.bitwise_count(rows[:, :, None] & x) & 1
    images = (parities << np.arange(3, -1, -1)[:, None]).sum(axis=1) ^ b.value
    relabeled = np.empty(images.shape)
    np.put_along_axis(relabeled, images, state.probs[None, :], axis=1)
    worst = 0.0
    for a, table in zip(sp4(), relabeled):
        dense = oracle.simulate_parity_measurement(BellDiagonalState(2, table), 1)
        engine = permutation.run(state, PermutationProtocol(2, 1, a, b))
        worst = max(worst, crosscheck._branch_error(engine, dense))
    assert worst <= crosscheck.TOLERANCE


@pytest.mark.parametrize("offset", OFFSETS)
def test_syndrome_distribution_matches_the_dense_oracle(offset):
    """Every 2 -> 1 protocol with the offset b, against dense two-sided
    generator measurements of the input moved by the Pauli B b, B = A^-1
    the protocol's frame."""
    state, b = INPUTS["tie-free"], BinaryVector.from_string(offset)
    worst = 0.0
    for a in sp4():
        code = stabilizer_from_permutation(PermutationProtocol(2, 1, a, b))
        frame = gf2.symplectic_inverse(code.relabeling.matrix)
        joint = oracle.simulate_syndrome_measurement(state.pauli_shift(frame @ b),
                                                     code.generators)
        dense = oracle.syndrome_difference_distribution(joint)
        worst = max(worst, np.abs(syndrome_distribution(state, code) - dense).max())
    assert worst <= crosscheck.TOLERANCE


def test_recurrence_over_every_two_to_one_protocol_is_pinned():
    """Werner 0.7, four rounds, each 2 -> 1 protocol.  The sweep feeds back
    its best branch, so this pins the numbers and ranks no protocol."""
    closed = np.array(dejmps(0.7, 4))
    fidelities, reproduces = {}, 0
    for a in sp4():
        reports = recurrence_sweep(werner(0.7), PermutationProtocol.linear(2, 1, a), 4)
        swept = np.array([(r.fidelity, r.accept_prob) for r in reports])
        reproduces += bool(np.abs(swept - closed).max() <= 1e-12)
        fidelities[tuple(a.to_strings())] = [r.fidelity for r in reports]
    assert reproduces == 48
    best = max(f[3] for f in fidelities.values())
    assert round(best, 6) == 0.972341
    assert sum(abs(f[3] - best) <= 1e-12 for f in fidelities.values()) == 96
    example = fidelities[("1111", "1100", "1011", "0110")]
    assert abs(example[3] - best) <= 1e-12
    assert round(example[2], 6) == 0.894169 < round(closed[2, 0], 6) == 0.934395
