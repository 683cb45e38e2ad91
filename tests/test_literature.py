"""Published recurrence protocols against their closed forms.

BBPSSW (Bennett et al., PRL 76, 722 (1996)): one round of the bilateral
CNOT on two Werner pairs of fidelity F keeps the target's parity-even
branch, of probability N = F^2 + 2Fq + 5q^2 with q = (1 - F)/3, and leaves
F' = (F^2 + q^2)/N.

DEJMPS (Deutsch et al., PRL 77, 2818 (1996)): with Bell weights (A, B, C,
D), one round maps them to ((A^2 + B^2)/N, 2CD/N, (C^2 + D^2)/N, 2AB/N),
N = (A + B)^2 + (C + D)^2.  Iterated from a Werner pair (F, q, q, q).

The closed forms are computed here from the formulas alone, so they share
no code with the engines.

Every stabilizer protocol up to n = 3: the paper's claim, that the
relabeling and generator descriptions give the same branches, is checked
on each isotropic subspace of F_2^(2n) (513 at n = 3), on inputs with many
ties and on a dense random one.
"""

import functools
import json

import numpy as np
import pytest

from belldistill import cli, crosscheck, equivalence, oracle, stabilizer
from belldistill.gf2 import BinaryMatrix, BinaryVector, Subspace, sympl_inner
from belldistill.permutation import PermutationProtocol, recurrence_sweep
from belldistill.stabilizer import StabilizerProtocol
from belldistill.states import BellDiagonalState, random_bell_diagonal, werner

GRID = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
DEJMPS_MATRIX = ["0001", "1000", "1101", "0011"]


def bbpssw(f: float) -> tuple[float, float]:
    """The output fidelity and the success probability of one round."""
    q = (1 - f) / 3
    norm = f * f + 2 * f * q + 5 * q * q
    return (f * f + q * q) / norm, norm


def dejmps(f: float, rounds: int) -> list[tuple[float, float]]:
    """The fidelity and the success probability after each round."""
    a, b, c, d = f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3
    out = []
    for _ in range(rounds):
        norm = (a + b) ** 2 + (c + d) ** 2
        a, b, c, d = (a * a + b * b) / norm, 2 * c * d / norm, \
            (c * c + d * d) / norm, 2 * a * b / norm
        out.append((a, norm))
    return out


@pytest.mark.parametrize("f", GRID)
def test_bbpssw_first_round(f):
    proto = equivalence.permutation_from_stabilizer(
        StabilizerProtocol.from_pauli_strings(["ZZ"], 1))
    report = recurrence_sweep(werner(f), proto, 1)[0]
    fidelity, accept_prob = bbpssw(f)
    assert report.fidelity == pytest.approx(fidelity, abs=1e-12)
    assert report.accept_prob == pytest.approx(accept_prob, abs=1e-12)
    assert report.accepted


@pytest.mark.parametrize("f", GRID)
def test_dejmps_four_rounds(f):
    proto = PermutationProtocol(2, 1, BinaryMatrix.from_strings(DEJMPS_MATRIX),
                                BinaryVector.zeros(4))
    reports = recurrence_sweep(werner(f), proto, 4)
    for report, (fidelity, accept_prob) in zip(reports, dejmps(f, 4)):
        assert report.fidelity == pytest.approx(fidelity, abs=1e-12)
        assert report.accept_prob == pytest.approx(accept_prob, abs=1e-12)


def test_sweep_commands_print_the_closed_forms(capsys):
    assert cli.main(["sweep", "--generators", "ZZ", "-m", "1",
                     "--grid", "0.6,0.7,0.9", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == \
        ["0.620437956204379", "0.735294117647059", "0.926395939086294"]
    for row, f in zip(rows, (0.6, 0.7, 0.9)):
        assert float(row.split(",")[2]) == pytest.approx(bbpssw(f)[0], abs=1e-12)

    assert cli.main(["sweep", "--matrix", ",".join(DEJMPS_MATRIX), "-m", "1",
                     "--grid", "0.7", "--rounds", "4"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    expected = dejmps(0.7, 4)
    assert [r["round"] for r in records] == [1, 2, 3, 4]
    assert np.allclose([r["f_out"] for r in records], [e[0] for e in expected],
                       rtol=0, atol=1e-12)
    assert np.allclose([r["accept_prob"] for r in records], [e[1] for e in expected],
                       rtol=0, atol=1e-12)
    assert [round(r["f_out"], 6) for r in records] == \
        [0.735294, 0.845946, 0.934395, 0.972004]


@functools.cache
def isotropic_subspaces(n: int) -> dict[int, list[Subspace]]:
    """Every isotropic subspace of F_2^(2n) of dimension 1..n, by dimension.

    Each one of dimension k + 1 is one of dimension k plus a vector that
    commutes with it and lies outside it; the RREF basis names it once.
    """
    found = {0: [Subspace.from_vectors([], 2 * n)]}
    for k in range(n):
        bigger = {}
        for span in found[k]:
            basis = [BinaryVector(b, 2 * n) for b in span.basis]
            for value in range(1, 1 << (2 * n)):
                v = BinaryVector(value, 2 * n)
                if v not in span and all(sympl_inner(v, b) == 0 for b in basis):
                    sub = Subspace.from_vectors([*basis, v], 2 * n)
                    bigger[sub.basis] = sub
        found[k + 1] = sorted(bigger.values(), key=lambda sub: sub.basis)
    del found[0]
    return found


@functools.cache
def small_protocols(n: int) -> tuple[StabilizerProtocol, ...]:
    return tuple(StabilizerProtocol(n, n - k, tuple(BinaryVector(b, 2 * n) for b in sub.basis))
                 for k, subs in isotropic_subspaces(n).items() for sub in subs)


SMALL_INPUTS = {
    "werner": lambda n: BellDiagonalState.from_pairs([werner(0.8)] * n),
    "uniform": lambda n: BellDiagonalState.from_pairs([BellDiagonalState(1, (0.25,) * 4)] * n),
    "point-mass": BellDiagonalState.point_mass,
    "random": lambda n: random_bell_diagonal(n, np.random.default_rng(513 + n)),
}


def test_isotropic_subspaces_up_to_three_pairs_are_counted_right():
    # prod_{i<k} (2^(2(n-i)) - 1) / (2^(i+1) - 1) of dimension k at n pairs
    counts = {n: {k: len(subs) for k, subs in isotropic_subspaces(n).items()}
              for n in (1, 2, 3)}
    assert counts == {1: {1: 3}, 2: {1: 15, 2: 15}, 3: {1: 63, 2: 315, 3: 135}}


@pytest.mark.parametrize("name", SMALL_INPUTS)
def test_every_stabilizer_protocol_up_to_three_pairs_is_equivalent(name):
    for n in (1, 2, 3):
        state = SMALL_INPUTS[name](n)
        for proto in small_protocols(n):
            report = equivalence.verify_equivalence(state, proto)
            assert report.passed, (proto.generators, report.max_discrepancy)


@pytest.mark.parametrize("name", SMALL_INPUTS)
def test_syndromes_up_to_three_pairs_match_the_oracle(name):
    """stabilizer.run's probabilities, scattered by syndrome, against the
    dense two-sided measurement: every protocol up to n = 2, every eighth
    at n = 3."""
    for n, step in ((1, 1), (2, 1), (3, 8)):
        state = SMALL_INPUTS[name](n)
        for proto in small_protocols(n)[::step]:
            branches = stabilizer.run(state, proto)
            engine = np.zeros(1 << (n - proto.m))
            engine[branches.s] = branches.prob
            dense = oracle.syndrome_difference_distribution(
                oracle.simulate_syndrome_measurement(state, proto.generators))
            assert np.abs(engine - dense).max() <= crosscheck.TOLERANCE
