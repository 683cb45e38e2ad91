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
"""

import json

import numpy as np
import pytest

from belldistill import cli, equivalence
from belldistill.gf2 import BinaryMatrix, BinaryVector
from belldistill.permutation import PermutationProtocol, recurrence_sweep
from belldistill.stabilizer import StabilizerProtocol
from belldistill.states import werner

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
