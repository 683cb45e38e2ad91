"""Both engines against an exact-rational reference.

The reference enumerates the 4^n input labels with `fractions.Fraction`,
from rational pair weights, and applies the specification directly: the
relabeled label z = A x + b splits into the outcome t (bits n+m..2n-1)
and the logical label y (bits 0..m-1, then n..n+m-1); a branch's weight
table W[y] sums the input weights that land on (t, y); the correction is
the least y with W[y] >= (1 - TIE_BAND) max W, the fidelity its weight
over the branch's, and a branch is accepted when its fidelity is at least
the threshold.  It reads only the protocol's rows and offset and shares
no code and no float arithmetic with the kernel, so a tie the kernel
decides in floats is checked against the exact answer.  The engines run
on the float image of the same input.

Rows whose exact fidelity equals the threshold are the acceptance defect
of ROADMAP item 1 (the threshold is compared without the band) and are
checked apart, as an expected failure.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from belldistill import permutation, stabilizer
from belldistill.equivalence import permutation_from_stabilizer, stabilizer_from_permutation
from belldistill.gf2 import BinaryVector, random_isotropic_generators
from belldistill.permutation import PermutationProtocol
from belldistill.stabilizer import StabilizerProtocol
from belldistill.states import BellDiagonalState, werner

from test_sp4 import sp4

# The specification's tie band, fixed here rather than read from the
# kernel, so that a kernel with another band disagrees with the reference.
TIE_BAND = Fraction(1, 10 ** 12)
RELATIVE = 1e-12

WERNER_7_10 = (Fraction(7, 10),) + (Fraction(1, 10),) * 3


def bit(value: int, i: int, length: int) -> int:
    """Bit i of a packed label, bit 0 the most significant."""
    return value >> (length - 1 - i) & 1


def pack(bits) -> int:
    return functools.reduce(lambda acc, b: acc << 1 | b, bits, 0)


def exact_branches(pairs, rows, offset: int, m: int, threshold: Fraction) -> dict:
    """Every branch of nonzero weight, by outcome t: its probability,
    correction, fidelity and acceptance, and for the generator engine the
    least label of its outcome (v) and of its outcome and correction (u);
    also how many logical labels tie for the maximum (`tied`) and how many
    more lie within 1e-6 of it (`near`).

    `pairs` holds each pair's four weights (labels 00, 01, 10, 11: phase
    bit, then parity bit), `rows` the relabeling's rows as packed ints.
    """
    n = len(pairs)
    two_n = 2 * n
    weights, least = {}, {}
    for x in range(1 << two_n):
        z = [bin(row & x).count("1") % 2 ^ bit(offset, r, two_n) for r, row in enumerate(rows)]
        t = pack(z[n + m:])
        y = pack(z[:m] + z[n:n + m])
        least.setdefault((t, y), x)
        least.setdefault(t, x)
        p = math.prod(pair[2 * bit(x, i, two_n) + bit(x, n + i, two_n)]
                      for i, pair in enumerate(pairs))
        weights.setdefault(t, [Fraction(0)] * (1 << 2 * m))[y] += p
    branches = {}
    for t, w in weights.items():
        prob = sum(w)
        if prob == 0:
            continue
        band = (1 - TIE_BAND) * max(w)
        correction = next(y for y, weight in enumerate(w) if weight >= band)
        fidelity = w[correction] / prob
        tied = sum(weight >= band for weight in w)
        near = sum(weight >= (1 - Fraction(1, 10 ** 6)) * max(w) for weight in w) - tied
        branches[t] = dict(prob=prob, correction=correction, fidelity=fidelity,
                           accepted=fidelity >= threshold, v=least[t],
                           u=least[t, correction], tied=tied, near=near)
    return branches


def float_pair(pair) -> BellDiagonalState:
    return BellDiagonalState(1, [float(w) for w in pair])


def near_tie_pair(rng: np.random.Generator):
    """Rational weights with two of them 1e-9..1e-6 apart (relative)."""
    base = [Fraction(int(k), 97) for k in rng.integers(1, 40, 3)]
    gap = Fraction(int(rng.integers(1, 1000)), 10 ** 9)
    weights = [base[0], base[0] * (1 + gap), base[1], base[2]]
    weights = [weights[i] for i in rng.permutation(4)]
    total = sum(weights)
    return tuple(w / total for w in weights)


def random_protocol(rng: np.random.Generator) -> PermutationProtocol:
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, n))
    gens = tuple(random_isotropic_generators(n, n - m, rng))
    return PermutationProtocol(n, m, StabilizerProtocol(n, m, gens).matrix,
                               BinaryVector(int(rng.integers(0, 1 << 2 * n)), 2 * n))


def iy_protocol() -> PermutationProtocol:
    return permutation_from_stabilizer(StabilizerProtocol.from_pauli_strings(["IY"], 1))


def cases():
    """(name, protocol, exact pairs, engine state, exact and engine
    thresholds): every Sp(4, 2) matrix at m = 1 with offsets 0, 1 and 8
    on Werner F = 7/10 pairs, thresholds F and F^2; near-tie products
    on random protocols of 2..4 pairs, threshold the input fidelity; and
    the first `sweep --generators IY -m 1 --grid 0.7` round."""
    pair = werner(0.7)  # as `--werner 0.7` builds it
    werner2 = BellDiagonalState.from_pairs([pair] * 2)
    for a in sp4():
        for b in (0, 1, 8):
            proto = PermutationProtocol(2, 1, a, BinaryVector(b, 4))
            for exact, threshold in ((Fraction(7, 10), pair.fidelity),
                                     (Fraction(49, 100), None)):
                yield "sp4-werner", proto, [WERNER_7_10] * 2, werner2, exact, threshold
    rng = np.random.default_rng(12)
    for _ in range(150):
        proto = random_protocol(rng)
        pairs = [near_tie_pair(rng) for _ in range(proto.n)]
        state = BellDiagonalState.from_pairs([float_pair(p) for p in pairs])
        yield "near-tie", proto, pairs, state, math.prod(p[0] for p in pairs), None
    yield ("iy-sweep-round-1", iy_protocol(), [WERNER_7_10] * 2, werner2,
           Fraction(7, 10), pair.fidelity)


@functools.cache
def compared() -> tuple[list, list]:
    """Each branch of each case as (case, t, exact branch, permutation
    engine's row, generator engine's row), split into the rows whose exact
    fidelity differs from the threshold and those where it is equal."""
    off, at = [], []
    for name, proto, pairs, state, exact_threshold, threshold in cases():
        exact = exact_branches(pairs, proto.matrix.rows, proto.offset.value, proto.m,
                               exact_threshold)
        perm = permutation.run(state, proto, threshold)
        code = stabilizer.run(state, stabilizer_from_permutation(proto), threshold)
        assert perm.t.tolist() == code.s.tolist() == sorted(exact), name
        for i, t in enumerate(perm.t.tolist()):
            rows = ({k: perm.columns[k][i].item() for k in
                     ("prob", "fidelity", "correction", "accepted")},
                    {k: code.columns[k][i].item() for k in
                     ("prob", "fidelity", "v", "u", "accepted")})
            row = (f"{name} {proto.matrix.rows} b={proto.offset.value} t={t}",
                   exact[t], *rows)
            (at if exact[t]["fidelity"] == exact_threshold else off).append(row)
    return off, at


def test_engines_match_the_exact_reference():
    off, at = compared()
    # exact ties, and near ties a band of 1e-6 would take for ties
    assert sum(exact["tied"] > 1 for _, exact, _, _ in off) > 1000
    assert sum(exact["near"] > 0 for _, exact, _, _ in off) > 100
    for case, exact, perm, code in off:
        for row in (perm, code):
            for key in ("prob", "fidelity"):
                assert row[key] == pytest.approx(float(exact[key]), rel=RELATIVE), case
            assert row["accepted"] == exact["accepted"], case
        assert perm["correction"] == exact["correction"], case
        assert (code["v"], code["u"]) == (exact["v"], exact["u"]), case
    # the rows on the threshold agree on everything but acceptance
    for case, exact, perm, code in at:
        assert perm["correction"] == exact["correction"], case
        assert (code["v"], code["u"]) == (exact["v"], exact["u"]), case


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a branch whose exact fidelity "
                   "equals the threshold is judged in floats, without the tie band")
def test_rows_on_the_threshold_are_accepted():
    at = compared()[1]
    assert any(case.startswith("iy-sweep-round-1") for case, *_ in at)
    for case, exact, perm, code in at:
        assert exact["accepted"]
        assert perm["accepted"] and code["accepted"], case
