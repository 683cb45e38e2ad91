"""Seeded inputs for the three benchmark workloads.

Protocols and random weight tables are generated here with a few lines of
GF(2) code and ``random.Random``, not with ``belldistill.gf2.random_*`` or
``verify --random``: a change to those program helpers must not change what
the benchmark runs.  The program only ever receives argv.

A workload is a list of ``Op`` (one CLI command each) that the worker
repeats, pass after pass.  See README.md for why each
workload has the shape it has.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("wide", "deep", "suite")

# The seed whose outputs are pinned in reference.json.
DEFAULT_SEED = 0

# The published reproduction of the tie-break false mismatch in `verify`;
# it stays in every suite pass so that the defect keeps showing.
TIE_CASE = ("ZZZ,IXX", "0.75")

SWEEP_GRID = "0.55:0.95:0.05"
SWEEP_POINTS = 9
SWEEP_ROUNDS = 3


@dataclass(frozen=True)
class Op:
    """One CLI command; `key` names it in references and reports."""

    key: str
    argv: tuple[str, ...]
    # run-perm/run-code: pair count and survivors, for the record invariants.
    n: int = 0
    m: int = 0
    # run-perm ops carry the key of the run-code op of the same instance.
    pair_with: str | None = None
    # oracle-check: cases the command should report; sweep: rounds.
    units: int = 0


@dataclass
class Spec:
    """A workload: its seeded op list (one pass) plus files the ops read.

    `pass_s` is the time of one pass on the machine the benchmark was
    written on (2 cores, Python 3.11, numpy 2.4); a run makes
    ``round(seconds / pass_s)`` passes.
    """

    ops: list[Op]
    pass_s: float
    files: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# GF(2) labels: packed (phase << n) | parity, pair 0 most significant.
# ---------------------------------------------------------------------------

def sympl(a: int, b: int, n: int) -> int:
    """Symplectic inner product of two packed 2n-bit labels."""
    mask = (1 << n) - 1
    return bin(((a >> n) & b & mask) ^ (a & mask & (b >> n))).count("1") & 1


def random_isotropic(n: int, k: int, rng: random.Random) -> list[int]:
    """k independent, pairwise commuting labels, by rejection sampling."""
    chosen: list[int] = []
    echelon: dict[int, int] = {}  # leading bit -> row
    while len(chosen) < k:
        v = rng.getrandbits(2 * n)
        if v == 0 or any(sympl(v, c, n) for c in chosen):
            continue
        r = v
        for bit in sorted(echelon, reverse=True):
            if (r >> bit) & 1:
                r ^= echelon[bit]
        if r == 0:
            continue
        echelon[r.bit_length() - 1] = r
        chosen.append(v)
    return chosen


def pauli(label: int, n: int) -> str:
    """Pauli word of a packed label: (phase, parity) = I 00, X 01, Z 10, Y 11."""
    return "".join(
        "IXZY"[2 * ((label >> (2 * n - 1 - i)) & 1) + ((label >> (n - 1 - i)) & 1)]
        for i in range(n))


def generators(n: int, m: int, rng: random.Random) -> str:
    return ",".join(pauli(g, n) for g in random_isotropic(n, n - m, rng))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _engine_pair(key: str, gens: str, n: int, m: int,
                 state: tuple[str, ...]) -> list[Op]:
    base = ("--generators", gens, "-m", str(m)) + state
    return [Op(f"{key}/run-perm", ("run-perm",) + base, n, m,
               pair_with=f"{key}/run-code"),
            Op(f"{key}/run-code", ("run-code",) + base, n, m)]


def _engine_spec(name: str, seed: int, n: int, m: int, pass_s: float) -> Spec:
    rng = random.Random(f"{name}:{seed}")
    return Spec(_engine_pair(name, generators(n, m, rng), n, m,
                             ("--werner", "0.8")), pass_s)


def _pair_arg(weights) -> tuple[str, str]:
    total = sum(weights)
    return ("--pair", ",".join(repr(w / total) for w in weights))


def _suite_spec(seed: int, sizes: range, oracle_sizes: str,
                oracle_count: int) -> Spec:
    rng = random.Random(f"suite:{seed}")
    ops: list[Op] = []
    files: dict[str, str] = {}
    for n in sizes:
        for m in range(n):
            key = f"n{n}m{m}"
            gens = generators(n, m, rng)
            table = [rng.random() + 1e-3 for _ in range(1 << (2 * n))]
            total = sum(table)
            state_file = f"state_{key}.json"
            files[state_file] = json.dumps(
                {"n": n, "probs": [p / total for p in table]})
            pair = [rng.random() for _ in range(4)]
            pair[0] += 1.0
            sparse = [0.6 + 0.3 * rng.random(), 0.0, 0.0, 0.0]
            for i in rng.sample((1, 2, 3), rng.choice((1, 2))):
                sparse[i] = rng.random() + 0.05
            inputs = {
                "table": ("--state-file", state_file),
                "werner": ("--werner", f"{0.55 + 0.4 * rng.random():.3f}"),
                "pair": _pair_arg(pair),
                "sparse": _pair_arg(sparse),
                "uniform": ("--pair", "0.25,0.25,0.25,0.25"),
            }
            for kind, state in inputs.items():
                ops.append(Op(f"suite/verify/{key}/{kind}",
                              ("verify", "--generators", gens, "-m", str(m))
                              + state))
            ops += _engine_pair(f"suite/{key}", gens, n, m, inputs["werner"])
    ops.append(Op("suite/verify/tie-case",
                  ("verify", "--generators", TIE_CASE[0],
                   "--werner", TIE_CASE[1])))
    for n in (2, 3, 4):
        ops.append(Op(f"suite/sweep/{n}to1",
                      ("sweep", "--generators", generators(n, 1, rng), "-m", "1",
                       "--grid", SWEEP_GRID, "--rounds", str(SWEEP_ROUNDS)),
                      units=SWEEP_POINTS * SWEEP_ROUNDS))
    # The oracle-check seed is fixed, not taken from `seed`: one size-4 case
    # costs from 2 ms to 1.4 s depending on its random draw, so a seeded
    # draw would make the pass time depend on the seed more than on the
    # program.  Every pass of every run does the same oracle work.
    ops.append(Op("suite/oracle-check",
                  ("oracle-check", "--sizes", oracle_sizes, "--count",
                   str(oracle_count), "--seed", "0"),
                  units=4 * oracle_count))
    return Spec(ops, 3.0, files)


def build(name: str, seed: int, tiny: bool = False) -> Spec:
    """The op list of one workload; `tiny` shrinks it for the self-check."""
    if name == "wide":
        return _engine_spec(name, seed, *((4, 2) if tiny else (12, 6)), 15.0)
    if name == "deep":
        return _engine_spec(name, seed, *((5, 1) if tiny else (13, 1)), 13.0)
    if name == "suite":
        if tiny:
            return _suite_spec(seed, range(2, 4), "2", 1)
        return _suite_spec(seed, range(2, 7), "2,3,4", 4)
    raise ValueError(f"unknown workload {name!r}")


def write_files(spec: Spec, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in spec.files.items():
        (directory / name).write_text(text)
