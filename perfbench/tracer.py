"""Outside-in tracing: timing wrappers installed around the program's layers.

The wrappers replace module attributes (and one classmethod) from the
benchmark's side; nothing under ``src/`` knows about them.  Each call of a
wrapped function records a span (name, parent, start, end) kept in memory;
a layer's self time is its spans' durations minus what their direct
children cover.  `gf2.coset_sum` runs about half a million times per `wide`
pass, so it is aggregated into a call count and a total time instead of a
span per call; its time is still subtracted from its caller's self time.

Counters are taken at the same boundaries from each call's arguments and
result.  Time spent computing them is charged to no layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TIE_TOL = 1e-12

# (metric prefix, module, attribute); the prefix names the layer.
SPANNED = (
    ("cli.main", "cli", "main"),
    ("permutation.run", "permutation", "run"),
    ("stabilizer.run", "stabilizer", "run"),
    ("stabilizer.optimal_recovery", "stabilizer", "optimal_recovery"),
    ("gf2.complete_to_symplectic", "gf2", "complete_to_symplectic"),
    ("gf2.solve_commutation", "gf2", "solve_commutation"),
    ("gf2.symplectic_inverse", "gf2", "symplectic_inverse"),
    ("gf2.orthogonal_complement", "gf2", "orthogonal_complement"),
    ("equivalence.verify_equivalence", "equivalence", "verify_equivalence"),
    ("equivalence.permutation_from_stabilizer", "equivalence",
     "permutation_from_stabilizer"),
    ("oracle.simulate_parity_measurement", "oracle", "simulate_parity_measurement"),
    ("oracle.simulate_syndrome_measurement", "oracle",
     "simulate_syndrome_measurement"),
    ("oracle.density_matrix", "oracle", "density_matrix"),
    ("crosscheck.run_all", "crosscheck", "run_all"),
)
FROM_PAIRS = "states.from_pairs"
COSET_SUM = "gf2.coset_sum"


class Tracer:
    """Span recorder; `install` wraps the program, `uninstall` restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, parent, request, start, end, child_s]
        self._stack: list[int] = []
        self.coset_sum = [0, 0.0, 0]   # calls, seconds, coset elements
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _charge_parent(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def _spanned(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            request = index if parent is None else self.spans[parent][2]
            span = [name, parent, request, time.perf_counter(), None, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
                self._charge_parent(span[4] - span[3])
            if count is not None:
                count(args, result)
                self._charge_parent(time.perf_counter() - span[4])
            return result
        return wrapper

    def _aggregated(self, fn):
        """Wrapper for `gf2.coset_sum`: a count and a total, no spans."""
        stats, stack, spans = self.coset_sum, self._stack, self.spans
        clock = time.perf_counter

        def wrapper(probs, coset):
            start = clock()
            result = fn(probs, coset)
            elapsed = clock() - start
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += 1 << len(coset.subspace.basis)
            if stack:
                spans[stack[-1]][5] += clock() - start
            return result
        return wrapper

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    # -- counters at layer boundaries ------------------------------------------

    def _count_from_pairs(self, args, state) -> None:
        self.counters["states.table_bytes"] += state.probs.nbytes

    def _count_branches(self, layer):
        def count(args, branches):
            proto = args[1]
            attempted = 1 << (proto.n - proto.m)
            self.counters[f"{layer}.attempted"] += attempted
            self.counters[f"{layer}.branches"] += len(branches)
            self.counters[f"{layer}.zero_branches_skipped"] += attempted - len(branches)
            if layer == "permutation":
                self.counters["permutation.tied_corrections"] += sum(
                    _tied(b.output.probs) for b in branches)
        return count

    def _count_mismatches(self, args, report) -> None:
        self.counters["equivalence.coset_mismatches"] += sum(
            not b.coset_match for b in report.branches)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import belldistill.cli
        from belldistill import (crosscheck, equivalence, gf2, oracle,
                                 permutation, stabilizer)
        from belldistill.states import BellDiagonalState

        modules = {"cli": belldistill.cli, "crosscheck": crosscheck,
                   "equivalence": equivalence, "gf2": gf2, "oracle": oracle,
                   "permutation": permutation, "stabilizer": stabilizer}
        counts = {
            "permutation.run": self._count_branches("permutation"),
            "stabilizer.run": self._count_branches("stabilizer"),
            "equivalence.verify_equivalence": self._count_mismatches,
        }
        for name, module, attr in SPANNED:
            owner = modules[module]
            self._patch(owner, attr,
                        self._spanned(name, getattr(owner, attr), counts.get(name)))
        self._patch(gf2, "coset_sum", self._aggregated(gf2.coset_sum))
        from_pairs = BellDiagonalState.from_pairs.__func__
        self._patch(BellDiagonalState, "from_pairs", classmethod(
            self._spanned(FROM_PAIRS, from_pairs, self._count_from_pairs)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, _parent, _request, start, end, child_s in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s
        calls, seconds, _elements = self.coset_sum
        totals[COSET_SUM] = {"calls": calls, "total_s": seconds, "self_s": seconds}
        return dict(totals)

    def all_counters(self) -> dict[str, float]:
        return {**self.counters, "gf2.coset_elements": self.coset_sum[2]}

    def dump(self, path: Path) -> None:
        keys = ("name", "parent", "request", "start", "end", "child_s")
        path.write_text(json.dumps({
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "aggregated": {COSET_SUM: dict(zip(("calls", "seconds", "elements"),
                                               self.coset_sum))},
            "counters": self.all_counters(),
        }))


def _tied(probs: np.ndarray) -> bool:
    """True when the two heaviest output weights lie within TIE_TOL."""
    if probs.size < 2:
        return False
    top = np.partition(probs, probs.size - 2)[-2:]
    return bool(top[1] - top[0] <= TIE_TOL)
