"""Output checks for every benchmark operation.

Each check returns a list of problems (empty when the output is correct).
Correction and recovery labels are never compared: the tie rule that picks
them among equally heavy cosets is allowed to change.  What is checked:

* the exit code;
* record invariants: branch probabilities sum to 1, each output sums to 1,
  the fidelity is the output's maximum (and, for `run-perm`, the entry at
  the correction), and ``unnormalized_fidelity == 2^(n-m) * fidelity``;
* `run-perm` against `run-code` of the same instance, branch by branch;
* for the default seed, fingerprints of probabilities, fidelities and
  outputs recorded in reference.json.

A `verify` that exits 2 although both engines agree on every number is the
known tie-break false mismatch: it is returned as a separate verdict, so it
counts in ``failed_share`` without being mistaken for a wrong output.
"""

from __future__ import annotations

import math

import numpy as np

SUM_TOL = 1e-10      # sums of up to 4**6 values printed to 15 digits
VALUE_TOL = 1e-12    # one number, or one number per value in a fingerprint

OK, WRONG, TIE_MISMATCH = "ok", "wrong", "tie-mismatch"


def weights(size: int) -> np.ndarray:
    """Fixed weights in (0, 1) that make a fingerprint order-sensitive."""
    return np.modf(np.arange(1, size + 1) * 0.6180339887498949)[0]


def fingerprint(values) -> float:
    values = np.asarray(values, dtype=float).ravel()
    return float(values @ weights(values.size))


def _near(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


def engine_summary(doc: dict) -> dict:
    """Per-branch numbers of a run-perm/run-code output, keyed for pairing."""
    records = doc["records"]
    label = "t" if doc["command"] == "run-perm" else "s"
    outputs = [r["output"] for r in records]
    return {
        "labels": [r[label] for r in records],
        "prob": [r["prob"] for r in records],
        "fidelity": [r["fidelity"] for r in records],
        "output": np.concatenate([np.asarray(o, dtype=float) for o in outputs])
        if outputs else np.zeros(0),
    }


def check_engine(doc: dict, n: int, m: int) -> list[str]:
    """Invariants of one run-perm or run-code output."""
    problems = []
    records = doc.get("records", [])
    if not records:
        return ["no branch records"]
    total = sum(r["prob"] for r in records)
    if not _near(total, 1.0, SUM_TOL):
        problems.append(f"branch probabilities sum to {total!r}")
    factor = float(1 << (n - m))
    for r in records:
        out = np.asarray(r["output"], dtype=float)
        where = f"branch {r.get('t', r.get('s'))}"
        if out.size != 1 << (2 * m) or not np.all(out >= 0.0):
            problems.append(f"{where}: output has wrong size or a negative entry")
            continue
        if not _near(float(out.sum()), 1.0, SUM_TOL):
            problems.append(f"{where}: output sums to {out.sum()!r}")
        fid = r["fidelity"]
        if not _near(fid, float(out.max()), VALUE_TOL):
            problems.append(f"{where}: fidelity {fid!r} is not the output max")
        if "correction" in r and not _near(
                fid, float(out[int(r["correction"] or "0", 2)]), VALUE_TOL):
            problems.append(f"{where}: fidelity is not output[correction]")
        if not _near(r["unnormalized_fidelity"], factor * fid, factor * VALUE_TOL):
            problems.append(f"{where}: unnormalized_fidelity != 2^(n-m) fidelity")
        if not 0.0 < r["prob"] <= 1.0:
            problems.append(f"{where}: probability {r['prob']!r} out of range")
    return problems


def compare_engines(perm: dict, code: dict) -> list[str]:
    """run-perm against run-code of the same instance, branch by branch."""
    if perm["labels"] != code["labels"]:
        return ["run-perm and run-code return different branch sets"]
    problems = []
    for name in ("prob", "fidelity"):
        diff = np.max(np.abs(np.subtract(perm[name], code[name])))
        if not diff <= VALUE_TOL:
            problems.append(f"run-perm and run-code {name} differ by {diff!r}")
    return problems


def check_verify(doc: dict, rc: int) -> tuple[str, list[str]]:
    summary = doc.get("summary", {})
    records = doc.get("records", [])
    problems = []
    total = sum(r["prob_perm"] for r in records)
    if not _near(total, 1.0, SUM_TOL):
        problems.append(f"branch probabilities sum to {total!r}")
    for r in records:
        if not (_near(r["prob_perm"], r["prob_code"], VALUE_TOL)
                and _near(r["fidelity_perm"], r["fidelity_code"], VALUE_TOL)
                and r["output_max_diff"] <= VALUE_TOL):
            problems.append(f"branch {r['t']}: engines disagree numerically")
    numbers_agree = (summary.get("subspaces_match") is True
                     and summary.get("branch_sets_match") is True
                     and summary.get("max_discrepancy", 1.0) <= VALUE_TOL)
    if rc == 0 and summary.get("passed") is not True:
        problems.append("exit 0 but the report did not pass")
    if rc not in (0, 2):
        problems.append(f"exit code {rc}")
    if problems:
        return WRONG, problems
    if rc == 2:
        if numbers_agree and summary.get("coset_match") is False:
            return TIE_MISMATCH, []
        return WRONG, ["exit 2 without a coset-only mismatch"]
    return OK, []


def check_sweep(doc: dict, rounds: int) -> list[str]:
    records = doc.get("records", [])
    if len(records) != rounds:
        return [f"{len(records)} sweep records, expected {rounds}"]
    bad = [r for r in records
           if not (0.0 <= r["f_out"] <= 1.0 and 0.0 <= r["yield"] <= 1.0
                   and 0.0 <= r["accept_prob"] <= 1.0 + SUM_TOL)]
    return [f"{len(bad)} sweep records out of range"] if bad else []


def check_oracle(doc: dict, cases: int) -> list[str]:
    records = doc.get("records", [])
    problems = []
    if doc.get("summary", {}).get("all_passed") is not True:
        problems.append("oracle-check did not pass")
    if sum(r["cases"] for r in records) != cases:
        problems.append("oracle-check ran a different number of cases")
    if any(not r["max_error"] <= r["tolerance"] for r in records):
        problems.append("oracle error above tolerance")
    return problems


# ---------------------------------------------------------------------------
# References (default seed)
# ---------------------------------------------------------------------------

def reference_entry(command: str, doc: dict) -> dict | None:
    """The numbers of one output that reference.json pins."""
    records = doc.get("records", [])
    if command in ("run-perm", "run-code"):
        s = engine_summary(doc)
        return {"branches": len(records), "prob": s["prob"],
                "fidelity": s["fidelity"], "output": s["output"]}
    if command == "verify":
        return {"branches": len(records),
                "prob": [r["prob_perm"] for r in records],
                "fidelity": [r["fidelity_perm"] for r in records]}
    if command == "sweep":
        return {"branches": len(records),
                "prob": [r["accept_prob"] for r in records],
                "fidelity": [r["f_out"] for r in records]}
    return None


def fingerprints(entry: dict) -> dict:
    out = {"branches": entry["branches"]}
    for name in ("prob", "fidelity", "output"):
        if name in entry:
            values = np.asarray(entry[name], dtype=float).ravel()
            out[name] = [fingerprint(values), values.size]
    return out


def compare_reference(entry: dict, ref: dict) -> list[str]:
    """Each fingerprint may move by VALUE_TOL per value it sums."""
    got = fingerprints(entry)
    if got["branches"] != ref["branches"]:
        return [f"{got['branches']} branches, reference has {ref['branches']}"]
    problems = []
    for name, pinned in ref.items():
        if name == "branches":
            continue
        value, size = pinned
        if name not in got or got[name][1] != size:
            problems.append(f"{name}: size differs from the reference")
            continue
        tol = VALUE_TOL * float(weights(size).sum()) + 1e-15
        if not _near(got[name][0], value, tol):
            problems.append(f"{name} fingerprint {got[name][0]!r} != "
                            f"reference {value!r}")
    return problems
