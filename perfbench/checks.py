"""Check each entrokit report against the independent references.

``References`` is built once per run, before any timing, and holds what
every operation of the workload is compared with: committed values from
``refs/fixed.json`` (written by ``refs/gen_refs.py``) for the workloads
whose inputs are fixed, and values computed here from the construction of
each seeded input for the others.  ``check`` returns None for a correct
report and a one-line reason otherwise.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath

import reference

FIXED = Path(__file__).resolve().parent / "refs" / "fixed.json"
ROUND_TOL = 1e-12        # espectrum reports values rounded to 12 places
TIE = mpmath.mpf(10) ** -30   # reference measures closer than this are equal


class References:
    def __init__(self, workload: str, ops):
        self.workload = workload
        self.fixed = json.loads(FIXED.read_text()).get(workload, {})
        self.mahler = [self._mahler_ref(op) if op.argv[0] == "mahler" else None
                       for op in ops]

    @staticmethod
    def _mahler_ref(op):
        """(reference log-measure, exact integer measure or None or a
        callable that finds it with sympy)."""
        if not op.factors:
            return (reference.mahler_reference(op.coeffs),
                    lambda: reference.exact_mahler(op.coeffs))
        with mpmath.workdps(reference.DIGITS):
            exact, value = 1, mpmath.mpf(0)
            for coeffs, mult, kind in op.factors:
                if kind == "linear":
                    m = max(abs(c) for c in coeffs) ** mult
                    exact *= m
                    value += mpmath.log(m)
                elif kind == "salem":
                    exact = None
                    value += mult * reference.mahler_reference(coeffs)
            return +value, exact


def check(refs: References, index: int, op, rc, out: str, error: str | None):
    if error is not None:
        return f"raised {error}"
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(out)
    except ValueError:
        return "report is not JSON"
    result = report.get("result", {})
    command = op.argv[0]
    if command == "mahler":
        ref, exact = refs.mahler[index]
        return reference.check_value(result["value"], ref, exact)
    return _CHECKERS[command](refs.fixed, op, result)


def _first_mismatch(name, got, want):
    if list(got) == list(want):
        return None
    return f"{name} {list(got)[:12]} differs from the reference {list(want)[:12]}"


def _lehmer(fixed, op, result):
    if result["scanned"] != fixed["scanned"]:
        return f"scanned {result['scanned']} classes, reference {fixed['scanned']}"
    if result["zero_measures"] != fixed["zero_measures"]:
        return f"{result['zero_measures']} exact zeros, reference {fixed['zero_measures']}"
    if result["quarantined"]:
        return f"quarantined {result['quarantined']}: every positive measure here is far from 0"
    known = {tuple(e["coeffs"]): mpmath.mpf(e["measure"]) for e in fixed["smallest_positive"]}
    board = result["leaderboard"]
    top = int(op.argv[op.argv.index("--top") + 1])
    if len(board) != top:
        return f"the leaderboard has {len(board)} entries, --top asks for {top}"
    if len({tuple(e["coeffs"]) for e in board}) != len(board):
        return "the leaderboard repeats a class"
    want = sorted(known.values())[:top]
    got = []
    for entry in board:
        coeffs = tuple(entry["coeffs"])
        if coeffs not in known:
            return f"{list(coeffs)} is not among the {len(known)} smallest measures"
        reason = reference.check_value(entry["value"], known[coeffs], None)
        if reason:
            return f"{list(coeffs)}: {reason}"
        got.append(known[coeffs])
    if any(abs(a - b) > TIE for a, b in zip(sorted(got), want)):
        return "the leaderboard is not the set of smallest positive measures"
    return None


def _espectrum(fixed, op, result):
    if result["scanned"] != fixed["scanned"]:
        return f"scanned {result['scanned']}, reference {fixed['scanned']}"
    want = [float(v) for v in fixed["distinct_values"]]
    got = result["distinct_values"]
    if len(got) != len(want) or any(abs(a - b) > ROUND_TOL for a, b in zip(got, want)):
        return f"{len(got)} distinct values differ from the {len(want)} of the reference"
    return reference.check_value(result["minimal_positive"],
                                 mpmath.mpf(fixed["minimal_positive"]),
                                 fixed["minimal_positive_exact"])


def _growth(fixed, op, result):
    family, horizon = op.argv[2], int(op.argv[4])
    gamma = fixed["growth"][family][:horizon + 1]
    bad = _first_mismatch("ball sizes", result["gamma"], gamma)
    if bad:
        return bad
    rate = math.log(gamma[-1]) - math.log(gamma[-2])
    if not reference.close(result["rate_estimate"], rate, 1e-12):
        return f"rate estimate {result['rate_estimate']} != {rate}"
    return None


def _oracle(fixed, op, result):
    sizes = fixed["oracle"]
    bad = _first_mismatch("sumset sizes", result["sizes"], sizes)
    if bad:
        return bad
    fekete = min(math.log(s) / (i + 1) for i, s in enumerate(sizes))
    if not reference.close(result["fekete_upper_bound"], fekete, 1e-12):
        return f"Fekete bound {result['fekete_upper_bound']} != {fekete}"
    return None


def _adjoint_probe(fixed, op, result):
    dim = op.argv[2].count(";") + 1
    max_index = int(op.argv[4])
    count = reference.sigma if dim == 2 else reference.sublattices_z3
    want = sum(count(k) for k in range(1, max_index + 1))
    if result["lattices_probed"] != want:
        return f"probed {result['lattices_probed']} lattices, closed form {want}"
    if result["outcome"] != "all_zero":
        return f"outcome {result['outcome']!r}: adjoint entropy on Z^n is always 0"
    return None


def _cotrajectory(fixed, op, result):
    want = fixed["cotrajectory"]
    for key in ("reduced_sizes", "naive_sizes"):
        bad = _first_mismatch(key, result[key], want[key])
        if bad:
            return bad
    if result["limit"] != want["limit"]:
        return f"limit {result['limit']!r}, reference {want['limit']!r}"
    return None


def _shift(fixed, op, result):
    want = fixed["shift"]
    for key in ("oracle_ranks", "oracle_sizes"):
        bad = _first_mismatch(key, result[key], want[key])
        if bad:
            return bad
    return None


_CHECKERS = {
    "lehmer": _lehmer,
    "espectrum": _espectrum,
    "growth": _growth,
    "oracle": _oracle,
    "adjoint-probe": _adjoint_probe,
    "cotrajectory": _cotrajectory,
    "shift": _shift,
}
