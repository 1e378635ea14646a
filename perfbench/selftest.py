"""Self-test of the checker: right answers pass and planted wrong ones fail.

    python3 perfbench/selftest.py

Reports are built here from the references themselves (no entrokit run),
then one field at a time is made wrong; every planted error must be
counted as a failed operation.  Exits 1 and names the case otherwise.
"""
from __future__ import annotations

import copy
import json
import math
import sys

import mpmath

import checks
import workloads

failures = []


def expect(refs, index, op, result, ok, label, rc=0, error=None):
    out = json.dumps({"result": result})
    reason = checks.check(refs, index, op, rc, out, error)
    if (reason is None) != ok:
        failures.append(f"{refs.workload} {label}: expected {'pass' if ok else 'fail'}, "
                        f"got {reason or 'pass'}")


def approx(x, error=1e-12):
    return {"kind": "approx", "value": float(x), "error": error}


def mahler_cases():
    ops = workloads.operations("mahler-batch", 1)
    refs = checks.References("mahler-batch", ops)
    for i, op in enumerate(ops):
        ref, exact = refs.mahler[i]
        expect(refs, i, op, {"value": approx(ref)}, True, f"op {i} right")
        expect(refs, i, op, {"value": approx(ref + 1e-9)}, False, f"op {i} off by 1e-9")
        expect(refs, i, op, {"value": approx(ref)}, False, f"op {i} exit 3", rc=3)
        expect(refs, i, op, {"value": approx(ref)}, False, f"op {i} raised",
               error="OverflowError: planted")
        expect(refs, i, op, {"value": {"kind": "exact_zero"}}, False, f"op {i} false zero")
        if isinstance(exact, int):
            right = {"kind": "exact_log", "base": exact, "multiplier": "1/1"}
            expect(refs, i, op, {"value": right}, True, f"op {i} exact")
            wrong = dict(right, base=exact + 1)
            expect(refs, i, op, {"value": wrong}, False, f"op {i} wrong base")


def lehmer_cases():
    ops = workloads.operations("lehmer-scan", 1)
    refs = checks.References("lehmer-scan", ops)
    fixed = refs.fixed
    smallest = fixed["smallest_positive"]
    good = {
        "scanned": fixed["scanned"], "zero_measures": fixed["zero_measures"],
        "quarantined": [],
        "leaderboard": [{"coeffs": e["coeffs"], "value": approx(mpmath.mpf(e["measure"]))}
                        for e in smallest[:5]],
    }
    expect(refs, 0, ops[0], good, True, "right")
    plants = {
        "one zero too many": ("zero_measures", fixed["zero_measures"] + 1),
        "one class too few": ("scanned", fixed["scanned"] - 1),
        "quarantined": ("quarantined", [[1, 1]]),
    }
    for label, (key, value) in plants.items():
        expect(refs, 0, ops[0], dict(good, **{key: value}), False, label)
    fifth = mpmath.mpf(smallest[4]["measure"])
    larger = next(e for e in smallest if mpmath.mpf(e["measure"]) - fifth > checks.TIE)
    bad = copy.deepcopy(good)
    bad["leaderboard"][4] = {"coeffs": larger["coeffs"],
                             "value": approx(mpmath.mpf(larger["measure"]))}
    expect(refs, 0, ops[0], bad, False, "a larger measure on the board")
    bad = copy.deepcopy(good)
    bad["leaderboard"][0]["value"]["value"] += 1e-10
    expect(refs, 0, ops[0], bad, False, "value off by 1e-10")
    expect(refs, 0, ops[0], dict(good, leaderboard=good["leaderboard"][:4]), False,
           "four entries")
    expect(refs, 0, ops[0], dict(good, leaderboard=[]), False, "empty board")
    bad = copy.deepcopy(good)
    bad["leaderboard"][4] = copy.deepcopy(bad["leaderboard"][3])
    expect(refs, 0, ops[0], bad, False, "a class twice")


def espectrum_cases():
    ops = workloads.operations("espectrum-box", 1)
    refs = checks.References("espectrum-box", ops)
    fixed = refs.fixed
    good = {"scanned": fixed["scanned"],
            "distinct_values": [round(float(v), 12) for v in fixed["distinct_values"]],
            "minimal_positive": approx(mpmath.mpf(fixed["minimal_positive"]))}
    expect(refs, 0, ops[0], good, True, "right")
    expect(refs, 0, ops[0], dict(good, distinct_values=good["distinct_values"][:-1]),
           False, "a value missing")
    expect(refs, 0, ops[0], dict(good, minimal_positive=approx(0.25)), False,
           "wrong minimum")


def enum_cases():
    ops = workloads.operations("enum-sets", 1)
    refs = checks.References("enum-sets", ops)
    fixed = refs.fixed
    for i, op in enumerate(ops):
        command = op.argv[0]
        if command == "growth":
            gamma = fixed["growth"][op.argv[2]]
            good = {"gamma": gamma,
                    "rate_estimate": math.log(gamma[-1]) - math.log(gamma[-2])}
            bad = dict(good, gamma=gamma[:-1] + [gamma[-1] + 1])
        elif command == "oracle":
            sizes = fixed["oracle"]
            good = {"sizes": sizes, "fekete_upper_bound":
                    min(math.log(s) / (k + 1) for k, s in enumerate(sizes))}
            bad = dict(good, sizes=sizes[:-1] + [sizes[-1] - 1])
        elif command == "adjoint-probe":
            dim = op.argv[2].count(";") + 1
            count = checks.reference.sigma if dim == 2 else checks.reference.sublattices_z3
            n = sum(count(k) for k in range(1, int(op.argv[4]) + 1))
            good = {"lattices_probed": n, "outcome": "all_zero"}
            bad = dict(good, lattices_probed=n - 1)
        elif command == "cotrajectory":
            good = dict(fixed["cotrajectory"])
            bad = dict(good, limit=2)
        else:
            good = dict(fixed["shift"])
            bad = dict(good, oracle_ranks=good["oracle_ranks"][:-1] + [0])
        expect(refs, i, op, good, True, f"{command} right")
        expect(refs, i, op, bad, False, f"{command} planted")


def main() -> int:
    for cases in (mahler_cases, lehmer_cases, espectrum_cases, enum_cases):
        cases()
    for line in failures:
        print("SELFTEST FAILED " + line)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
