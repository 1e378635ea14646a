"""Workload definitions: seeded lists of entrokit CLI calls.

A workload is a list of operations.  Each operation is the argv of one
``entrokit.cli.dispatch`` call together with what the checker needs to
know about its input (never a value computed by entrokit).  The same
``(name, seed)`` always gives the same operations.  Only the standard
library is used here: the workload process imports this module during
set-up.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
# generated polynomial files, written by the workload process during set-up
INPUTS = Path(__file__).resolve().parent.parent / ".perfbench_inputs"

# the known-defect inputs live in MAHLER_CERT, which BENCHMARK.json does not
# list because its operations are expected to fail (see README.md)
TIMED = ("lehmer-scan", "mahler-batch", "espectrum-box", "enum-sets")
MAHLER_CERT = "mahler-cert"
ALL = TIMED + (MAHLER_CERT,)

# ROADMAP item 3 reproducer, verbatim
REPRODUCER = (1000000000000037, -3000000000000000, 3000000000000001, -1000000000000000)
SALEM = (
    (1, -1, -1, -1, 1),                          # t^4 - t^3 - t^2 - t + 1
    (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),      # Lehmer's polynomial
)


@dataclass(frozen=True)
class Op:
    argv: tuple
    # ascending integer coefficients of the polynomial a `mahler` call sees
    coeffs: tuple = ()
    # for products built here: [(ascending factor coeffs, multiplicity, kind)],
    # kind in {"cyclotomic", "linear", "salem"}
    factors: tuple = field(default=())
    # a JSON input file the call reads: (path, content)
    file: tuple = ()


def write_inputs(ops) -> None:
    for op in ops:
        if op.file:
            path, content = op.file
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)


def _inline(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def cyclotomic(m: int) -> tuple:
    """Phi_m by exact division of t^m - 1 by Phi_d for the proper divisors
    d of m (every Phi_d is monic, so the division stays in Z)."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d:
            continue
        den = cyclotomic(d)
        quot = [0] * (len(num) - len(den) + 1)
        for top in range(len(num) - 1, len(den) - 2, -1):
            q = num[top]
            quot[top - len(den) + 1] = q
            if q:
                for j, c in enumerate(den):
                    num[top - len(den) + 1 + j] -= q * c
        num = quot
    return tuple(num)


def _pm1(rng, degree):
    return tuple(rng.choice((-1, 1)) for _ in range(degree + 1))


def _cyclotomic_rich(rng, extra, extra_kind):
    """A product of distinct cyclotomic polynomials (one of them squared)
    with one extra factor, of total degree 60 to 80."""
    target = rng.randint(60, 80) - (len(extra) - 1)
    pool = list(range(3, 61))
    rng.shuffle(pool)
    factors, degree = [], 0
    for m in pool:
        phi = cyclotomic(m)
        if degree + len(phi) - 1 <= target:
            factors.append((phi, 1, "cyclotomic"))
            degree += len(phi) - 1
        if degree >= target - 2:
            break
    small = min(factors, key=lambda f: len(f[0]))
    factors[factors.index(small)] = (small[0], 2, "cyclotomic")
    factors.append((tuple(extra), 1, extra_kind))
    coeffs = [1]
    for f, mult, _ in factors:
        for _ in range(mult):
            coeffs = _mul(coeffs, f)
    return tuple(coeffs), tuple(factors)


def _clustered(rng):
    """a (t - 1)^m + small, a <= 1e15, m in 2..4."""
    m = rng.randint(2, 4)
    a = rng.randint(10 ** 12, 10 ** 15)
    coeffs = [a * comb(m, i) * (-1) ** (m - i) for i in range(m + 1)]
    for i in rng.sample(range(m), rng.randint(1, 2)):
        coeffs[i] += rng.choice((-1, 1)) * rng.randint(1, 64)
    return tuple(coeffs)


def _mahler_op(coeffs, factors=(), tol=None, file=None):
    """A `mahler` call with the polynomial inline, or in the JSON file
    `file` when given (the CLI cannot take inline values longer than a file
    name, ROADMAP item 5)."""
    if file is None:
        argv, file_spec = ("mahler", "--poly=" + _inline(coeffs)), ()
    else:
        argv = ("mahler", "--poly", str(file))
        file_spec = (file, json.dumps({"coeffs": [str(c) for c in coeffs]}))
    if tol is not None:
        argv += ("--tol", tol)
    return Op(argv, tuple(coeffs), factors, file_spec)


def _lehmer_scan(seed):
    return [Op(("lehmer", "--max-degree", "8", "--height", "1", "--top", "5",
                "--threads", "1"))]


def _mahler_batch(seed):
    rng = random.Random(f"mahler-batch:{seed}")
    polys = [(_pm1(rng, 100), ())]
    polys += [(_pm1(rng, 64), ()) for _ in range(4)]
    a, b = rng.choice([(2, 3), (3, 2), (5, 3), (4, 7), (7, 5)])
    polys.append(_cyclotomic_rich(rng, (-a, b), "linear"))
    # one product per Salem factor: Lehmer's polynomial costs ten times the
    # other (boundary retries on its eight circle roots), so a seeded choice
    # between them would move the pass time by several per cent
    polys += [_cyclotomic_rich(rng, salem, "salem") for salem in SALEM]
    folder = INPUTS / f"mahler-batch-{seed}"
    return [_mahler_op(c, f, file=folder / f"poly{i}.json") for i, (c, f) in enumerate(polys)]


def _mahler_cert(seed):
    rng = random.Random(f"mahler-cert:{seed}")
    ops = [_mahler_op(_pm1(rng, rng.randint(24, 32)), tol="1e-30") for _ in range(3)]
    ops.append(_mahler_op(REPRODUCER))
    ops += [_mahler_op(_clustered(rng)) for _ in range(7)]
    ops.append(_mahler_op(_pm1(rng, 130)))       # inline, longer than NAME_MAX
    return ops


def _espectrum_box(seed):
    return [Op(("espectrum", "--dim", "3", "--bound", "1"))]


ENUM_MAP = str(DATA / "map_tree3.json")


def _enum_sets(seed):
    growth = [("free:2:standard+ab", 9), ("heisenberg", 25),
              ("product:free:2,abelian:2", 8)]
    ops = [Op(("growth", "--family", fam, "--horizon", str(h))) for fam, h in growth]
    ops.append(Op(("oracle", "--matrix", str(DATA / "fib.json"),
                   "--set", str(DATA / "unit_f.json"), "--horizon", "18")))
    ops.append(Op(("adjoint-probe", "--matrix", "0,1;1,1", "--max-index", "32")))
    ops.append(Op(("adjoint-probe", "--matrix", "1,1,0;0,1,1;1,0,1",
                   "--max-index", "12")))
    ops.append(Op(("cotrajectory", "--map", ENUM_MAP, "--set", "a", "--horizon", "12")))
    ops.append(Op(("shift", "--map", ENUM_MAP, "--order", "2", "--variant", "sum",
                   "--oracle", "a", "--horizon", "10")))
    return ops


_BUILDERS = {
    "lehmer-scan": _lehmer_scan,
    "mahler-batch": _mahler_batch,
    "espectrum-box": _espectrum_box,
    "enum-sets": _enum_sets,
    MAHLER_CERT: _mahler_cert,
}


def operations(name: str, seed: int) -> list:
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(ALL)}")
    return _BUILDERS[name](seed)
