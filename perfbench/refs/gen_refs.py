"""Generate the committed references for the workloads whose inputs do not
depend on the seed (lehmer-scan, espectrum-box, enum-sets).

Run from the repository root:

    python3 perfbench/refs/gen_refs.py

Nothing here imports entrokit.  Symmetry classes, characteristic
polynomials, ball sizes, sumsets, preimage trees and GF(2) ranks are plain
re-implementations written from the definitions; exactness comes from
sympy's factorization and Mahler measures from mpmath ``polyroots`` (see
``reference.py``).  The seed-dependent workloads get their references at
run time from the same ``reference.py``.
"""
from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import mpmath  # noqa: E402

import reference  # noqa: E402

KEEP = 6           # Lehmer-scan classes kept: those with the KEEP smallest
                   # distinct positive measures (the leaderboard has 5)
REF_DIGITS = 40    # digits written for each reference value


def _s(x) -> str:
    return mpmath.nstr(x, REF_DIGITS, strip_zeros=False)


# ----------------------------------------------------------------------
# lehmer --max-degree 8 --height 1 (monic)

def _symmetry_classes(max_degree: int, height: int):
    """Monic, non-zero constant term, up to sign, t -> -t and reciprocal;
    the representative is the smallest positive-lead tuple of the orbit."""
    def positive_lead(c):
        return c if c[-1] > 0 else tuple(-x for x in c)

    for degree in range(1, max_degree + 1):
        for rest in product(range(-height, height + 1), repeat=degree):
            if rest[0] == 0:
                continue
            c = rest + (1,)
            flipped = tuple(x * (-1) ** i for i, x in enumerate(c))
            orbit = {positive_lead(v) for v in
                     (c, flipped, c[::-1], flipped[::-1])}
            if min(orbit) == c:
                yield c


def lehmer_refs():
    classes = list(_symmetry_classes(8, 1))
    zero, positive = 0, []
    for c in classes:
        if reference.exact_mahler(c) == 1:
            zero += 1
        else:
            positive.append((reference.mahler_reference(c), c))
    positive.sort()
    with mpmath.workdps(reference.DIGITS):
        tie = mpmath.mpf(10) ** -30
        distinct = [positive[0][0]]
        for m, _ in positive:
            if m - distinct[-1] > tie:
                distinct.append(m)
        cutoff = distinct[KEEP - 1] + tie
    return {
        "argv": "lehmer --max-degree 8 --height 1 --top 5 --threads 1",
        "scanned": len(classes),
        "zero_measures": zero,
        "smallest_positive": [{"coeffs": list(c), "measure": _s(m)}
                              for m, c in positive if m <= cutoff],
    }


# ----------------------------------------------------------------------
# espectrum --dim 3 --bound 1

def _char_poly_3(a):
    """Ascending coefficients of det(tI - A) for a 3x3 integer matrix."""
    (p, q, r), (s, t, u), (v, w, x) = a
    trace = p + t + x
    minors = (p * t - q * s) + (p * x - r * v) + (t * x - u * w)
    det = p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)
    return (-det, minors, -trace, 1)


def espectrum_refs():
    polys = set()
    scanned = 0
    for flat in product((-1, 0, 1), repeat=9):
        scanned += 1
        polys.add(_char_poly_3((flat[0:3], flat[3:6], flat[6:9])))
    values = []
    for c in polys:
        m = reference.mahler_reference(c) if reference.exact_mahler(c) != 1 else mpmath.mpf(0)
        if all(abs(m - v) > mpmath.mpf(10) ** -30 for v in values):
            values.append(m)
    values.sort()
    smallest = min(v for v in values if v > 0)
    return {
        "argv": "espectrum --dim 3 --bound 1",
        "scanned": scanned,
        "distinct_values": [_s(v) for v in values],
        "minimal_positive": _s(smallest),
        "minimal_positive_exact": None,
    }


# ----------------------------------------------------------------------
# enum-sets

def _ball_sizes(identity, gens, multiply, horizon):
    ball, frontier, sizes = {identity}, [identity], [1]
    for _ in range(horizon):
        nxt = []
        for x in frontier:
            for g in gens:
                y = multiply(x, g)
                if y not in ball:
                    ball.add(y)
                    nxt.append(y)
        frontier = nxt
        sizes.append(len(ball))
    return sizes


def _free_mul(a, b):
    a = list(a)
    for x in b:
        if a and a[-1] == -x:
            a.pop()
        else:
            a.append(x)
    return tuple(a)


def _free_gens(words):
    gens = []
    for w in words:
        for g in (w, tuple(-x for x in reversed(w))):
            if g not in gens:
                gens.append(g)
    return gens


def _heis_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


def growth_refs():
    free_ab = _free_gens([(1,), (2,), (1, 2)])
    heis = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    free2 = _free_gens([(1,), (2,)])
    z2 = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    prod_gens = [(g, (0, 0)) for g in free2] + [((), g) for g in z2]

    def prod_mul(a, b):
        return (_free_mul(a[0], b[0]), (a[1][0] + b[1][0], a[1][1] + b[1][1]))

    return {
        "free:2:standard+ab": _ball_sizes((), free_ab, _free_mul, 9),
        "heisenberg": _ball_sizes((0, 0, 0), heis, _heis_mul, 25),
        "product:free:2,abelian:2": _ball_sizes(((), (0, 0)), prod_gens, prod_mul, 8),
    }


def sumset_sizes(rows, points, horizon):
    """|F + AF + ... + A^(n-1) F| for n = 1..horizon, with 0 added to F."""
    n = len(rows)
    base = {tuple(p) for p in points} | {(0,) * n}
    current, image, sizes = set(base), set(base), [len(base)]
    for _ in range(horizon - 1):
        image = {tuple(sum(rows[i][j] * v[j] for j in range(n)) for i in range(n))
                 for v in image}
        current = {tuple(x + y for x, y in zip(t, g)) for t in current for g in image}
        sizes.append(len(current))
    return sizes


# the self-map of data/map_tree3.json: core a -> b -> a, c -> a; a string S
# ending at c; a ternary tree T hanging at a.  Points: "a", "b", "c",
# ("S", i) and ("T", word) with word a non-empty tuple of digits.

def _preimages(p):
    if p == "a":
        return ["b", "c"] + [("T", (d,)) for d in range(3)]
    if p == "b":
        return ["a"]
    if p == "c":
        return [("S", 0)]
    if p[0] == "S":
        return [("S", p[1] + 1)]
    return [("T", p[1] + (d,)) for d in range(3)]


def cotrajectory_refs(start, horizon):
    """Sizes of E u f^-1 E u ... u f^-(n-1) E.  Every point of this map lies
    in its surjective core (strings and trees always do, and a, b, c have
    infinite backward chains), so the reduced and naive sizes agree; a tree
    is backward-reachable from a, so the limit is infinite."""
    seen, frontier, sizes = set(start), set(start), [len(start)]
    for _ in range(horizon - 1):
        frontier = {q for p in frontier for q in _preimages(p)}
        seen |= frontier
        sizes.append(len(seen))
    return {"reduced_sizes": sizes, "naive_sizes": sizes, "limit": "infinity"}


def shift_oracle_refs(point, horizon):
    """GF(2) ranks of the indicator vectors of f^-j(point), j < n."""
    index, basis, ranks = {}, {}, []
    level = [point]
    rank = 0
    for _ in range(horizon):
        vec = 0
        for p in level:
            vec ^= 1 << index.setdefault(p, len(index))
        while vec:
            top = vec.bit_length() - 1
            if top not in basis:
                basis[top] = vec
                rank += 1
                break
            vec ^= basis[top]
        ranks.append(rank)
        level = [q for p in level for q in _preimages(p)]
    return {"oracle_ranks": ranks, "oracle_sizes": [str(2 ** r) for r in ranks]}


def enum_refs():
    return {
        "growth": growth_refs(),
        "oracle": sumset_sizes([[0, 1], [1, 1]], [(0, 0), (1, 0), (0, 1)], 18),
        "cotrajectory": cotrajectory_refs(["a"], 12),
        "shift": shift_oracle_refs("a", 10),
    }


def main():
    out = {"lehmer-scan": lehmer_refs(), "espectrum-box": espectrum_refs(),
           "enum-sets": enum_refs()}
    path = HERE / "fixed.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
