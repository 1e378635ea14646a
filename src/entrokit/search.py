"""Exhaustive search for small positive Mahler measures and entropy spectra.

The Lehmer search enumerates bounded-height integer polynomials, reduces by
the measure-preserving symmetries (global sign, t -> -t, reciprocal), and
keeps the k smallest certified-positive measures.  Zero measures are
recognized by the exact cyclotomic path and counted, never ranked; a
measure whose certified interval touches zero without an exact zero proof
is re-verified at higher precision and quarantined if still ambiguous, so a
false positive can never contaminate the leaderboard.

Enumeration order and the leaderboard merge are deterministic: the merge is
a sort keyed on (measure, coefficients), and each polynomial's measure is
computed identically regardless of worker schedule, so runs are
bit-identical across worker counts.

The entropy spectrum of a box of integer matrices is the Mahler measure of
each characteristic polynomial (algebraic Yuzvinski formula).  det(tI - A)
is linear in the last row, so the box is enumerated one row prefix at a
time: n+1 Berkowitz polynomials per prefix, and the polynomial of every
last row is an integer combination of them.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, product
from operator import add

from .errors import BudgetExceeded, InputError
from .linalg import int_char_poly
from .mahler import mahler_measure
from .polynomials import IntPolynomial
from .values import EntropyValue


@dataclass(frozen=True)
class SearchSpec:
    max_degree: int
    max_height: int = 1
    monic_only: bool = True
    top: int = 5
    budget: int = 5_000_000

    def __post_init__(self):
        if min(self.max_degree, self.max_height, self.top) < 1:
            raise InputError("degree, height and top bounds must be positive")
        space = (2 * self.max_height + 1) ** (self.max_degree + 1)
        if space > 400 * self.budget:
            raise BudgetExceeded(self.budget, "search space")


@dataclass(frozen=True)
class LeaderboardEntry:
    measure: float
    error: float
    coeffs: tuple
    value: EntropyValue


@dataclass(frozen=True)
class SearchResult:
    leaderboard: tuple
    zero_count: int
    scanned_count: int
    quarantined: tuple


def canonical_form(coeffs) -> tuple:
    """Public alias for the search's symmetry-class representative."""
    return _canonical(tuple(int(c) for c in coeffs))


def _canonical(coeffs: tuple) -> tuple:
    """Smallest positive-lead coefficient tuple over the measure-preserving
    symmetries: global sign, t -> -t, and (when defined) reciprocal.  Kept
    within positive leads so canonical forms stay inside the enumerated
    family."""
    variants = []
    base = list(coeffs)
    for flip_t in (False, True):
        v = [c * ((-1) ** i) if flip_t else c for i, c in enumerate(base)]
        for rev in (False, True):
            if rev:
                if v[0] == 0:
                    continue
                w = list(reversed(v))
            else:
                w = list(v)
            if w[-1] < 0:
                w = [-c for c in w]
            variants.append(tuple(w))
    return min(variants)


def _candidate_polys(spec: SearchSpec):
    """Canonical representatives, ascending coefficients.

    Only primitive polynomials are enumerated: an imprimitive tuple is its
    content times a primitive one of the same degree and no greater height,
    already in the family.  Zero constant terms are skipped (t**k factors
    do not move the measure) and so are negative leads (global sign is in
    the symmetry group).
    """
    h = spec.max_height
    for degree in range(1, spec.max_degree + 1):
        leads = [1] if spec.monic_only else list(range(1, h + 1))
        for lead in leads:
            for rest in product(range(-h, h + 1), repeat=degree):
                if rest[0] == 0:
                    continue
                coeffs = rest + (lead,)
                if math.gcd(*coeffs) != 1:
                    continue
                if _canonical(coeffs) == coeffs:
                    yield coeffs


def _measure_one(coeffs: tuple):
    """(kind, payload) for one canonical polynomial; pure and deterministic."""
    poly = IntPolynomial(coeffs)
    value = mahler_measure(poly, tol=1e-12)
    if value.is_zero():
        return ("zero", coeffs)
    lo, hi = value.interval()
    if lo <= 1e-12:
        # suspiciously small but not exactly zero: re-verify tighter
        value = mahler_measure(poly, tol=1e-20)
        lo, hi = value.interval()
        if lo <= 0:
            return ("quarantine", coeffs)
    return ("positive", (value.as_float(),
                         value.error if value.kind == "approx" else 0.0,
                         coeffs, value))


def lehmer_search(spec: SearchSpec, workers: int = 1) -> SearchResult:
    """Scan the bounded family and rank the smallest positive measures.

    The worker count only splits the candidate list into chunks; the final
    leaderboard is a deterministic sort, identical for any worker count.
    The pool is capped at the CPU count and at the number of chunks, since
    the executor starts every worker it is asked for at once.
    """
    # one candidate past the budget is enough to know it is blown
    candidates = list(islice(_candidate_polys(spec), spec.budget + 1))
    if len(candidates) > spec.budget:
        raise BudgetExceeded(spec.budget, "candidate enumeration")
    workers = max(1, min(workers, os.cpu_count() or 1))
    chunk_size = max(64, len(candidates) // (8 * workers) + 1)
    workers = min(workers, -(-len(candidates) // chunk_size))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_measure_one, candidates, chunksize=chunk_size))
    else:
        outcomes = [_measure_one(c) for c in candidates]

    zero_count = 0
    quarantined = []
    positives = []
    for kind, payload in outcomes:
        if kind == "zero":
            zero_count += 1
        elif kind == "quarantine":
            quarantined.append(payload)
        else:
            positives.append(payload)
    positives.sort(key=lambda p: (p[0], p[2]))
    board = tuple(LeaderboardEntry(*p) for p in positives[:spec.top])
    return SearchResult(board, zero_count, len(candidates), tuple(sorted(quarantined)))


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumReport:
    dimension: int
    entry_bound: int
    values: tuple            # sorted (float, kind) pairs with multiplicity
    minimal_positive: EntropyValue | None
    scanned: int


def espectrum_sample(dimension: int, entry_bound: int,
                     budget: int = 2_000_000, tol: float = 1e-12) -> SpectrumReport:
    """Algebraic entropies of every integer matrix in the box, as a sorted
    multiset; the smallest positive value is highlighted.  Each measure is
    certified at ``tol``.

    Row n-1 of tI - A is t e_(n-1) - a, and a determinant is linear in each
    row, so chi_A = chi_0 + sum_j a_j (chi_(e_j) - chi_0), where chi_0 and
    chi_(e_j) are int_char_poly of the first n-1 rows with last row 0 and
    e_j: n+1 Berkowitz calls per row prefix, and every last row is a vector
    sum.  Matrices are visited in row-major order and their polynomials
    counted in first-seen order; each distinct polynomial is measured once,
    and the stable sort keeps the first matrix's value among equal floats."""
    if dimension < 1 or dimension > 3:
        raise InputError("spectrum sampling is desk-scale: dimension 1..3")
    if entry_bound < 0:
        raise InputError("entry bound must be non-negative")
    n = dimension
    entries = range(-entry_bound, entry_bound + 1)
    if len(entries) ** (n * n) > budget:
        raise BudgetExceeded(budget, "matrix box enumeration")
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    counts = Counter()
    for prefix in product(product(entries, repeat=n), repeat=n - 1):
        base = int_char_poly([*prefix, (0,) * n])
        polys = [base]
        for unit in units:
            step = [c - b for c, b in zip(int_char_poly([*prefix, unit]), base)]
            shifts = [[a * d for d in step] for a in entries]
            polys = [tuple(map(add, p, s)) for p in polys for s in shifts]
        counts.update(polys)
    measured = sorted(((mahler_measure(IntPolynomial(key), tol), count)
                       for key, count in counts.items()),
                      key=lambda vc: (vc[0].as_float(), str(vc[0].kind)))
    minimal = next((v for v, _ in measured if not v.is_zero()), None)
    values = tuple(pair for v, count in measured
                   for pair in [(v.as_float(), v.kind)] * count)
    return SpectrumReport(dimension, entry_bound, values, minimal,
                          sum(counts.values()))
