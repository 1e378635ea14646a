"""Exhaustive search for small positive Mahler measures and entropy spectra.

The Lehmer search enumerates bounded-height integer polynomials, reduces by
the measure-preserving symmetries (global sign, t -> -t, reciprocal), and
keeps the k smallest certified-positive measures.  Zero measures are
recognized by the exact cyclotomic path and counted, never ranked; a
measure whose certified interval touches zero without an exact zero proof
is re-verified at higher precision and quarantined if still ambiguous, so a
false positive can never contaminate the leaderboard.

Most classes are proven off the board without root finding.  Graeffe's
root squaring g(t^2) = (-1)^n f(t) f(-t) squares every root and the lead,
so M(g) = M(f)^2 with g in Z[t] of the same degree n, and Mahler's
inequality |a_j| <= C(n, j) M(f) (Mathematika 7, 1960) applied after k
squarings gives the integer-only lower bound

    log M(f) >= 2^-k max_j (log|a_j^(k)| - log C(n, j)),

whose slack halves with every squaring.  The scan bounds every class at
k = 4, then measures classes in increasing bound order, deepening each to
k = 8 before it is measured.  Once the board holds ``top`` entries it stops
at the first class whose bound exceeds the top-th entry's upper end
(measure + error) plus 1e-9, more than 100 times the largest certified
error of a scan measure.  That is sound:

* a skipped class's float would lie strictly above the top-th entry's, so
  it could not enter the board, ties included;
* an exact zero has every |a_j^(k)| <= C(n, j), so its bound is <= 0 and
  it is always measured and counted;
* a class that could be quarantined has a bound no larger than its tiny
  measure, so it is always measured too.

Each bound is rounded down past the error of its two logs, so rounding can
only keep a class, never drop it.

Enumeration order and the leaderboard merge are deterministic: the merge is
a sort keyed on (measure, coefficients), each polynomial's bound and
measure are computed identically regardless of worker schedule, and the
measuring runs in the calling process, so runs are bit-identical across
worker counts.

The entropy spectrum of a box of integer matrices is the Mahler measure of
each characteristic polynomial (algebraic Yuzvinski formula).  det(tI - A)
is affine in every row, so (n+1)^n Berkowitz polynomials, one per matrix
whose rows are 0 or unit vectors, fix it on the whole box; the rows are
then folded in one at a time, and every polynomial is an integer
combination of table entries.  Each polynomial is one int, its
coefficients packed as signed digits wide enough for any characteristic
polynomial of the box, so the fold and the count of distinct polynomials
run on ints.
"""
from __future__ import annotations

import heapq
import math
import os
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, cycle, islice, product, repeat
from operator import add, mul, neg, sub

from .errors import DEFAULT_BUDGET, BudgetExceeded, InputError
from .linalg import int_char_poly
from .mahler import mahler_measure, sum_logs
from .polynomials import IntPolynomial
from .values import EntropyValue


@dataclass(frozen=True)
class SearchSpec:
    max_degree: int
    max_height: int = 1
    monic_only: bool = True
    top: int = 5
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if min(self.max_degree, self.max_height, self.top) < 1:
            raise InputError("degree, height and top bounds must be positive")
        # base ** (d + 1) >= 2 ** ((d + 1) (bit_length - 1)), so an exponent
        # at the cap's bit length proves the space too large without the
        # power; below it the power has at most twice the cap's bits
        base, cap = 2 * self.max_height + 1, 400 * self.budget
        if (self.max_degree + 1) * (base.bit_length() - 1) >= cap.bit_length() \
                or base ** (self.max_degree + 1) > cap:
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
    """The search's symmetry-class representative: the smallest
    positive-lead coefficient tuple over the measure-preserving symmetries,
    global sign, t -> -t and (when defined) reciprocal.  Trailing zeros are
    trimmed first; the zero polynomial raises InputError.

    Kept as library API: board entries are compared through it, by the
    acceptance tests and by users matching a polynomial to its entry."""
    coeffs = [int(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise InputError("the zero polynomial has no canonical form")
    c = tuple(coeffs) if coeffs[-1] > 0 else tuple(map(neg, coeffs))
    return min(c, *_variants(c))


def _variants(coeffs: tuple):
    """The images of a positive-lead tuple under reversal (when its constant
    term is nonzero, so the degree is kept), t -> -t and both, each scaled
    to a positive lead, in that order; built lazily, so a caller can stop at
    the first one it needs."""
    if coeffs[0]:
        w = coeffs[::-1]
        yield w if w[-1] > 0 else tuple(map(neg, w))
    flipped = tuple(map(mul, coeffs, cycle((1, -1))))
    yield flipped if flipped[-1] > 0 else tuple(map(neg, flipped))
    if coeffs[0]:
        w = flipped[::-1]
        yield w if w[-1] > 0 else tuple(map(neg, w))


def _is_canonical(coeffs: tuple) -> bool:
    """canonical_form(coeffs) == coeffs for a nonempty tuple: a positive
    lead and no variant smaller, stopping at the first smaller one."""
    if coeffs[-1] <= 0:
        return False
    for v in _variants(coeffs):
        if v < coeffs:
            return False
    return True


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
                if _is_canonical(coeffs):
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


_CHEAP_SQUARINGS, _DEEP_SQUARINGS = 4, 8
_MARGIN = 1e-9     # above 100 x the largest certified error of a scan measure


def _square(c: list) -> list:
    """Coefficients of p(t)**2 for p given by its (nonempty) coefficients."""
    out = [0] * (2 * len(c) - 1)
    for i, a in enumerate(c):
        if a:
            k = 2 * i
            out[k] += a * a
            a2 = 2 * a
            for b in c[i + 1:]:
                k += 1
                out[k] += a2 * b
    return out


def _graeffe(coeffs: list) -> list:
    """g with g(t^2) = (-1)^n f(t) f(-t): the roots of f squared, same degree.

    With f(t) = E(t^2) + t O(t^2), f(t) f(-t) = E(t^2)^2 - t^2 O(t^2)^2."""
    # E^2 - t O^2, both padded to the n + 1 entries of g, negated for odd n
    even, odd = _square(coeffs[0::2]), _square(coeffs[1::2])
    odd.insert(0, 0)
    if len(coeffs) % 2:
        odd.append(0)
        return list(map(sub, even, odd))
    even.append(0)
    return list(map(sub, odd, even))


@lru_cache(maxsize=None)
def _log_binomials(n: int) -> tuple:
    return tuple(math.log(math.comb(n, j)) for j in range(n + 1))


def _graeffe_bound(coeffs: tuple, squarings: int) -> float:
    """A float no larger than 2^-k max_j (log|a_j^(k)| - log C(n, j)), the
    lower bound on log M(f) after k squarings; rounded down past the error
    of its two logs, so it never exceeds the true log M(f)."""
    c = list(coeffs)
    for _ in range(squarings):
        c = _graeffe(c)
    logs = _log_binomials(len(c) - 1)
    # the argmax, the largest j among ties; the lead is nonzero
    best = -math.inf
    for j, a in enumerate(c):
        if a:
            log_a = math.log(abs(a))
            x = log_a - logs[j]
            if x >= best:
                best, top, log_top = x, j, log_a
    value, error = sum_logs([(1, log_top), (-1, logs[top])])
    return math.nextafter(math.ldexp(value - error, -squarings), -math.inf)


def _bound_one(coeffs: tuple):
    """The scan's heap entry (bound, coeffs, deepened) for one class.
    Coefficient tuples are distinct, so the flag is never compared."""
    return _graeffe_bound(coeffs, _CHEAP_SQUARINGS), coeffs, False


def lehmer_search(spec: SearchSpec, workers: int = 1) -> SearchResult:
    """Scan the bounded family and rank the smallest positive measures.

    Every class gets a cheap Graeffe bound; classes are then measured in
    increasing bound order until the next bound lies above the board (see
    the module docstring).  The worker count only splits the bound pass
    into chunks; the measuring runs here, and the final leaderboard is a
    deterministic sort, identical for any worker count.  The pool is capped
    at the CPU count and at the number of chunks, since the executor starts
    every worker it is asked for at once; a single worker loads no pool.
    """
    # one candidate past the budget is enough to know it is blown
    candidates = list(islice(_candidate_polys(spec), spec.budget + 1))
    if len(candidates) > spec.budget:
        raise BudgetExceeded(spec.budget, "candidate enumeration")
    workers = max(1, min(workers, os.cpu_count() or 1))
    chunk_size = max(64, len(candidates) // (8 * workers) + 1)
    workers = min(workers, -(-len(candidates) // chunk_size))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            heap = list(pool.map(_bound_one, candidates, chunksize=chunk_size))
    else:
        heap = [_bound_one(c) for c in candidates]
    heapq.heapify(heap)
    zero_count = 0
    quarantined = []
    board = []          # the best `top` positives so far, in rank order
    while heap:
        bound, coeffs, deepened = heapq.heappop(heap)
        if len(board) == spec.top and bound > board[-1][0] + board[-1][1] + _MARGIN:
            break
        if not deepened:
            deep = max(bound, _graeffe_bound(coeffs, _DEEP_SQUARINGS))
            heapq.heappush(heap, (deep, coeffs, True))
            continue
        kind, payload = _measure_one(coeffs)
        if kind == "zero":
            zero_count += 1
        elif kind == "quarantine":
            quarantined.append(payload)
        else:
            insort(board, payload, key=lambda p: (p[0], p[2]))
            del board[spec.top:]
    return SearchResult(tuple(LeaderboardEntry(*p) for p in board), zero_count,
                        len(candidates), tuple(sorted(quarantined)))


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumReport:
    dimension: int
    entry_bound: int
    values: tuple            # sorted (float, kind) pairs with multiplicity
    minimal_positive: EntropyValue | None
    scanned: int


def espectrum_sample(dimension: int, entry_bound: int,
                     budget: int = DEFAULT_BUDGET, tol: float = 1e-12) -> SpectrumReport:
    """Algebraic entropies of every integer matrix in the box, as a sorted
    multiset; the smallest positive value is highlighted.  Each measure is
    certified at ``tol``.

    Row i of tI - A is t e_i - a_i and a determinant is linear in each row,
    so chi_A is affine in each row: a table of (n+1)^n int_char_poly calls,
    one per choice of rows in {0, e_1, ..., e_n}, fixes it on the whole box,
    flat and row-major.  Setting the first free row to a folds a table of
    n+1 blocks T_0 .. T_n into T_0 + sum_j a_j (T_j - T_0), depth-first,
    until the blocks are single polynomials.  Matrices are visited in
    row-major order and their polynomials counted in first-seen order; each
    distinct polynomial is measured once, and the stable sort keeps the
    first matrix's value among equal floats.

    Each polynomial is held as one int, its coefficients packed as signed
    base-2^w digits (``_pack``), so the fold is int arithmetic and the count
    hashes ints.  Packing is linear over Z and the fold only adds and
    scales, so every table entry is the packing of its coefficients, however
    large they are; only the leaves, the box polynomials, are counted and
    unpacked, so only their digits must lie in [-2^(w-1), 2^(w-1)), where
    packing is one-to-one and ``_unpack`` undoes it.  The coefficient of
    t^(n-k) of chi_A is (-1)^k times the sum of the C(n, k) principal k x k
    minors, each a sum of k! products of k entries, so its size is at most
    C(n, k) k! b^k <= n! max(b, 1)^n; w is that bound's bit length plus a
    sign bit and a guard bit."""
    if dimension < 1 or dimension > 3:
        raise InputError("spectrum sampling is desk-scale: dimension 1..3")
    if entry_bound < 0:
        raise InputError("entry bound must be non-negative")
    n = dimension
    if (2 * entry_bound + 1) ** (n * n) > budget:
        raise BudgetExceeded(budget, "matrix box enumeration")
    width = _digit_width(n, entry_bound)
    entries = range(-entry_bound, entry_bound + 1)
    rows = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]
    stack = [[_pack(int_char_poly(choice), width)
              for choice in product(rows, repeat=n)]]
    counts = Counter()
    while stack:
        table = stack.pop()
        size = len(table) // (n + 1)
        if size == 1:       # the blocks are polynomials: fold the last row
            base, out = table[0], table[:1]
            for step in table[1:]:
                shifts = [a * (step - base) for a in entries]
                out = [p + s for p in out for s in shifts]
            counts.update(out)
        else:
            base = table[:size]
            out = [base]
            for j in range(size, len(table), size):
                step = list(map(sub, table[j:j + size], base))
                shifts = [[a * d for d in step] for a in entries]
                out = [list(map(add, p, s)) for p in out for s in shifts]
            stack.extend(reversed(out))
    measured = sorted(((mahler_measure(IntPolynomial(_unpack(key, n + 1, width)), tol),
                        count) for key, count in counts.items()),
                      key=lambda vc: (vc[0].as_float(), str(vc[0].kind)))
    minimal = next((v for v, _ in measured if not v.is_zero()), None)
    values = tuple(chain.from_iterable(repeat((v.as_float(), v.kind), count)
                                       for v, count in measured))
    return SpectrumReport(dimension, entry_bound, values, minimal,
                          sum(counts.values()))


def _digit_width(n: int, bound: int) -> int:
    """Bits per coefficient that hold every characteristic polynomial of an
    n x n matrix with entries in [-bound, bound], sign and guard included."""
    return (math.factorial(n) * max(bound, 1) ** n).bit_length() + 2


def _pack(coeffs, width: int) -> int:
    """sum_i coeffs[i] 2^(width i): the coefficients as signed digits."""
    out = 0
    for c in reversed(coeffs):
        out = (out << width) + c
    return out


def _unpack(packed: int, length: int, width: int) -> tuple:
    """The ``length`` signed digits of ``packed``, each in
    [-2^(width-1), 2^(width-1)), lowest first: the inverse of _pack."""
    half, mask, out = 1 << (width - 1), (1 << width) - 1, []
    for _ in range(length):
        digit = ((packed + half) & mask) - half
        out.append(digit)
        packed = (packed - digit) >> width
    return tuple(out)
