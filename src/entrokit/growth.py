"""Growth functions of finitely generated groups whose spheres can be counted.

Supported families: free groups (on the standard letters, with x_1 x_2
optionally added), the discrete Heisenberg group, free abelian groups, and
finite direct products of these.  No ball is built.  A free group's
spheres come from a transfer count over the last letter of the reduced
word, which is Cannon's cone-type matrix for these generating sets.  The
Heisenberg ball is an exact closure over z-fibres: one bitmask of corner
entries per (x, y).  Word length adds across the factors of a product, so
its spheres are the convolution of its factors' sphere sizes; those of
Z^D have a closed form.  Arbitrary finite presentations are rejected
because the word problem would make the counts unreliable.

The ball sequence gamma(n) is submultiplicative, so log gamma(n)/n
converges (Fekete); the headline rate estimate is the last one-step
quotient log gamma(n) - log gamma(n-1), which sheds the constant-prefactor
bias, with the Fekete minimum reported alongside.  The polynomial-growth
exponent is estimated by the log-log slope between n/2 and n, and flagged
infinite when successive window slopes keep climbing.  The Bass-Guivarch
evaluator turns lower-central torsion-free ranks into the exact polynomial
degree, weighting rank r_0(G_m / G_(m+1)) by its depth m.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, BudgetExceeded, InputError


class FreeAbelian:
    def __init__(self, rank: int):
        if rank < 1:
            raise InputError("rank must be positive")
        self.rank = rank

    def describe(self):
        return f"free abelian of rank {self.rank}"


class Free:
    """Free group on the letters x_1 .. x_rank, generated by those letters
    and their inverses, with x_1 x_2 and its inverse added when ``ab``;
    ``_free_spheres`` counts its balls."""

    def __init__(self, rank: int, ab: bool = False):
        if ab and rank < 2:
            raise InputError("standard+ab needs a free group of rank at least 2")
        if rank < 1:
            raise InputError("rank must be positive")
        self.rank = rank
        self.ab = ab

    def describe(self):
        return f"free of rank {self.rank} with {2 * self.rank + 2 * self.ab} generators"


class Heisenberg3:
    """Upper unitriangular 3x3 integer matrices (x, y above the diagonal, z
    in the corner); ``_heisenberg_spheres`` counts its balls."""

    def describe(self):
        return "discrete Heisenberg group"


class DirectProduct:
    def __init__(self, factors):
        if not factors:
            raise InputError("a product needs at least one factor")
        self.factors = list(factors)

    def describe(self):
        return " x ".join(f.describe() for f in self.factors)


def family_from_spec(spec: str, budget=None):
    """Parse "abelian:2", "free:2", "free:2:standard+ab", "heisenberg",
    or "product:heisenberg,abelian:1".  The generating set is the sphere of
    radius 1, so its size is checked against the budget."""
    spec = spec.strip().lower()
    if spec.startswith("product:"):
        return DirectProduct([family_from_spec(part, budget)
                              for part in spec[len("product:"):].split(",")])
    name, *fields = spec.split(":")
    if name == "abelian" and len(fields) == 1:
        rank = int(fields[0])
        _check_generating_set(2 * rank, budget)
        return FreeAbelian(rank)
    if name == "free" and fields and fields[1:] in ([], ["standard+ab"]):
        family = Free(int(fields[0]), ab=bool(fields[1:]))
        _check_generating_set(2 * family.rank + 2 * family.ab, budget)
        return family
    if name == "heisenberg" and not fields:
        _check_generating_set(4, budget)
        return Heisenberg3()
    raise InputError(f"unknown group family {spec!r}")


def _check_generating_set(size: int, budget) -> None:
    # the ball of radius 1 is the identity and the generating set
    if budget is not None and size + 1 > budget:
        raise BudgetExceeded(budget, "ball enumeration")


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthTable:
    gamma: tuple              # gamma(0..n): exact ball sizes

    @property
    def horizon(self) -> int:
        return len(self.gamma) - 1


def growth_table(family, horizon: int,
                 budget: int = DEFAULT_BUDGET) -> GrowthTable:
    """Exact word-metric ball sizes; raises BudgetExceeded when
    gamma(horizon) > budget."""
    if horizon < 1:
        raise InputError("horizon must be positive")
    gamma = []
    for g in itertools.islice(itertools.accumulate(_spheres(family)),
                              horizon + 1):
        if g > budget:
            raise BudgetExceeded(budget, "ball enumeration")
        gamma.append(g)
    return GrowthTable(tuple(gamma))


def _spheres(family):
    """Sphere sizes s(0), s(1), ... of the word metric, one radius per step;
    no ball is built.

    A direct product carries the union of its factors' generating sets, so
    word length adds across factors and the product's spheres are the
    convolution of the factors' spheres.  A point of Z^D at l1-distance
    r >= 1 has some k <= min(D, r) nonzero coordinates: C(D, k) supports,
    2^k signs and C(r - 1, k - 1) ways to write r as k positive sizes, so
    s(r) is the sum of 2^k C(D, k) C(r - 1, k - 1).  The Heisenberg ball
    is closed over z-fibres (``_heisenberg_spheres``) and a free group's
    spheres come from a transfer count over the last letter
    (``_free_spheres``).  Each radius costs far less than its sphere holds,
    so growth_table stops at the first radius past the budget having made
    no element.
    """
    if isinstance(family, DirectProduct):
        yield from _convolve([_spheres(f) for f in family.factors])
    elif isinstance(family, FreeAbelian):
        d, coeffs = family.rank, []      # 2^k C(D, k) for k = 1 .. min(D, r)
        yield 1
        for r in itertools.count(1):
            if r <= d:
                coeffs.append(2 ** r * math.comb(d, r))
            yield sum(c * math.comb(r - 1, k) for k, c in enumerate(coeffs))
    elif isinstance(family, Heisenberg3):
        yield from _heisenberg_spheres()
    else:
        yield from _free_spheres(family)


def _free_spheres(family):
    """Free-group sphere sizes by a transfer count over the last letter.

    S is the letters x_i^(+-1), with g = x_1 x_2 and g^-1 = X_2 X_1 too when
    ``family.ab`` (X_i is the inverse of x_i).  Two adjacent generators
    whose letters cancel where they meet multiply to the identity or to one
    letter (x_1 x_2 . X_2 = x_1, X_1 . x_1 x_2 = x_2, X_2 X_1 . x_1 = X_2,
    x_2 . X_2 X_1 = X_1), so a geodesic S-word cancels at no junction, and
    since each generator is reduced and cancellation can start only at a
    junction, its letters spell the reduced word w.  A geodesic thus cuts w
    into letters and occurrences of x_1 x_2 and X_2 X_1.  These never
    overlap, as their second letters x_2, X_1 are never first letters, so
    |w|_S = |w| - #(x_1 x_2 in w) - #(X_2 X_1 in w).

    ends[a] counts the reduced words of S-length r that end in letter a
    (x_i is 2i - 2 and X_i is 2i - 1, so a ^ 1 is the inverse of a).
    Appending b != a^-1 adds 1 to the S-length, except that the pairs
    (x_1, x_2) and (X_2, X_1) make an occurrence and add 0, so the words of
    length r + 1 are those of length r extended by a letter outside these
    pairs, then closed under the pairs within the level; as x_1 and X_2
    end no pair, one pass closes it.
    """
    pairs = [(0, 2), (3, 1)] if family.ab else []
    yield 1
    ends = [1] * (2 * family.rank)        # the one-letter words
    while True:
        for a, b in pairs:
            ends[b] += ends[a]
        size = sum(ends)
        yield size
        grown = [size - ends[b ^ 1] for b in range(len(ends))]
        for a, b in pairs:
            grown[b] -= ends[a]
        ends = grown


def _heisenberg_spheres():
    """Heisenberg sphere sizes by closure over z-fibres: B_r is a dict
    (x, y) -> int with bit z + off set when (x, y, z) lies in B_r.  Right
    multiplication by a^(+-1) moves (x, y, z) to (x +- 1, y, z) and by
    b^(+-1) to (x, y +- 1, z +- x), so B_(r+1) = B_r | B_r S ORs each fibre
    into (x +- 1, y) and, shifted by +-x bits, into (x, y +- 1).  A word of
    length r with k letters b^(+-1) has |z| <= k (r - k) <= floor(r^2 / 4),
    as each adds at most r - k to |z|, so no bit falls below 0 while off >=
    floor(r^2 / 4); off is doubled, shifting every fibre once, when the next
    radius needs more."""
    fibres, off, ball = {(0, 0): 1}, 0, 1
    yield 1
    for radius in itertools.count(1):
        if radius * radius // 4 > off:
            shift = max(radius * radius // 4 - off, off)
            off += shift
            fibres = {key: f << shift for key, f in fibres.items()}
        grown = defaultdict(int, fibres)
        for (x, y), f in fibres.items():
            grown[x + 1, y] |= f
            grown[x - 1, y] |= f
            grown[x, y + 1] |= f << x if x >= 0 else f >> -x
            grown[x, y - 1] |= f >> x if x >= 0 else f << -x
        fibres = grown
        size = sum(f.bit_count() for f in fibres.values())
        yield size - ball
        ball = size


def _convolve(seqs):
    """The convolution of the sequences, one term per step.  Level k keeps
    the terms of sequence k and of the convolution of sequences 0..k; a
    lone sequence passes through unstored."""
    if len(seqs) == 1:
        yield from seqs[0]
        return
    terms = [[] for _ in seqs]
    folds = [[] for _ in seqs]
    for step in zip(*seqs):
        for k, t in enumerate(step):
            terms[k].append(t)
            if k:
                t = sum(u * v for u, v in zip(folds[k - 1], reversed(terms[k])))
            folds[k].append(t)
        yield t


@dataclass(frozen=True)
class GrowthRate:
    estimate: float       # last one-step quotient log gamma(n) - log gamma(n-1)
    fekete_min: float     # min over n of log gamma(n) / n (upper bound for the rate)


def growth_rate(table: GrowthTable) -> GrowthRate:
    if table.horizon < 4:
        raise InputError("rate estimation needs a horizon of at least 4")
    n = table.horizon
    last = math.log(table.gamma[n]) - math.log(table.gamma[n - 1])
    fekete = min(math.log(g) / k for k, g in enumerate(table.gamma) if k)
    return GrowthRate(last, fekete)


def growth_exponent(table: GrowthTable):
    """Polynomial-degree estimate, or math.inf when the log-log slopes
    climb superlinearly (exponential growth)."""
    if table.horizon < 8:
        raise InputError("exponent estimation needs a horizon of at least 8")
    n = table.horizon

    def window_slope(lo, hi):
        return (math.log(table.gamma[hi]) - math.log(table.gamma[lo])) \
            / (math.log(hi) - math.log(lo))

    recent = window_slope(n // 2, n)
    earlier = window_slope(max(2, n // 4), n // 2)
    if recent > 1.3 * earlier and recent > 5.0:
        return math.inf
    return recent


def bass_guivarch(ranks) -> int:
    """Polynomial growth degree of a nilpotent group: the sum over
    lower-central depths m of m * r_0(G_m / G_(m+1))."""
    ranks = [int(r) for r in ranks]
    if not ranks:
        raise InputError("the rank list must be non-empty")
    if any(r < 0 for r in ranks):
        raise InputError("torsion-free ranks are non-negative")
    return sum(m * r for m, r in enumerate(ranks, start=1))
