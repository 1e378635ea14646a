"""Growth functions of finitely generated groups with cheap normal forms.

Supported families: free groups (reduced words packed into ints), the
discrete Heisenberg group (upper unitriangular 3x3 integer matrices, also
packed into ints), free abelian groups, and finite direct products of
these.  The first two carry a multiplication and a bulk ``step``, and their
balls come from exact breadth-first closure over normal forms; the search
never steps an element made by a generator g by a generator h with gh a
generator or the identity, since that product is already in the ball.
Word length adds across the factors of a product, so its spheres are the
convolution of its factors' sphere sizes, and Z^D is the D-fold product of
Z; neither builds an element, so they carry only their rank or factors.
Arbitrary finite presentations are rejected because the word problem would
make the counts unreliable.

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
    """Free group; elements are reduced words packed into ints.

    A word over the signed letters 1..rank is an int in base 2*rank + 1:
    letter i > 0 is digit i, letter -i is digit rank + i, and the last
    letter is the lowest digit, so the identity is 0 and every digit of a
    word is nonzero.  ``element`` and ``word`` convert at the edges.

    Custom generating sets are given as words (tuples of signed letters);
    the set is closed under inverses automatically.
    """

    MAX_RADIUS = math.inf         # words of any length fit an int

    def __init__(self, rank: int, generator_words=None):
        if rank < 1:
            raise InputError("rank must be positive")
        self.rank = rank
        self._base = 2 * rank + 1
        if generator_words is None:
            generator_words = [(i,) for i in range(1, rank + 1)]
        gens = {}
        for w in generator_words:
            g = self.element(w)
            if not g:
                raise InputError("the identity cannot be a generator")
            gens[g] = None
            gens[self.element([-x for x in reversed(w)])] = None
        self._gens = list(gens)
        # the (digit, inverse digit) pairs of each generator's letters, in order
        digit = {a: a if a > 0 else rank - a for a in range(-rank, rank + 1)}
        self._letters = [[(digit[a], digit[-a]) for a in self.word(g)]
                         for g in self._gens]

    def element(self, letters) -> int:
        """The packed reduced word of a sequence of signed letters."""
        x = 0
        for letter in letters:
            if not 1 <= abs(letter) <= self.rank:
                raise InputError(f"letter {letter} is not in the free group "
                                 f"of rank {self.rank}")
            x = self.multiply(x, letter if letter > 0 else self.rank - letter)
        return x

    def word(self, x: int) -> tuple:
        """The signed letters of a packed reduced word."""
        letters = []
        while x:
            x, d = divmod(x, self._base)
            letters.append(d if d <= self.rank else self.rank - d)
        return tuple(reversed(letters))

    def identity(self):
        return 0

    def generators(self):
        return list(self._gens)

    def multiply(self, a, b):
        # a and b are reduced, so letters cancel only where they meet: feed
        # b's letters to a first letter first, cancelling while a ends in
        # the inverse letter
        base, rank = self._base, self.rank
        top = 1                  # base ** len(b)
        while top <= b:
            top *= base
        while top > 1:
            top //= base
            d = b // top % base
            inverse = d + rank if d <= rank else d - rank
            a = a // base if a % base == inverse else a * base + d
        return a

    def step(self, xs, i):
        """[multiply(x, generators()[i]) for x in xs], one pass per letter."""
        base = self._base
        for d, inverse in self._letters[i]:
            xs = [x // base if x % base == inverse else x * base + d for x in xs]
        return xs

    def describe(self):
        return f"free of rank {self.rank} with {len(self._gens)} generators"


class Heisenberg3:
    """Upper unitriangular 3x3 integer matrices (x, y above the diagonal, z
    in the corner), packed into the int x * 2**40 + y * 2**20 + z of signed
    20-bit fields, so (x, y, z)(x', y', z') = (x + x', y + y', z + z' + x y')
    is a + b + x y'.  ``pack`` and ``unpack`` convert at the edges.  At word
    length r, |x|, |y| <= r and |z| <= r^2 / 4: up to MAX_RADIUS, all fit.
    """

    MAX_RADIUS = 1448             # floor(1448^2 / 4) < 2**19

    def pack(self, x: int, y: int, z: int) -> int:
        if max(abs(x), abs(y), abs(z)) >= 1 << 19:
            raise InputError(f"({x}, {y}, {z}) does not fit 20-bit fields")
        return (x << 40) + (y << 20) + z

    def unpack(self, e: int) -> tuple:
        z = (e + (1 << 19) & 0xFFFFF) - (1 << 19)
        y = ((e - z >> 20) + (1 << 19) & 0xFFFFF) - (1 << 19)
        return e - (y << 20) - z >> 40, y, z

    def identity(self):
        return 0

    def generators(self):
        return [1 << 40, -(1 << 40), 1 << 20, -(1 << 20)]

    def multiply(self, a, b):
        return a + b + self.unpack(a)[0] * self.unpack(b)[1]

    def step(self, xs, i):
        """[multiply(x, generators()[i]) for x in xs]: a y generator adds
        (0, ±1, ±x), with x read off by one shift."""
        if i < 2:
            g = self.generators()[i]
            return [e + g for e in xs]
        if i == 2:
            return [e + (1 << 20) + (e + (1 << 39) >> 40) for e in xs]
        return [e - (1 << 20) - (e + (1 << 39) >> 40) for e in xs]

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
    radius 1, so it is checked against the budget before it is built."""
    spec = spec.strip().lower()
    if spec.startswith("product:"):
        return DirectProduct([family_from_spec(part, budget)
                              for part in spec[len("product:"):].split(",")])
    name, *fields = spec.split(":")
    if name in ("abelian", "freeabelian", "zn") and len(fields) == 1:
        rank = int(fields[0])
        _check_generating_set(2 * rank, budget)
        return FreeAbelian(rank)
    if name == "free" and fields and fields[1:] in ([], ["standard+ab"]):
        rank = int(fields[0])
        extra = [(1, 2)] if fields[1:] else []
        if extra and rank < 2:
            raise InputError("standard+ab needs a free group of rank at least 2")
        _check_generating_set(2 * rank + 2 * len(extra), budget)
        return Free(rank, [(i,) for i in range(1, rank + 1)] + extra)
    if name in ("heisenberg", "heisenberg3") and not fields:
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
    for g in itertools.islice(itertools.accumulate(_spheres(family, budget)),
                              horizon + 1):
        if g > budget:
            raise BudgetExceeded(budget, "ball enumeration")
        gamma.append(g)
    return GrowthTable(tuple(gamma))


_SLICE = 4096                 # frontier elements stepped per bulk call


def _spheres(family, budget: int):
    """Sphere sizes s(0), s(1), ... of the word metric, one radius per step.

    A direct product carries the union of its factors' generating sets, so
    word length adds across factors and the product's spheres are the
    convolution of the factors' spheres; its ball is never built.  Z^D is
    the D-fold product of Z, whose spheres are 1, 2, 2, ...  Any other
    family is enumerated by breadth-first closure.  For each generator g_j,
    the frontier is stepped in bulk, slice by slice, and the products not
    yet in the ball join it and the next frontier (right multiplication by
    a generator is injective, so a slice repeats no element).  The next
    frontier thus comes in parts, one per generator, and the part made by
    g_i is not stepped by the g_j that ``_short_products`` marks.  A slice is
    never longer than the budget leaves room for, so at most budget + 1
    elements are made (a factor's ball is no larger than the product's at
    the same radius, so this raises only when the product's would too).
    """
    if isinstance(family, DirectProduct):
        yield from _convolve([_spheres(f, budget) for f in family.factors])
        return
    if isinstance(family, FreeAbelian):
        yield from _convolve([itertools.chain([1], itertools.repeat(2))
                              for _ in range(family.rank)])
        return
    step = family.step
    skip = _short_products(family)
    ball = {family.identity()}
    frontier = list(ball)
    # (skip row of the generator that made them, start, stop) per part of
    # the frontier; the identity was made by none
    parts = [([False] * len(skip), 0, 1)]
    for radius in itertools.count(1):
        yield len(frontier)
        if radius > family.MAX_RADIUS:      # the elements would not fit
            raise BudgetExceeded(budget, f"ball enumeration past radius "
                                         f"{family.MAX_RADIUS}")
        new_frontier, new_parts = [], []
        for j, row in enumerate(skip):
            first = len(new_frontier)
            for skipped, start, end in parts:
                if skipped[j]:
                    continue
                while start < end:
                    stop = min(end, start + min(_SLICE, budget - len(ball) + 1))
                    fresh = list(itertools.filterfalse(
                        ball.__contains__, step(frontier[start:stop], j)))
                    ball.update(fresh)
                    if len(ball) > budget:
                        raise BudgetExceeded(budget, "ball enumeration")
                    new_frontier += fresh
                    start = stop
            new_parts.append((row, first, len(new_frontier)))
        frontier, parts = new_frontier, new_parts


def _short_products(family):
    """skip[i][j]: whether g_i g_j is a generator or the identity.  An
    element x = y g_i new at radius r then gives x g_j = y (g_i g_j), of
    length at most r, so that product is already in the ball."""
    gens = family.generators()
    short = {family.identity(), *gens}
    return [[family.multiply(g, h) in short for h in gens] for g in gens]


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
