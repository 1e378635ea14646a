"""Growth functions of finitely generated groups with cheap normal forms.

Supported families: free abelian groups (integer vectors), free groups
(reduced words), the discrete Heisenberg group (upper unitriangular 3x3
integer matrices), and finite direct products of these.  Ball sizes come
from exact breadth-first closure over normal forms; arbitrary finite
presentations are rejected because the word problem would make the counts
unreliable.

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

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, InputError


class GroupFamily:
    """A group with a decidable normal form and a symmetric generating set."""

    def identity(self):
        raise NotImplementedError

    def generators(self):
        """Symmetric list (closed under inverse, identity excluded)."""
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class FreeAbelian(GroupFamily):
    def __init__(self, rank: int):
        if rank < 1:
            raise InputError("rank must be positive")
        self.rank = rank

    def identity(self):
        return (0,) * self.rank

    def generators(self):
        gens = []
        for i in range(self.rank):
            for sign in (1, -1):
                v = [0] * self.rank
                v[i] = sign
                gens.append(tuple(v))
        return gens

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def describe(self):
        return f"free abelian of rank {self.rank}"


class Free(GroupFamily):
    """Free group; elements are reduced words over signed letters 1..rank.

    Custom generating sets are given as words (tuples of signed letters);
    the set is closed under inverses automatically.
    """

    def __init__(self, rank: int, generator_words=None):
        if rank < 1:
            raise InputError("rank must be positive")
        self.rank = rank
        if generator_words is None:
            generator_words = [(i,) for i in range(1, rank + 1)]
        gens = []
        for w in generator_words:
            word = self._reduce(tuple(w))
            if not word:
                raise InputError("the identity cannot be a generator")
            inverse = tuple(-x for x in reversed(word))
            for g in (word, inverse):
                if g not in gens:
                    gens.append(g)
        self._gens = gens

    @staticmethod
    def _reduce(word):
        out = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def identity(self):
        return ()

    def generators(self):
        return list(self._gens)

    def multiply(self, a, b):
        # a and b are reduced, so letters cancel only where they meet
        i, n = 0, min(len(a), len(b))
        while i < n and a[-1 - i] == -b[i]:
            i += 1
        return a[:len(a) - i] + b[i:]

    def describe(self):
        return f"free of rank {self.rank} with {len(self._gens)} generators"


class Heisenberg3(GroupFamily):
    """Upper unitriangular 3x3 integer matrices, stored as (x, y, z)."""

    def identity(self):
        return (0, 0, 0)

    def generators(self):
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def multiply(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def describe(self):
        return "discrete Heisenberg group"


class DirectProduct(GroupFamily):
    def __init__(self, factors):
        if not factors:
            raise InputError("a product needs at least one factor")
        self.factors = list(factors)

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators():
                e = [fac.identity() for fac in self.factors]
                e[i] = g
                gens.append(tuple(e))
        return gens

    def multiply(self, a, b):
        return tuple(f.multiply(x, y) for f, x, y in zip(self.factors, a, b))

    def describe(self):
        return " x ".join(f.describe() for f in self.factors)


def family_from_spec(spec: str) -> GroupFamily:
    """Parse "abelian:2", "free:2", "free:2:standard+ab", "heisenberg",
    or "product:heisenberg,abelian:1"."""
    spec = spec.strip().lower()
    if spec.startswith("product:"):
        return DirectProduct([family_from_spec(part)
                              for part in spec[len("product:"):].split(",")])
    parts = spec.split(":")
    if parts[0] in ("abelian", "freeabelian", "zn"):
        return FreeAbelian(int(parts[1]))
    if parts[0] == "free":
        rank = int(parts[1])
        if len(parts) > 2 and parts[2] == "standard+ab":
            words = [(i,) for i in range(1, rank + 1)] + [(1, 2)]
            return Free(rank, words)
        return Free(rank)
    if parts[0] in ("heisenberg", "heisenberg3"):
        return Heisenberg3()
    raise InputError(f"unknown group family {spec!r}")


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthTable:
    gamma: tuple              # gamma(0..n): exact ball sizes
    rate_sequence: tuple      # log gamma(n) / n for n >= 1
    exponent_sequence: tuple  # log gamma(n) / log n for n >= 2

    @property
    def horizon(self) -> int:
        return len(self.gamma) - 1


def growth_table(family: GroupFamily, horizon: int,
                 budget: int = 5_000_000) -> GrowthTable:
    """Exact word-metric ball sizes by breadth-first closure."""
    if horizon < 1:
        raise InputError("horizon must be positive")
    gens = family.generators()
    ball = {family.identity()}
    frontier = list(ball)
    gamma = [1]
    for _ in range(horizon):
        new_frontier = []
        for x in frontier:
            for g in gens:
                y = family.multiply(x, g)
                if y not in ball:
                    ball.add(y)
                    if len(ball) > budget:
                        raise BudgetExceeded(budget, "ball enumeration")
                    new_frontier.append(y)
        frontier = new_frontier
        gamma.append(len(ball))
    rates = tuple(math.log(g) / n for n, g in enumerate(gamma) if n >= 1)
    exponents = tuple(math.log(g) / math.log(n)
                      for n, g in enumerate(gamma) if n >= 2)
    return GrowthTable(tuple(gamma), rates, exponents)


@dataclass(frozen=True)
class GrowthRate:
    estimate: float       # last one-step quotient log gamma(n) - log gamma(n-1)
    fekete_min: float     # min over n of log gamma(n) / n (upper bound for the rate)


def growth_rate(table: GrowthTable) -> GrowthRate:
    if table.horizon < 4:
        raise InputError("rate estimation needs a horizon of at least 4")
    n = table.horizon
    last = math.log(table.gamma[n]) - math.log(table.gamma[n - 1])
    return GrowthRate(last, min(table.rate_sequence))


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
