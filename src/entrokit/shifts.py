"""Entropies of generalized shifts.

A self-map f of a countable set X and a finite group K of order q induce
the shift g -> g o f, on the full product K^X (a compact group) and on the
direct sum K^(X) (a discrete group, invariant because f is finitely
many-to-one).  The closed forms multiply the set-theoretic entropies of f
by log q: the topological entropy of the product shift is the covariant
entropy times log q, the algebraic entropy of the direct-sum shift is the
contravariant entropy times log q.

Two exact brute-force oracles accompany the closed forms.  Over K = Z/p the
direct-sum trajectory subgroups are spans of indicator vectors of iterated
preimages, a laminar family of sets, so their cardinalities are p**rank with
the rank counted by one backward sweep from F, no elimination needed.  For
the adjoint side, the coordinate subgroup N_F (all functions vanishing on F)
pulls back along the shift to N over the forward trajectory of F, so the
index sequence is q**|T_n(f, F)| and the adjoint entropy with respect to N_F
is the local covariant entropy times log q.  That entropy counts the rays the
forward orbits of F reach, so the adjoint value is read off the presentation
and never holds a trajectory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .errors import DEFAULT_BUDGET, BudgetExceeded, InputError
from .polynomials import is_prime
from .set_maps import (
    SymbolicSelfMap,
    _backward_levels,
    covariant_entropy,
    covariant_local_entropy,
    contravariant_entropy,
)
from .values import EntropyValue

VARIANTS = ("product", "direct_sum")


@dataclass(frozen=True)
class GeneralizedShiftSpec:
    map: SymbolicSelfMap
    group_order: int
    variant: str

    def __post_init__(self):
        if not isinstance(self.group_order, int):
            raise InputError("the group order must be an integer")
        if self.group_order < 2:
            raise InputError("the group must be non-trivial")
        if self.variant not in VARIANTS:
            raise InputError(f"variant must be one of {VARIANTS}")


def _as_value(count, order: int) -> EntropyValue:
    if count == math.inf:
        return EntropyValue.infinity()
    return EntropyValue.log_of(order, count)


def shift_topological_entropy(spec: GeneralizedShiftSpec) -> EntropyValue:
    """h_top of the product shift: covariant entropy of the base map times log q."""
    if spec.variant != "product":
        raise InputError("the topological value lives on the product variant")
    return _as_value(covariant_entropy(spec.map), spec.group_order)


def shift_algebraic_entropy(spec: GeneralizedShiftSpec) -> EntropyValue:
    """h_alg of the direct-sum shift: contravariant entropy times log q."""
    if spec.variant != "direct_sum":
        raise InputError("the algebraic value lives on the direct-sum variant")
    return _as_value(contravariant_entropy(spec.map), spec.group_order)


# ----------------------------------------------------------------------
# exact trajectory oracle for the direct-sum shift over Z/p

@dataclass(frozen=True)
class ShiftOracleReport:
    sizes: tuple        # |T_n(shift, G_F)| as exact integers (powers of p)
    ranks: tuple        # dimensions over Z/p


def shift_bruteforce_oracle(spec: GeneralizedShiftSpec, points, horizon: int,
                            budget: int = DEFAULT_BUDGET) -> ShiftOracleReport:
    """Exact sizes of G_F + s(G_F) + ... + s^(n-1)(G_F) over K = Z/p.

    s^j(G_F) is spanned by the indicator vectors of the iterated preimages
    f^-j(a), a in F, and the n-th trajectory subgroup is their span over
    GF(p), of cardinality p**rank.  Because f^j is a function these sets form
    a laminar family, so the span is that of their private parts (the points
    in no smaller member), which are disjoint: the rank counts the pairs
    (a, j < n) with a nonempty private part.  The private part of f^-j(a) is
    the j-th backward level of a from F (``set_maps._backward_levels``), so
    each step adds one rank per source whose level is nonempty.  The levels
    are held as core points and ranges of tail positions, and the budget
    bounds those pieces plus the decimal digits of the sizes,
    r * len(str(p)) at most for p**r.
    """
    if spec.variant != "direct_sum":
        raise InputError("the subgroup oracle runs on the direct-sum variant")
    p = spec.group_order
    if not is_prime(p):
        raise InputError("the oracle needs a prime group order")
    if horizon < 1:
        raise InputError("horizon must be positive")
    m = spec.map
    base = [m.resolve(x) for x in points]
    if not base:
        raise InputError("F must be non-empty")

    width = len(str(p))
    rank, digits, ranks = 0, 0, []
    for levels in islice(_backward_levels(m, base), horizon):
        rank += len(levels)
        digits += rank * width
        ranks.append(rank)
        if sum(len(nodes) + len(ranges) for nodes, ranges in levels) + digits > budget:
            raise BudgetExceeded(budget, "oracle enumeration")
    return ShiftOracleReport(tuple(p ** r for r in ranks), tuple(ranks))


def adjoint_entropy_of_shift(spec: GeneralizedShiftSpec, points) -> EntropyValue:
    """Adjoint entropy of the direct-sum shift with respect to the coordinate
    subgroup N_F of functions vanishing on F.

    The shift pulls N_F back to the coordinate subgroup over the forward
    image of F, so the n-th cotrajectory is the coordinate subgroup over
    T_n(f, F) with index q**|T_n|, and the limit is the local covariant
    entropy of F times log q: log q per ray the forward orbits of F reach,
    read off the presentation (``set_maps.covariant_local_entropy``), so no
    trajectory is built.  The supremum over F is the covariant entropy of
    the map times log q.
    """
    if spec.variant != "direct_sum":
        raise InputError("coordinate subgroups of the direct sum are finite-index")
    return _as_value(covariant_local_entropy(spec.map, points), spec.group_order)
