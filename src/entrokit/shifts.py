"""Entropies of generalized shifts.

A self-map f of a countable set X and a finite group K of order q induce
the shift g -> g o f, on the full product K^X (a compact group) and on the
direct sum K^(X) (a discrete group, invariant because f is finitely
many-to-one).  The closed forms multiply the set-theoretic entropies of f
by log q: the topological entropy of the product shift is the covariant
entropy times log q, the algebraic entropy of the direct-sum shift is the
contravariant entropy times log q.

Two exact brute-force oracles accompany the closed forms.  Over K = Z/p the
direct-sum trajectory subgroups are vector subspaces of the coordinate space
on a truncated carrier, so their cardinalities are p**rank, computed by
elimination mod p.  For the adjoint side, the coordinate subgroup N_F (all
functions vanishing on F) pulls back along the shift to N over the forward
trajectory of F, so the index sequence is q**|T_n(f, F)| and the adjoint
entropy with respect to N_F is the local covariant entropy times log q.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, InputError
from .polynomials import is_prime
from .set_maps import (
    SymbolicSelfMap,
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
# exact GF(p) trajectory oracle for the direct-sum shift

@dataclass(frozen=True)
class ShiftOracleReport:
    sizes: tuple        # |T_n(shift, G_F)| as exact integers (powers of p)
    ranks: tuple        # dimensions over Z/p


def shift_bruteforce_oracle(spec: GeneralizedShiftSpec, points, horizon: int,
                            budget: int = 200_000) -> ShiftOracleReport:
    """Exact sizes of G_F + s(G_F) + ... + s^(n-1)(G_F) over K = Z/p.

    s^j(G_F) is spanned by the indicator vectors of the iterated preimages
    f^-j(i), i in F, so the n-th trajectory subgroup is the row span of
    those vectors over GF(p); its cardinality is p**rank.  The carrier is
    the n-th cotrajectory of F (full preimages), the union of those
    supports, so the truncation is exact.  The budget bounds the points the
    oracle holds: the carrier, the entries of the stored reduced rows and
    the preimage list being built.
    """
    if spec.variant != "direct_sum":
        raise InputError("the subgroup oracle runs on the direct-sum variant")
    p = spec.group_order
    if not is_prime(p):
        raise InputError("the oracle needs a prime group order")
    if horizon < 1:
        raise InputError("horizon must be positive")
    m = spec.map
    base = list(dict.fromkeys(m.resolve(x) for x in points))
    if not base:
        raise InputError("F must be non-empty")

    index = {}  # carrier point -> column
    stored = 0  # entries of the rows kept in basis

    def check(building=0):
        if len(index) + stored + building > budget:
            raise BudgetExceeded(budget, "oracle enumeration")

    def col(point):
        if point not in index:
            index[point] = len(index)
            check()
        return index[point]

    basis = {}  # pivot column -> reduced row, rows as {column: value mod p}

    def eliminate(row):
        # a basis row has no column below its pivot, so clearing a pivot
        # only adds columns above it: the pivots come off a heap of the
        # row's columns, and each added column is pushed as it appears
        nonlocal stored
        row = {c: v % p for c, v in row.items() if v % p}
        heap = sorted(row)
        while heap:
            pivot = heapq.heappop(heap)
            if pivot not in row:
                continue
            if pivot not in basis:
                inv = pow(row[pivot], -1, p)
                basis[pivot] = {c: (v * inv) % p for c, v in row.items()}
                stored += len(row)
                check()
                return 1
            factor = row[pivot]
            for c, v in basis[pivot].items():
                val = (row.get(c, 0) - factor * v) % p
                if not val:
                    row.pop(c, None)
                    continue
                if c not in row:
                    heapq.heappush(heap, c)
                row[c] = val
        return 0

    # step j contributes, per source point i in F, the indicator vector of
    # the j-th preimage set of i (the image of the basis vector e_i)
    per_source = {i: [i] for i in base}
    rank = 0
    ranks = []
    while True:
        for i in base:
            vec = {}
            for x in per_source[i]:
                c = col(x)
                vec[c] = vec.get(c, 0) + 1
            rank += eliminate(vec)
        ranks.append(rank)
        if len(ranks) == horizon:
            break
        for i in base:
            preimages = []
            for x in per_source[i]:
                preimages += m.preimages(x)
                check(len(preimages))
            per_source[i] = preimages
    return ShiftOracleReport(tuple(p ** r for r in ranks), tuple(ranks))


def adjoint_entropy_of_shift(spec: GeneralizedShiftSpec, points,
                             budget: int = 1_000_000) -> EntropyValue:
    """Adjoint entropy of the direct-sum shift with respect to the coordinate
    subgroup N_F of functions vanishing on F.

    The shift pulls N_F back to the coordinate subgroup over the forward
    image of F, so the n-th cotrajectory is the coordinate subgroup over
    T_n(f, F) with index q**|T_n|, and the limit is the local covariant
    entropy of F times log q.  The supremum over F is the covariant entropy
    of the map times log q.  The budget bounds the forward trajectory held.
    """
    if spec.variant != "direct_sum":
        raise InputError("coordinate subgroups of the direct sum are finite-index")
    local = covariant_local_entropy(spec.map, points, budget)
    return _as_value(local, spec.group_order)


def shift_adjoint_supremum(spec: GeneralizedShiftSpec) -> EntropyValue:
    """sup over finite F of the coordinate-subgroup adjoint entropy."""
    if spec.variant != "direct_sum":
        raise InputError("coordinate subgroups of the direct sum are finite-index")
    return _as_value(covariant_entropy(spec.map), spec.group_order)
