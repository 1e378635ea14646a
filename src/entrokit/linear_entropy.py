"""Entropy of linear endomorphisms.

The closed forms: on Z^n and Q^n the algebraic entropy equals the Mahler
measure of the primitive characteristic polynomial; on R^n both entropies
equal the sum of log|eigenvalue| over eigenvalues outside the unit circle
(no leading-coefficient term); the dual toral map carries the same
characteristic polynomial, realizing the bridge between the algebraic and
topological values; multiplication by a p-adic scalar xi contributes
max(0, -v_p(xi)) * log p.

Alongside the closed forms sits an exact brute-force oracle: trajectory
sumsets F + A F + ... + A^(n-1) F enumerated over Z^n, whose log-size slope
converges to the entropy from above (Fekete).  The growth dichotomy is
decided by the closed form; the empirical profile is advisory.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_BUDGET, BudgetExceeded, InputError, WrongDomain
from .linalg import RatMatrix, char_poly, orbit_char_poly
from .mahler import log_value, mahler_measure, outside_sum
from .polynomials import as_integer, is_prime
from .roots import classify_unit_circle
from .values import EntropyValue

DOMAINS = ("zn", "qn", "rn", "tn_dual", "qp_scalar")


@dataclass(frozen=True)
class LinearFlow:
    domain: str
    matrix: RatMatrix | None = None
    prime: int = 0
    scalar: Fraction = Fraction(0)

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise InputError(f"unknown domain {self.domain!r}")
        if self.domain == "qp_scalar":
            if not is_prime(self.prime):
                raise InputError(f"{self.prime} is not a prime")
        elif self.matrix is None:
            raise InputError("matrix domains need a matrix")
        elif self.domain in ("zn", "tn_dual") and not self.matrix.is_integer():
            raise InputError("an endomorphism of Z^n or T^n needs integer entries")

    @staticmethod
    def padic_scalar(prime: int, scalar) -> "LinearFlow":
        return LinearFlow("qp_scalar", prime=prime, scalar=Fraction(scalar))


def padic_valuation(x: Fraction, p: int) -> int:
    if x == 0:
        raise InputError("the zero scalar has infinite valuation")
    return _multiplicity(x.numerator, p) - _multiplicity(x.denominator, p)


def _multiplicity(n: int, p: int) -> int:
    """The exponent of p in n != 0.  Dividing by p, p^2, p^4, ... while
    each divides takes out p^(2^J - 1) and leaves fewer than 2^J factors p,
    which the same powers, largest first, take out bit by bit: O(log v)
    divisions instead of v."""
    v, powers = 0, [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] ** 2)
    for j in reversed(range(len(powers) - 1)):
        if n % powers[j] == 0:
            n //= powers[j]
            v += 1 << j
    return v


def _eigenvalue_sum_outside(matrix: RatMatrix, tol: float) -> EntropyValue:
    """Sum of log|lambda| over eigenvalues outside the unit circle, exact
    when the primitive characteristic polynomial splits exactly."""
    classification = classify_unit_circle(char_poly(matrix), tol)
    outside = math.prod((abs(r) ** mult for r, mult in classification.rational
                         if abs(r) > 1), start=Fraction(1))
    if classification.is_exact():
        return log_value(outside)
    return outside_sum(classification, math.log(outside))


def algebraic_entropy(flow: LinearFlow, tol: float = 1e-12) -> EntropyValue:
    """h_alg of the flow: Mahler measure of the primitive characteristic
    polynomial on Z^n/Q^n, eigenvalue sum on R^n, k*log p for p-adic scalars."""
    if flow.domain in ("zn", "qn"):
        return mahler_measure(char_poly(flow.matrix), tol)
    if flow.domain == "rn":
        return _eigenvalue_sum_outside(flow.matrix, tol)
    if flow.domain == "qp_scalar":
        # log max(1, |xi|_p): 0 for xi = 0, whose valuation is infinite
        k = max(0, -padic_valuation(flow.scalar, flow.prime)) if flow.scalar else 0
        return EntropyValue.log_of(flow.prime, k) if k else EntropyValue.zero()
    raise WrongDomain("algebraic entropy lives on zn, qn, rn, or qp_scalar")


def topological_entropy(flow: LinearFlow, tol: float = 1e-12) -> EntropyValue:
    """h_top: Bowen's eigenvalue formula on R^n, the Mahler measure of the
    shared characteristic polynomial for the dual toral map."""
    if flow.domain == "rn":
        return _eigenvalue_sum_outside(flow.matrix, tol)
    if flow.domain == "tn_dual":
        return mahler_measure(char_poly(flow.matrix), tol)
    raise WrongDomain("topological entropy lives on rn or tn_dual")


# ----------------------------------------------------------------------
# sumset trajectory oracle

@dataclass(frozen=True)
class TrajectoryProfile:
    sizes: tuple                 # |T_1| .. |T_N|
    estimate: float              # min one-step quotient log|T_(n+1)| - log|T_n|
    fekete_upper: float          # min log|T_n| / n: a certified upper bound for H(phi, F)


def trajectory_oracle(a: RatMatrix, points, horizon: int,
                      budget: int = DEFAULT_BUDGET) -> TrajectoryProfile:
    """Exact sizes of the sumsets F + A F + ... + A^(n-1) F over Z^n.

    F is normalized to contain 0 (harmless for the entropy, and it makes the
    size sequence non-decreasing).  T_(k+1) = T_k + A^k F is built one
    point g of A^k F at a time, adding g to slices of T_k; a slice is never
    longer than the budget leaves room for, so BudgetExceeded is raised as
    soon as the sumset holds budget + 1 points.

    A point of Z^n is packed into the int sum c_i * 2^(w*i) of signed w-bit
    fields.  Every coordinate of T_k is at most the reach, the sum over
    j < k of the largest |coordinate| of A^j F, so fields of
    w = reach.bit_length() + 1 bits hold them: the packing is injective and
    adds coordinatewise.  The images A^j F and the reach are made 64 steps
    ahead, and T_k is repacked when the fields widen.

    The reported estimate is the smallest one-step quotient
    log|T_(n+1)| - log|T_n|, which converges far faster than log|T_n|/n (the
    latter carries a log-prefactor bias of order 1/n); the Fekete minimum of
    log|T_n|/n is kept alongside as a certified upper bound for H(phi, F).
    """
    if horizon < 2:
        raise InputError("horizon must be at least 2")
    if not a.is_integer():
        raise InputError("the sumset oracle runs over integer matrices")
    rows = a.int_rows()
    n = a.n
    base = {*_int_points(points, n), (0,) * n}
    orbit = _orbit(rows, base)
    reach, width = 0, 1
    current = [0]                  # T_0 = {0}, packed
    sizes = []
    for k in range(horizon):
        if k % _AHEAD == 0:
            images = list(itertools.islice(orbit, min(_AHEAD, horizon - k)))
            reach += sum(max(abs(c) for v in image for c in v) for image in images)
            wider = reach.bit_length() + 1
            if wider > width:
                current = [_pack(_unpack(t, width, n), wider) for t in current]
                width = wider
        image = [_pack(v, width) for v in images[k % _AHEAD]]
        current = _sumset(current, image, budget)
        sizes.append(len(current))
    slopes = [math.log(s) / (i + 1) for i, s in enumerate(sizes)]
    diffs = [math.log(b) - math.log(a) for a, b in zip(sizes, sizes[1:])]
    return TrajectoryProfile(tuple(sizes), min(diffs), min(slopes))


def _int_points(points, n: int) -> list:
    """The points as int tuples (``as_integer``); a wrong dimension is an InputError."""
    points = [tuple(map(as_integer, v)) for v in points]
    if any(len(v) != n for v in points):
        raise InputError("point dimension disagrees with the matrix")
    return points


_AHEAD = 64                   # steps whose images are made before their sumsets
_SLICE = 4096                 # points of T_k shifted per bulk update


def _orbit(rows, points):
    """A^0 F, A^1 F, ...: the images of the points, as sets of tuples."""
    while True:
        yield points
        points = {tuple(sum(r * x for r, x in zip(row, v)) for row in rows)
                  for v in points}


def _pack(v, width: int) -> int:
    return sum(c << width * i for i, c in enumerate(v))


def _unpack(t: int, width: int, n: int) -> list:
    """The n signed width-bit fields of a packed point, lowest first."""
    half, mask = 1 << width - 1, (1 << width) - 1
    v = []
    for _ in range(n):
        c = (t + half & mask) - half
        v.append(c)
        t = t - c >> width
    return v


def _sumset(current: list, shifts: list, budget: int) -> list:
    """current + shifts over packed points, checked against the budget
    after each slice."""
    sumset = set()
    for g in shifts:
        start = 0
        while start < len(current):
            stop = start + min(_SLICE, budget - len(sumset) + 1)
            sumset.update(map(g.__add__, current[start:stop]))
            if len(sumset) > budget:
                raise BudgetExceeded(budget, "sumset enumeration")
            start = stop
    return list(sumset)


# ----------------------------------------------------------------------
# the growth dichotomy

@dataclass(frozen=True)
class GrowthClassification:
    kind: str                        # "polynomial" | "exponential"
    closed_form: EntropyValue        # h_alg of A restricted to the span of the orbit of F
    profile: TrajectoryProfile       # empirical evidence, advisory only


def classify_growth(a: RatMatrix, points, horizon: int = 12,
                    budget: int = DEFAULT_BUDGET) -> GrowthClassification:
    """Polynomial-vs-exponential growth of the trajectory of F under A.

    Decided exactly by the closed form: the growth is exponential iff the
    Mahler measure of det(tI - A) on the invariant span of the orbit of F
    (``linalg.orbit_char_poly``; 1 for an empty span) is nonzero
    (equivalently, iff the span escapes the Pinsker subspace).  Exact zero
    detection makes the dichotomy a real decision; intermediate horizons
    could not separate slow exponential from fast polynomial, so the
    empirical profile is attached as evidence only, built after the
    decision: past the budget it raises BudgetExceeded naming the kind.

    Kept as library API: no subcommand calls it (``oracle`` reports the
    profile alone).
    """
    value = mahler_measure(orbit_char_poly(a.int_rows(), _int_points(points, a.n)))
    kind = "polynomial" if value.is_zero() else "exponential"
    try:
        profile = trajectory_oracle(a, points, horizon, budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(budget, f"the growth is {kind} (decided exactly), "
                             "but its advisory sumset profile") from exc
    return GrowthClassification(kind, value, profile)
