"""Certified complex root finding for integer polynomials.

Strategy: split off the exactly-known structure first (squarefree
decomposition, and for circle classification the cyclotomic factors), then
run a simultaneous Aberth-Ehrlich iteration from deterministic initial
guesses.  Each approximation carries an inclusion radius from the classical
bound  min_i |z - lambda_i| <= deg * |f(z)/f'(z)|,  padded by a small slack
factor for floating-point evaluation error.

Double precision is tried first; when the requested tolerance cannot be
certified there, the iteration is re-run in mpmath working precision
(>= 30 significant digits, more for tighter tolerances).  Initial guesses
are roots of unity scaled by the Cauchy bound with a fixed angular offset,
so runs are reproducible bit-for-bit at a fixed precision.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import InputError, NoConvergence, UnresolvedBoundary
from .polynomials import (
    IntPolynomial,
    cyclotomic,
    poly_gcd,
    reciprocal,
    squarefree_decomposition,
    strip_cyclotomic_factors,
)

_SLACK = 1.125          # multiplicative pad on inclusion radii
_MAX_ITER = 400
_CLUSTER_FACTOR = 4.0   # roots within 4*radius of each other merge


@dataclass(frozen=True)
class CertifiedRoot:
    approx: complex
    radius: float
    multiplicity: int


@dataclass(frozen=True)
class CircleClassification:
    """Roots partitioned against the unit circle, with multiplicity.

    on_circle_exact lists (cyclotomic index m, multiplicity) pairs removed
    exactly before any numerics; on_circle_caveat holds roots of the
    self-inversive cofactor whose annulus straddles the circle -- provably
    paired symmetric roots, reported "on" with an exactness caveat.
    """

    inside: tuple
    on_circle_exact: tuple
    outside: tuple
    on_circle_caveat: tuple

    def total_multiplicity(self) -> int:
        on = sum(cyclotomic(m).degree * k for m, k in self.on_circle_exact)
        return on + sum(r.multiplicity for r in
                        self.inside + self.outside + self.on_circle_caveat)


def find_roots(f: IntPolynomial, tol: float = 1e-12) -> list:
    """All complex roots of f with certified inclusion radii below tol.

    A root that only certifies in mpmath precision may instead have a
    radius below tol * |z| when |z| > 1, which still fixes log|z| to about
    tol; that is how roots far outside the double range get certified.

    Multiple roots are recovered exactly through the squarefree
    decomposition, so the iteration itself only ever sees simple roots;
    residual clusters (from nearly-coincident roots of distinct factors) are
    merged by the 4*radius heuristic.
    """
    if f.is_zero():
        raise InputError("zero polynomial")
    if f.degree < 1:
        raise InputError("constant polynomials have no roots")
    roots = []
    for factor, mult in squarefree_decomposition(f):
        for approx, radius in _roots_squarefree(factor, tol):
            roots.append(CertifiedRoot(approx, radius, mult))
    roots = _merge_clusters(roots)
    roots.sort(key=lambda r: (round(r.approx.real, 9), round(r.approx.imag, 9)))
    return roots


def _roots_squarefree(f: IntPolynomial, tol: float):
    if f.degree == 1:
        root = Fraction(-f.coeffs[0], f.coeffs[1])
        approx = complex(float(root), 0.0)
        radius = abs(approx - complex(root)) + 2.0 ** -48 * (abs(approx) + 1.0)
        return [(approx, radius)]
    pairs = _aberth_float(f, tol)
    if pairs is None:
        pairs = _aberth_mp(f, tol)
    if pairs is None:
        raise NoConvergence(_MAX_ITER)
    return pairs


def _cauchy_bound(coeffs) -> float:
    lead = abs(coeffs[-1])
    return 1.0 + max(abs(c) for c in coeffs[:-1]) / lead if len(coeffs) > 1 else 1.0


def _initial_guesses(n: int, bound: float):
    return [bound * cmath.exp(2j * math.pi * (k / n) + 0.4j) for k in range(n)]


def _aberth_float(f: IntPolynomial, tol: float):
    n = f.degree
    try:
        coeffs = [float(c) for c in f.coeffs]
    except OverflowError:  # beyond double range: leave it to mpmath
        return None
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]

    def ev(cs, x):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    zs = _initial_guesses(n, _cauchy_bound(coeffs))
    for _ in range(_MAX_ITER):
        moved = 0.0
        for k in range(n):
            fv = ev(coeffs, zs[k])
            dv = ev(dcoeffs, zs[k])
            if dv == 0:
                zs[k] += 1e-6 + 1e-6j
                moved = math.inf
                continue
            w = fv / dv
            s = 0.0
            for j in range(n):
                if j != k:
                    diff = zs[k] - zs[j]
                    if diff == 0:
                        diff = 1e-12
                    s += 1.0 / diff
            denom = 1.0 - w * s
            step = w / denom if denom != 0 else w
            zs[k] -= step
            moved = max(moved, abs(step))
        if moved < 1e-15 * max(1.0, max(abs(z) for z in zs)):
            break
    pairs = []
    for z in zs:
        fv = ev(coeffs, z)
        dv = ev(dcoeffs, z)
        if dv == 0:
            return None
        radius = _SLACK * n * abs(fv / dv) + 2.0 ** -50 * (abs(z) + 1.0)
        if not radius < tol:
            return None
        pairs.append((z, radius))
    return pairs


def _aberth_mp(f: IntPolynomial, tol: float):
    n = f.degree
    digits = max(30, int(-math.log10(tol)) + 15)
    for dps in (digits, 2 * digits):
        with mpmath.workdps(dps):
            coeffs = [mpmath.mpf(c) for c in f.coeffs]
            dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]

            def ev(cs, x):
                acc = mpmath.mpc(0)
                for c in reversed(cs):
                    acc = acc * x + c
                return acc

            bound = 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
            offset = mpmath.mpf("0.4")
            zs = [bound * mpmath.exp(1j * (2 * mpmath.pi * k / n + offset))
                  for k in range(n)]
            eps = mpmath.mpf(10) ** (-dps + 5)
            for _ in range(_MAX_ITER):
                moved = mpmath.mpf(0)
                for k in range(n):
                    w_den = ev(dcoeffs, zs[k])
                    if w_den == 0:
                        zs[k] += mpmath.mpc(10) ** (-dps // 2)
                        moved = mpmath.inf
                        continue
                    w = ev(coeffs, zs[k]) / w_den
                    s = mpmath.mpc(0)
                    for j in range(n):
                        if j != k:
                            s += 1 / (zs[k] - zs[j])
                    denom = 1 - w * s
                    step = w / denom if denom != 0 else w
                    zs[k] -= step
                    moved = max(moved, abs(step))
                if moved < eps:
                    break
            pairs = []
            ok = True
            for z in zs:
                dv = ev(dcoeffs, z)
                if dv == 0:
                    ok = False
                    break
                radius = _SLACK * n * abs(ev(coeffs, z) / dv)
                radius = float(radius) + 10.0 ** (-dps + 3)
                # relative to |z| beyond the circle: log|z| moves by r/(|z| - r)
                if not radius < tol * max(1, abs(z)):
                    ok = False
                    break
                pairs.append((complex(z), radius))
            if ok:
                return pairs
    return None


def _merge_clusters(roots):
    roots = list(roots)
    merged = True
    while merged:
        merged = False
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                a, b = roots[i], roots[j]
                gap = abs(a.approx - b.approx)
                if gap <= _CLUSTER_FACTOR * max(a.radius, b.radius):
                    center = (a.approx * a.multiplicity + b.approx * b.multiplicity) \
                        / (a.multiplicity + b.multiplicity)
                    radius = max(abs(center - a.approx) + a.radius,
                                 abs(center - b.approx) + b.radius)
                    roots[i] = CertifiedRoot(center, radius,
                                             a.multiplicity + b.multiplicity)
                    del roots[j]
                    merged = True
                    break
            if merged:
                break
    return roots


# ----------------------------------------------------------------------
# classification against the unit circle

def classify_unit_circle(f: IntPolynomial, tol: float = 1e-12) -> CircleClassification:
    """Partition the roots of f as inside / on / outside the unit circle.

    Cyclotomic factors are divided out exactly before any floating point
    runs, so roots of unity are classified "on" with zero numerical
    ambiguity.  Roots of the remaining cofactor are certified strictly
    inside or outside; a root whose annulus straddles the circle is accepted
    as "on" (with a caveat flag) only when it belongs to the self-inversive
    factor gcd(g, reciprocal(g)), whose circle roots are genuine.  Anything
    else raises UnresolvedBoundary rather than silently classifying.
    """
    if f.is_zero():
        raise InputError("zero polynomial")
    if abs(f.content()) != 1:
        from .errors import NotPrimitive
        raise NotPrimitive("classification expects a primitive polynomial")
    on_exact, cofactor = strip_cyclotomic_factors(f if f.lead > 0 else -f)
    k = 0
    while cofactor.degree >= 1 and cofactor.constant_term() == 0:
        cofactor = IntPolynomial(cofactor.coeffs[1:])
        k += 1
    inside = [CertifiedRoot(0j, 0.0, k)] if k else []
    outside, caveat = [], []
    selfinv = None  # gcd(g, g*), computed only when a root stays on the circle
    if cofactor.degree >= 1:
        for root in find_roots(cofactor, tol):
            lo = abs(root.approx) - root.radius
            hi = abs(root.approx) + root.radius
            if lo > 1.0:
                outside.append(root)
            elif hi < 1.0:
                inside.append(root)
            else:
                resolved = _resolve_boundary(cofactor, root, tol)
                if resolved == "outside":
                    outside.append(root)
                elif resolved == "inside":
                    inside.append(root)
                else:
                    if selfinv is None:
                        selfinv = poly_gcd(cofactor, reciprocal(cofactor))
                    if selfinv.degree >= 1 and _belongs_to(selfinv, root):
                        caveat.append(root)
                    else:
                        raise UnresolvedBoundary(root.approx)
    return CircleClassification(tuple(inside), tuple(on_exact),
                                tuple(outside), tuple(caveat))


def _resolve_boundary(f: IntPolynomial, root: CertifiedRoot, tol: float):
    """Retry one root at higher precision to move its annulus off the circle."""
    target = min(tol, 1e-25)
    try:
        refined = find_roots(f, target)
    except NoConvergence:
        return None
    best = min(refined, key=lambda r: abs(r.approx - root.approx))
    if abs(best.approx - root.approx) > max(root.radius * 8, 1e-9):
        return None
    lo = abs(best.approx) - best.radius
    hi = abs(best.approx) + best.radius
    if lo > 1.0:
        return "outside"
    if hi < 1.0:
        return "inside"
    return None


def _belongs_to(factor: IntPolynomial, root: CertifiedRoot) -> bool:
    """Residual test: |factor(z)| small relative to the certified radius."""
    z = root.approx
    val = abs(factor(z))
    scale = sum(abs(c) * max(1.0, abs(z)) ** i for i, c in enumerate(factor.coeffs))
    return val <= scale * max(root.radius, 1e-14) * factor.degree * 4
