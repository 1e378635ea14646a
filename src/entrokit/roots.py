"""Certified complex root finding for integer polynomials.

Strategy: split off the exactly-known structure first (squarefree
decomposition, and for circle classification the cyclotomic factors and
the rational roots of each part), then run a simultaneous Aberth-Ehrlich
iteration from deterministic initial guesses.  Each approximation carries
an inclusion radius from the classical bound  min_i |z - lambda_i| <= deg *
|f(z)/f'(z)|, padded by a small slack factor for evaluation error and by
the rounding of the approximation to a complex double.  The disks of one
squarefree factor must be pairwise disjoint: each holds at least one root,
so deg disjoint disks hold exactly one root each.

One Aberth loop serves both precisions: it runs in double precision first
(``_DOUBLE``, the builtin float, complex and cmath functions that
``mpmath.fp`` binds too) and, when the requested tolerance cannot be
certified there or two disks overlap, in ``mpmath.mp`` at >= 30
significant digits (more for tighter tolerances), then at twice that.
mpmath is imported on the first mp pass, so a run that certifies in
doubles never loads it.  Each mp pass starts from the final iterates of
the pass before it, unless one of them is not finite.  A root
whose step falls below the stopping threshold is frozen and no longer
updated, though the Aberth sums of the others still run over it; the loop
ends when every root is frozen, and the radii are then computed for every
root at its final position.  Each update and each radius takes f and f'
from one Horner pass over the coefficient pairs, and the disks are checked
for disjointness by a sweep over their real parts.
Initial guesses are Bini's: each edge of the upper convex hull of the
points (k, log|a_k|) puts as many guesses on one circle as it spans, at
fixed angles, so the loop starts near the moduli of the roots and runs are
reproducible bit-for-bit at a fixed precision.

``classify_unit_circle`` is the one exact peel of the toolkit: it divides
out the cyclotomic factors and the power of t, splits the rest once into
squarefree parts, takes the rational roots out of each, and accounts for
each root once.  What is left of the parts reaches the disk stage of
``find_roots`` in one pass: a root is inside or outside when its annulus
says so, and a boundary root otherwise, whose log|z| is then only known to
lie in [0, log(|z| + r)].
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .errors import CertificationError, InputError, NoConvergence, NotPrimitive
from .polynomials import (
    IntPolynomial,
    rational_roots,
    squarefree_decomposition,
    strip_cyclotomic_factors,
)

_SLACK = 1.125          # multiplicative pad on inclusion radii
_MAX_ITER = 400
# the double-precision context of the first Aberth pass
_DOUBLE = SimpleNamespace(mpf=float, mpc=complex, exp=cmath.exp, isfinite=cmath.isfinite)


@dataclass(frozen=True)
class CertifiedRoot:
    approx: complex
    radius: float
    multiplicity: int


@dataclass(frozen=True)
class CircleClassification:
    """Roots partitioned against the unit circle, with multiplicity; each
    root of the classified polynomial is in exactly one bucket.

    Two buckets are exact, filled before any numerics: on_circle_exact
    lists (cyclotomic index m, multiplicity) pairs, and rational lists
    (Fraction root, multiplicity) pairs, 0 included.  The certified roots of
    the cofactor left after both are inside, outside or on_circle_caveat,
    the boundary roots whose annulus meets the circle.  A boundary root may
    lie on the circle or just off it, so all that is known of its log|z| is
    that it lies in [0, log(|z| + r)].
    """

    inside: tuple
    on_circle_exact: tuple
    outside: tuple
    on_circle_caveat: tuple
    rational: tuple

    def is_exact(self) -> bool:
        """True when every root is rational or a root of unity (Kronecker),
        so that nothing here came from floating point."""
        return not (self.inside or self.outside or self.on_circle_caveat)


def find_roots(f: IntPolynomial, tol: float = 1e-12) -> list:
    """All complex roots of f with certified inclusion radii below tol.

    A root that only certifies in mpmath precision may instead have a
    radius below tol * |z| when |z| > 1, which still fixes log|z| to about
    tol; that is how roots far outside the double range get certified.  Its
    radius then also covers the rounding of z to a complex double, about
    2**-50 (|z| + 1), which is more than tol when tol is below about 1e-15.

    Multiple roots are recovered exactly through the squarefree
    decomposition, so the iteration itself only ever sees simple roots.
    Each squarefree factor of degree n, multiplicity k, gives n disks of
    multiplicity k, pairwise disjoint and holding one root each; the
    precision is raised until they are.  Roots of distinct factors are
    distinct, so their disks may overlap but are never merged.
    """
    parts = squarefree_decomposition(f)     # ZeroPolynomial for f = 0
    if not parts:
        raise InputError("constant polynomials have no roots")
    return _disks(parts, tol)


def _disks(parts, tol: float) -> list:
    """The disk stage of find_roots and classify_unit_circle: the certified
    roots of coprime squarefree (factor, multiplicity) parts, by position."""
    roots = [CertifiedRoot(approx, radius, k)
             for factor, k in parts for approx, radius in _roots_squarefree(factor, tol)]
    roots.sort(key=lambda r: (round(r.approx.real, 9), round(r.approx.imag, 9)))
    return roots


def _roots_squarefree(f: IntPolynomial, tol: float):
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be positive and finite, got {tol!r}")
    if f.degree == 1:
        root = Fraction(-f.coeffs[0], f.coeffs[1])
        try:
            approx = complex(float(root), 0.0)
        except OverflowError:
            raise CertificationError(f"the root {root} is beyond the double range") from None
        radius = abs(approx - complex(root)) + 2.0 ** -48 * (abs(approx) + 1.0)
        return [(approx, radius)]
    zs, pairs = _aberth(_DOUBLE, f, tol, 15, None)
    if pairs is not None:
        return pairs
    import mpmath  # only the mp passes need it
    digits = max(30, int(-math.log10(tol)) + 15)
    for dps in (digits, 2 * digits):
        with mpmath.workdps(dps):
            zs, pairs = _aberth(mpmath.mp, f, tol, dps, zs)
        if pairs is not None:
            return pairs
    raise NoConvergence(_MAX_ITER)


def _f_and_df(top, rest, c0, x):
    """(f(x), f'(x)) by one Horner pass: top holds the leading coefficients
    of f and f', rest the next ones of both, highest first, and c0 the
    constant term of f.  Each accumulator makes the same operations, in the
    same order, as a Horner pass of its own."""
    fv, dv = top
    for c, d in rest:
        fv = fv * x + c
        dv = dv * x + d
    return fv * x + c0, dv


def _upper_hull(coeffs):
    """The vertices (k, log|a_k|) of the upper convex hull of the points of
    the nonzero coefficients, from left to right; points on an edge are not
    vertices.  The logs are taken of the ints, so any size is fine."""
    hull = []
    for k, c in enumerate(coeffs):
        if c:
            y = math.log(abs(c))
            while len(hull) > 1:
                (i, yi), (j, yj) = hull[-2:]
                if (j - i) * (y - yi) < (yj - yi) * (k - i):  # (j, yj) is above the chord
                    break
                hull.pop()
            hull.append((k, y))
    return hull


def _starts(ctx, coeffs):
    """Bini's initial guesses for the roots of sum a_k t**k (Numer.
    Algorithms 13, 1996), one per root, in ctx.

    Each edge (i, j) of the upper hull of the points (k, log|a_k|) gets
    j - i starts spread over the circle of radius (|a_i|/|a_j|)**(1/(j-i)),
    turned by 2 pi i/n; the root 0, of the multiplicity of the lowest
    nonzero index, gets starts at 0.
    """
    n = len(coeffs) - 1
    hull = _upper_hull(coeffs)
    zs = [ctx.mpc(0)] * hull[0][0]
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        m = j - i
        zs += [ctx.exp((yi - yj) / m + 2j * math.pi * (k / m + i / n) + 0.4j)
               for k in range(m)]
    return zs


def _aberth(ctx, f: IntPolynomial, tol: float, dps: int, zs):
    """(iterates, pairs) of an Aberth-Ehrlich iteration for the roots of the
    squarefree f in ``_DOUBLE`` or in ``mpmath.mp`` at dps digits.  pairs
    holds (z, radius) for every root, or is None when some radius does not
    certify or two of the disks overlap; iterates are the final
    approximations in ctx, None when f is beyond the range of ctx.

    The iteration starts from zs, the iterates of a previous pass, when
    they are all finite, and from ``_starts`` otherwise.  A root whose step
    falls below stop * max(1, max|z|), taken once per sweep, is frozen: it
    is no longer updated, though the Aberth sums of the others still run
    over it.  The loop ends when every root is frozen, or after _MAX_ITER
    sweeps; every radius is then computed at the final position.

    Each z is returned as a complex double.  Its radius covers the rounding
    of z to that double: in ``_DOUBLE`` the allowance counts against tol,
    in ``mpmath.mp`` it is added after the test, which then takes tol
    relative to |z| beyond the circle, where log|z| moves by r/(|z| - r).
    """
    n = f.degree
    try:
        coeffs = [ctx.mpf(c) for c in f.coeffs]
        if zs and all(map(ctx.isfinite, zs)):
            zs = [ctx.mpc(z) for z in zs]
        else:
            zs = _starts(ctx, f.coeffs)
    except OverflowError:  # beyond double range: leave it to mpmath
        return None, None
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    top, rest, c0 = ((coeffs[-1], dcoeffs[-1]),
                     list(zip(coeffs[-2:0:-1], dcoeffs[-2::-1])), coeffs[0])
    if ctx is _DOUBLE:
        stop, nudge = 1e-15, 1e-6 + 1e-6j
    else:
        stop, nudge = ctx.mpf(10) ** (5 - dps), ctx.mpf(10) ** (-dps // 2)
    one, zero = ctx.mpc(1), ctx.mpc(0)
    active = range(n)
    for _ in range(_MAX_ITER):
        if not active:
            break
        threshold = stop * max(1, max(abs(z) for z in zs))
        moving = []
        for k in active:
            zk = zs[k]
            fv, dv = _f_and_df(top, rest, c0, zk)
            if dv == 0:
                zs[k] += nudge
                moving.append(k)
                continue
            w = fv / dv
            others = zs[:k] + zs[k + 1:]
            try:
                s = zero
                for z in others:
                    s += one / (zk - z)
            except ZeroDivisionError:  # two equal iterates: nudge their difference
                s = zero
                for z in others:
                    s += one / ((zk - z) or nudge)
            denom = 1 - w * s
            step = w / denom if denom != 0 else w
            zs[k] -= step
            if abs(step) >= threshold:
                moving.append(k)
        active = moving
    pairs = []
    for z in zs:
        fv, dv = _f_and_df(top, rest, c0, z)
        if dv == 0:
            return zs, None
        radius = float(_SLACK * n * abs(fv / dv))
        allowance = 2.0 ** -50 * (abs(complex(z)) + 1.0)
        if ctx is _DOUBLE:
            radius += allowance
            certified = radius < tol
        else:
            radius += 10.0 ** (3 - dps)
            certified = radius < tol * max(1, abs(z))
            radius += allowance
        if not certified or radius == math.inf:  # or z is beyond the double range
            return zs, None
        pairs.append((complex(z), radius))
    return zs, (pairs if _disjoint(pairs) else None)


def _disjoint(pairs) -> bool:
    """True when the disks (z, r) are pairwise disjoint: |z - w| > r + s.

    A sweep over the real parts: in increasing order of z.real, each disk
    is compared with the later ones until w.real - z.real > r + rmax, rmax
    the widest radius.  Every pair left out then has |z - w| >= w.real -
    z.real > r + s, each side as rounded, so the answer is the all-pairs one.
    """
    disks = sorted(pairs, key=lambda disk: disk[0].real)
    rmax = max((r for _, r in disks), default=0.0)
    for i, (z, r) in enumerate(disks):
        reach = r + rmax
        for w, s in disks[i + 1:]:
            if w.real - z.real > reach:
                break
            if not abs(z - w) > r + s:
                return False
    return True


# ----------------------------------------------------------------------
# classification against the unit circle

def classify_unit_circle(f: IntPolynomial, tol: float = 1e-12) -> CircleClassification:
    """Partition the roots of the primitive f against the unit circle.

    The cyclotomic factors and the power of t are divided out, and the rest
    is split once into squarefree parts, each of which gives up its rational
    roots with its multiplicity (``rational_roots``: a linear part at any
    size, a nonlinear one when its own extreme coefficients are within the
    cap).  What is left of every part goes to the disk stage of find_roots;
    a root is inside or outside when its certified annulus lies strictly on
    that side of the circle, and a boundary root otherwise.
    """
    if f.is_zero():
        raise InputError("zero polynomial")
    if abs(f.content()) != 1:
        raise NotPrimitive("classification expects a primitive polynomial")
    on_exact, cofactor = strip_cyclotomic_factors(f if f.lead > 0 else -f)
    zeros = next(i for i, c in enumerate(cofactor.coeffs) if c)
    rational = [(Fraction(0), zeros)] if zeros else []
    g = IntPolynomial(cofactor.coeffs[zeros:])
    peeled = [(rational_roots(part), k) for part, k in squarefree_decomposition(g)]
    rational += [(root, k) for (roots, _), k in peeled for root in roots]
    rests = [(rest, k) for (_, rest), k in peeled if rest.degree >= 1]
    inside, outside, boundary = [], [], []
    for root in _disks(rests, tol):
        if abs(root.approx) - root.radius > 1.0:
            outside.append(root)
        elif abs(root.approx) + root.radius < 1.0:
            inside.append(root)
        else:
            boundary.append(root)
    return CircleClassification(tuple(inside), tuple(on_exact), tuple(outside),
                                tuple(boundary), tuple(sorted(rational)))
