"""Independent references for checking entrokit's reports.

Nothing here imports entrokit.  Mahler measures come from mpmath
``polyroots`` run with extra precision on the squarefree parts that sympy
finds; exact values are checked against sympy's factorization over Z; counts
come from closed forms or from the plain re-implementations in
``refs/gen_refs.py``.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd

import mpmath
import sympy

try:
    import numpy
except ImportError:          # only a faster start for polyroots
    numpy = None

DIGITS = 60                      # working precision of every comparison
_T = sympy.Symbol("t")


def primitive(coeffs):
    """Ascending integer coefficients divided by their content, with zero
    high-order terms trimmed."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return [c // g for c in coeffs]


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), _T, domain="ZZ")


def _polyroots(desc):
    """All roots of a squarefree polynomial (descending coefficients).

    Durand-Kerner in mpmath from scratch costs about 25 s at degree 100;
    started from numpy's companion-matrix roots it needs a few steps.  The
    start only speeds convergence: ``polyroots`` refines to the working
    precision plus ``extraprec`` and raises if it does not get there.
    """
    init = None
    if numpy is not None:
        init = [complex(z) for z in numpy.roots([float(c) for c in desc])]
        if not all(cmath.isfinite(z) for z in init) or len(init) != len(desc) - 1:
            init = None
    try:
        return mpmath.polyroots(desc, maxsteps=200, extraprec=2 * DIGITS,
                                error=False, roots_init=init)
    except mpmath.libmp.NoConvergence:
        if init is None:
            raise
        return mpmath.polyroots(desc, maxsteps=800, extraprec=2 * DIGITS)


def mahler_reference(coeffs) -> mpmath.mpf:
    """log M of the primitive part of the polynomial, to about DIGITS digits.

    Each squarefree part is solved with ``polyroots`` at twice the working
    precision, so repeated roots never slow the iteration down.
    """
    coeffs = primitive(coeffs)
    with mpmath.workdps(DIGITS):
        total = mpmath.log(abs(coeffs[-1]))
        _, parts = _sympy_poly(coeffs).sqf_list()
        for part, mult in parts:
            if part.degree() < 1:
                continue
            cs = [int(c) for c in part.all_coeffs()]      # descending
            if part.degree() == 1:
                roots = [mpmath.mpf(-cs[1]) / cs[0]]
            else:
                roots = _polyroots(cs)
            total += mult * sum(mpmath.log(abs(r)) for r in roots if abs(r) > 1)
        return +total


def exact_mahler(coeffs):
    """M(f) as a positive integer when every irreducible factor of f is
    linear, cyclotomic or t (so log M is an exact logarithm), else None."""
    coeffs = primitive(coeffs)
    _, factors = _sympy_poly(coeffs).factor_list()
    measure = 1
    for factor, mult in factors:
        cs = [int(c) for c in factor.all_coeffs()]
        if factor.degree() == 1:
            measure *= max(abs(cs[0]), abs(cs[1])) ** mult
        elif not factor.is_cyclotomic:
            return None
    return measure


def check_value(value: dict, ref, exact) -> str | None:
    """None when a reported entropy value is right, else a one-line reason.

    ``ref`` is the reference log-measure; ``exact`` is the integer M(f) when
    log M(f) is an exact logarithm, None when it is not, or a callable that
    works this out on demand.  An approx(v, e) value passes when
    |v - ref| <= e, with v taken as the exact binary double it is; an exact
    value passes when it names the same integer measure.
    """
    kind = value.get("kind")
    if kind == "approx":
        with mpmath.workdps(DIGITS):
            v = mpmath.mpf(float(value["value"]))
            e = mpmath.mpf(float(value["error"]))
            miss = abs(v - ref)
            if miss <= e:
                return None
            ratio = mpmath.nstr(miss / e, 3) if e else "inf"
            return (f"approx {float(v)!r} +/- {float(e):.3g} misses "
                    f"{mpmath.nstr(ref, 20)} by {float(miss):.3g} ({ratio} x its bound)")
    if kind in ("exact_zero", "exact_log"):
        measure = exact() if callable(exact) else exact
        if measure is None:
            return f"{kind} claimed, but the true measure {mpmath.nstr(ref, 20)} is not exact"
        if kind == "exact_zero":
            return None if measure == 1 else f"exact_zero claimed, M(f) = {measure}"
        q = Fraction(value["multiplier"])
        base = int(value["base"])
        if base ** q.numerator == measure ** q.denominator:
            return None
        return f"exact_log({base}, {q}) claimed, M(f) = {measure}"
    return f"unexpected value kind {kind!r}"


def sigma(k: int) -> int:
    """Sum of the divisors of k: the number of index-k sublattices of Z^2."""
    return sum(d for d in range(1, k + 1) if k % d == 0)


def sublattices_z3(k: int) -> int:
    """Number of index-k sublattices of Z^3: Hermite normal forms with
    diagonal (a, b, c), abc = k, number a^2 * b of them."""
    return sum(a * a * b for a in range(1, k + 1) if k % a == 0
               for b in range(1, k // a + 1) if (k // a) % b == 0)


def close(reported, ref, tol: float) -> bool:
    return math.isfinite(reported) and abs(reported - ref) <= tol
