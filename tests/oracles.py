"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own numerical paths:
real roots come from rational bisection on exact polynomial signs, lattice
questions from brute-force enumeration of residues, characteristic
polynomials of 2x2 matrices from the cofactor formula, Mahler measures
from mpmath ``polyroots`` at 100 digits.
"""
from fractions import Fraction

import mpmath


def bisect_real_root(coeffs, lo, hi, steps=220):
    """Rational bisection for a root of an integer polynomial in [lo, hi].

    Requires a sign change over the interval; returns a Fraction within
    2**-steps * (hi - lo) of the root.
    """
    lo, hi = Fraction(lo), Fraction(hi)

    def ev(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    flo = ev(lo)
    assert flo * ev(hi) < 0, "no sign change on the bracket"
    for _ in range(steps):
        mid = (lo + hi) / 2
        fmid = ev(mid)
        if fmid == 0:
            return mid
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2


def residues_mod(columns, modulus):
    """The subgroup of (Z/modulus)^n generated by the columns, as a frozenset."""
    n = len(columns[0])
    seen = {tuple([0] * n)}
    frontier = [tuple([0] * n)]
    while frontier:
        x = frontier.pop()
        for col in columns:
            y = tuple((a + b) % modulus for a, b in zip(x, col))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def lattice_members_box(lat, radius):
    """All lattice points with coordinates in [-radius, radius], by residue
    filtering: v is a member iff v mod M lies in the residue subgroup, where
    M is a multiple of the exponent (here the index)."""
    from itertools import product

    n = lat.n
    modulus = lat.index
    if modulus == 1:
        return {v for v in product(range(-radius, radius + 1), repeat=n)}
    residues = residues_mod([list(c) for c in lat.basis], modulus)
    out = set()
    for v in product(range(-radius, radius + 1), repeat=n):
        if tuple(x % modulus for x in v) in residues:
            out.add(v)
    return out


def charpoly_2x2(a, b, c, d):
    """t^2 - (a+d) t + (ad - bc), ascending coefficients."""
    return (a * d - b * c, -(a + d), 1)


def mahler_reference(coeffs, dps=100):
    """(log|lead| + sum of log|root| over the roots outside the circle,
    max(0, largest log|root|)) of integer ascending coefficients, from
    mpmath polyroots at dps digits."""
    with mpmath.workdps(dps):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                 maxsteps=500, extraprec=4 * dps)
        logs = [mpmath.log(abs(r)) for r in roots]
        return (mpmath.log(abs(coeffs[-1])) + sum(x for x in logs if x > 0),
                max([mpmath.mpf(0)] + logs))


def interval_contains(value: dict, reference) -> bool:
    """True when the JSON form of an approx value encloses the reference."""
    with mpmath.workdps(100):
        return abs(mpmath.mpf(value["value"]) - reference) <= mpmath.mpf(value["error"])
