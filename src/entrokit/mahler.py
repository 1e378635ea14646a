"""Mahler measure of integer and rational polynomials.

The measure of f = s*(t - l_1)...(t - l_k) is log|s| + sum of log|l_i| over
the roots outside the unit circle.  Rational input is reduced to its
primitive integer polynomial first, so the measure computed here is always
that of a primitive polynomial (the convention the characteristic-polynomial
pipeline needs).

The computation peels off everything that can be decided exactly -- powers
of t, cyclotomic factors, rational linear factors -- and only then touches
floating point, on the cyclotomic-free, rational-root-free cofactor.  A
polynomial that decomposes completely therefore yields an exact_zero or
exact_log value with no numerics at all.
"""
from __future__ import annotations

import math

from .errors import ZeroPolynomial
from .polynomials import (
    IntPolynomial,
    RatPolynomial,
    content_primitive,
    rational_roots,
    strip_cyclotomic_factors,
)
from .roots import classify_unit_circle
from .values import EntropyValue


def mahler_measure(f, tol: float = 1e-12) -> EntropyValue:
    """Logarithmic Mahler measure of the primitive part of f."""
    if isinstance(f, RatPolynomial):
        if f.is_zero():
            raise ZeroPolynomial("zero polynomial")
        _, p = content_primitive(f)
    elif isinstance(f, IntPolynomial):
        if f.is_zero():
            raise ZeroPolynomial("zero polynomial")
        p = f.primitive()
    else:
        raise TypeError(f"expected a polynomial, got {type(f).__name__}")
    if p.degree == 0:
        return EntropyValue.zero()

    # exact part: M accumulates |lead| * prod(|roots| > 1) over the factors
    # that come off exactly; each rational root a/b inside a primitive factor
    # (b t - a) contributes max(|a|, |b|), keeping M a positive integer.
    while p.degree >= 1 and p.constant_term() == 0:
        p = IntPolynomial(p.coeffs[1:])
    _cyclo, p = strip_cyclotomic_factors(p)
    roots, cofactor = rational_roots(p)
    measure_int = 1
    for root, mult in roots:
        measure_int *= max(abs(root.numerator), abs(root.denominator)) ** mult
    if cofactor.degree == 0:
        # complete exact decomposition; the leftover constant is +-1 because
        # the input was primitive and every peeled factor was primitive
        if measure_int == 1:
            return EntropyValue.zero()
        return EntropyValue.log_of(measure_int)

    classification = classify_unit_circle(cofactor, tol)
    value = math.log(measure_int) + math.log(abs(cofactor.lead))
    error = 0.0
    for root in classification.outside:
        value += root.multiplicity * math.log(abs(root.approx))
        # d(log|z|) <= r / (|z| - r) for |z| - r > 0
        error += root.multiplicity * root.radius / (abs(root.approx) - root.radius)
    for root in classification.on_circle_caveat:
        # true contribution lies in [0, log(|z| + r)]; counted as 0
        error += root.multiplicity * max(0.0, math.log(abs(root.approx) + root.radius))
    return EntropyValue.approximate(value, error)


def mahler_of_algebraic(minpoly: IntPolynomial, tol: float = 1e-12) -> EntropyValue:
    """Mahler measure of an algebraic number given by its minimal polynomial.

    Irreducibility is the caller's assertion and is not checked.
    """
    if minpoly.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if minpoly.degree < 1:
        raise ZeroPolynomial("a minimal polynomial must be nonconstant")
    return mahler_measure(minpoly, tol)
