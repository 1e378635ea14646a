"""Mahler measure of integer polynomials.

The measure of f = s*(t - l_1)...(t - l_k) is log|s| + sum of log|l_i| over
the roots outside the unit circle.  The measure computed here is always
that of the primitive part of f (the convention the characteristic-polynomial
pipeline needs); rational input is scaled to an integer polynomial where it
is parsed.

One ``classify_unit_circle`` call does the exact peel: it divides out the
cyclotomic factors, splits the rest once into squarefree parts and divides
out the rational roots of each (searched where the part is within the cap),
and only what is left of the parts touches floating point.  A polynomial
whose roots are all rational or roots of unity (Kronecker) therefore yields
an exact_zero or exact_log value with no numerics at all.  The exact log of
the rational part (``log_value``) and the certified sum over the outside
roots (``outside_sum``) are shared with the eigenvalue entropies of
``linear_entropy``.
"""
from __future__ import annotations

import math

from .errors import ZeroPolynomial
from .polynomials import IntPolynomial
from .roots import CircleClassification, classify_unit_circle
from .values import EntropyValue

_U = 2.0 ** -53  # unit roundoff of a double


def sum_logs(terms):
    """(value, bound) for the float sum of weight * log over (weight, log)
    pairs, added in order, each log a computed ``math.log``.

    Each log is off by the rounding of its argument to a double and by the
    library log, a few ulps, bounded here by 4u(1 + |log|) with room for the
    rounding of the bound itself; the weighted sum adds at most
    gamma_k * sum |weight * log| (Higham, *Accuracy and Stability of
    Numerical Algorithms*, sections 3.1 and 4.2).
    """
    value = scale = slack = 0.0
    for weight, log in terms:
        value += weight * log
        scale += abs(weight * log)
        slack += abs(weight) * 4 * _U * (1 + abs(log))
    k = len(terms)
    return value, slack + k * _U / (1 - k * _U) * scale


def log_value(q) -> EntropyValue:
    """log q for a rational q >= 1: exact for an integer, certified otherwise."""
    if q.denominator == 1:
        return EntropyValue.log_of(q.numerator)
    return EntropyValue.approximate(
        *sum_logs([(1, math.log(q.numerator)), (-1, math.log(q.denominator))]))


def outside_sum(classification: CircleClassification, *logs) -> EntropyValue:
    """The logs of the exact part plus the sum of log|z| over the roots
    outside the circle, with multiplicity, certified.

    A root known to lie within r of its approximation z moves log|z| by at
    most r / (|z| - r); a boundary root, whose annulus meets the circle,
    contributes somewhere in [0, log(|z| + r)] and is counted as 0.
    """
    terms = [(1, log) for log in logs]
    error = 0.0
    for root in classification.outside:
        terms.append((root.multiplicity, math.log(abs(root.approx))))
        error += root.multiplicity * root.radius / (abs(root.approx) - root.radius)
    for root in classification.on_circle_caveat:
        hi, slack = sum_logs([(1, math.log(abs(root.approx) + root.radius))])
        error += root.multiplicity * max(0.0, hi + slack)
    value, rounding = sum_logs(terms)
    return EntropyValue.approximate(value, error + rounding)


def mahler_measure(f: IntPolynomial, tol: float = 1e-12) -> EntropyValue:
    """Logarithmic Mahler measure of the primitive part of f."""
    if not isinstance(f, IntPolynomial):
        raise TypeError(f"expected an IntPolynomial, got {type(f).__name__}")
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    p = f.primitive()
    if p.degree == 0:
        return EntropyValue.zero()

    # each rational root a/b of a primitive factor (b t - a) contributes
    # max(|a|, |b|), keeping the product a positive integer, and takes b out
    # of the lead; the lead left by a complete decomposition is +-1, since
    # the input and every peeled factor are primitive
    classification = classify_unit_circle(p, tol)
    measure_int, lead = 1, abs(p.lead)
    for root, mult in classification.rational:
        measure_int *= max(abs(root.numerator), abs(root.denominator)) ** mult
        lead //= root.denominator ** mult
    if classification.is_exact():
        return log_value(measure_int)
    return outside_sum(classification, math.log(measure_int), math.log(lead))

