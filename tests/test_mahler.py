import math
import random

import pytest

import entrokit.linear_entropy
import entrokit.mahler
import entrokit.polynomials
import entrokit.roots
from entrokit.errors import ZeroPolynomial
from entrokit.linalg import RatMatrix
from entrokit.linear_entropy import LinearFlow, topological_entropy
from entrokit.mahler import mahler_measure
from entrokit.roots import find_roots
from entrokit.polynomials import IntPolynomial, cyclotomic, poly_from_json

from oracles import bisect_real_root

LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
PLASTIC = IntPolynomial((-1, -1, 0, 1))


def test_mersenne_generator():
    v = mahler_measure(IntPolynomial((-2, 1)))
    assert v.kind == "exact_log" and v.base == 2 and v.multiplier == 1


def test_lehmer_value_against_bisection_oracle():
    salem = bisect_real_root(LEHMER.coeffs, 1, 2)
    expected = math.log(float(salem))
    v = mahler_measure(LEHMER)
    assert v.kind == "approx"
    assert v.error <= 1e-9
    assert v.value == pytest.approx(expected, abs=1e-11)


def test_cyclotomic_is_exact_zero():
    assert mahler_measure(IntPolynomial((1, -1, 1))).is_zero()
    assert mahler_measure(cyclotomic(12) * cyclotomic(3)).is_zero()
    assert mahler_measure(IntPolynomial((0, 0, 1))).is_zero()  # t^2


def test_plastic_number():
    plastic = bisect_real_root(PLASTIC.coeffs, 1, 2)
    v = mahler_measure(PLASTIC)
    assert v.value == pytest.approx(math.log(float(plastic)), abs=1e-11)
    assert v.value == pytest.approx(0.2811995743, abs=1e-9)


def test_rational_input_reduces_to_primitive():
    v = mahler_measure(poly_from_json(["-1/2", "1"]))  # t - 1/2 -> 2t - 1
    assert v.kind == "exact_log" and v.base == 2


def test_minimal_polynomials():
    assert mahler_measure(IntPolynomial((-2, 1))).base == 2
    assert mahler_measure(IntPolynomial((1, 0, 1))).is_zero()
    golden = mahler_measure(IntPolynomial((-1, -1, 1)))
    assert golden.as_float() == pytest.approx(math.log((1 + 5 ** 0.5) / 2), abs=1e-10)


def test_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        mahler_measure(IntPolynomial(()))


def _random_poly(rng, max_degree=6, height=3):
    while True:
        coeffs = [rng.randint(-height, height) for _ in range(rng.randint(2, max_degree + 1))]
        f = IntPolynomial(coeffs)
        if not f.is_zero() and f.degree >= 1:
            return f


def test_non_negativity_and_multiplicativity():
    rng = random.Random(20260810)
    for _ in range(60):
        f, g = _random_poly(rng), _random_poly(rng)
        mf, mg, mfg = mahler_measure(f), mahler_measure(g), mahler_measure(f * g)
        for v in (mf, mg, mfg):
            assert v.as_float() >= -1e-12
        combined = mf.as_float() + mg.as_float()
        err = sum(v.error for v in (mf, mg, mfg) if v.kind == "approx")
        assert abs(mfg.as_float() - combined) <= err + 1e-9


def test_reciprocal_invariance():
    rng = random.Random(99)
    for _ in range(40):
        f = _random_poly(rng)
        if f.constant_term() == 0:
            continue
        # t**deg * f(1/t): the coefficients reversed
        a, b = mahler_measure(f), mahler_measure(IntPolynomial(f.coeffs[::-1]))
        err = sum(v.error for v in (a, b) if v.kind == "approx")
        assert abs(a.as_float() - b.as_float()) <= err + 1e-9


def test_leading_coefficient_floor():
    rng = random.Random(4)
    seen = 0
    for _ in range(200):
        f = _random_poly(rng)
        prim = f.primitive()
        if abs(prim.lead) >= 2:
            seen += 1
            assert mahler_measure(f).as_float() >= math.log(2) - 1e-9
    assert seen > 20


def test_power_substitution_law():
    rng = random.Random(11)
    for _ in range(25):
        f = _random_poly(rng, max_degree=4)
        base = mahler_measure(f)
        for k in (2, 3):
            sub = mahler_measure(f.compose_power(k))
            err = base.error + sub.error if base.kind == "approx" or sub.kind == "approx" \
                else 0.0
            assert abs(sub.as_float() - base.as_float()) <= err + 1e-9


def test_one_cyclotomic_strip_per_value(monkeypatch):
    calls = []
    real = entrokit.polynomials.strip_cyclotomic_factors

    def counted(f):
        calls.append(f)
        return real(f)

    for module in (entrokit.polynomials, entrokit.roots, entrokit.mahler,
                   entrokit.linear_entropy):
        if hasattr(module, "strip_cyclotomic_factors"):
            monkeypatch.setattr(module, "strip_cyclotomic_factors", counted)
    t = IntPolynomial((0, 1))
    for f in (LEHMER, PLASTIC, IntPolynomial((-2, 3)) * cyclotomic(5) * PLASTIC,
              t * t * cyclotomic(7) * IntPolynomial((-1, -1, 1)),
              IntPolynomial((-2, 1)) * cyclotomic(3), cyclotomic(12) * t):
        calls.clear()
        mahler_measure(f)
        assert len(calls) == 1
    for rows in ([[0, 1], [1, 1]], [[2, 1, 0], [0, 3, 1], [1, 0, 1]], [[2, 0], [0, 3]]):
        calls.clear()
        topological_entropy(LinearFlow("rn", RatMatrix(rows)))
        assert len(calls) == 1


def test_large_rational_roots_stay_exact():
    # the cyclotomic strip runs first, so the linear cofactor t - 10**13 is
    # peeled directly although its constant passes the divisor-search cap
    v = mahler_measure(cyclotomic(3) * IntPolynomial((-10 ** 13, 1)))
    assert v.kind == "exact_log" and (v.base, v.multiplier) == (10 ** 13, 1)
    v = mahler_measure(IntPolynomial((-10 ** 400, 1)))
    assert v.kind == "exact_log" and (v.base, v.multiplier) == (10 ** 400, 1)


@pytest.mark.parametrize("degree", [40, 60])
def test_measure_of_a_square_is_twice_the_measure(degree):
    # the law M(g**2) = 2 M(g) on a seeded +-1 polynomial g: the two
    # certified intervals must meet, and the roots of g**2 are those of g,
    # each twice
    rng = random.Random(degree)
    g = IntPolynomial([rng.choice((-1, 1)) for _ in range(degree + 1)])
    lo, hi = mahler_measure(g * g).interval()
    lo1, hi1 = mahler_measure(g).interval()
    assert lo <= 2 * hi1 and 2 * lo1 <= hi
    roots = find_roots(g * g)
    assert len(roots) == degree and all(r.multiplicity == 2 for r in roots)
