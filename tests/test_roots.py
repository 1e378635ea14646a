import math
import random

import pytest

from entrokit.polynomials import IntPolynomial, cyclotomic
import entrokit.polynomials
import entrokit.roots
from entrokit.roots import classify_unit_circle, find_roots

from oracles import bisect_real_root

LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def test_known_radicals():
    roots = find_roots(IntPolynomial((-2, 0, 1)))
    mods = sorted(abs(r.approx) for r in roots)
    assert mods == pytest.approx([2 ** 0.5, 2 ** 0.5])
    assert {round(r.approx.real, 8) for r in roots} == {round(2 ** 0.5, 8), -round(2 ** 0.5, 8)}


def test_quadratic_formula_oracle():
    roots = find_roots(IntPolynomial((-1, -1, 1)))
    expected = sorted(((1 + 5 ** 0.5) / 2, (1 - 5 ** 0.5) / 2))
    got = sorted(r.approx.real for r in roots)
    for g, e in zip(got, expected):
        assert abs(g - e) < 1e-12


def test_repeated_root_cluster():
    roots = find_roots(IntPolynomial((1, -2, 1)))
    assert len(roots) == 1
    assert roots[0].multiplicity == 2
    assert abs(roots[0].approx - 1.0) < 1e-9


def test_root_count_with_multiplicity():
    f = IntPolynomial((-1, 1)) * IntPolynomial((2, 0, 1)) * IntPolynomial((-3, 1))
    total = sum(r.multiplicity for r in find_roots(f))
    assert total == f.degree


def test_residual_bound_simple_roots():
    f = IntPolynomial((-5, 1, -3, 1, 2))
    for root in find_roots(f):
        z = root.approx
        fz = f(z)
        dfz = f.derivative()(z)
        assert abs(fz) / abs(dfz) <= 2 * root.radius


def test_coefficient_reconstruction():
    f = IntPolynomial((-6, 11, -6, 1))  # (t-1)(t-2)(t-3)
    roots = find_roots(f)
    prod = [1.0]
    for r in roots:
        for _ in range(r.multiplicity):
            prod = [a * (-r.approx) + b for a, b in
                    zip(prod + [0], [0] + prod)]
    maxmod = max(abs(r.approx) for r in roots)
    tolerance = f.degree * 1e-10 * (1 + maxmod) ** f.degree
    for got, want in zip(prod, f.coeffs):
        assert abs(got - want) <= tolerance


def test_classify_cyclotomic_times_linear():
    # Phi_4 * (t - 2) = t^3 - 2 t^2 + t - 2
    cl = classify_unit_circle(IntPolynomial((-2, 1, -2, 1)))
    assert cl.on_circle_exact == ((4, 1),)
    assert len(cl.outside) == 1 and abs(cl.outside[0].approx - 2) < 1e-12
    assert not cl.inside and not cl.on_circle_caveat


def test_classify_quadratic():
    cl = classify_unit_circle(IntPolynomial((-1, -1, 1)))
    assert len(cl.outside) == 1 and len(cl.inside) == 1
    assert abs(cl.outside[0].approx.real - (1 + 5 ** 0.5) / 2) < 1e-12


def test_classify_lehmer_salem_structure():
    cl = classify_unit_circle(LEHMER)
    assert len(cl.outside) == 1
    assert len(cl.inside) == 1
    assert sum(r.multiplicity for r in cl.on_circle_caveat) == 8
    # the Salem number itself, against a rational-bisection oracle
    salem = float(bisect_real_root(LEHMER.coeffs, 1, 2))
    assert abs(cl.outside[0].approx.real - salem) < 1e-12
    assert abs(salem - 1.17628081825991) < 1e-11


def test_classification_counts_degree():
    for f in (LEHMER, cyclotomic(12) * IntPolynomial((-2, 1)),
              IntPolynomial((2, 0, 1)) * IntPolynomial((-1, -1, 1))):
        cl = classify_unit_circle(f)
        assert cl.total_multiplicity() == f.degree


def test_classify_outside_product_matches_mahler():
    from entrokit.mahler import mahler_measure

    f = IntPolynomial((1, 4, -3, 1)) * cyclotomic(5)
    cl = classify_unit_circle(f)
    log_product = sum(r.multiplicity * math.log(abs(r.approx)) for r in cl.outside)
    assert mahler_measure(f).as_float() == pytest.approx(log_product, abs=1e-9)


def test_self_inversive_gcd_only_for_boundary_roots(monkeypatch):
    calls = {"poly_gcd": 0, "_resolve_boundary": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(entrokit.roots, "poly_gcd")
    counted(entrokit.polynomials, "poly_gcd")
    counted(entrokit.roots, "_resolve_boundary")
    rng = random.Random(64)
    f = IntPolynomial([rng.choice((-1, 1)) for _ in range(65)])
    cl = classify_unit_circle(f)
    assert cl.total_multiplicity() == 64
    assert not cl.on_circle_caveat and calls["_resolve_boundary"] == 0
    assert calls["poly_gcd"] == 0
