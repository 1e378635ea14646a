import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from entrokit.errors import CertificationError, NoConvergence
from entrokit.polynomials import IntPolynomial, cyclotomic
import entrokit.polynomials
import entrokit.roots
from entrokit.mahler import mahler_measure
from entrokit.roots import classify_unit_circle, find_roots

from oracles import bisect_real_root, classified_root_count, mahler_reference, resultant

LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
DOUBLE = entrokit.roots._DOUBLE


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


def _contains(disk, root) -> bool:
    """Whether the disk of a CertifiedRoot holds the mpmath root, decided
    at 60 digits."""
    with mpmath.workdps(60):
        return abs(mpmath.mpc(root) - mpmath.mpc(disk.approx)) <= disk.radius


def _reference_roots(coeffs):
    """The roots of a squarefree integer polynomial from mpmath polyroots
    at 60 digits."""
    with mpmath.workdps(60):
        return mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                maxsteps=500, extraprec=240)


def _pairwise_disjoint(disks) -> bool:
    return all(abs(a.approx - b.approx) > a.radius + b.radius
               for i, a in enumerate(disks) for b in disks[i + 1:])


def test_close_roots_of_distinct_factors_keep_their_multiplicities():
    # the roots +-sqrt(2 + 1e-15) of h lie within 4e-16 of the double
    # roots +-sqrt(2) of g: each factor keeps its own disks, which are not
    # merged into two disks of multiplicity 3
    g = IntPolynomial((-2, 0, 1))
    h = IntPolynomial((-2 * 10 ** 15 - 1, 0, 10 ** 15))
    roots = find_roots(g * g * h)
    assert sorted(r.multiplicity for r in roots) == [1, 1, 2, 2]
    with mpmath.workdps(60):
        for mult, root in ((2, mpmath.sqrt(2)),
                           (1, mpmath.sqrt(2 + mpmath.mpf(10) ** -15))):
            for sign in (1, -1):
                assert sum(_contains(r, sign * root) for r in roots
                           if r.multiplicity == mult) == 1


def test_overlapping_disks_raise_the_precision(monkeypatch):
    # an overlap found in double precision sends the factor to mpmath;
    # one found at every precision is a certification failure
    contexts = []
    aberth, disjoint = entrokit.roots._aberth, entrokit.roots._disjoint

    def spy(ctx, *args):
        contexts.append(ctx)
        return aberth(ctx, *args)

    monkeypatch.setattr(entrokit.roots, "_aberth", spy)
    monkeypatch.setattr(entrokit.roots, "_disjoint",
                        lambda pairs: contexts[-1] is not DOUBLE and disjoint(pairs))
    roots = find_roots(LEHMER)
    assert contexts == [DOUBLE, mpmath.mp]
    assert _pairwise_disjoint(roots) and len(roots) == LEHMER.degree
    for root in _reference_roots(LEHMER.coeffs):
        assert sum(_contains(r, root) for r in roots) == 1
    monkeypatch.setattr(entrokit.roots, "_disjoint", lambda pairs: False)
    with pytest.raises(NoConvergence):
        find_roots(LEHMER)


def _coefficient_lists():
    """Seeded coefficient lists for the start routine: zero entries, a_0 = 0
    and entries of 10**400 among random ones of up to six digits."""
    rng = random.Random(26)
    pool = (0, 0, 1, -1, 10 ** 400, -10 ** 400)
    lists = [[0, 1, 0, 1], [0, -2, 0, 0, 1], [10 ** 400, 0, 1], [1, 10 ** 400, 1],
             [3, 0, 0, 0, 0, 0, 0, 0, 10 ** 12], [1, 10 ** 20, 1]]
    for _ in range(40):
        coeffs = [rng.choice(pool) if rng.random() < 0.4 else rng.randint(-10 ** 6, 10 ** 6)
                  for _ in range(rng.randint(3, 16))]
        if rng.random() < 0.3:
            coeffs[0] = 0
        coeffs[-1] = coeffs[-1] or rng.choice(pool[2:])
        lists.append(coeffs)
    return lists


def _brute_force_hull(coeffs):
    """Indices of the upper hull vertices of the points (k, log|a_k|),
    decided exactly: k is not a vertex when some chord (i, j) over it has
    |a_k|**(j-i) <= |a_i|**(j-k) * |a_j|**(k-i)."""
    ks = [k for k, c in enumerate(coeffs) if c]
    a = [abs(c) for c in coeffs]
    return [k for k in ks
            if not any(a[k] ** (j - i) <= a[i] ** (j - k) * a[j] ** (k - i)
                       for i in ks if i < k for j in ks if j > k)]


@pytest.mark.parametrize("coeffs", _coefficient_lists())
def test_starts_lie_on_the_newton_polygon_circles(coeffs):
    hull = entrokit.roots._upper_hull(coeffs)
    assert [k for k, _ in hull] == _brute_force_hull(coeffs)
    ctx = mpmath.fp if max(map(abs, coeffs)) < 2 ** 1000 else mpmath.mp
    zs = entrokit.roots._starts(ctx, coeffs)
    assert len(zs) == len(coeffs) - 1
    zero, rest = zs[:hull[0][0]], zs[hull[0][0]:]
    assert all(z == 0 for z in zero)
    with mpmath.workdps(30):
        for (i, _), (j, _) in zip(hull, hull[1:]):
            radius = (mpmath.mpf(abs(coeffs[i])) / abs(coeffs[j])) ** (mpmath.mpf(1) / (j - i))
            edge, rest = rest[:j - i], rest[j - i:]
            for z in edge:
                assert mpmath.isfinite(z) and z != 0
                assert abs(abs(z) / radius - 1) < 1e-12
    assert not rest


def _plus_minus_one(degree, seed):
    rng = random.Random(seed)
    return IntPolynomial([rng.choice((-1, 1)) for _ in range(degree + 1)])


@pytest.mark.parametrize("f, tol", [
    (_plus_minus_one(40, seed=40), 1e-12),
    (_plus_minus_one(64, seed=64), 1e-12),
    (IntPolynomial((0, 1, 0, 1)), 1e-12),
    (IntPolynomial((0, -2, 0, 0, 1)), 1e-12),
    (IntPolynomial((10 ** 30, 0, 1)), 1e-12),
    (IntPolynomial((1, 10 ** 20, 1)), 1e-12),
    (IntPolynomial((3, 0, 0, 0, 0, 0, 0, 0, 10 ** 12)), 1e-12),
    (_plus_minus_one(24, seed=24), 1e-30),
    (_plus_minus_one(30, seed=30), 1e-30),
    (LEHMER, 1e-30),
    (IntPolynomial((-5, 1, -3, 1, 2)), 1e-30),
], ids=["pm1-deg40", "pm1-deg64", "t3+t", "t4-2t", "t2+1e30", "t2+1e20t+1", "1e12t8+3",
        "pm1-deg24-mp", "pm1-deg30-mp", "lehmer-mp", "2t4+t3-3t2+t-5-mp"])
def test_every_root_in_exactly_one_disk(f, tol):
    roots = find_roots(f, tol)
    assert len(roots) == f.degree and all(r.multiplicity == 1 for r in roots)
    assert _pairwise_disjoint(roots)
    for root in _reference_roots(f.coeffs):
        assert sum(_contains(r, root) for r in roots) == 1


def _horner_arguments(monkeypatch, f, tol=1e-12):
    """The arguments of every ``roots._horner`` call made by find_roots(f,
    tol), after checking the root count."""
    calls = []
    horner = entrokit.roots._horner

    def spy(coeffs, x):
        calls.append(x)
        return horner(coeffs, x)

    monkeypatch.setattr(entrokit.roots, "_horner", spy)
    roots = find_roots(f, tol)
    assert sum(r.multiplicity for r in roots) == f.degree
    return calls


# _horner calls of find_roots on the degree-100 polynomial below when every
# Aberth start sat on the Cauchy circle of radius 1 + max|a_i|/|a_n| = 2
CAUCHY_START_HORNER_CALLS = 7200


def test_newton_polygon_starts_halve_the_work(monkeypatch):
    calls = _horner_arguments(monkeypatch, _plus_minus_one(100, seed=100))
    assert len(calls) <= CAUCHY_START_HORNER_CALLS // 2


def test_frozen_roots_are_not_swept_again(monkeypatch):
    # 9 sweeps over all 100 roots and the radius pass took 2,000 calls;
    # most roots converge several sweeps before the last one
    calls = _horner_arguments(monkeypatch, _plus_minus_one(100, seed=100))
    assert len(calls) <= 1500


def test_the_mp_pass_starts_from_the_double_iterates(monkeypatch):
    # tol = 1e-30 fails in doubles; restarted from _starts, the mp pass made
    # 660 calls, and from the double iterates it needs two sweeps and the
    # radius pass, 180 calls
    calls = _horner_arguments(monkeypatch, _plus_minus_one(30, seed=30), 1e-30)
    assert sum(not isinstance(x, complex) for x in calls) <= 240


def test_non_finite_iterates_restart_from_the_starts(monkeypatch):
    # no input is known to leave a non-finite double iterate, so one is
    # planted; the mp pass must then start from _starts and still certify
    aberth, starts = entrokit.roots._aberth, entrokit.roots._starts
    start_contexts = []

    def planted(ctx, *args):
        zs, pairs = aberth(ctx, *args)
        if ctx is DOUBLE:
            zs[0], pairs = complex(math.nan, 0.0), None
        return zs, pairs

    def spy(ctx, coeffs):
        start_contexts.append(ctx)
        return starts(ctx, coeffs)

    monkeypatch.setattr(entrokit.roots, "_aberth", planted)
    monkeypatch.setattr(entrokit.roots, "_starts", spy)
    roots = find_roots(LEHMER)
    assert start_contexts == [DOUBLE, mpmath.mp]
    assert len(roots) == LEHMER.degree and _pairwise_disjoint(roots)
    for root in _reference_roots(LEHMER.coeffs):
        assert sum(_contains(r, root) for r in roots) == 1


@pytest.mark.parametrize("f", [_plus_minus_one(d, seed=d) for d in (30, 47, 64, 100)]
                         + [LEHMER * cyclotomic(7) * cyclotomic(12)],
                         ids=["pm1-deg30", "pm1-deg47", "pm1-deg64", "pm1-deg100",
                              "lehmer-phi7-phi12"])
def test_double_context_is_mpmath_fp_bit_for_bit(monkeypatch, f):
    # mpmath.fp binds float, complex and cmath.exp, so its pass must give
    # the same bits; it is made the double context only for the oracle run
    starts = entrokit.roots._starts(DOUBLE, f.coeffs)
    zs, pairs = entrokit.roots._aberth(DOUBLE, f, 1e-12, 15, None)
    assert pairs is not None
    monkeypatch.setattr(entrokit.roots, "_DOUBLE", mpmath.fp)
    assert repr(entrokit.roots._starts(mpmath.fp, f.coeffs)) == repr(starts)
    assert repr(entrokit.roots._aberth(mpmath.fp, f, 1e-12, 15, None)) == repr((zs, pairs))


def test_a_linear_root_beyond_double_range_is_not_certified():
    with pytest.raises(CertificationError, match="beyond the double range"):
        find_roots(IntPolynomial((-10 ** 400, 1)))


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
    assert cl.rational == ((Fraction(2), 1),)
    assert not cl.inside and not cl.outside and not cl.on_circle_caveat


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
        assert classified_root_count(cl) == f.degree


def test_classify_outside_product_matches_mahler():
    f = IntPolynomial((1, 4, -3, 1)) * cyclotomic(5)
    cl = classify_unit_circle(f)
    log_product = sum(r.multiplicity * math.log(abs(r.approx)) for r in cl.outside)
    assert mahler_measure(f).as_float() == pytest.approx(log_product, abs=1e-9)


def test_classification_is_one_pass(monkeypatch):
    # one find_roots call per classification and no gcd(g, g*), whether
    # boundary roots are present (Lehmer) or not (random degree 64)
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in (entrokit.roots, entrokit.polynomials):
        for name in ("find_roots", "poly_gcd"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rng = random.Random(64)
    for f in (LEHMER, IntPolynomial([rng.choice((-1, 1)) for _ in range(65)])):
        calls.clear()
        cl = classify_unit_circle(f)
        assert classified_root_count(cl) == f.degree
        assert calls == Counter(find_roots=1)


def _counts_60_digits(coeffs):
    """(inside, outside, on) root counts from mpmath polyroots at 60 digits."""
    with mpmath.workdps(60):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                 maxsteps=500, extraprec=240)
        gaps = [abs(r) - 1 for r in roots]
        eps = mpmath.mpf(10) ** -40
        return (sum(1 for g in gaps if g < -eps), sum(1 for g in gaps if g > eps),
                sum(1 for g in gaps if abs(g) <= eps))


@pytest.mark.parametrize("tol", [1e-12, 1e-30])
@pytest.mark.parametrize("coeffs, counts", [
    ((1, 1, 1, 2, 1, 2, 1, 1, 1), (1, 1, 6)),
    ((1, -1, -1, -1, 0, -1, 0, -1, -1, -1, 1), (1, 1, 8)),
])
def test_circle_roots_are_never_filed_inside(coeffs, counts, tol):
    # a root on the circle once came back inside: its radius did not cover
    # the rounding of the mpmath root to a double
    cl = classify_unit_circle(IntPolynomial(coeffs), tol)
    got = tuple(sum(r.multiplicity for r in part)
                for part in (cl.inside, cl.outside, cl.on_circle_caveat))
    assert got == counts
    assert _counts_60_digits(coeffs) == counts
    for root in cl.on_circle_caveat:
        assert abs(abs(root.approx) - 1) <= root.radius


# ----------------------------------------------------------------------
# Salem x cyclotomic x random reciprocal products

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the property test below needs hypothesis
    given = None

if given is not None:
    SALEM = (
        (1,),
        LEHMER.coeffs,
        (1, -1, -1, -1, 1),                    # 1.7221
        (1, 0, -1, -1, -1, 0, 1),              # 1.4013
        (1, 0, 0, -1, -1, -1, 0, 0, 1),        # 1.2806
    )

    @st.composite
    def _reciprocal(draw):
        half = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
        c0 = draw(st.sampled_from((-2, -1, 1, 2)))
        middle = draw(st.lists(st.integers(-3, 3), max_size=1))
        coeffs = [c0] + half + middle + half[::-1] + [c0]
        return IntPolynomial(coeffs).primitive()

    def _reference(f):
        """M(f) from mpmath at 100 digits, one squarefree factor at a time
        (sympy's sqf_list), since polyroots stalls on repeated roots."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        _, factors = sympy.Poly(list(reversed(f.coeffs)), x).sqf_list()
        return sum(k * mahler_reference([int(c) for c in reversed(g.all_coeffs())])[0]
                   for g, k in factors)

    @settings(max_examples=60)
    @given(st.sampled_from(SALEM), st.integers(1, 20), st.integers(0, 2), _reciprocal())
    def test_reciprocal_products(salem, m, power, g):
        salem = IntPolynomial(salem)
        f = salem * g
        for _ in range(power):
            f = f * cyclotomic(m)
        assert classified_root_count(classify_unit_circle(f)) == f.degree
        lo, hi = mahler_measure(f).interval()
        with mpmath.workdps(100):
            reference = mahler_reference(salem.coeffs)[0] + _reference(g)
            assert lo <= reference <= hi


def test_classification_counts_rational_roots_and_powers_of_t():
    t = IntPolynomial((0, 1))
    for f in (t * t * t * IntPolynomial((-2, 3)),
              IntPolynomial((1, 2)) * IntPolynomial((-5, 1)) * IntPolynomial((-5, 1)) * LEHMER,
              t * cyclotomic(6) * IntPolynomial((3, 7)) * IntPolynomial((-1, -1, 1)),
              cyclotomic(3) * IntPolynomial((-10 ** 13, 1))):
        assert classified_root_count(classify_unit_circle(f)) == f.degree
    cl = classify_unit_circle(t * t * t * IntPolynomial((-2, 3)))
    assert cl.rational == ((Fraction(0), 3), (Fraction(2, 3), 1)) and cl.is_exact()


# ----------------------------------------------------------------------
# products of powers of two coprime squarefree factors

if given is not None:
    _small = st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(lambda c: c[-1])

    def _squarefree(c) -> bool:
        return resultant(c, [i * a for i, a in enumerate(c)][1:]) != 0

    @settings(max_examples=100)
    @given(_small, _small, st.integers(1, 3), st.integers(1, 3))
    def test_powers_of_coprime_factors_keep_their_multiplicities(g, h, a, b):
        assume(a != b and _squarefree(g) and _squarefree(h) and resultant(g, h) != 0)
        f = math.prod([IntPolynomial(g)] * a + [IntPolynomial(h)] * b,
                      start=IntPolynomial((1,)))
        roots = find_roots(f)
        assert sum(r.multiplicity for r in roots) == f.degree
        for coeffs, mult in ((g, a), (h, b)):
            disks = [r for r in roots if r.multiplicity == mult]
            assert len(disks) == len(coeffs) - 1 and _pairwise_disjoint(disks)
            for root in _reference_roots(coeffs):
                assert any(_contains(r, root) for r in disks)
