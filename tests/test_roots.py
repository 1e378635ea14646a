import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from entrokit.errors import CertificationError, NoConvergence
from entrokit.polynomials import IntPolynomial, cyclotomic
import entrokit.polynomials
import entrokit.roots
from entrokit.mahler import mahler_measure
from entrokit.roots import classify_unit_circle, find_roots

from oracles import (aberth_reference, bisect_real_root, classified_root_count,
                     disjoint_reference, mahler_reference, resultant)

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


def _evaluation_points(monkeypatch, f, tol=1e-12):
    """The point of every evaluation of f and f' made by find_roots(f,
    tol), after checking the root count and that the radius pass, one
    evaluation per root, was seen."""
    points = []
    f_and_df = entrokit.roots._f_and_df

    def spy(top, rest, c0, x):
        points.append(x)
        return f_and_df(top, rest, c0, x)

    monkeypatch.setattr(entrokit.roots, "_f_and_df", spy)
    roots = find_roots(f, tol)
    assert sum(r.multiplicity for r in roots) == f.degree
    assert len(points) >= f.degree
    return points


# evaluation points of find_roots on the degree-100 polynomial below when
# every Aberth start sat on the Cauchy circle of radius 1 + max|a_i|/|a_n| = 2
CAUCHY_START_POINTS = 3600


def test_newton_polygon_starts_halve_the_work(monkeypatch):
    points = _evaluation_points(monkeypatch, _plus_minus_one(100, seed=100))
    assert len(points) <= CAUCHY_START_POINTS // 2


def test_frozen_roots_are_not_swept_again(monkeypatch):
    # 9 sweeps over all 100 roots and the radius pass took 1,000 points;
    # most roots converge several sweeps before the last one
    points = _evaluation_points(monkeypatch, _plus_minus_one(100, seed=100))
    assert len(points) <= 750


def test_the_mp_pass_starts_from_the_double_iterates(monkeypatch):
    # tol = 1e-30 fails in doubles; restarted from _starts, the mp pass
    # evaluated at 330 points, and from the double iterates it needs two
    # sweeps and the radius pass, 90 points
    points = _evaluation_points(monkeypatch, _plus_minus_one(30, seed=30), 1e-30)
    assert sum(not isinstance(x, complex) for x in points) <= 120


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


# t**3 - 3t + 1 with f'(1) = 0: an iterate at 1 is nudged, and two equal
# iterates make the Aberth sum divide by zero and fall back to the nudge
PLANTED = IntPolynomial((1, -3, 0, 1))
PLANTED_STARTS = ([0.5 + 0.25j, 0.5 + 0.25j, -2 + 0j], [1 + 0j, 0.3 + 0.1j, -2 + 0.5j],
                  [1 + 0j, 1 + 0j, -2 + 0.5j])


def _aberth_inputs():
    """(f, starts) for the bit-for-bit comparison of the Aberth loop with
    its plain form: seeded +-1 polynomials of degree 5-130, Lehmer's
    polynomial times Phi_7 Phi_12, clustered roots a (t - 1)**k + c, and
    the planted starts (None: Bini's starts)."""
    cases = [(_plus_minus_one(d, seed=d), None) for d in range(5, 131, 25)]
    cases.append((LEHMER * cyclotomic(7) * cyclotomic(12), None))
    for a, k, c in ((1, 5, 1), (1000, 6, 1), (10 ** 6, 8, -3)):
        cluster = math.prod([IntPolynomial((-1, 1))] * k, start=IntPolynomial((a,)))
        cases.append((cluster + IntPolynomial((c,)), None))
    return cases + [(PLANTED, starts) for starts in PLANTED_STARTS]


@pytest.mark.parametrize("dps, top", [(15, 130), (30, 80), (60, 55)],
                         ids=["double", "mp30", "mp60"])
def test_aberth_is_its_plain_form_bit_for_bit(dps, top):
    # the mp passes start where find_roots starts them, from the double
    # iterates, and from Bini's starts up to degree 30; they stop at degree
    # top, where they take about a second
    for f, starts in _aberth_inputs():
        runs = [starts]
        if dps > 15:
            if f.degree > top:
                continue
            ctx, tol = mpmath.mp, 10.0 ** (15 - dps)
            double_zs = aberth_reference(DOUBLE, f, 1e-12, 15, starts)[0]
            runs = [double_zs] + ([starts] if f.degree <= 30 else [])
        else:
            ctx, tol = DOUBLE, 1e-12
        for zs in runs:
            with mpmath.workdps(dps):
                got = entrokit.roots._aberth(ctx, f, tol, dps, zs and list(zs))
                want = aberth_reference(ctx, f, tol, dps, zs and list(zs))
            assert repr(got) == repr(want)


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
    # one squarefree split per classification and no find_roots call: the
    # rational peel and the disk stage read the same parts.  A squarefree
    # cofactor g costs one gcd, the check gcd(g, g'), whether boundary roots
    # are present (Lehmer) or not (random degree 64); the capped input, whose
    # cofactor passes _FACTOR_CAP but whose part 2t^3 - 3t^2 - 4t + 6 does
    # not, still splits once and keeps 3/2 exact
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)
        return wrapper

    for module in (entrokit.roots, entrokit.polynomials):
        for name in ("find_roots", "poly_gcd", "squarefree_decomposition"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rng = random.Random(64)
    big = IntPolynomial((-10 ** 13, 1))
    capped = IntPolynomial((-3, 2)) * IntPolynomial((-2, 0, 1)) * big * big
    for f in (LEHMER, IntPolynomial([rng.choice((-1, 1)) for _ in range(65)]), capped):
        calls.clear()
        cl = classify_unit_circle(f)
        assert classified_root_count(cl) == f.degree
        names = [name for name, _ in calls]
        assert names.count("squarefree_decomposition") == 1 and "find_roots" not in names
        if f is not capped:
            assert names == ["squarefree_decomposition", "poly_gcd"]
            g = calls[0][1][0]
            assert calls[1][1] == (g, g.derivative())
    assert cl.rational == ((Fraction(3, 2), 1), (Fraction(10 ** 13), 2))


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

    # quarter-integer centres and radii make tangent disks, equal real parts
    # and identical centres frequent; 1e3 is a disk much wider than the rest
    _quarter = st.integers(-16, 16).map(lambda k: k / 4)
    _coordinate = st.one_of(_quarter, st.floats(-4, 4))
    _radius = st.one_of(_quarter.map(abs), st.floats(0, 3), st.sampled_from((1e3, 1e-300)))

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.builds(complex, _coordinate, _coordinate), _radius),
                    max_size=12))
    def test_disjoint_is_the_all_pairs_test(pairs):
        assert entrokit.roots._disjoint(pairs) == disjoint_reference(pairs)

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


def test_disjoint_on_tangent_equal_and_wide_disks():
    disjoint = entrokit.roots._disjoint
    small = [(complex(x, 0.0), 0.25) for x in range(10)]
    for pairs, want in (
            ([(0j, 1.0), (3 + 0j, 2.0)], False),              # tangent: |z - w| == r + s
            ([(0j, 2.0), (3 + 4j, 3.0)], False),              # tangent off the axis
            ([(1 + 1j, 0.0), (1 + 1j, 0.0)], False),          # identical centres
            ([(1 + 0j, 0.5), (1 + 2j, 0.5), (1 - 2j, 0.5)], True),   # equal real parts
            (small + [(30 + 0j, 21.0)], False),               # wide disk meets the last small one
            (small + [(30 + 0j, 20.5)], True)):
        assert disjoint(pairs) is disjoint_reference(pairs) is want
        assert disjoint(pairs[::-1]) is want


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


# ----------------------------------------------------------------------
# the per-part rational peel against a planted factorization

if given is not None:
    _CAP = 10 ** 12        # the divisor search runs on parts within it

    # a root a/b, 0 and +-1 left out: those come off before the split
    _planted_root = st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15),
                              st.integers(1, 10 ** 15)).filter(lambda r: abs(r) not in (0, 1))

    @st.composite
    def _irreducible_quadratic(draw):
        """(a, b, c) of a primitive a t^2 + b t + c, a > 0, with no rational
        root (b^2 - 4ac is not a square) and not cyclotomic."""
        a, b, c = draw(st.integers(1, 5)), draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
        disc = b * b - 4 * a * c
        assume(math.gcd(a, b, c) == 1 and (a, abs(b), c) not in ((1, 0, 1), (1, 1, 1)))
        assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
        return a, b, c

    def _planted_roots_apart(roots, quadratics) -> bool:
        """Every two planted roots further apart than 1e-6 of their size:
        disks are centred on complex doubles, so two roots closer than about
        2**-50 of their size cannot be told apart by the disk stage."""
        zs = [complex(r) for r in roots]
        for a, b, c in quadratics:
            s = cmath.sqrt(b * b - 4 * a * c)
            zs += [(-b + s) / (2 * a), (-b - s) / (2 * a)]
        return all(abs(z - w) > 1e-6 * max(1.0, abs(z), abs(w))
                   for i, z in enumerate(zs) for w in zs[:i])

    @settings(max_examples=100)
    @given(st.lists(st.tuples(_planted_root, st.integers(1, 3)), min_size=1, max_size=4,
                    unique_by=lambda rk: rk[0]),
           st.lists(st.tuples(_irreducible_quadratic(), st.integers(1, 3)), max_size=2,
                    unique_by=lambda qk: qk[0]))
    def test_rational_roots_are_peeled_part_by_part(linears, quadratics):
        # f = prod (b t - a)**k * prod (a t^2 + b t + c)**k; the squarefree
        # part of multiplicity k is the product of the factors planted with
        # k, and its extreme coefficients are the products of theirs.  A root
        # is exact when its part is its linear factor alone or is within
        # the cap
        assume(_planted_roots_apart([r for r, _ in linears], [q for q, _ in quadratics]))
        factors = [((-r.numerator, r.denominator), k) for r, k in linears]
        factors += [((c, b, a), k) for (a, b, c), k in quadratics]
        f = math.prod([IntPolynomial(coeffs) for coeffs, k in factors for _ in range(k)],
                      start=IntPolynomial((1,)))
        parts = {}
        for coeffs, k in factors:
            parts.setdefault(k, []).append(coeffs)

        def exact(k):
            part = parts[k]
            return len(part) == 1 and len(part[0]) == 2 or (
                abs(math.prod(c[0] for c in part)) <= _CAP
                and math.prod(c[-1] for c in part) <= _CAP)

        cl = classify_unit_circle(f)
        assert cl.rational == tuple(sorted((r, k) for r, k in linears if exact(k)))
        assert classified_root_count(cl) == f.degree
