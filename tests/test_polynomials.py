import math
import random
import tracemalloc
from fractions import Fraction
from itertools import repeat

import pytest

from entrokit import polynomials
from entrokit.errors import InputError, NotPrimitive, ZeroPolynomial
from entrokit.linalg import Lattice
from entrokit.mahler import mahler_measure
from entrokit.polynomials import (
    IntPolynomial,
    clear_denominators,
    cyclotomic,
    cyclotomic_candidates,
    delta_exact,
    is_prime,
    parse_fraction,
    poly_from_json,
    poly_gcd,
    rational_roots,
    squarefree_decomposition,
    strip_cyclotomic_factors,
    try_exact_divide,
)
from entrokit.roots import classify_unit_circle

from oracles import delta_reference, gcd_over_q, resultant, strip_reference

LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def _content_primitive(values):
    """(content, primitive part) of a polynomial with rational coefficients,
    through clear_denominators and IntPolynomial.primitive: the content is
    signed so that the primitive part has positive lead."""
    d, ints = clear_denominators(values)
    f = IntPolynomial(ints)
    prim = f.primitive()
    return Fraction(f.lead, prim.lead * d), prim


def test_content_primitive_examples():
    c, p = _content_primitive([-1, -1, 1])
    assert c == 1 and p.coeffs == (-1, -1, 1)
    c, p = _content_primitive([Fraction(-1, 2), Fraction(1, 2)])
    assert c == Fraction(1, 2) and p.coeffs == (-1, 1)
    c, p = _content_primitive([Fraction(-1, 2), 1])
    assert c == Fraction(1, 2) and p.coeffs == (-1, 2)
    c, p = _content_primitive([Fraction(2, 3), Fraction(-4, 3)])
    assert c == Fraction(-2, 3) and p.coeffs == (-1, 2)


def test_content_primitive_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 7))]
        if all(c == 0 for c in coeffs):
            coeffs.append(Fraction(1))
        while coeffs[-1] == 0:
            coeffs.pop()
        content, prim = _content_primitive(coeffs)
        rebuilt = [content * c for c in prim.coeffs]
        assert rebuilt == coeffs
        assert prim.lead > 0
        assert prim.content() == 1


def test_content_rejects_zero():
    for values in ([], [0], [Fraction(0), Fraction(0, 7)]):
        with pytest.raises(ZeroPolynomial):
            IntPolynomial(clear_denominators(values)[1]).primitive()


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    # oracle: exact division of t^12 - 1 by the proper-divisor cyclotomics
    t12 = IntPolynomial((-1,) + (0,) * 11 + (1,))
    q = t12
    for d in (1, 2, 3, 4, 6):
        q = try_exact_divide(q, cyclotomic(d))
    assert q.coeffs == cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("m", range(1, 401))
def test_cyclotomic_product_identity(m):
    prod = IntPolynomial((1,))
    for d in range(1, m + 1):
        if m % d == 0:
            prod = prod * cyclotomic(d)
    assert prod.coeffs == ((-1,) + (0,) * (m - 1) + (1,))


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 201):
        want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        assert cyclotomic(m).coeffs == tuple(int(c) for c in reversed(want))


def test_rational_roots_rebuild_the_input():
    # f = cofactor * prod (b t - a) for a squarefree f, every root simple; a
    # linear cofactor is peeled even beyond _FACTOR_CAP, and its content
    # stays in the cofactor
    quadratic = IntPolynomial((-2, 0, 1))
    within = quadratic * IntPolynomial((-3, 2))
    past = within * IntPolynomial((-10 ** 13, 1))
    cases = [
        (IntPolynomial((6, 4)), [Fraction(-3, 2)], (2,)),
        (IntPolynomial((10 ** 400, 1)), [Fraction(-10 ** 400)], (1,)),
        (IntPolynomial((0, -2, 1)) * IntPolynomial((-1, 3)) * IntPolynomial((1, 1, 1)),
         [0, Fraction(1, 3), 2], (1, 1, 1)),
        (within, [Fraction(3, 2)], quadratic.coeffs),
        # the extreme coefficients of f decide the divisor search: past
        # _FACTOR_CAP it is skipped, and 3/2 and 1e13 stay in the cofactor
        (past, [], past.coeffs),
    ]
    for f, want_roots, want_cofactor in cases:
        roots, cofactor = rational_roots(f)
        assert roots == want_roots and cofactor.coeffs == want_cofactor
        rebuilt = cofactor
        for root in roots:
            rebuilt = rebuilt * IntPolynomial((-root.numerator, root.denominator))
        assert rebuilt == f


def test_non_integral_entries_are_input_errors():
    # int() would read 2.9 as 2 (so the measure of 2.9 + t came out as
    # exactly log 2), 1/2 as 0 and the column (1.5, 0) as (1, 0)
    with pytest.raises(InputError, match="not an integer"):
        mahler_measure(IntPolynomial([2.9, 1]))
    with pytest.raises(InputError, match="not an integer"):
        IntPolynomial([Fraction(1, 2), 1])
    with pytest.raises(InputError, match="not an integer"):
        Lattice.from_columns([[1.5, 0], [0, 2]])
    # integral values of other types are read exactly
    assert IntPolynomial([2.0, Fraction(4, 2), 1]).coeffs == (2, 2, 1)
    assert Lattice.from_columns([[1.0, 0], [0, Fraction(4, 2)]]) \
        == Lattice.from_columns([[1, 0], [0, 2]])


def test_numpy_integers_become_builtin_ints():
    # a numpy int64 coefficient would wrap around in products
    np = pytest.importorskip("numpy")
    p = IntPolynomial([np.int64(2 ** 62), np.int64(1)])
    assert all(type(c) is int for c in p.coeffs)
    assert (p * p).coeffs == (2 ** 124, 2 ** 63, 1)


def test_is_zero_mahler():
    assert mahler_measure(IntPolynomial((1, 1, 1))).is_zero()
    assert not mahler_measure(IntPolynomial((-1, -1, 0, 1))).is_zero()
    assert not mahler_measure(IntPolynomial((-1, 2))).is_zero()
    assert mahler_measure(cyclotomic(7) * cyclotomic(12)).is_zero()
    assert mahler_measure(-cyclotomic(5)).is_zero()


def test_is_zero_mahler_products_up_to_20():
    for m1 in range(1, 21):
        for m2 in range(m1, 21):
            assert mahler_measure(cyclotomic(m1) * cyclotomic(m2)).is_zero()


def test_is_zero_mahler_requires_primitive():
    # the measure is that of the primitive part; the exact peel itself
    # takes primitive input only
    assert mahler_measure(IntPolynomial((2, 2))).is_zero()
    with pytest.raises(NotPrimitive):
        classify_unit_circle(IntPolynomial((2, 2)))


def test_cyclotomic_candidates_match_brute_force_totients():
    # euler_phi(m) as a gcd count, over 1..2 d^2 for d up to 40
    top = 2 * 40 * 40
    phi = [0] + [sum(map((1).__eq__, map(math.gcd, range(m), repeat(m))))
                 for m in range(1, top + 1)]
    for order in (range(1, 41), range(40, 0, -1)):
        cyclotomic_candidates.cache_clear()
        for d in order:
            want = [m for m in range(1, 2 * d * d + 1) if phi[m] <= d]
            assert cyclotomic_candidates(d) == want
    cyclotomic_candidates.cache_clear()


def test_cyclotomic_candidates_of_a_large_degree_stay_small():
    # a totient sieve to 2 d^2 peaked at about 320 MB for d = 2000
    cyclotomic_candidates.cache_clear()
    tracemalloc.start()
    try:
        candidates = cyclotomic_candidates(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        cyclotomic_candidates.cache_clear()
    assert len(candidates) == 3884 and peak < 2 * 10 ** 6


def test_strip_cyclotomic_factors():
    f = cyclotomic(4) * cyclotomic(4) * IntPolynomial((-2, 1))
    factors, cofactor = strip_cyclotomic_factors(f)
    assert factors == [(4, 2)]
    assert cofactor.coeffs == (-2, 1)


def test_delta_exact_examples():
    assert [delta_exact(IntPolynomial((-2, 1)), n) for n in range(1, 4)] == [1, 3, 7]
    assert [delta_exact(IntPolynomial((-1, -1, 1)), n) for n in range(1, 6)] \
        == [1, 1, 4, 5, 11]


def test_delta_matches_sylvester_oracle():
    for f, horizon in ((IntPolynomial((-1, -1, 1)), 59), (LEHMER, 60),
                       (cyclotomic(12) * IntPolynomial((-2, 1)), 30),
                       (IntPolynomial((-2, 1)), 10)):
        for n in range(1, horizon + 1):
            assert delta_exact(f, n) == delta_reference(f.coeffs, n)


def test_delta_degenerate():
    # D_n = 0 is an exact answer: some root is an n-th root of unity
    assert [delta_exact(IntPolynomial((-1, 1)), n) for n in (1, 2)] == [0, 0]
    f = cyclotomic(12) * IntPolynomial((-2, 1))
    for n in range(1, 37):
        assert (delta_exact(f, n) == 0) == (n % 12 == 0)


def test_delta_slope_converges_to_measure():
    # log D_n / n approaches m(t^2 - t - 1) = log golden ratio
    f = IntPolynomial((-1, -1, 1))
    slope = math.log(delta_exact(f, 200)) / 200
    assert abs(slope - math.log((1 + 5 ** 0.5) / 2)) <= 0.05


def test_delta_rejects_non_monic_and_nonpositive_n():
    with pytest.raises(InputError):
        delta_exact(IntPolynomial((-1, 2)), 3)
    with pytest.raises(InputError):
        delta_exact(LEHMER, 0)


def test_is_prime():
    for n in range(-3, 20_000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)))
    # strong pseudoprimes to the first 4 and the first 8 prime bases
    assert not is_prime(3_215_031_751) and not is_prime(341_550_071_728_321)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime((2 ** 31 - 1) * 1_000_003)
    with pytest.raises(InputError):
        is_prime(2 ** 89 - 1)


def test_resultant_against_eigenvalue_product():
    # Res(f, g) = lead(f)^deg(g) * prod g(root): for f = (t-2)(t-3),
    # g = t^2 - 1: (4-1)(9-1) = 24
    assert resultant((6, -5, 1), (-1, 0, 1)) == 24


def test_squarefree_decomposition():
    f = IntPolynomial((-1, 1)) * IntPolynomial((-1, 1)) * IntPolynomial((-2, 1))
    parts = squarefree_decomposition(f)
    assert (IntPolynomial((-2, 1)), 1) in parts
    assert (IntPolynomial((-1, 1)), 2) in parts


def test_squarefree_decomposition_of_a_repeated_pm1_factor():
    # (2t - 3) g**3 for a squarefree +-1 polynomial g of degree 40; 2t - 3
    # is coprime to g, since a +-1 polynomial has no rational root but +-1
    rng = random.Random(40)
    g = IntPolynomial([rng.choice((-1, 1)) for _ in range(41)]).primitive()
    assert gcd_over_q(g.coeffs, g.derivative().coeffs) == (1,)
    linear = IntPolynomial((-3, 2))
    f = linear * g * g * g
    assert squarefree_decomposition(f) == [(linear, 1), (g, 3)]
    assert squarefree_decomposition(-f * 7) == [(linear, 1), (g, 3)]


def test_poly_gcd_zero_arguments():
    # gcd(f, 0) = gcd(0, f) = pp(f), gcd(0, 0) = 0; results are primitive
    # with positive lead
    f = IntPolynomial((-4, 0, -6))
    zero = IntPolynomial(())
    assert poly_gcd(f, zero) == poly_gcd(zero, f) == IntPolynomial((2, 0, 3))
    assert poly_gcd(zero, zero).is_zero()
    assert poly_gcd(IntPolynomial((-5,)), zero) == IntPolynomial((1,))
    assert poly_gcd(IntPolynomial((6,)), f) == IntPolynomial((1,))
    assert poly_gcd(f * -3, f * 5) == IntPolynomial((2, 0, 3))


def test_poly_gcd_grows_xi_until_the_candidate_divides(monkeypatch):
    # f = 2t^3 - t^2 - t + 2 is squarefree, but at xi = 6 and 13 the digits
    # of gcd(f(xi), f'(xi)) read t + 1 and t - 6; only xi = 27 reads 1.  A
    # round ends in a division of f by its candidate, so these are counted.
    f = IntPolynomial((2, -1, -1, 2))
    divisors = []
    divide = polynomials.try_exact_divide

    def counted(a, d):
        if a == f:
            divisors.append(d.coeffs)
        return divide(a, d)

    monkeypatch.setattr(polynomials, "try_exact_divide", counted)
    assert poly_gcd(f, f.derivative()) == IntPolynomial((1,))
    assert divisors == [(1, 1), (-6, 1), (1,)]


def test_poly_json_round_trip():
    # rational coefficients are scaled by the lcm of their denominators
    f = poly_from_json(["1/2", "-3", "2/7"])
    assert f.coeffs == (7, -42, 4)
    assert poly_from_json({"coeffs": ["7", "-42", "4"]}) == f
    assert poly_from_json({"coeffs": ["1", "0", "-2"]}) == IntPolynomial((1, 0, -2))


# ----------------------------------------------------------------------
# exact division over Z, against the product and against sympy

def test_entry_digit_bound_counts_digits_and_exponent():
    # an entry may expand to 100,000 digits, mantissa and exponent together
    assert parse_fraction("1e99999") == 10 ** 99999
    assert parse_fraction("1" * 4000 + "e95999") == (10 ** 4000 - 1) // 9 * 10 ** 95999
    assert parse_fraction("1e" + "0" * 20 + "5") == 10 ** 5
    for text in ["1e100000", "10e99999", "1" * 4000 + "e96001", "1e-100000",
                 "1" * 100_001, "1e" + "9" * 10 ** 6, "1E+1_000_000"]:
        with pytest.raises(InputError, match="expands to more than 100000 digits"):
            parse_fraction(text)


try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the property tests below need hypothesis
    given = None

if given is not None:
    _coeffs = st.lists(st.integers(-30, 30), min_size=1, max_size=8)
    _nonzero = _coeffs.filter(lambda c: c[-1] != 0)

    @given(_coeffs, _nonzero)
    def test_try_exact_divide_recovers_quotient(q0, d):
        q0, d = IntPolynomial(q0), IntPolynomial(d)
        assert try_exact_divide(q0 * d, d) == q0

    @given(_coeffs, _nonzero, st.lists(st.integers(-2, 2), max_size=3))
    def test_try_exact_divide_agrees_with_sympy(q0, d, r):
        # f = q0 * d + r is often, but not always, divisible by d
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        d = IntPolynomial(d)
        f = IntPolynomial(q0) * d + IntPolynomial(r)
        q = try_exact_divide(f, d)
        if q is not None:
            assert q * d == f
        sf, sd = (sympy.Poly(list(reversed(p.coeffs)) or [0], x, domain=sympy.ZZ)
                  for p in (f, d))
        _, rem = sf.div(sd, auto=False)
        assert (q is None) == (not rem.is_zero)

    @given(st.lists(st.fractions(max_denominator=9), max_size=6))
    def test_clear_denominators_and_primitive_part(values):
        d, ints = clear_denominators(values)
        assert all(type(c) is int for c in ints)
        assert ints == [d * v for v in values]
        assert d >= 1 and not any(all((m * v).denominator == 1 for v in values)
                                  for m in range(1, d))
        f = IntPolynomial(ints)
        if f.is_zero():
            with pytest.raises(ZeroPolynomial):
                f.primitive()
        else:
            prim = f.primitive()
            assert prim.lead > 0 and prim.content() == 1
            assert prim * (f.content() * (1 if f.lead > 0 else -1)) == f

    # monic f of degree <= 6; one Sylvester determinant of size <= 66 each
    _monic = st.lists(st.integers(-3, 3), max_size=6).map(lambda c: IntPolynomial(c + [1]))

    @given(_monic, st.integers(1, 60))
    def test_delta_exact_agrees_with_sylvester(f, n):
        assert delta_exact(f, n) == delta_reference(f.coeffs, n)

    # ------------------------------------------------------------------
    # gcd over Z and squarefree decomposition, against the Euclid over Q

    _factor = st.lists(st.integers(-50, 50), min_size=1, max_size=7).map(IntPolynomial)

    @given(_factor, _factor, _factor)
    def test_poly_gcd_matches_the_euclid_over_q(g, a, b):
        f, h = g * a, g * b
        assert poly_gcd(f, h).coeffs == gcd_over_q(f.coeffs, h.coeffs)
        assert poly_gcd(f, f.derivative()).coeffs \
            == gcd_over_q(f.coeffs, f.derivative().coeffs)

    @settings(max_examples=50)
    @given(_factor, _factor, _factor)
    def test_poly_gcd_agrees_with_sympy(g, a, b):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        f, h = g * a, g * b
        want = sympy.Poly(list(reversed(f.coeffs)) or [0], x, domain=sympy.ZZ).gcd(
            sympy.Poly(list(reversed(h.coeffs)) or [0], x, domain=sympy.ZZ))
        got = poly_gcd(f, h)
        if want.is_zero:
            assert got.is_zero()
        else:
            want = want.primitive()[1]
            want = -want if want.LC() < 0 else want
            assert got.coeffs == tuple(int(c) for c in reversed(want.all_coeffs()))

    def _power_product(pairs):
        f = IntPolynomial((1,))
        for p, k in pairs:
            for _ in range(k):
                f = f * p
        return f

    def _is_squarefree(p):
        return gcd_over_q(p.coeffs, p.derivative().coeffs) == (1,)

    _sqf_factor = st.lists(st.integers(-6, 6), min_size=2, max_size=5).map(
        IntPolynomial).filter(lambda p: p.degree >= 1)

    @settings(max_examples=100)
    @given(st.lists(st.tuples(_sqf_factor, st.integers(1, 3)), min_size=1, max_size=3))
    def test_squarefree_decomposition_of_coprime_powers(pairs):
        # f = prod p_i ** k_i for squarefree, pairwise coprime p_i of total
        # degree <= 12: the part of multiplicity k is pp(prod of the p_i
        # with k_i = k)
        assume(sum(p.degree * k for p, k in pairs) <= 12)
        assume(all(_is_squarefree(p) for p, _ in pairs))
        assume(all(gcd_over_q(p.coeffs, q.coeffs) == (1,)
                   for i, (p, _) in enumerate(pairs) for q, _ in pairs[:i]))
        f = _power_product(pairs)
        parts = squarefree_decomposition(f)
        assert _power_product(parts) == f.primitive()
        assert all(_is_squarefree(p) and p.lead > 0 and p.content() == 1
                   for p, _ in parts)
        assert all(gcd_over_q(p.coeffs, q.coeffs) == (1,)
                   for i, (p, _) in enumerate(parts) for q, _ in parts[:i])
        want = {}
        for p, k in pairs:
            want[k] = want.get(k, IntPolynomial((1,))) * p
        assert parts == [(want[k].primitive(), k) for k in sorted(want)]

    # ------------------------------------------------------------------
    # the screen of strip_cyclotomic_factors, against trial division

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(1, 60), st.integers(1, 3)), min_size=1, max_size=4),
           _nonzero.filter(lambda c: len(c) <= 5))
    def test_strip_cyclotomic_factors_matches_unscreened_division(powers, cofactor):
        # Phi_m of m <= 60 with multiplicities 1-3 times a cofactor that may
        # hold cyclotomic factors itself; factors past degree 64 are left
        # out to keep the oracle's trial divisions few
        f = IntPolynomial(cofactor)
        for m, k in powers:
            for _ in range(k):
                if f.degree + cyclotomic(m).degree <= 64:
                    f = f * cyclotomic(m)
        factors, rest = strip_cyclotomic_factors(f)
        assert (factors, rest) == strip_reference(f)
        assert math.prod([cyclotomic(m) for m, k in factors for _ in range(k)], start=rest) == f
