import math
import random
from fractions import Fraction

import mpmath
import pytest

from entrokit.errors import BudgetExceeded, InputError, WrongDomain
from entrokit.linalg import RatMatrix, char_poly
from entrokit.linear_entropy import (
    LinearFlow,
    algebraic_entropy,
    classify_growth,
    invariant_span,
    padic_valuation,
    restrict_to_subspace,
    topological_entropy,
    trajectory_oracle,
)
from entrokit.roots import classify_unit_circle
import entrokit.linear_entropy

from oracles import interval_contains, mat_pow, trajectory_reference

FIB = RatMatrix([[0, 1], [1, 1]])
GOLDEN = math.log((1 + 5 ** 0.5) / 2)


def block_diag(a, b):
    return RatMatrix([[*r, *[0] * b.n] for r in a.entries] + [[*[0] * a.n, *r] for r in b.entries])


def test_multiplication_map():
    v = algebraic_entropy(LinearFlow("zn", RatMatrix([[6]])))
    assert v.kind == "exact_log" and v.base == 6 and v.multiplier == 1


def test_fibonacci_matrix():
    v = algebraic_entropy(LinearFlow("zn", FIB))
    assert v.as_float() == pytest.approx(GOLDEN, abs=1e-10)


def test_rational_scalar_half():
    v = algebraic_entropy(LinearFlow("qn", RatMatrix([[Fraction(1, 2)]])))
    assert v.kind == "exact_log" and v.base == 2


def test_padic_scalars():
    assert algebraic_entropy(LinearFlow.padic_scalar(3, Fraction(1, 2))).is_zero()
    v = algebraic_entropy(LinearFlow.padic_scalar(5, Fraction(2, 25)))
    assert v.base == 5 and v.multiplier == 2
    v = algebraic_entropy(LinearFlow.padic_scalar(2, 8))
    assert v.is_zero()
    with pytest.raises(InputError):
        LinearFlow.padic_scalar(6, 1)


def test_padic_zero_scalar_has_zero_entropy():
    # log max(1, |0|_p) = 0, though the valuation of 0 is infinite
    assert algebraic_entropy(LinearFlow.padic_scalar(5, 0)).kind == "exact_zero"
    with pytest.raises(InputError):
        padic_valuation(Fraction(0), 5)


def test_zn_requires_integer_entries():
    with pytest.raises(InputError):
        LinearFlow("zn", RatMatrix([[Fraction(1, 2)]]))


def test_bowen_on_reals():
    v = topological_entropy(LinearFlow("rn", RatMatrix([[2, 0], [0, Fraction(1, 2)]])))
    assert v.kind == "exact_log" and v.base == 2 and v.multiplier == 1
    v = topological_entropy(LinearFlow("rn", RatMatrix([[0, -1], [1, 0]])))
    assert v.is_zero()


def test_reals_drop_the_leading_term():
    # x -> x/2 on R contracts: entropy 0, unlike the Q-linear value log 2
    half = RatMatrix([[Fraction(1, 2)]])
    assert algebraic_entropy(LinearFlow("rn", half)).is_zero()
    assert algebraic_entropy(LinearFlow("qn", half)).base == 2


def test_bridge_identity():
    toral = topological_entropy(LinearFlow("tn_dual", FIB))
    transpose = RatMatrix(list(zip(*FIB.entries)))
    lattice = algebraic_entropy(LinearFlow("zn", transpose))
    assert char_poly(FIB).coeffs == char_poly(transpose).coeffs
    (lo1, hi1), (lo2, hi2) = toral.interval(), lattice.interval()
    assert lo1 <= hi2 and lo2 <= hi1


def test_wrong_domains():
    with pytest.raises(WrongDomain):
        topological_entropy(LinearFlow("qn", FIB))


def test_rotation_roots_are_boundary_roots():
    # 5t^2 - 6t + 5 has the roots (3 +- 4i)/5: on the circle, not roots of
    # unity, so they stay boundary roots whose log|z| is only bounded above
    rotation = RatMatrix([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    caveat = classify_unit_circle(char_poly(rotation)).on_circle_caveat
    assert len(caveat) == 2
    assert all(abs(abs(r.approx) - 1) <= r.radius for r in caveat)


def test_log_law_and_weak_addition():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = RatMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        h = algebraic_entropy(LinearFlow("qn", a))
        for k in (2, 3):
            hk = algebraic_entropy(LinearFlow("qn", RatMatrix(mat_pow(a.entries, k))))
            assert abs(hk.as_float() - k * h.as_float()) <= k * h.error + hk.error + 1e-9
        b = RatMatrix([[rng.randint(-2, 2)]])
        hb = algebraic_entropy(LinearFlow("qn", b))
        direct = algebraic_entropy(LinearFlow("qn", block_diag(a, b)))
        assert abs(direct.as_float() - (h.as_float() + hb.as_float())) \
            <= h.error + hb.error + direct.error + 1e-9


def test_trajectory_oracle_doubling_map():
    p = trajectory_oracle(RatMatrix([[2]]), [(0,), (1,)], 10)
    assert p.sizes == tuple(2 ** n for n in range(1, 11))
    assert p.estimate == pytest.approx(math.log(2), abs=1e-12)


def test_trajectory_oracle_identity():
    p = trajectory_oracle(RatMatrix([[1, 0], [0, 1]]), [(0, 0), (1, 0), (0, 1)], 12)
    assert p.sizes == tuple((n + 1) * (n + 2) // 2 for n in range(1, 13))
    assert p.estimate < 0.2


def test_trajectory_oracle_fibonacci_band():
    p = trajectory_oracle(FIB, [(0, 0), (1, 0), (0, 1)], 18)
    assert 0.38 <= p.estimate <= 0.50
    assert p.fekete_upper >= GOLDEN - 1e-9


def test_trajectory_subadditivity_and_monotonicity():
    rng = random.Random(8)
    for _ in range(12):
        n = rng.randint(1, 2)
        a = RatMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        pts = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]
        profile = trajectory_oracle(a, pts, 12)
        sizes = (1,) + profile.sizes
        for i in range(1, len(profile.sizes) + 1):
            assert profile.sizes[i - 1] >= (profile.sizes[i - 2] if i > 1 else 0)
        for i in range(1, len(sizes)):
            for j in range(1, len(sizes) - i):
                assert sizes[i + j] <= sizes[i] * sizes[j]


def test_trajectory_oracle_budget_bounds_the_points_it_holds(monkeypatch):
    held = []

    class CountingSet(set):
        def update(self, *others):
            super().update(*others)
            held.append(len(self))

    monkeypatch.setattr(entrokit.linear_entropy, "set", CountingSet, raising=False)
    # F = {0, e1, e2, e1 + e2} under the Fibonacci matrix: |T_2| = 10, |T_3| = 21
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert trajectory_oracle(FIB, square, 3, budget=21).sizes == (4, 10, 21)
    held.clear()
    with pytest.raises(BudgetExceeded):
        trajectory_oracle(FIB, square, 3, budget=20)
    # the sumset is checked after each row t + A^2 F: it passes the budget
    # by at most |A^2 F| = 4 points, and only on the row that stops it
    assert 20 < max(held) <= 20 + 4
    assert max(held[:-1]) <= 20


def test_trajectory_oracle_widens_its_fields():
    # coordinates past 2**64, of both signs: fields of 72 bits and more
    big = [(2 ** 70, -3), (-5, 2 ** 66 + 1), (-(2 ** 65), 2 ** 64)]
    rows = [[0, 1], [1, 1]]
    assert trajectory_oracle(FIB, big, 6).sizes == trajectory_reference(rows, big, 6)
    # T_5 holds (5, 0) and (-3, 1), which 3-bit fields would pack alike:
    # a coordinate at the reach needs the sign bit
    rows, cross = [[1, 0], [0, 1]], [(1, 0), (-1, 0), (0, 1)]
    assert trajectory_oracle(RatMatrix(rows), cross, 5).sizes \
        == trajectory_reference(rows, cross, 5)
    # a rotation of order 4: the reach grows by one a step, so the 8-bit
    # fields sized for the first 64 steps widen to 9 bits at step 64
    rows = [[0, -1], [1, 0]]
    assert trajectory_oracle(RatMatrix(rows), [(1, 0)], 130).sizes \
        == trajectory_reference(rows, [(1, 0)], 130)


def test_invariant_span_and_restriction():
    span = invariant_span(FIB, [(1, 0)])
    assert len(span) == 2
    restricted = restrict_to_subspace(FIB, span)
    assert char_poly(restricted).coeffs == char_poly(FIB).coeffs
    # a proper invariant subspace
    a = RatMatrix([[2, 0], [0, 3]])
    span = invariant_span(a, [(1, 0)])
    assert span == [(Fraction(1), Fraction(0))]
    assert char_poly(restrict_to_subspace(a, span)).coeffs == (Fraction(-2), Fraction(1))


def test_classify_growth():
    pts = [(0, 0), (1, 0), (0, 1)]
    assert classify_growth(RatMatrix([[1, 0], [0, 1]]), pts, 8).kind == "polynomial"
    assert classify_growth(RatMatrix([[1, 1], [0, 1]]), pts, 8).kind == "polynomial"
    assert classify_growth(FIB, pts, 8).kind == "exponential"
    assert classify_growth(RatMatrix([[2]]), [(0,), (1,)], 8).kind == "exponential"
    # restriction matters: expansion confined to an invariant line not
    # touched by F keeps the observed growth polynomial
    a = RatMatrix([[1, 0], [0, 2]])
    res = classify_growth(a, [(0, 0), (1, 0)], 8)
    assert res.kind == "polynomial"
    res = classify_growth(a, [(0, 0), (0, 1)], 8)
    assert res.kind == "exponential"


def test_block_triangular_addition_identity():
    # the addition identity, cross-checked on block-triangular matrices:
    # the entropy of [[B, C], [0, D]] is the sum over the diagonal blocks
    rng = random.Random(55)
    for _ in range(15):
        nb, nd = rng.randint(1, 2), rng.randint(1, 2)
        b = RatMatrix([[rng.randint(-2, 2) for _ in range(nb)] for _ in range(nb)])
        d = RatMatrix([[rng.randint(-2, 2) for _ in range(nd)] for _ in range(nd)])
        rows = []
        for i in range(nb):
            coupling = [rng.randint(-2, 2) for _ in range(nd)]
            rows.append(list(b.entries[i]) + coupling)
        for i in range(nd):
            rows.append([0] * nb + list(d.entries[i]))
        full = algebraic_entropy(LinearFlow("qn", RatMatrix(rows)))
        hb = algebraic_entropy(LinearFlow("qn", b))
        hd = algebraic_entropy(LinearFlow("qn", d))
        budget = full.error + hb.error + hd.error + 1e-9
        assert abs(full.as_float() - hb.as_float() - hd.as_float()) <= budget


def test_rational_eigenvalues_give_a_certified_log():
    # a non-integer rational eigenvalue: log 3/2, approximate but certified
    with mpmath.workdps(100):
        want = mpmath.log(mpmath.mpf(3) / 2)
    v = topological_entropy(LinearFlow("rn", RatMatrix([[Fraction(3, 2)]])))
    assert v.kind == "approx"
    assert interval_contains(v.to_json(), want)


def test_padic_prime_check_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(-2, 400):
        if sympy.isprime(n):
            LinearFlow.padic_scalar(n, Fraction(1, n))
        else:
            with pytest.raises(InputError):
                LinearFlow.padic_scalar(n, 1)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests below need hypothesis
    given = None

if given is not None:
    @st.composite
    def _sumset_cases(draw):
        n = draw(st.integers(1, 3))
        entry = st.integers(-3, 3)
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        points = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=3))
        return rows, points, draw(st.integers(2, 6))

    @settings(max_examples=80, deadline=None)
    @given(_sumset_cases(), st.integers(-3, 3))
    def test_trajectory_oracle_matches_reference(case, offset):
        rows, points, horizon = case
        sizes = trajectory_reference(rows, points, horizon)
        # the sizes never fall, so the budget trips iff the last one passes it
        budget = max(1, sizes[-1] + offset)
        if sizes[-1] > budget:
            with pytest.raises(BudgetExceeded):
                trajectory_oracle(RatMatrix(rows), points, horizon, budget)
        else:
            assert trajectory_oracle(RatMatrix(rows), points, horizon,
                                     budget).sizes == sizes
