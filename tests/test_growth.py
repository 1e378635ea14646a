import math

import pytest

from entrokit import growth
from entrokit.errors import BudgetExceeded, InputError
from entrokit.growth import (
    DirectProduct,
    Free,
    FreeAbelian,
    Heisenberg3,
    bass_guivarch,
    family_from_spec,
    growth_exponent,
    growth_rate,
    growth_table,
)

from oracles import ball_distances, growth_reference


def test_free_group_closed_form():
    table = growth_table(Free(2), 8)
    assert table.gamma == tuple(1 + 2 * (3 ** n - 1) for n in range(9))


def test_free_group_enlarged_generators():
    fam = family_from_spec("free:2:standard+ab")
    table = growth_table(fam, 6)
    assert table.gamma == tuple(1 + 2 * (4 ** n - 1) for n in range(7))


def test_free_rank3_closed_form():
    table = growth_table(Free(3), 5)
    assert table.gamma == tuple(1 + 3 * (5 ** n - 1) // 2 for n in range(6))


def test_abelian_ball_counts():
    table = growth_table(FreeAbelian(2), 20)
    assert table.gamma == tuple(2 * n * n + 2 * n + 1 for n in range(21))
    line = growth_table(FreeAbelian(1), 10)
    assert line.gamma == tuple(2 * n + 1 for n in range(11))


def test_abelian_spheres_have_a_closed_form():
    # Z^D has no multiplication, so no element of its ball can be built:
    # its spheres are counted by supports, signs and compositions
    assert not hasattr(FreeAbelian(3), "multiply")
    assert growth_table(FreeAbelian(1000), 2).gamma == (1, 2001, 2002001)
    assert growth_table(FreeAbelian(3), 6).gamma == growth_reference(["abelian:3"], 6)


def test_submultiplicative_and_monotone():
    for fam in (Free(2), FreeAbelian(2), Heisenberg3(),
                DirectProduct([FreeAbelian(1), Heisenberg3()])):
        gamma = growth_table(fam, 8).gamma
        for a, b in zip(gamma, gamma[1:]):
            assert b > a
        for i in range(1, 9):
            for j in range(1, 9 - i):
                assert gamma[i + j] <= gamma[i] * gamma[j]


def test_growth_rate_free_group():
    table = growth_table(Free(2), 12)
    rate = growth_rate(table)
    assert abs(rate.estimate - math.log(3)) < 0.01
    assert rate.fekete_min >= math.log(3) - 1e-9


def test_growth_rate_polynomial_families():
    rate = growth_rate(growth_table(FreeAbelian(2), 40))
    assert rate.estimate < 0.2
    rate = growth_rate(growth_table(FreeAbelian(3), 15))
    assert rate.estimate < 0.5


def test_growth_rate_s_prime():
    table = growth_table(family_from_spec("free:2:standard+ab"), 10)
    assert abs(growth_rate(table).estimate - math.log(4)) < 0.01


def test_growth_exponent_abelian():
    assert abs(growth_exponent(growth_table(FreeAbelian(2), 40)) - 2) < 0.3
    assert abs(growth_exponent(growth_table(FreeAbelian(1), 30)) - 1) < 0.3


def test_growth_exponent_heisenberg():
    table = growth_table(Heisenberg3(), 25)
    assert abs(growth_exponent(table) - 4) < 0.5


def test_growth_exponent_flags_exponential():
    assert growth_exponent(growth_table(Free(2), 12)) == math.inf


def test_bass_guivarch():
    assert bass_guivarch([3]) == 3
    assert bass_guivarch([2, 1]) == 4
    assert bass_guivarch([0]) == 0
    with pytest.raises(InputError):
        bass_guivarch([])


def test_bass_guivarch_matches_empirical_exponents():
    # abelian of rank d: ranks [d]; Heisenberg: ranks [2, 1]
    assert abs(bass_guivarch([2]) - growth_exponent(growth_table(FreeAbelian(2), 40))) < 0.3
    assert abs(bass_guivarch([2, 1]) - growth_exponent(growth_table(Heisenberg3(), 25))) < 0.5


def test_family_spec_parsing():
    assert family_from_spec("abelian:3").rank == 3
    assert family_from_spec("heisenberg").describe().startswith("discrete")
    for spec in ["grigorchuk", "abelian", "abelian:1:2", "free", "free:2:weird",
                 "free:2:", "free:0", "free:1:standard+ab", "heisenberg:3",
                 "product:", "product:free:2,,abelian:1", ""]:
        with pytest.raises(InputError):
            family_from_spec(spec)


# the first five horizons are quick checks; the free groups run to the
# largest horizon whose reference ball has at most 2 * 10**5 elements and
# the free abelian groups to the largest with at most 5 * 10**4, except
# that free:1 stops at 1,000, as its long words make the reference
# quadratic, and so does abelian:1
@pytest.mark.parametrize("spec, horizon", [
    ("free:2", 7), ("free:3", 5), ("free:2:standard+ab", 6),
    ("free:3:standard+ab", 5), ("heisenberg", 14),
    ("free:1", 1000), ("free:2", 10), ("free:3", 7), ("free:4", 6),
    ("free:2:standard+ab", 8), ("free:3:standard+ab", 6), ("free:4:standard+ab", 5),
    ("product:free:2:standard+ab,heisenberg", 7),
    ("abelian:1", 1000), ("abelian:2", 157), ("abelian:3", 32), ("abelian:4", 15),
    ("abelian:5", 10), ("abelian:6", 8), ("product:abelian:1,abelian:2", 32),
    ("product:free:2,abelian:3", 7)])
def test_spheres_match_reference(spec, horizon):
    gamma = growth_table(family_from_spec(spec), horizon).gamma
    factors = spec[len("product:"):].split(",") if spec.startswith("product:") else [spec]
    assert gamma == growth_reference(factors, horizon)


def _reduced_words(rank, length, word=()):
    """Every reduced word over the letters +-1 .. +-rank that extends word
    by at most length letters."""
    yield word
    if length:
        for a in range(-rank, rank + 1):
            if a and not (word and word[-1] == -a):
                yield from _reduced_words(rank, length - 1, word + (a,))


def _standard_ab_length(word):
    # |w| less the occurrences of x_1 x_2 and X_2 X_1
    return len(word) - sum(pair in ((1, 2), (-2, -1)) for pair in zip(word, word[1:]))


@pytest.mark.parametrize("rank, radius", [(2, 8), (3, 6)])
def test_standard_ab_length_is_the_reduced_length_less_the_pairs(rank, radius):
    # every element of the reference ball has the length of the lemma in
    # _free_spheres, and so has every reduced word of free length <= 8 that
    # the ball can hold (the F_3 ball of radius 8 has 3.6 million elements)
    distance = ball_distances([f"free:{rank}:standard+ab"], radius)
    assert all(d == _standard_ab_length(w) for (w,), d in distance.items())
    assert all((w,) in distance for w in _reduced_words(rank, 8)
               if _standard_ab_length(w) <= radius)


def test_free_spheres_closed_forms():
    # 2k (2k - 1)^(r - 1) words of length r; 6 * 4^(r - 1) with x_1 x_2 added
    for rank in range(1, 5):
        gamma = growth_table(Free(rank), 300, budget=10**400).gamma
        assert [b - a for a, b in zip(gamma, gamma[1:])] == \
            [2 * rank * (2 * rank - 1) ** (r - 1) for r in range(1, 301)]
    gamma = growth_table(Free(2, ab=True), 300, budget=10**400).gamma
    assert [b - a for a, b in zip(gamma, gamma[1:])] == \
        [6 * 4 ** (r - 1) for r in range(1, 301)]


def _count_spheres(monkeypatch):
    """The list to which each sphere size growth_table pulls appends a 1."""
    pulled = []
    spheres = growth._spheres

    def counting_spheres(family):
        for s in spheres(family):
            pulled.append(1)
            yield s

    monkeypatch.setattr(growth, "_spheres", counting_spheres)
    return pulled


def test_heisenberg_budget_stops_at_the_first_radius_past_it(monkeypatch):
    gamma = growth_table(Heisenberg3(), 30).gamma
    first = next(r for r, g in enumerate(gamma) if g > 10**4)
    pulled = _count_spheres(monkeypatch)
    with pytest.raises(BudgetExceeded):
        growth_table(Heisenberg3(), 10**6, budget=10**4)
    assert len(pulled) == first + 1


def test_heisenberg_horizon_is_bounded_by_the_budget_alone():
    # the 20-bit packing stopped at radius 1,448; the fibres have no limit
    with pytest.raises(BudgetExceeded) as raised:
        growth_table(Heisenberg3(), 1449, budget=10**4)
    assert str(raised.value) == "ball enumeration exceeded budget of 10000"


def test_free_budget_stops_at_the_first_radius_past_it(monkeypatch):
    # the ball of radius 7 has 2 * 4^7 - 1 = 32767 > 10**4 elements
    pulled = _count_spheres(monkeypatch)
    with pytest.raises(BudgetExceeded):
        growth_table(family_from_spec("free:2:standard+ab"), 10**6, budget=10**4)
    assert len(pulled) == 7 + 1


def test_generating_set_checked_against_the_budget():
    # the generating set is the sphere of radius 1: 12 generators and the
    # identity exceed a budget of 12
    for spec, budget in [("free:6", 12), ("free:2:standard+ab", 6),
                         ("product:heisenberg,free:6", 12), ("heisenberg", 4)]:
        with pytest.raises(BudgetExceeded):
            family_from_spec(spec, budget=budget)
    assert family_from_spec("free:6", budget=13).describe() == \
        "free of rank 6 with 12 generators"
    assert family_from_spec("free:2:standard+ab", budget=7).describe() == \
        "free of rank 2 with 6 generators"
    assert isinstance(family_from_spec("heisenberg", budget=5), Heisenberg3)
    with pytest.raises(BudgetExceeded):
        family_from_spec("abelian:10000000", budget=5_000_000)


def test_product_budget_stops_at_the_first_radius_past_it(monkeypatch):
    # the ball of Z x Z has 2n^2 + 2n + 1 elements, past 3 * 10**5 at
    # n = 387: no sphere is computed beyond that radius
    pulled = _count_spheres(monkeypatch)
    with pytest.raises(BudgetExceeded):
        growth_table(family_from_spec("product:abelian:1,abelian:1"), 10**5,
                     budget=3 * 10**5)
    assert len(pulled) <= 3 * 388      # the product and its two factors
    # nothing is allocated per radius of the horizon
    with pytest.raises(BudgetExceeded):
        growth_table(family_from_spec("product:heisenberg,free:2"), 10**9,
                     budget=10**4)


def test_product_spheres_are_convolved():
    # |(g, h)| = |g| + |h|: the product has no multiplication, so its
    # ball is never enumerated
    fam = family_from_spec("product:free:2,abelian:2")
    assert not hasattr(fam, "multiply")
    assert growth_table(fam, 8).gamma == growth_reference(["free:2", "abelian:2"], 8)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests below need hypothesis
    given = None

if given is not None:
    # factors with at most 8 generators in all keep the reference BFS small
    _FACTOR_GENERATORS = {"free:1": 2, "free:2": 4, "free:2:standard+ab": 6,
                          "free:3": 6, "free:3:standard+ab": 8, "abelian:1": 2, "abelian:2": 4, "abelian:3": 6,
                          "heisenberg": 4}
    _products = st.lists(st.sampled_from(sorted(_FACTOR_GENERATORS)),
                         min_size=1, max_size=3).filter(
        lambda fs: sum(_FACTOR_GENERATORS[f] for f in fs) <= 8)

    @settings(max_examples=60)
    @given(_products, st.integers(1, 6), st.integers(-3, 3))
    def test_product_growth_matches_reference(specs, horizon, offset):
        gamma = growth_reference(specs, horizon)
        fam = family_from_spec("product:" + ",".join(specs))
        budget = max(1, gamma[horizon] + offset)
        if gamma[horizon] > budget:
            with pytest.raises(BudgetExceeded):
                growth_table(fam, horizon, budget=budget)
        else:
            assert growth_table(fam, horizon, budget=budget).gamma == gamma
