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

from oracles import growth_reference, reduce_word


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


def test_abelian_spheres_are_convolved():
    # Z^D is the D-fold product of Z: it has no multiplication, so no
    # element of its ball can be built
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


def test_generating_sets_are_symmetric():
    for fam in (Free(2), family_from_spec("free:3:standard+ab")):
        gens = fam.generators()
        ident = fam.identity()
        assert ident not in gens
        for g in gens:
            inverse = next(h for h in gens if fam.multiply(g, h) == ident)
            assert inverse in gens


def test_family_spec_parsing():
    assert family_from_spec("abelian:3").rank == 3
    assert family_from_spec("heisenberg").describe().startswith("discrete")
    for spec in ["grigorchuk", "abelian", "abelian:1:2", "free", "free:2:weird",
                 "free:2:", "free:0", "free:1:standard+ab", "heisenberg:3",
                 "product:", "product:free:2,,abelian:1", ""]:
        with pytest.raises(InputError):
            family_from_spec(spec)


def test_budget_per_insertion():
    # every element the search makes comes out of a bulk step
    for fam in (Free(2), family_from_spec("free:2:standard+ab")):
        made = set()
        real_step = fam.step

        def step(xs, i):
            out = real_step(xs, i)
            made.update(out)
            return out

        fam.step = step
        with pytest.raises(BudgetExceeded):
            growth_table(fam, 10, budget=100)
        assert made
        # the ball stops growing one element past the budget
        assert len(made | {fam.identity()}) <= 100 + 1


@pytest.mark.parametrize("spec", ["free:2", "free:3", "free:2:standard+ab"])
def test_step_is_bulk_right_multiplication(spec):
    fam = family_from_spec(spec)
    gens = fam.generators()
    xs = {fam.identity()}
    for _ in range(4):
        xs |= {fam.multiply(x, g) for x in xs for g in gens}
    xs = sorted(xs)
    for i, g in enumerate(gens):
        assert fam.step(xs, i) == [fam.multiply(x, g) for x in xs]


@pytest.mark.parametrize("spec, horizon", [
    ("free:2", 7), ("free:3", 5), ("free:2:standard+ab", 6),
    ("free:3:standard+ab", 5), ("heisenberg", 14)])
def test_spheres_match_reference(spec, horizon):
    gamma = growth_table(family_from_spec(spec), horizon).gamma
    assert gamma == growth_reference([spec], horizon)


@pytest.mark.parametrize("spec, skipped", [
    ("free:2", 4), ("free:2:standard+ab", 12)])
def test_steps_skip_generators_whose_product_is_short(spec, skipped):
    # g_i g_j in the generating set or the identity: an element made by
    # g_i is never stepped by g_j
    fam = family_from_spec(spec)
    gens = fam.generators()
    short = set(gens) | {fam.identity()}
    skip = {(i, j) for i, g in enumerate(gens) for j, h in enumerate(gens)
            if fam.multiply(g, h) in short}
    assert len(skip) == skipped
    assert sum(map(sum, growth._short_products(fam))) == skipped
    made_by = {}                  # element -> the generator of its first making
    real_step = fam.step

    def step(xs, j):
        assert not any((made_by.get(x), j) in skip for x in xs)
        out = real_step(xs, j)
        for y in out:
            made_by.setdefault(y, j)
        return out

    fam.step = step
    gamma = growth_reference([spec], 6)
    assert growth_table(fam, 6).gamma == gamma
    # everything made lies in the ball, and the identity is never made
    assert len(made_by) == gamma[-1] - 1 and fam.identity() not in made_by


def _count_spheres(monkeypatch):
    """The list to which each sphere size growth_table pulls appends a 1."""
    pulled = []
    spheres = growth._spheres

    def counting_spheres(family, budget):
        for s in spheres(family, budget):
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


def test_free_words_are_packed_ints():
    # base 2*rank + 1, letter -i is digit rank + i, the last letter lowest
    free = Free(2)
    assert free.identity() == 0
    assert free.element((1, -2)) == 1 * 5 + 4
    assert free.element((2, 1, -1, -2)) == 0
    assert free.word(free.element((-1, 2, 2))) == (-1, 2, 2)
    assert sorted(free.generators()) == [1, 2, 3, 4]
    with pytest.raises(InputError):
        free.element((3,))


def test_generating_set_checked_against_the_budget(monkeypatch):
    # the generating set is the sphere of radius 1: 12 generators and the
    # identity exceed a budget of 12, and no generator is built
    built = []
    element = Free.element

    def counting_element(self, letters):
        built.append(1)
        return element(self, letters)

    monkeypatch.setattr(Free, "element", counting_element)
    for spec, budget in [("free:6", 12), ("free:2:standard+ab", 6),
                         ("product:heisenberg,free:6", 12), ("heisenberg", 4)]:
        with pytest.raises(BudgetExceeded):
            family_from_spec(spec, budget=budget)
    assert not built
    assert len(family_from_spec("free:6", budget=13).generators()) == 12
    assert len(family_from_spec("free:2:standard+ab", budget=7).generators()) == 6
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
    _words = st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), max_size=12)

    @given(_words, _words)
    def test_free_multiply_cancels_at_the_junction(a, b):
        free = Free(3)
        x = free.element(a)
        assert free.word(x) == reduce_word(a)
        a, b = reduce_word(a), reduce_word(b)
        assert free.word(free.multiply(x, free.element(b))) == reduce_word(a + b)
        # a right factor that starts with the inverse of a cancels deeply
        c = reduce_word(tuple(-x for x in reversed(a)) + b)
        assert free.word(free.multiply(x, free.element(c))) == reduce_word(a + c)

    # factors with at most 8 generators in all keep the reference BFS small
    _FACTOR_GENERATORS = {"free:1": 2, "free:2": 4, "free:2:standard+ab": 6,
                          "abelian:1": 2, "abelian:2": 4, "abelian:3": 6,
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
