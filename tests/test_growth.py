import math

import pytest

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
    for fam in (Free(2), FreeAbelian(3), Heisenberg3(),
                family_from_spec("product:abelian:1,heisenberg")):
        gens = fam.generators()
        ident = fam.identity()
        assert ident not in gens
        for g in gens:
            inverse = next(h for h in gens if fam.multiply(g, h) == ident)
            assert inverse in gens


def test_family_spec_parsing():
    assert family_from_spec("abelian:3").rank == 3
    assert family_from_spec("heisenberg").describe().startswith("discrete")
    with pytest.raises(InputError):
        family_from_spec("grigorchuk")


def test_budget_per_insertion():
    fam = Free(2)
    made = set()
    real_multiply = fam.multiply

    def multiply(a, b):
        out = real_multiply(a, b)
        made.add(out)
        return out

    fam.multiply = multiply
    with pytest.raises(BudgetExceeded):
        growth_table(fam, 10, budget=100)
    # the ball stops growing one element past the budget
    assert len(made | {fam.identity()}) <= 100 + 1


try:
    from hypothesis import given, strategies as st
except ImportError:  # the property test below needs hypothesis
    given = None

if given is not None:
    _words = st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), max_size=12).map(
        lambda w: Free._reduce(tuple(w)))

    @given(_words, _words)
    def test_free_multiply_cancels_at_the_junction(a, b):
        assert Free(3).multiply(a, b) == Free._reduce(a + b)
        # a right factor that starts with the inverse of a cancels deeply
        c = Free._reduce(tuple(-x for x in reversed(a)) + b)
        assert Free(3).multiply(a, c) == Free._reduce(a + c)
