import math
from fractions import Fraction

import pytest

from entrokit.errors import BudgetExceeded, InputError
from entrokit.set_maps import SymbolicSelfMap, covariant_entropy
from entrokit.shifts import (
    GeneralizedShiftSpec,
    adjoint_entropy_of_shift,
    shift_algebraic_entropy,
    shift_bruteforce_oracle,
    shift_topological_entropy,
)
from entrokit.values import EntropyValue

from oracles import disjoint_union, forward_profile_reference, shift_rank_reference

RHO = SymbolicSelfMap.build({}, ["R"])                    # n -> n + 1
SIG = SymbolicSelfMap.build({"z": "z"}, [], [("S", "z")])  # n -> n - 1, 0 fixed


def catalog():
    """Presentations with at most 6 core nodes, with known entropies."""
    tree = SymbolicSelfMap.build({"z": "z"}, [], [], [("T", "z", 2)])
    twos = SymbolicSelfMap.build({"z": "z"}, [], [("S1", "z"), ("S2", "z")])
    cyc_string = SymbolicSelfMap.build({"a": "b", "b": "c", "c": "a"}, [], [("S", "a")])
    chain_ray = SymbolicSelfMap.build({"a": "b", "b": "ray:R"}, ["R"])
    return [
        (RHO, 1, 0),
        (SIG, 0, 1),
        (disjoint_union(RHO, RHO), 2, 0),
        (disjoint_union(RHO, SIG), 1, 1),
        (twos, 0, 2),
        (cyc_string, 0, 1),
        (chain_ray, 1, 0),
        (tree, 0, math.inf),
    ]


def test_product_shift_closed_form():
    v = shift_topological_entropy(GeneralizedShiftSpec(RHO, 3, "product"))
    assert v.kind == "exact_log" and v.base == 3 and v.multiplier == 1
    assert shift_topological_entropy(GeneralizedShiftSpec(SIG, 4, "product")).is_zero()
    v = shift_topological_entropy(GeneralizedShiftSpec(disjoint_union(RHO, RHO), 2, "product"))
    assert v.multiplier == 2


def test_direct_sum_shift_closed_form():
    v = shift_algebraic_entropy(GeneralizedShiftSpec(SIG, 2, "direct_sum"))
    assert v.kind == "exact_log" and v.base == 2 and v.multiplier == 1
    assert shift_algebraic_entropy(GeneralizedShiftSpec(RHO, 5, "direct_sum")).is_zero()
    tree = SymbolicSelfMap.build({"z": "z"}, [], [], [("T", "z", 2)])
    v = shift_algebraic_entropy(GeneralizedShiftSpec(tree, 2, "direct_sum"))
    assert v == EntropyValue.infinity()


def test_variant_mismatch():
    with pytest.raises(InputError):
        shift_topological_entropy(GeneralizedShiftSpec(RHO, 2, "direct_sum"))
    with pytest.raises(InputError):
        shift_algebraic_entropy(GeneralizedShiftSpec(RHO, 2, "product"))


def test_bernoulli_normalization():
    # the product shift of the right shift is the one-sided Bernoulli shift
    for q in (2, 3, 5):
        v = shift_topological_entropy(GeneralizedShiftSpec(RHO, q, "product"))
        assert v.base == q and v.multiplier == 1
    # the direct-sum shift of the left shift carries the Bernoulli value
    for q in (2, 3, 5):
        v = shift_algebraic_entropy(GeneralizedShiftSpec(SIG, q, "direct_sum"))
        assert v.base == q and v.multiplier == 1


def test_scaling_in_group_order():
    for m, _, hstar in catalog():
        if hstar == math.inf:
            continue
        values = [shift_algebraic_entropy(GeneralizedShiftSpec(m, q, "direct_sum"))
                  for q in (2, 3, 4, 5)]
        for q, v in zip((2, 3, 4, 5), values):
            expected = EntropyValue.log_of(q, hstar)
            assert v == expected


def _string_heads(m):
    return [f"{s.id}:0" for s in m.in_strings]


def test_oracle_examples():
    rep = shift_bruteforce_oracle(GeneralizedShiftSpec(SIG, 2, "direct_sum"), ["S:0"], 6)
    assert rep.sizes == (2, 4, 8, 16, 32, 64)
    rep = shift_bruteforce_oracle(GeneralizedShiftSpec(RHO, 2, "direct_sum"), ["R:0"], 5)
    assert rep.sizes == (2, 2, 2, 2, 2)
    twos = SymbolicSelfMap.build({"z": "z"}, [], [("S1", "z"), ("S2", "z")])
    rep = shift_bruteforce_oracle(GeneralizedShiftSpec(twos, 2, "direct_sum"),
                                  ["S1:0", "S2:0"], 5)
    assert rep.ranks == (2, 4, 6, 8, 10)


def test_oracle_long_horizon():
    # f^-j(z) on the left shift is z and S:0..S:j-1, so each step adds the
    # new point S:j-1 to the span: rank n after n steps
    rep = shift_bruteforce_oracle(GeneralizedShiftSpec(SIG, 2, "direct_sum"), ["z"], 300)
    assert rep.ranks == tuple(range(1, 301))


def test_oracle_agrees_with_closed_form_after_stabilization():
    # rank increments stabilize to h*(map) when F is the antichain of string
    # heads (or any finite set when h* = 0)
    for m, _, hstar in catalog():
        if hstar == math.inf:
            continue
        for p in (2, 3):
            spec = GeneralizedShiftSpec(m, p, "direct_sum")
            points = _string_heads(m) or _default_points(m)
            horizon = 8 + len(dict(m.core_map))
            rep = shift_bruteforce_oracle(spec, points, horizon)
            tail = [b - a for a, b in zip(rep.ranks, rep.ranks[1:])][-3:]
            assert all(t == hstar for t in tail), (m, p, rep.ranks)


def _default_points(m):
    if m.core_map:
        return [m.core_map[0][0]]
    return [f"{m.out_rays[0]}:0"]


def test_oracle_budget_bounds_the_pieces_it_holds(monkeypatch):
    tree = SymbolicSelfMap.build({"z": "z"}, [], [], [("T", "z", 3)])
    spec = GeneralizedShiftSpec(tree, 2, "direct_sum")
    calls = []
    real_preimages = SymbolicSelfMap.preimages

    def preimages(self, point):
        calls.append(point)
        return real_preimages(self, point)

    monkeypatch.setattr(SymbolicSelfMap, "preimages", preimages)
    # level j of z is the 3**(j-1) tree points of depth j, held as one
    # range: one piece and one rank a step, so horizon n needs the piece
    # plus the n(n + 1)/2 digits of the sizes, whatever the level holds
    rep = shift_bruteforce_oracle(spec, ["z"], 30, budget=1 + 30 * 31 // 2)
    assert rep.ranks == tuple(range(1, 31))
    with pytest.raises(BudgetExceeded):
        shift_bruteforce_oracle(spec, ["z"], 30, budget=30 * 31 // 2)
    assert calls == []


@pytest.mark.parametrize("points", [["z", "T:1", "T:02"], ["T:0", "T:00", "T:0012"],
                                    ["T:2", "T:20", "T:21", "T:222"]])
def test_oracle_sources_split_ranges(points):
    # a point of F inside a range of ternary tree points splits it
    tree = SymbolicSelfMap.build({"z": "z"}, [], [], [("T", "z", 3)])
    for p in (2, 3):
        rep = shift_bruteforce_oracle(GeneralizedShiftSpec(tree, p, "direct_sum"),
                                      points, 6)
        assert rep.ranks == shift_rank_reference(tree.to_json(), points, 6, p)


def test_oracle_budget_counts_size_digits():
    # sizes 2**1 .. 2**n have 1 + ... + n digits at most, and the level
    # held is one point: horizon 13 needs 91 + 1
    spec = GeneralizedShiftSpec(SIG, 2, "direct_sum")
    assert shift_bruteforce_oracle(spec, ["S:0"], 13, budget=92).ranks[-1] == 13
    with pytest.raises(BudgetExceeded):
        shift_bruteforce_oracle(spec, ["S:0"], 13, budget=91)
    # p = 11 has two digits a rank
    spec = GeneralizedShiftSpec(SIG, 11, "direct_sum")
    with pytest.raises(BudgetExceeded):
        shift_bruteforce_oracle(spec, ["S:0"], 13, budget=182)


def test_oracle_requires_prime_order():
    with pytest.raises(InputError):
        shift_bruteforce_oracle(GeneralizedShiftSpec(SIG, 4, "direct_sum"), ["S:0"], 4)


def test_group_order_must_be_an_int():
    for order in (2.5, 2.0, Fraction(5, 2)):
        with pytest.raises(InputError):
            GeneralizedShiftSpec(SIG, order, "direct_sum")


def test_coordinate_subgroup_adjoint_values():
    v = adjoint_entropy_of_shift(GeneralizedShiftSpec(RHO, 2, "direct_sum"), ["R:0"])
    assert v.base == 2 and v.multiplier == 1
    v = adjoint_entropy_of_shift(GeneralizedShiftSpec(SIG, 3, "direct_sum"), ["S:4"])
    assert v.is_zero()
    two = disjoint_union(RHO, RHO)
    v = adjoint_entropy_of_shift(GeneralizedShiftSpec(two, 2, "direct_sum"),
                                 ["R_l:0", "R_r:0"])
    assert v.multiplier == 2


def test_adjoint_supremum_is_covariant_entropy():
    # F reaching every ray attains the supremum over finite F
    for m, _, _ in catalog():
        points = [f"{r}:0" for r in m.out_rays] or _default_points(m)
        v = adjoint_entropy_of_shift(GeneralizedShiftSpec(m, 3, "direct_sum"), points)
        assert v == EntropyValue.log_of(3, covariant_entropy(m))


def test_adjoint_matches_forward_index_oracle():
    # the pulled-back coordinate subgroup has index q**|T_n(f, F)|: recompute
    # the forward unions point by point and compare the growth of the exponents
    for m, _, _ in catalog():
        points = _string_heads(m) or _default_points(m)
        spec = GeneralizedShiftSpec(m, 2, "direct_sum")
        value = adjoint_entropy_of_shift(spec, points)
        sizes = forward_profile_reference(m.to_json(), points,
                                          40 + 2 * len(dict(m.core_map)))
        assert value == EntropyValue.log_of(2, sizes[-1] - sizes[-2])


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below needs hypothesis
    given = None

if given is not None:
    from test_set_maps import _small_maps

    @settings(max_examples=150)
    @given(_small_maps(), st.integers(1, 12), st.sampled_from([2, 3]))
    def test_oracle_ranks_match_elimination_reference(case, horizon, p):
        obj, names = case
        spec = GeneralizedShiftSpec(SymbolicSelfMap.from_json(obj), p, "direct_sum")
        rep = shift_bruteforce_oracle(spec, names, horizon)
        assert rep.ranks == shift_rank_reference(obj, names, horizon, p)
        assert rep.sizes == tuple(p ** r for r in rep.ranks)
