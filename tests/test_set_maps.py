import math
import time

import pytest

from entrokit.errors import BudgetExceeded, InputError, InvalidMap
from entrokit.set_maps import (
    SymbolicSelfMap,
    components,
    contravariant_entropy,
    cotrajectory_profile,
    covariant_entropy,
    covariant_local_entropy,
    disjoint_union,
    left_shift,
    power_map,
    right_shift,
    surjective_core,
    validate,
)

from oracles import components_reference, cotrajectory_reference, \
    forward_profile_reference

RHO = right_shift()
SIG = left_shift()


def reference_local_entropy(obj, names, horizon=32):
    """The last increment of the point-by-point forward profile: h(f, D)
    once the horizon is past every drain into the core and every meeting of
    orbits on a ray, as 32 is for the small maps of these tests."""
    sizes = forward_profile_reference(obj, names, horizon)
    return sizes[-1] - sizes[-2]


def tree_on_fixed_point(branching=2):
    return SymbolicSelfMap.build({"z": "z"}, [], [], [("T", "z", branching)])


def two_strings():
    return SymbolicSelfMap.build({"z": "z"}, [], [("S1", "z"), ("S2", "z")])


def fan_example(fans=8):
    """A backward string into a fixed point through a finite chain, with a
    size-2n fan feeding the n-th chain node."""
    core = {"z": "z"}
    previous = "z"
    for n in range(1, fans + 1):
        core[f"c{n}"] = previous
        previous = f"c{n}"
        for i in range(2 * n):
            core[f"x{n}_{i}"] = f"c{n}"
    return SymbolicSelfMap.build(core, [], [("S", previous)])


def test_validate_rejects_bad_references():
    # an invalid presentation cannot be constructed at all
    with pytest.raises(InvalidMap) as bad:
        SymbolicSelfMap.build({"a": "b"}, [], [("S", "missing")])
    assert bad.value.diagnostics == ["core node 'a' maps to unknown node 'b'",
                                     "string 'S' attaches to unknown node 'missing'"]
    with pytest.raises(InvalidMap) as bad:
        SymbolicSelfMap.build({"a": "ray:R"}, [])
    assert bad.value.diagnostics == ["core node 'a' maps to undeclared 'ray:R'"]


def test_validate_accepts_catalog():
    assert validate(RHO) == []
    assert validate(SIG) == []
    assert validate(fan_example()) == []


def test_shift_normalizations():
    assert covariant_entropy(RHO) == 1
    assert contravariant_entropy(SIG) == 1
    assert covariant_entropy(SIG) == 0
    assert contravariant_entropy(RHO) == 0


def test_qper_wan_partition():
    # a cycle terminal carries only quasi-periodic points, a ray terminal
    # only wandering ones: (quasi-periodic, wandering) component counts
    def split(m):
        kinds = [c.terminal[0] for c in components(m)]
        return kinds.count("cycle"), kinds.count("ray")

    assert split(RHO) == (0, 1)
    assert split(SIG) == (1, 0)
    assert split(disjoint_union(RHO, SIG)) == (1, 1)


def test_addition_over_disjoint_union():
    assert covariant_entropy(disjoint_union(RHO, RHO)) == 2
    assert contravariant_entropy(disjoint_union(SIG, SIG)) == 2
    both = disjoint_union(RHO, SIG)
    assert covariant_entropy(both) == 1
    assert contravariant_entropy(both) == 1


def test_forward_profile_examples():
    assert forward_profile_reference(RHO.to_json(), ["R:0"], 8) == tuple(range(1, 9))
    assert covariant_local_entropy(RHO, ["R:0", "R:1"]) == 1 \
        == reference_local_entropy(RHO.to_json(), ["R:0", "R:1"])
    assert forward_profile_reference(SIG.to_json(), ["S:3"], 12)[:6] == (1, 2, 3, 4, 5, 5)
    assert covariant_local_entropy(SIG, ["S:3"]) == 0 \
        == reference_local_entropy(SIG.to_json(), ["S:3"])


def test_forward_profile_of_a_tree_point():
    # T:012 drains through T:01 and T:0 into the fixed point z
    core, trees = {"z": "z"}, {"T": "z"}
    m = SymbolicSelfMap.build(core, [], [], [("T", "z", 3)])

    def image(p):
        tail, _, word = p.partition(":")
        if not word:
            return core[p]
        return f"{tail}:{word[:-1]}" if len(word) > 1 else trees[tail]

    union, p, sizes = {"T:012"}, "T:012", [1]
    for _ in range(8):
        p = image(p)
        union.add(p)
        sizes.append(len(union))
    assert forward_profile_reference(m.to_json(), ["T:012"], 9) == tuple(sizes) \
        == (1, 2, 3, 4, 4, 4, 4, 4, 4)
    assert covariant_local_entropy(m, ["T:012"]) == 0


def test_forward_profile_bounded_by_set_size():
    maps = [RHO, SIG, disjoint_union(RHO, RHO), fan_example(3)]
    sets = [["R:0"], ["S:2", "z"], ["R_l:0", "R_r:3"], ["z", "c1", "x2_1"]]
    for m, d in zip(maps, sets):
        h = covariant_local_entropy(m, d)
        assert 0 <= h <= len(d) and h == reference_local_entropy(m.to_json(), d)


def test_local_entropy_of_far_offsets():
    # an orbit through S:0 or R:0 grows as the orbit of that point does, so
    # offsets of 10**9 take the reference's value at offset 0; and none of
    # them walks its string or ray
    obj = {"core": {"a": "ray:R", "b": "a", "z": "z"}, "out_rays": ["R"],
           "in_strings": [{"id": "S", "attach": "b"}, {"id": "U", "attach": "z"}],
           "in_trees": [{"id": "T", "attach": "b", "branching": 3}]}
    m = SymbolicSelfMap.from_json(obj)
    far = 10 ** 9
    for names, near in [([f"R:{far}"], ["R:0"]), ([f"S:{far}"], ["S:0"]),
                        ([f"U:{far}"], ["U:0"]), (["T:0120"], ["T:0120"]),
                        ([f"R:{far}", f"S:{far}", f"U:{far}"], ["R:0", "S:0", "U:0"])]:
        started = time.perf_counter()
        h = covariant_local_entropy(m, names)
        assert time.perf_counter() - started < 0.05
        assert h == reference_local_entropy(obj, near)


def test_surjective_core():
    assert surjective_core(RHO) == SymbolicSelfMap.build()
    sc = surjective_core(SIG)
    assert sorted(sc.core) == ["z"] and len(sc.in_strings) == 1
    sc = surjective_core(fan_example(5))
    assert sorted(sc.core) == ["c1", "c2", "c3", "c4", "c5", "z"]
    assert not sc.out_rays


def test_surjective_core_keeps_fed_rays():
    # string -> a -> ray: the whole orbit has infinite backward depth
    m = SymbolicSelfMap.build({"a": "ray:R"}, ["R"], [("S", "a")])
    sc = surjective_core(m)
    assert "a" in sc.core and sc.out_rays == ("R",)
    assert covariant_entropy(m) == 1 and contravariant_entropy(m) == 1


def test_contravariant_infinite_with_tree():
    assert contravariant_entropy(tree_on_fixed_point()) == math.inf
    assert contravariant_entropy(tree_on_fixed_point(3)) == math.inf


def test_contravariant_counts_strings():
    assert contravariant_entropy(two_strings()) == 2


def test_cotrajectory_examples():
    p = cotrajectory_profile(SIG, ["S:0"], 8)
    assert p.reduced_sizes == tuple(range(1, 9)) and p.limit == 1
    p = cotrajectory_profile(two_strings(), ["S1:0", "S2:0"], 8)
    assert p.reduced_sizes == tuple(2 * n for n in range(1, 9)) and p.limit == 2
    p = cotrajectory_profile(tree_on_fixed_point(), ["z"], 6)
    assert p.limit == math.inf


def test_cotrajectory_slope_non_decreasing_for_antichains():
    for m, e in ((SIG, ["S:0"]), (two_strings(), ["S1:0", "S2:0"]),
                 (fan_example(4), ["S:1"])):
        p = cotrajectory_profile(m, e, 10)
        ratios = [s / (n + 1) for n, s in enumerate(p.reduced_sizes)]
        for a, b in zip(ratios, ratios[1:]):
            assert b >= a - 1e-12
        assert p.reduced_sizes[0] >= len(e)


def test_fan_example_reduced_vs_naive():
    fan = fan_example(8)
    p = cotrajectory_profile(fan, ["z"], 9)
    assert p.limit == 1
    # the string survives the core restriction; the fans do not
    assert p.reduced_sizes == tuple(range(1, 10))
    # naive preimages sweep the fans: increments 1, then 3, 5, 7, ... while
    # fans last, a diverging (quadratic) profile over the window
    naive_inc = [b - a for a, b in zip(p.naive_sizes, p.naive_sizes[1:])]
    assert naive_inc == [1, 3, 5, 7, 9, 11, 13, 15]


def test_cotrajectory_limit_from_inside_periodic_set():
    cyc = SymbolicSelfMap.build({"a": "b", "b": "a"})
    for m, e, limit in ((SIG, ["z"], 1), (fan_example(4), ["z"], 1),
                        (RHO, ["R:0"], 0), (cyc, ["a"], 0)):
        assert cotrajectory_profile(m, e, 1).limit == limit
        assert cotrajectory_reference(m.to_json(), e, 1)[2] == limit


def test_power_map_entropies():
    for k in (1, 2, 3, 4):
        assert covariant_entropy(power_map(RHO, k)) == k
        assert contravariant_entropy(power_map(SIG, k)) == k
    both = disjoint_union(RHO, SIG)
    assert covariant_entropy(power_map(both, 3)) == 3
    assert contravariant_entropy(power_map(both, 3)) == 3
    assert contravariant_entropy(power_map(tree_on_fixed_point(), 3)) == math.inf
    assert contravariant_entropy(power_map(two_strings(), 2)) == 4


def test_power_map_structurally_valid():
    for m in (RHO, SIG, fan_example(3), tree_on_fixed_point(),
              SymbolicSelfMap.build({"a": "b", "b": "ray:R"}, ["R"])):
        for k in (2, 3):
            assert validate(power_map(m, k)) == []


def test_power_map_cycles():
    cyc = SymbolicSelfMap.build({"a": "b", "b": "c", "c": "a"})
    sq = power_map(cyc, 2)
    assert covariant_entropy(sq) == 0 and contravariant_entropy(sq) == 0
    assert len(components(sq)) == 1  # 3-cycle stays a single orbit under squaring
    tri = power_map(cyc, 3)
    assert len(components(tri)) == 3  # and splits into fixed points under cubing


def test_profile_limit_is_independent_oracle_for_closed_form():
    # the contravariant closed form (string count / tree detection) must
    # agree with the cotrajectory-profile limit, and with the stabilized
    # increments of the reduced profile, on every catalog presentation
    catalog = [RHO, SIG, two_strings(), fan_example(5),
               disjoint_union(RHO, SIG), tree_on_fixed_point(),
               SymbolicSelfMap.build({"a": "b", "b": "c", "c": "a"}, [], [("S", "a")])]
    for m in catalog:
        closed = contravariant_entropy(m)
        sc = surjective_core(m)
        witness = [f"{s.id}:0" for s in m.in_strings] + sorted(sc.core)[:1]
        if not witness:
            witness = [f"{m.out_rays[0]}:0"] if m.out_rays else sorted(dict(m.core_map))[:1]
        profile = cotrajectory_profile(m, witness, 14)
        assert profile.limit == closed
        if closed != math.inf:
            sizes = profile.reduced_sizes
            tail = [b - a for a, b in zip(sizes[-4:], sizes[-3:])]
            assert all(x == closed for x in tail)


def test_local_entropy_helper():
    with pytest.raises(InputError):
        covariant_local_entropy(RHO, [])
    assert covariant_local_entropy(RHO, ["R:0"]) == 1
    assert covariant_local_entropy(SIG, ["S:5"]) == 0
    two = disjoint_union(RHO, RHO)
    assert covariant_local_entropy(two, ["R_l:0", "R_r:0"]) == 2
    assert covariant_local_entropy(two, ["R_l:0", "R_l:4"]) == 1


def test_json_round_trip():
    m = fan_example(2)
    again = SymbolicSelfMap.from_json(m.to_json())
    assert again == m
    with pytest.raises(InputError):
        SymbolicSelfMap.from_json({"rows": [["1"]]})


@pytest.mark.parametrize("obj", [
    {"core": {"z": "z"}, "in_trees": [{"id": "T", "attach": "z", "branching": None}]},
    {"core": {"z": "z"}, "in_trees": [{"id": "T", "attach": "z", "branching": 2.5}]},
    {"core": {"z": "z"}, "in_trees": [{"id": "T", "attach": "z", "branching": True}]},
    {"core": {"z": "z"}, "in_trees": [{"id": "T", "attach": "z", "branching": "2"}]},
    {"core": {"z": "z"}, "out_rays": [["R"]]},
    {"core": {"z": 1}},
    {"core": {"z": "z"}, "in_strings": [{"id": 5, "attach": "z"}]},
    {"core": {"z": "z"}, "in_strings": [{"id": "S", "attach": ["z"]}]},
])
def test_from_json_takes_strings_and_integer_branching(obj):
    with pytest.raises(InputError):
        SymbolicSelfMap.from_json(obj)


def test_build_coerces_for_library_callers():
    m = SymbolicSelfMap.build({"z": "z"}, [], [], [("T", "z", 2.0)])
    assert m.in_trees[0].branching == 2


def test_power_map_point_names():
    sq = power_map(tree_on_fixed_point(), 2)
    assert sorted(sq.core) == ["T@0", "T@00", "T@01", "T@1", "T@10", "T@11", "z"]
    assert sq.core["T@01"] == "z" and sq.core["T@1"] == "z"
    assert [t.id for t in sq.in_trees] == ["T^0", "T^1", "T^00", "T^01", "T^10", "T^11"]
    ray = power_map(SymbolicSelfMap.build({"a": "ray:R"}, ["R"]), 2)
    assert ray.to_json()["core"] == {"R@0": "ray:R^0", "R@1": "ray:R^1", "a": "R@1"}


# ----------------------------------------------------------------------
# point names

@pytest.mark.parametrize("name", ["S:01", "S:-1", "S:+1", "S: 1", "S:1 ", "S:",
                                  "S:1_0", "S:\u0661", "X:0", "nope", ""])
def test_resolve_rejects_other_names(name):
    with pytest.raises(InputError):
        SIG.resolve(name)


@pytest.mark.parametrize("name", ["T:", "T:2", "T:9", "T:A", "T:01 ", "T:-1"])
def test_resolve_rejects_bad_tree_names(name):
    with pytest.raises(InputError):
        tree_on_fixed_point().resolve(name)


def test_tree_points_are_heap_indices():
    tree = tree_on_fixed_point(3)
    assert [tree.resolve(n) for n in ("z", "T:0", "T:2", "T:10")] == \
        ["z", ("T", 1), ("T", 3), ("T", 7)]
    assert tree.preimages(("T", 2)) == [("T", 7), ("T", 8), ("T", 9)]
    assert tree.preimages("z") == ["z", ("T", 1), ("T", 2), ("T", 3)]
    assert tree.apply(("T", 9)) == ("T", 2) and tree.apply(("T", 3)) == "z"
    assert [tree.point_name(p) for p in tree.preimages(("T", 2))] == ["T:10", "T:11", "T:12"]


# ----------------------------------------------------------------------
# the cotrajectory sweep

def tree3_map():
    """A 2-cycle fed by a ternary tree and, through a third node, a string."""
    return SymbolicSelfMap.build({"a": "b", "b": "a", "c": "a"}, [], [("S", "c")],
                                 [("T", "a", 3)])


def _count_preimage_calls(monkeypatch, m):
    """The points whose preimages are asked of m (the limit walks the
    surjective core, another map)."""
    calls = []
    real_preimages = SymbolicSelfMap.preimages

    def preimages(self, point):
        if self is m:
            calls.append(point)
        return real_preimages(self, point)

    monkeypatch.setattr(SymbolicSelfMap, "preimages", preimages)
    return calls


def test_cotrajectory_is_one_sweep(monkeypatch):
    import entrokit.set_maps as set_maps
    m = tree3_map()
    cores = []
    real_core = set_maps.surjective_core

    def core(arg):
        cores.append(arg)
        return real_core(arg)

    monkeypatch.setattr(set_maps, "surjective_core", core)
    calls = _count_preimage_calls(monkeypatch, m)
    # the levels of a are b, c and T:0-T:2, then S:0 and the 9 depth-2
    # tree points (the preimage a of b is a source), then S:1 and depth 3;
    # S:2 is a source, so the string range of a ends there, and from step 4
    # on each source holds one range: a tree range below a, a string range
    # above S:2.  The pieces held per step are 2, 4, 3, 3, 2, 2, 2.
    p = cotrajectory_profile(m, ["a", "S:2"], 7)
    assert len(cores) == 1 and calls == []
    assert (p.reduced_sizes, p.naive_sizes, p.limit) == \
        cotrajectory_reference(m.to_json(), ["a", "S:2"], 7)
    # the budget needs the 2 pieces of the last step plus the digits of the
    # naive and the reduced sizes, equal here: the whole map is its core
    assert p.naive_sizes == p.reduced_sizes == (2, 8, 19, 48, 130, 374, 1104)
    digits = 2 * sum(len(str(n)) for n in p.naive_sizes)
    assert cotrajectory_profile(m, ["a", "S:2"], 7, budget=2 + digits) == p
    with pytest.raises(BudgetExceeded):
        cotrajectory_profile(m, ["a", "S:2"], 7, budget=1 + digits)


def test_cotrajectory_budget_counts_pieces_not_points(monkeypatch):
    tree = tree_on_fixed_point(3)
    calls = _count_preimage_calls(monkeypatch, tree)
    # z, then one range of tree points a step: the union after n steps is
    # the (3**n - 1) / 2 points of depth below n, all in the core
    sizes = tuple((3 ** n - 1) // 2 for n in range(1, 13))
    budget = 1 + 2 * sum(len(str(n)) for n in sizes)
    assert budget < sizes[-1] == 265_720
    p = cotrajectory_profile(tree, ["z"], 12, budget=budget)
    assert p.naive_sizes == p.reduced_sizes == sizes
    with pytest.raises(BudgetExceeded):
        cotrajectory_profile(tree, ["z"], 12, budget=budget - 1)
    assert calls == []


@pytest.mark.parametrize("e", [["z", "T:1", "T:02"], ["T:0", "T:00", "T:0012"],
                               ["T:2", "T:20", "T:21", "T:222"]])
def test_cotrajectory_sources_split_ranges(e):
    # a source inside a range of ternary tree points splits it: T:1 the
    # depth-1 range of z, T:02 the depth-2 range below T:0, and so on
    m = tree_on_fixed_point(3)
    for horizon in (1, 2, 3, 5, 8):
        p = cotrajectory_profile(m, e, horizon)
        assert (p.reduced_sizes, p.naive_sizes, p.limit) == \
            cotrajectory_reference(m.to_json(), e, horizon)


def test_cotrajectory_long_ray_offset():
    # the limit walks down a ray to its head at once, not point by point
    m = SymbolicSelfMap.build({"a": "ray:R", "b": "a"}, ["R"], [("S", "b")])
    p = cotrajectory_profile(m, ["R:1000000000"], 3)
    assert p.naive_sizes == (1, 2, 3) and p.limit == 1


try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # the property tests below need hypothesis
    given = None

if given is not None:
    @st.composite
    def _small_maps(draw):
        """A random valid map in JSON form and up to three point names.

        Trees are binary: the point-by-point references expand a tree to
        2**13 points at horizon 12, where a ternary one would be 3**13.
        Ternary ranges are split in test_cotrajectory_sources_split_ranges.
        """
        nodes = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
        rays = [f"R{i}" for i in range(draw(st.integers(0, 2)))]
        targets = nodes + ["ray:" + r for r in rays]
        core = {c: draw(st.sampled_from(targets)) for c in nodes}
        strings = [{"id": f"S{i}", "attach": draw(st.sampled_from(nodes))}
                   for i in range(draw(st.integers(0, 2)))]
        trees = [{"id": f"T{i}", "attach": draw(st.sampled_from(nodes)),
                  "branching": 2}
                 for i in range(draw(st.integers(0, 1)))]
        names = nodes + [f"{tail}:{i}" for tail in rays + [s["id"] for s in strings]
                         for i in range(6)]
        names += [f"{t['id']}:{w}" for t in trees
                  for w in ("0", "1", "01", "10", "011", "101", "0110", "1001")]
        chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3,
                               unique=True))
        return {"core": core, "out_rays": rays, "in_strings": strings,
                "in_trees": trees}, chosen

    @settings(max_examples=150)
    @given(_small_maps(), st.integers(1, 12))
    def test_cotrajectory_matches_two_sweep_reference(case, horizon):
        obj, names = case
        p = cotrajectory_profile(SymbolicSelfMap.from_json(obj), names, horizon)
        assert (p.reduced_sizes, p.naive_sizes, p.limit) == \
            cotrajectory_reference(obj, names, horizon)

    @settings(max_examples=150)
    @given(_small_maps())
    @example(({"core": {}, "out_rays": [], "in_strings": [], "in_trees": []}, []))
    @example(({"core": {}, "out_rays": ["R0", "R1"], "in_strings": [], "in_trees": []}, []))
    def test_entropies_match_the_component_derivation(case):
        # h counts the wandering components, h* is the string number of the
        # surjective core; both are read off the presentation directly
        m = SymbolicSelfMap.from_json(case[0])
        assert covariant_entropy(m) == sum(c.terminal[0] == "ray" for c in components(m))
        sc = surjective_core(m)
        string_number = 0 if sc == SymbolicSelfMap.build() else \
            math.inf if sc.in_trees else len(sc.in_strings)
        assert contravariant_entropy(m) == string_number

    @settings(max_examples=150)
    @given(_small_maps())
    def test_local_entropy_matches_the_forward_reference(case):
        obj, names = case
        assert covariant_local_entropy(SymbolicSelfMap.from_json(obj), names) \
            == reference_local_entropy(obj, names)

    @settings(max_examples=150)
    @given(_small_maps())
    @example(({"core": {}, "out_rays": ["R0", "R1"], "in_strings": [], "in_trees": []}, []))
    @example(({"core": {"c0": "c1", "c1": "c2", "c2": "c1", "c3": "c2"}, "out_rays": [],
               "in_strings": [{"id": "S0", "attach": "c3"}], "in_trees": []}, []))
    def test_components_match_union_find(case):
        comps = components(SymbolicSelfMap.from_json(case[0]))
        assert [(c.core_nodes, c.rays, c.strings, c.trees, c.terminal) for c in comps] \
            == components_reference(case[0])

    @given(st.integers(2, 36), st.integers(1, 10 ** 6))
    def test_tree_names_round_trip(branching, k):
        tree = tree_on_fixed_point(branching)
        name = tree.point_name(("T", k))
        assert tree.resolve(name) == ("T", k)
        assert all(tree.apply(q) == ("T", k) for q in tree.preimages(("T", k)))
