"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS line (visible under pytest -s); a failure
anywhere here means the build is not releasable.
"""
import math
import os
import random
import time

from entrokit.linalg import RatMatrix
from entrokit.linear_entropy import LinearFlow, algebraic_entropy, trajectory_oracle
from entrokit.mahler import mahler_measure
from entrokit.polynomials import IntPolynomial, cyclotomic
from entrokit.search import SearchSpec, canonical_form, lehmer_search
from entrokit.set_maps import (
    SymbolicSelfMap,
    contravariant_entropy,
    cotrajectory_profile,
    covariant_entropy,
    covariant_local_entropy,
)
from entrokit.shifts import (
    GeneralizedShiftSpec,
    adjoint_entropy_of_shift,
    shift_bruteforce_oracle,
)
from entrokit.adjoint import adjoint_entropy_at, enumerate_lattices
from entrokit.growth import Free, FreeAbelian, Heisenberg3, bass_guivarch, \
    growth_exponent, growth_rate, growth_table

from oracles import disjoint_union, mat_mul, mat_pow, power_map, unimodular_pair

LEHMER_COEFFS = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
LEHMER_LOG = 0.16235761200772933  # log of the Lehmer number 1.17628081825...
GOLDEN_LOG = 0.48121182505960347  # log((1 + sqrt 5)/2)
RIGHT_SHIFT = SymbolicSelfMap.build({}, ["R"])                   # n -> n + 1
LEFT_SHIFT = SymbolicSelfMap.build({"z": "z"}, [], [("S", "z")])  # n -> n - 1, 0 fixed


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_lehmer_value():
    started = time.perf_counter()
    value = mahler_measure(IntPolynomial(LEHMER_COEFFS))
    elapsed = time.perf_counter() - started
    assert value.kind == "approx"
    assert value.error <= 1e-9
    assert abs(value.value - LEHMER_LOG) <= 1e-9
    assert elapsed < 1.0
    _announce(1, f"Lehmer measure {value.value:.12f} certified to {value.error:.2e} "
                 f"in {elapsed * 1000:.0f} ms")


def test_criterion_2_cyclotomic_exactness():
    checked = 0
    for m1 in range(1, 21):
        for m2 in range(m1, 21):
            for m3 in range(m2, 21):
                f = cyclotomic(m1) * cyclotomic(m2) * cyclotomic(m3)
                assert mahler_measure(f).is_zero()
                checked += 1
    for m1 in range(1, 21):
        assert mahler_measure(cyclotomic(m1)).is_zero()
        for m2 in range(m1, 21):
            assert mahler_measure(cyclotomic(m1) * cyclotomic(m2)).is_zero()
            checked += 1
        checked += 1
    _announce(2, f"{checked} cyclotomic products returned the exact zero")


def test_criterion_3_yuzvinski_pipeline():
    started = time.perf_counter()
    fib = RatMatrix([[0, 1], [1, 1]])
    value = algebraic_entropy(LinearFlow("zn", fib))
    assert abs(value.as_float() - GOLDEN_LOG) <= 1e-10
    profile = trajectory_oracle(fib, [(0, 0), (1, 0), (0, 1)], 18)
    assert 0.38 <= profile.estimate <= 0.50
    sizes = (1,) + profile.sizes
    for i in range(1, len(sizes)):
        for j in range(1, len(sizes) - i):
            assert sizes[i + j] <= sizes[i] * sizes[j]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _announce(3, f"h = {value.as_float():.10f}, oracle estimate "
                 f"{profile.estimate:.4f} in [0.38, 0.50], subadditive, "
                 f"{elapsed:.1f} s")


def _random_poly(rng):
    while True:
        degree = rng.randint(1, 6)
        coeffs = [rng.randint(-3, 3) for _ in range(degree + 1)]
        f = IntPolynomial(coeffs)
        if f.degree >= 1:
            return f


def test_criterion_4_property_suite():
    rng = random.Random(1_618_033)
    polys = [_random_poly(rng) for _ in range(200)]
    for f, g in zip(polys[0::2], polys[1::2]):
        mf, mg, mfg = mahler_measure(f), mahler_measure(g), mahler_measure(f * g)
        budget = mf.error + mg.error + mfg.error + 1e-9
        assert abs(mfg.as_float() - mf.as_float() - mg.as_float()) <= budget
    for f in polys:
        base = mahler_measure(f)
        squared = mahler_measure(f.compose_power(2))
        assert abs(squared.as_float() - base.as_float()) \
            <= base.error + squared.error + 1e-9

    for _ in range(100):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        h = algebraic_entropy(LinearFlow("qn", RatMatrix(rows)))
        h2 = algebraic_entropy(LinearFlow("qn", RatMatrix(mat_pow(rows, 2))))
        assert abs(h2.as_float() - 2 * h.as_float()) <= 2 * h.error + h2.error + 1e-9
        p, p_inv = unimodular_pair(rng, n)
        conj = mat_mul(mat_mul(p, rows), p_inv)
        hc = algebraic_entropy(LinearFlow("qn", RatMatrix(conj)))
        assert abs(hc.as_float() - h.as_float()) <= h.error + hc.error + 1e-9
    _announce(4, "multiplicativity, substitution law, squaring law and "
                 "conjugation invariance held on the random suite")


def _fan_example(fans=8):
    core = {"z": "z"}
    previous = "z"
    for n in range(1, fans + 1):
        core[f"c{n}"] = previous
        previous = f"c{n}"
        for i in range(2 * n):
            core[f"x{n}_{i}"] = f"c{n}"
    return SymbolicSelfMap.build(core, [], [("S", previous)])


def test_criterion_5_set_theoretic_catalog():
    started = time.perf_counter()
    rho, sig = RIGHT_SHIFT, LEFT_SHIFT
    assert covariant_entropy(rho) == 1
    assert covariant_entropy(sig) == 0
    assert contravariant_entropy(sig) == 1
    assert contravariant_entropy(rho) == 0
    for k in range(1, 5):
        assert covariant_entropy(power_map(rho, k)) == k
        assert contravariant_entropy(power_map(sig, k)) == k
    fan = _fan_example()
    profile = cotrajectory_profile(fan, ["z"], 9)
    assert profile.limit == 1
    assert contravariant_entropy(fan) == 1
    reduced_inc = [b - a for a, b in zip(profile.reduced_sizes,
                                         profile.reduced_sizes[1:])]
    naive_inc = [b - a for a, b in zip(profile.naive_sizes,
                                       profile.naive_sizes[1:])]
    assert all(x == 1 for x in reduced_inc)
    assert all(b > a for a, b in zip(naive_inc, naive_inc[1:]))  # diverging
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(5, f"catalog entropies and the fan contrast verified exactly "
                 f"in {elapsed * 1000:.0f} ms")


def _shift_catalog():
    rho, sig = RIGHT_SHIFT, LEFT_SHIFT
    twos = SymbolicSelfMap.build({"z": "z"}, [], [("S1", "z"), ("S2", "z")])
    cyc_string = SymbolicSelfMap.build({"a": "b", "b": "c", "c": "a"}, [], [("S", "a")])
    chain_ray = SymbolicSelfMap.build({"a": "b", "b": "ray:R"}, ["R"])
    return [rho, sig, disjoint_union(rho, rho), disjoint_union(rho, sig),
            twos, cyc_string, chain_ray]


def test_criterion_6_generalized_shift_bridge():
    for m in _shift_catalog():
        hstar = contravariant_entropy(m)
        points = [f"{s.id}:0" for s in m.in_strings] \
            or ([m.core_map[0][0]] if m.core_map else [f"{m.out_rays[0]}:0"])
        for p in (2, 3):
            spec = GeneralizedShiftSpec(m, p, "direct_sum")
            report = shift_bruteforce_oracle(spec, points,
                                             8 + len(dict(m.core_map)))
            increments = [b - a for a, b in zip(report.ranks, report.ranks[1:])]
            assert increments[-3:] == [hstar] * 3  # slope h*(map) * log p, exactly
            value = adjoint_entropy_of_shift(spec, points)
            local = covariant_local_entropy(m, points)
            if local == 0:
                assert value.is_zero()
            else:
                assert value.base == p and value.multiplier == local
    _announce(6, "GF(p) subgroup slopes and coordinate-subgroup adjoint values "
                 "matched the closed forms exactly for p in {2, 3}")


def test_criterion_7_adjoint_stationarity():
    started = time.perf_counter()
    rng = random.Random(46_368)
    matrices = []
    while len(matrices) < 50:
        n = rng.randint(1, 3)
        a = RatMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if a.determinant() != 0:
            matrices.append(a)
    probed = 0
    for a in matrices:
        for lattice in enumerate_lattices(a.n, 8):
            report = adjoint_entropy_at(a, lattice)
            for k in range(1, len(report.alphas) - 1):
                assert report.alphas[k] % report.alphas[k + 1] == 0
            assert report.certificate
            assert report.value.is_zero()
            probed += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce(7, f"{probed} cotrajectory chains froze with exact certificates "
                 f"in {elapsed:.1f} s")


def test_criterion_8_growth():
    started = time.perf_counter()
    free_table = growth_table(Free(2), 12)
    assert free_table.gamma[:9] == tuple(1 + 2 * (3 ** n - 1) for n in range(9))
    rate = growth_rate(free_table)
    assert abs(rate.estimate - math.log(3)) <= 0.01
    abelian = growth_table(FreeAbelian(2), 40)
    assert abelian.gamma == tuple(2 * n * n + 2 * n + 1 for n in range(41))
    heis = growth_table(Heisenberg3(), 25)
    exponent = growth_exponent(heis)
    assert abs(exponent - bass_guivarch([2, 1])) <= 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _announce(8, f"free/abelian closed forms exact, rate {rate.estimate:.4f}, "
                 f"Heisenberg exponent {exponent:.2f} vs 4, {elapsed:.1f} s")


def test_criterion_9_lehmer_search():
    started = time.perf_counter()
    spec = SearchSpec(max_degree=10, max_height=1, monic_only=True, top=5)
    workers = min(8, os.cpu_count() or 1)
    result = lehmer_search(spec, workers=workers)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    top = result.leaderboard[0]
    assert top.coeffs == canonical_form(LEHMER_COEFFS)
    assert abs(top.measure - LEHMER_LOG) <= 1e-9
    rerun = lehmer_search(spec, workers=1)
    assert rerun.leaderboard == result.leaderboard
    assert rerun.zero_count == result.zero_count
    _announce(9, f"degree <= 10 scan ({result.scanned_count} classes, "
                 f"{workers} workers, {elapsed:.0f} s) ranked the Lehmer "
                 f"polynomial first; reruns bit-identical")


def test_criterion_10_out_of_scope_documented():
    # the degree >= 55 frontier, Gromov machinery, intermediate growth and
    # infinite-dimensional dichotomy witnesses are not reproducible at desk
    # scale; their roles are covered by the property suites (criteria 4-7)
    _announce(10, "desk-scale exclusions stand in for the frontier claims")
