import concurrent.futures
import functools
import math
from collections import Counter

import pytest

from entrokit import search
from entrokit.cli import dispatch
from entrokit.errors import BudgetExceeded, InputError
from entrokit.mahler import sum_logs
from entrokit.polynomials import IntPolynomial, cyclotomic
from entrokit.values import EntropyValue
from entrokit.search import (
    SearchSpec,
    canonical_form,
    espectrum_sample,
    lehmer_search,
)
from oracles import (
    espectrum_reference,
    lehmer_candidates,
    lehmer_reference,
    mahler_reference,
)

PLASTIC_MEASURE = 0.28119957432359323


def test_smallest_cubic():
    result = lehmer_search(SearchSpec(max_degree=3))
    top = result.leaderboard[0]
    assert top.measure == pytest.approx(PLASTIC_MEASURE, abs=1e-9)
    assert top.coeffs == canonical_form((-1, -1, 0, 1))


def test_linear_non_monic():
    result = lehmer_search(SearchSpec(max_degree=1, max_height=2, monic_only=False))
    assert result.leaderboard[0].measure == pytest.approx(math.log(2), abs=1e-12)


def test_zero_measures_counted_not_ranked():
    result = lehmer_search(SearchSpec(max_degree=4))
    assert result.zero_count > 0
    for entry in result.leaderboard:
        assert entry.measure > 0
        lo = entry.measure - entry.error
        assert lo > 0


def test_leaderboard_floor_for_non_monic():
    # any entry with |lead| >= 2 or |constant| >= 2 carries measure >= log 2
    result = lehmer_search(SearchSpec(max_degree=2, max_height=2,
                                      monic_only=False, top=50))
    for entry in result.leaderboard:
        if abs(entry.coeffs[-1]) >= 2 or abs(entry.coeffs[0]) >= 2:
            assert entry.measure >= math.log(2) - 1e-9


def test_reciprocal_dedup():
    result = lehmer_search(SearchSpec(max_degree=4, top=100))
    seen = set()
    for entry in result.leaderboard:
        assert canonical_form(entry.coeffs) == entry.coeffs
        rev = canonical_form(tuple(reversed(entry.coeffs)))
        assert rev not in seen or rev == entry.coeffs
        seen.add(entry.coeffs)


def test_monotone_refinement():
    small = lehmer_search(SearchSpec(max_degree=4))
    large = lehmer_search(SearchSpec(max_degree=6))
    assert large.leaderboard[0].measure <= small.leaderboard[0].measure + 1e-12


def test_determinism_across_worker_counts():
    spec = SearchSpec(max_degree=6)
    serial = lehmer_search(spec, workers=1)
    parallel = lehmer_search(spec, workers=2)
    assert serial.leaderboard == parallel.leaderboard
    assert serial.zero_count == parallel.zero_count


def test_worker_pool_is_capped(monkeypatch):
    # the executor starts every worker it is asked for: a huge --threads is
    # capped at the CPU count and at the number of chunks (no real process)
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    spec = SearchSpec(max_degree=6)
    serial = lehmer_search(spec, workers=1)
    assert not pools
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    assert lehmer_search(spec, workers=10 ** 9) == serial
    assert pools == [2]
    # 221 candidates in chunks of at least 64 make 4 chunks
    assert serial.scanned_count == 221
    monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
    assert lehmer_search(spec, workers=10 ** 9) == serial
    assert pools == [2, 4]
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert lehmer_search(spec, workers=10 ** 9) == serial
    assert len(pools) == 2


def test_unresolved_measure_is_quarantined(monkeypatch):
    # a class whose measure stays within its error of zero at both
    # tolerances is quarantined, never ranked
    suspect = canonical_form((-1, -1, 0, 1))
    real = search.mahler_measure

    def mahler_measure(poly, tol):
        if poly.coeffs == suspect:
            return EntropyValue.approximate(1e-13, 1e-12)
        return real(poly, tol)

    monkeypatch.setattr(search, "mahler_measure", mahler_measure)
    result = lehmer_search(SearchSpec(max_degree=3))
    assert result.quarantined == (suspect,)
    assert suspect not in [e.coeffs for e in result.leaderboard]
    assert result.leaderboard[0].measure > PLASTIC_MEASURE


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        SearchSpec(max_degree=40, max_height=9, budget=10)


def test_budget_stops_the_enumeration(monkeypatch):
    # the space check passes (3**9 <= 400 * 100), the candidate count does not
    pulled = []
    candidates = search._candidate_polys

    def counted(spec):
        for coeffs in candidates(spec):
            pulled.append(coeffs)
            yield coeffs

    monkeypatch.setattr(search, "_candidate_polys", counted)
    with pytest.raises(BudgetExceeded):
        lehmer_search(SearchSpec(max_degree=8, budget=100))
    assert len(pulled) == 101


# ----------------------------------------------------------------------
# the Graeffe-pruned scan against the unpruned one

_reference = functools.lru_cache(maxsize=None)(lehmer_reference)


_SCAN_SPECS = [
    # monic height 1; top = 50 runs into the ties at log(theta_0)
    *(SearchSpec(max_degree=d, top=top) for d in range(1, 9) for top in (1, 5, 50)),
    # non-monic height 2
    *(SearchSpec(max_degree=d, max_height=2, monic_only=False, top=top)
      for d in range(1, 5) for top in (1, 5, 50)),
    # more places than positive classes: nothing is pruned
    SearchSpec(max_degree=4, top=10_000),
    SearchSpec(max_degree=3, max_height=2, monic_only=False, top=10_000),
]


def _scan_id(spec):
    return (f"deg{spec.max_degree}-h{spec.max_height}"
            f"-{'monic' if spec.monic_only else 'any'}-top{spec.top}")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", _SCAN_SPECS, ids=_scan_id)
def test_pruned_scan_matches_unpruned(spec, workers):
    assert lehmer_search(spec, workers) == _reference(spec)


@pytest.mark.parametrize("spec", _SCAN_SPECS, ids=_scan_id)
def test_candidates_match_the_oracle_in_order(spec):
    # the budget cut pulls candidates in order, so the order is checked too
    assert list(search._candidate_polys(spec)) == list(lehmer_candidates(spec))


def test_canonical_form_trims_trailing_zeros():
    # 1 + 2t, not t(t - 2): the zero lead is dropped before the symmetries
    assert canonical_form((1, 2, 0)) == canonical_form((1, 2)) == (-2, 1)
    assert canonical_form([0, -3, 0, 0]) == (0, 3)


@pytest.mark.parametrize("coeffs", [(), (0,), (0, 0, 0)])
def test_canonical_form_rejects_the_zero_polynomial(coeffs):
    with pytest.raises(InputError):
        canonical_form(coeffs)


def _tuple_argmax_bound(coeffs, squarings):
    """The Graeffe bound with its argmax taken over (value, j) tuples: the
    largest j among ties."""
    c = list(coeffs)
    for _ in range(squarings):
        c = search._graeffe(c)
    n = len(c) - 1
    logs = [math.log(math.comb(n, j)) for j in range(n + 1)]
    _, j = max((math.log(abs(a)) - logs[j], j) for j, a in enumerate(c) if a)
    value, error = sum_logs([(1, math.log(abs(c[j]))), (-1, logs[j])])
    return math.nextafter(math.ldexp(value - error, -squarings), -math.inf)


def test_graeffe_bound_matches_the_tuple_argmax():
    classes = list(search._candidate_polys(SearchSpec(max_degree=8)))
    assert len(classes) == 1760
    # one squaring gives -4 + 12t - 8t^2 + t^3, where j = 0 and j = 1 tie
    # at 4 / C(3, 0) = 12 / C(3, 1), and j = 0 would round to another float
    classes.append((-2, -2, 2, 1))
    for coeffs in classes:
        for k in (1, 4, 8):
            expected = _tuple_argmax_bound(coeffs, k)
            assert search._graeffe_bound(coeffs, k).hex() == expected.hex(), (coeffs, k)


def test_scan_work_is_pinned(monkeypatch):
    # degree 8, height 1: 6,560 tuples reach the canonical test, which draws
    # 12,252 variants in all (it stops at the first smaller one); 1,760
    # classes are bounded at k = 4 and 392 deepened to k = 8
    counts = Counter()
    graeffe, variants, is_canonical = (search._graeffe, search._variants,
                                       search._is_canonical)

    def counted_graeffe(coeffs):
        counts["graeffe"] += 1
        return graeffe(coeffs)

    def counted_variants(coeffs):
        for v in variants(coeffs):
            counts["variants"] += 1
            yield v

    def counted_is_canonical(coeffs):
        counts["is_canonical"] += 1
        return is_canonical(coeffs)

    monkeypatch.setattr(search, "_graeffe", counted_graeffe)
    monkeypatch.setattr(search, "_variants", counted_variants)
    monkeypatch.setattr(search, "_is_canonical", counted_is_canonical)
    lehmer_search(SearchSpec(max_degree=8))
    assert counts == {"graeffe": 1760 * 4 + 392 * 8,
                      "is_canonical": 6560, "variants": 12252}


def test_pruning_skips_most_classes(monkeypatch):
    calls, real = [], search.mahler_measure

    def mahler_measure(poly, tol):
        calls.append(poly.coeffs)
        return real(poly, tol)

    monkeypatch.setattr(search, "mahler_measure", mahler_measure)
    result = lehmer_search(SearchSpec(max_degree=8))
    assert result.scanned_count == 1760
    assert len(calls) <= 150


def test_graeffe_step_squares_the_roots():
    # f = (t - 2)(t + 3) -> (s - 4)(s - 9)
    assert search._graeffe([-6, 1, 1]) == [36, -13, 1]
    # f = t^3 - t - 1: g(t^2) = -f(t) f(-t)
    assert search._graeffe([-1, -1, 0, 1]) == [-1, 1, -2, 1]


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests below need hypothesis
    given = None

if given is not None:
    _coeffs = st.lists(st.integers(-50, 50), min_size=2, max_size=13).filter(
        lambda c: c[0] != 0 and c[-1] != 0 and math.gcd(*c) == 1)

    @settings(max_examples=80)
    @given(_coeffs)
    def test_graeffe_bound_is_below_the_measure(coeffs):
        measure = mahler_reference(coeffs)[0]
        for k in range(9):
            assert search._graeffe_bound(tuple(coeffs), k) <= measure

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    def test_graeffe_bound_of_cyclotomic_products_is_not_positive(orders):
        f = functools.reduce(lambda a, b: a * b, map(cyclotomic, orders),
                             IntPolynomial((1,)))
        for k in range(9):
            assert search._graeffe_bound(f.coeffs, k) <= 0

    _small = st.lists(st.integers(-3, 3), min_size=1, max_size=11)

    @settings(max_examples=400)
    @given(st.one_of(_small.filter(any),
                     st.lists(st.integers(-3, 3), max_size=10).map(lambda c: c + [1])))
    def test_is_canonical_holds_exactly_at_canonical_forms(coeffs):
        # height <= 3, degree <= 10, monic or not; zero constant terms,
        # zero and negative leads included
        coeffs = tuple(coeffs)
        assert search._is_canonical(coeffs) == (canonical_form(coeffs) == coeffs)


def test_espectrum_dimension_one():
    report = espectrum_sample(1, 3)
    values = sorted({round(v, 9) for v, _ in report.values})
    assert values == [0.0, round(math.log(2), 9), round(math.log(3), 9)]


def test_espectrum_minimal_positive_dimension_two():
    report = espectrum_sample(2, 1)
    golden = math.log((1 + 5 ** 0.5) / 2)
    assert report.minimal_positive.as_float() == pytest.approx(golden, abs=1e-9)


def test_espectrum_trivial_box():
    report = espectrum_sample(1, 1)
    assert report.minimal_positive is None
    assert all(v == 0.0 for v, _ in report.values)


@pytest.mark.parametrize("dimension, bound", [
    (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_espectrum_matches_brute_force(dimension, bound):
    values, scanned, minimal = espectrum_reference(dimension, bound)
    report = espectrum_sample(dimension, bound)
    assert report.values == values
    assert report.scanned == scanned
    if minimal is None:
        assert report.minimal_positive is None
    else:
        assert report.minimal_positive.to_json() == minimal.to_json()


@pytest.mark.parametrize("dimension, bound", [(2, 1), (2, 2), (3, 1)])
def test_espectrum_ties_keep_the_first_matrix(monkeypatch, dimension, bound):
    # the real boxes tie equal floats with different errors, but never at
    # the minimal value; a measure rounded to one decimal, with an error
    # that names the polynomial, ties there too, so the reported minimal
    # value shows which matrix won
    real = search.mahler_measure

    def coarse(poly, tol=1e-12):
        value = real(poly, tol)
        if value.is_zero():
            return value
        # one tag per polynomial while every |coefficient| < 64
        tag = sum((c + 64) * 128 ** i for i, c in enumerate(poly.coeffs))
        return EntropyValue.approximate(round(value.as_float(), 1), 1e-12 * tag)

    monkeypatch.setattr(search, "mahler_measure", coarse)
    values, _, minimal = espectrum_reference(dimension, bound, coarse)
    report = espectrum_sample(dimension, bound)
    assert report.values == values
    assert report.minimal_positive.to_json() == minimal.to_json()


@pytest.mark.parametrize("dimension, bound", [(2, 1), (2, 2), (3, 1)])
def test_espectrum_tabulates_chi_once_per_box(monkeypatch, dimension, bound):
    # chi_A is affine in every row, so one int_char_poly per matrix whose
    # rows are 0 or unit vectors fixes it on the box, whatever the bound
    real, calls = search.int_char_poly, []

    def int_char_poly(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(search, "int_char_poly", int_char_poly)
    report = espectrum_sample(dimension, bound)
    assert len(calls) == (dimension + 1) ** dimension
    assert report.scanned == (2 * bound + 1) ** (dimension * dimension)


def test_espectrum_tol_reaches_every_measure(monkeypatch, capsys):
    real, tols = search.mahler_measure, []

    def mahler_measure(poly, tol=1e-12):
        tols.append(tol)
        return real(poly, tol)

    monkeypatch.setattr(search, "mahler_measure", mahler_measure)
    assert dispatch(["espectrum", "--dim", "2", "--bound", "1",
                     "--tol", "1e-20"]) == 0
    capsys.readouterr()
    assert tols and set(tols) == {1e-20}


def test_espectrum_rejects_large_dimension():
    with pytest.raises(InputError):
        espectrum_sample(4, 1)
