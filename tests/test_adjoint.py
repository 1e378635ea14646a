import math
import random

import pytest

from entrokit import adjoint, linalg
from entrokit.adjoint import adjoint_entropy_at, dichotomy_probe, enumerate_lattices, \
    lattice_count
from entrokit.errors import BudgetExceeded, SingularMap
from entrokit.linalg import Lattice, RatMatrix, lattice_intersect, lattice_preimage

from oracles import is_sublattice, lattice_exponent, mat_mul, mat_pow, \
    unimodular_pair

FIB = RatMatrix([[0, 1], [1, 1]])


def random_nonsingular(rng, n, bound=3):
    while True:
        a = RatMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        if a.determinant() != 0:
            return a


def test_power_endomorphism_fixes_every_lattice():
    report = adjoint_entropy_at(RatMatrix([[5]]), Lattice.scaled(1, 3))
    assert report.stationary_at == 1
    assert report.value.is_zero() and report.certificate


def test_fibonacci_example():
    report = adjoint_entropy_at(FIB, Lattice.from_columns([[1, 0], [0, 2]]))
    assert report.indices[0] == 2
    assert report.indices[1] == 4  # C_2 = 2 Z^2
    assert report.stationary_at == 2
    assert report.value.is_zero() and report.certificate


def test_identity_is_immediately_stationary():
    report = adjoint_entropy_at(RatMatrix([[1, 0], [0, 1]]),
                                Lattice.from_columns([[3, 0], [1, 2]]))
    assert report.stationary_at == 1


def test_singular_rejected():
    with pytest.raises(SingularMap):
        adjoint_entropy_at(RatMatrix([[1, 1], [1, 1]]), Lattice.standard(2))


def test_alpha_divisibility_chain():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(1, 3)
        a = random_nonsingular(rng, n)
        for lattice in enumerate_lattices(n, 6):
            report = adjoint_entropy_at(a, lattice)
            alphas = report.alphas
            for k in range(1, len(alphas) - 1):
                assert alphas[k + 1] % 1 == 0
                assert alphas[k] % alphas[k + 1] == 0


def test_antimonotone_in_the_subgroup():
    # N inside M forces indices of the N-chain to dominate the M-chain
    rng = random.Random(15)
    for _ in range(10):
        a = random_nonsingular(rng, 2)
        m_lat = Lattice.from_columns([[2, 0], [0, 1]])
        n_lat = Lattice.from_columns([[4, 0], [0, 2]])  # sublattice of m_lat
        assert is_sublattice(n_lat, m_lat)
        rn = adjoint_entropy_at(a, n_lat)
        rm = adjoint_entropy_at(a, m_lat)
        # both chains freeze, so extend each by its final value to compare
        chain_n = list(rn.indices) + [rn.indices[-1]] * 8
        chain_m = list(rm.indices) + [rm.indices[-1]] * 8
        for k in range(max(len(rn.indices), len(rm.indices))):
            assert chain_n[k] % chain_m[k] == 0 and chain_n[k] >= chain_m[k]


def test_exponent_containment_bound():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = random_nonsingular(rng, n)
        for lattice in enumerate_lattices(n, 4):
            e = lattice_exponent(lattice)
            report = adjoint_entropy_at(a, lattice)
            assert report.certificate
            # rebuild the frozen lattice and verify e*Z^n sits inside it
            frozen = lattice
            for _ in range(report.stationary_at):
                frozen = lattice_intersect(lattice, lattice_preimage(a, frozen))
            assert is_sublattice(Lattice.scaled(n, e), frozen)


def test_per_lattice_log_law():
    # C_(n*k)(A, N) equals C_n(A^k, C_k(A, N)) at matched steps
    rng = random.Random(29)
    for _ in range(8):
        n_dim = rng.randint(1, 2)
        a = random_nonsingular(rng, n_dim)
        lattice = Lattice.from_columns([[2 if i == j else (1 if j > i else 0)
                                         for j in range(n_dim)] for i in range(n_dim)])

        def chain(matrix, start, steps):
            out = [start]
            for _ in range(steps):
                out.append(lattice_intersect(start, lattice_preimage(matrix, out[-1])))
            return out

        for k in (2, 3):
            base = chain(a, lattice, 3 * k)
            c_k = base[k - 1]
            powered = chain(RatMatrix(mat_pow(a.entries, k)), c_k, 2)
            for step in (1, 2):
                assert powered[step].basis == base[(step + 1) * k - 1].basis


def test_conjugation_invariance():
    rng = random.Random(91)
    for _ in range(10):
        n = rng.randint(2, 3)
        a = random_nonsingular(rng, n)
        p, p_inv = unimodular_pair(rng, n)
        lattice = Lattice.from_columns([[rng.choice([1, 2]) if i == j else 0
                                         for j in range(n)] for i in range(n)])
        conj = RatMatrix(mat_mul(mat_mul(p, a.entries), p_inv))
        if not conj.is_integer():
            continue
        moved = Lattice.from_columns([[sum(x * y for x, y in zip(row, col)) for row in p]
                                      for col in lattice.basis])
        ra = adjoint_entropy_at(a, lattice)
        rc = adjoint_entropy_at(conj, moved)
        assert ra.indices == rc.indices
        assert ra.stationary_at == rc.stationary_at


def test_lattice_enumeration_count():
    # n = 2, bound 4: sum over diagonal pairs (d1, d2), d1*d2 <= 4, of d1
    assert sum(1 for _ in enumerate_lattices(2, 4)) == 15
    assert sum(1 for _ in enumerate_lattices(1, 8)) == 8
    for n, m in [(1, 8), (2, 4), (2, 32), (3, 12), (4, 6), (2, 0)]:
        assert lattice_count(n, m, 10**6) == sum(1 for _ in enumerate_lattices(n, m))
    assert lattice_count(2, 32, 10**6) == 857 and lattice_count(3, 12, 10**6) == 1325
    assert lattice_count(2, 32, 856) == 857
    assert lattice_count(2, 3000, 5_000_000) == 5_000_001


def test_enumerated_bases_are_canonical():
    for n in (1, 2, 3):
        for lattice in enumerate_lattices(n, 8):
            assert Lattice.from_columns(lattice.basis) == lattice


def reference_chain(a, lattice, horizon=64):
    """The chain by separate preimage and intersection: (indices,
    stationary_at, frozen lattice)."""
    chain = [lattice]
    for step in range(1, horizon + 1):
        chain.append(lattice_intersect(lattice, lattice_preimage(a, chain[-1])))
        if chain[-1] == chain[-2]:
            return tuple(c.index for c in chain), step, chain[-1]
    raise AssertionError("reference chain did not freeze")


def test_chain_runs_no_kernel_and_n_inserts_per_step(monkeypatch):
    # the chain is one echelon closure on the duals: n inserts for m * N*
    # and n per step, with no kernel and no HNF of a kernel
    def forbidden(*args):
        raise AssertionError("a kernel or an HNF ran in the cotrajectory chain")

    inserts = []
    insert = linalg._Echelon.insert

    def counting_insert(self, *args):
        inserts.append(1)
        return insert(self, *args)

    monkeypatch.setattr(linalg, "_meet_preimage", forbidden)
    monkeypatch.setattr(linalg.Lattice, "from_columns", forbidden)
    monkeypatch.setattr(linalg._Echelon, "insert", counting_insert)
    assert not hasattr(adjoint, "_meet_preimage")
    rng = random.Random(44)
    for _ in range(6):
        n = rng.randint(1, 3)
        a = random_nonsingular(rng, n)
        for lattice in enumerate_lattices(n, 6):
            inserts.clear()
            report = adjoint_entropy_at(a, lattice)
            assert len(inserts) <= n * (report.stationary_at + 1)
    inserts.clear()
    probe = dichotomy_probe(FIB, 8)
    assert len(inserts) <= 2 * (probe.max_stabilization + 1) * probe.lattices_probed


def test_probe_checks_the_lattice_count_before_probing(monkeypatch):
    calls = []
    probe_one = adjoint._cotrajectory

    def counting_probe(*args):
        calls.append(1)
        return probe_one(*args)

    # the probe checks the matrix once and runs the chain per lattice
    monkeypatch.setattr(adjoint, "_cotrajectory", counting_probe)
    # 7,405,170 lattices of Z^2 have index <= 3000
    with pytest.raises(BudgetExceeded):
        dichotomy_probe(RatMatrix([[2, 1], [0, 3]]), 3000, budget=5_000_000)
    with pytest.raises(BudgetExceeded):
        dichotomy_probe(FIB, 32, budget=856)
    assert not calls
    assert dichotomy_probe(FIB, 32, budget=857).lattices_probed == 857
    assert len(calls) == 857


def test_exponent_is_the_least_scale_inside():
    # e = m / gcd(m, entries of m * B^-1), which the certificate reads, is
    # the smallest e dividing the index m with e * e_i in L for every i
    for n in (1, 2, 3):
        for lattice in enumerate_lattices(n, 30):
            m = lattice.index
            dual = adjoint._scaled_dual(lattice)
            assert m // math.gcd(m, *(x for y in dual for x in y)) == lattice_exponent(lattice)


def test_enum_sets_probes_are_pinned():
    # the two adjoint-probe operations of the enum-sets benchmark workload
    probe = dichotomy_probe(FIB, 32)
    assert (probe.lattices_probed, probe.max_stabilization) == (857, 2)
    circulant = RatMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    probe = dichotomy_probe(circulant, 12)
    assert (probe.lattices_probed, probe.max_stabilization) == (1325, 3)
    for lattice in enumerate_lattices(3, 12):
        report = adjoint_entropy_at(circulant, lattice)
        assert (report.indices, report.stationary_at) == reference_chain(circulant, lattice)[:2]
        assert report.certificate


def test_chain_on_an_index_beyond_two_to_the_sixty():
    # entries of m * N* and of the reduced images are big ints
    big = 10**20 + 39
    cases = [(FIB, Lattice.from_columns([[big, 0], [5, 1]])),
             (RatMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
              Lattice.from_columns([[big, 0, 0], [7, 3, 0], [2, 1, 2]])),
             (RatMatrix([[2, 1], [1, 1]]), Lattice.from_columns([[2**61 - 1, 0], [0, 2**64]]))]
    for a, lattice in cases:
        assert lattice.index > 10**18
        report = adjoint_entropy_at(a, lattice)
        indices, stationary_at, frozen = reference_chain(a, lattice)
        assert (report.indices, report.stationary_at) == (indices, stationary_at)
        assert report.certificate
        assert report.indices[-1] == frozen.index > lattice.index


def test_probe_checks_the_matrix_once(monkeypatch):
    checks = []
    check = adjoint._check_matrix

    def counting_check(*args):
        checks.append(1)
        return check(*args)

    monkeypatch.setattr(adjoint, "_check_matrix", counting_check)
    assert dichotomy_probe(FIB, 8).lattices_probed > 1
    assert len(checks) == 1


def test_dichotomy_probe_all_zero():
    probe = dichotomy_probe(RatMatrix([[2]]), 12)
    assert probe.outcome == "all_zero" and probe.lattices_probed == 12
    probe = dichotomy_probe(FIB, 8)
    assert probe.outcome == "all_zero"
    probe = dichotomy_probe(RatMatrix([[1, 0], [0, 1]]), 5)
    assert probe.max_stabilization == 1


try:
    from hypothesis import assume, given, strategies as st
except ImportError:  # the property test below needs hypothesis
    given = None

if given is not None:
    _LATTICES = {n: list(enumerate_lattices(n, 6)) for n in (1, 2, 3)}

    @st.composite
    def _matrix_and_lattice(draw):
        n = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        return RatMatrix(rows), draw(st.sampled_from(_LATTICES[n]))

    @given(_matrix_and_lattice())
    def test_fused_chain_matches_two_step_chain(case):
        a, lattice = case
        assume(a.determinant() != 0)
        indices, stationary_at, frozen = reference_chain(a, lattice)
        report = adjoint_entropy_at(a, lattice)
        assert report.indices == indices and report.stationary_at == stationary_at
        e = lattice_exponent(lattice)
        assert report.certificate == is_sublattice(Lattice.scaled(a.n, e), frozen)

    _SMALL = {n: list(enumerate_lattices(n, 12)) for n in (1, 2, 3)}

    def _scaled_dual_at(lattice, m):
        """Generators of m * L*, for an index of L dividing m."""
        return [[m // lattice.index * x for x in y] for y in adjoint._scaled_dual(lattice)]

    @st.composite
    def _two_lattices_and_matrix(draw):
        n = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        return (RatMatrix(rows), draw(st.sampled_from(_SMALL[n])),
                draw(st.sampled_from(_SMALL[n])))

    @given(_two_lattices_and_matrix())
    def test_dual_of_meet_and_preimage(case):
        # (L meet M)* = L* + M* and (Z^n meet A^-1 L)* = Z^n + A^T L*, each
        # scaled by an m that makes the duals integer; the rows of
        # _scaled_dual(L) times the basis of L give [Z^n : L] * I
        a, l_lat, m_lat = case
        n = a.n
        for lattice in (l_lat, m_lat):
            product = mat_mul(adjoint._scaled_dual(lattice),
                              [[lattice.basis[j][i] for j in range(n)] for i in range(n)])
            assert product == [[lattice.index * (i == j) for j in range(n)]
                               for i in range(n)]
        meet = lattice_intersect(l_lat, m_lat)
        m = meet.index
        assert Lattice.from_columns(_scaled_dual_at(meet, m)) == Lattice.from_columns(
            _scaled_dual_at(l_lat, m) + _scaled_dual_at(m_lat, m))
        assume(a.determinant() != 0)
        m = l_lat.index
        images = [[sum(r[i] * y[k] for k, r in enumerate(a.int_rows())) for i in range(n)]
                  for y in _scaled_dual_at(l_lat, m)]
        images += [[m * (i == j) for i in range(n)] for j in range(n)]
        assert Lattice.from_columns(_scaled_dual_at(lattice_preimage(a, l_lat), m)) \
            == Lattice.from_columns(images)
