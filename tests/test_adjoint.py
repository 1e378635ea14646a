import random

import pytest

from entrokit import adjoint
from entrokit.adjoint import adjoint_entropy_at, dichotomy_probe, enumerate_lattices, \
    lattice_count
from entrokit.errors import BudgetExceeded, SingularMap
from entrokit.linalg import Lattice, RatMatrix, hnf, lattice_intersect, lattice_preimage

FIB = RatMatrix([[0, 1], [1, 1]])


def random_nonsingular(rng, n, bound=3):
    while True:
        a = RatMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        if a.determinant() != 0:
            return a


def random_unimodular(rng, n, steps=6):
    from fractions import Fraction

    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return RatMatrix(m)


def test_power_endomorphism_fixes_every_lattice():
    report = adjoint_entropy_at(RatMatrix([[5]]), Lattice.scaled(1, 3))
    assert report.stationary_at == 1
    assert report.value.is_zero() and report.certificate


def test_fibonacci_example():
    report = adjoint_entropy_at(FIB, hnf([[1, 0], [0, 2]]))
    assert report.indices[0] == 2
    assert report.indices[1] == 4  # C_2 = 2 Z^2
    assert report.stationary_at == 2
    assert report.value.is_zero() and report.certificate


def test_identity_is_immediately_stationary():
    report = adjoint_entropy_at(RatMatrix.identity(2), hnf([[3, 0], [1, 2]]))
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
        m_lat = hnf([[2, 0], [0, 1]])
        n_lat = hnf([[4, 0], [0, 2]])  # sublattice of m_lat
        assert n_lat.is_sublattice_of(m_lat)
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
            e = lattice.exponent()
            report = adjoint_entropy_at(a, lattice)
            assert report.certificate
            # rebuild the frozen lattice and verify e*Z^n sits inside it
            frozen = lattice
            for _ in range(report.stationary_at):
                frozen = lattice_intersect(lattice, lattice_preimage(a, frozen))
            assert Lattice.scaled(n, e).is_sublattice_of(frozen)


def test_per_lattice_log_law():
    # C_(n*k)(A, N) equals C_n(A^k, C_k(A, N)) at matched steps
    rng = random.Random(29)
    for _ in range(8):
        n_dim = rng.randint(1, 2)
        a = random_nonsingular(rng, n_dim)
        lattice = hnf([[2 if i == j else (1 if j > i else 0) for j in range(n_dim)]
                       for i in range(n_dim)])

        def chain(matrix, start, steps):
            out = [start]
            for _ in range(steps):
                out.append(lattice_intersect(start, lattice_preimage(matrix, out[-1])))
            return out

        for k in (2, 3):
            base = chain(a, lattice, 3 * k)
            c_k = base[k - 1]
            powered = chain(a.power(k), c_k, 2)
            for step in (1, 2):
                assert powered[step].basis == base[(step + 1) * k - 1].basis


def test_conjugation_invariance():
    rng = random.Random(91)
    for _ in range(10):
        n = rng.randint(2, 3)
        a = random_nonsingular(rng, n)
        p = random_unimodular(rng, n)
        lattice = hnf([[rng.choice([1, 2]) if i == j else 0 for j in range(n)]
                       for i in range(n)])
        conj = p * a * p.inverse()
        if not conj.is_integer():
            continue
        moved = hnf([p.matvec(col) for col in lattice.basis])
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


def test_kernel_runs_once_per_strict_drop(monkeypatch):
    kernels = []
    meet = adjoint._meet_preimage

    def counting_meet(*args):
        kernels.append(1)
        return meet(*args)

    monkeypatch.setattr(adjoint, "_meet_preimage", counting_meet)
    rng = random.Random(44)
    for _ in range(6):
        n = rng.randint(1, 3)
        a = random_nonsingular(rng, n)
        for lattice in enumerate_lattices(n, 6):
            kernels.clear()
            report = adjoint_entropy_at(a, lattice)
            assert len(kernels) == report.stationary_at - 1
            assert report.stationary_at == reference_chain(a, lattice)[1]


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
    # the smallest e dividing the index with e * e_i in L for every i
    for n in (1, 2, 3):
        units = [[int(i == j) for i in range(n)] for j in range(n)]
        for lattice in enumerate_lattices(n, 30):
            index = lattice.index
            e = next(e for e in range(1, index + 1) if index % e == 0
                     and all(lattice.contains([e * x for x in u]) for u in units))
            assert lattice.exponent() == e


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
    probe = dichotomy_probe(RatMatrix.identity(2), 5)
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
        current = lattice
        for _ in range(report.stationary_at - 1):
            current = adjoint._meet_preimage(a.int_rows(), lattice, current)
        assert current.basis == frozen.basis
