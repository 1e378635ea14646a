import random
from fractions import Fraction
from itertools import product

import pytest

from entrokit import linalg
from entrokit.errors import RankDeficient, SingularMap
from entrokit.linalg import (
    Lattice,
    RatMatrix,
    char_poly,
    int_char_poly,
    lattice_intersect,
    lattice_preimage,
    matrix_from_json,
    solve_columns,
)

from oracles import charpoly_2x2, is_sublattice, lattice_contains, lattice_exponent, \
    lattice_members_box, mat_mul, unimodular_pair


def test_char_poly_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        got = char_poly(RatMatrix([[a, b], [c, d]]))
        assert tuple(got.coeffs) == tuple(Fraction(x) for x in charpoly_2x2(a, b, c, d))


def test_char_poly_identity_and_scalar():
    assert char_poly(RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).coeffs == (-1, 3, -3, 1)
    # t - 1/2 has the primitive part 2t - 1
    assert char_poly(RatMatrix([[Fraction(1, 2)]])).coeffs == (-1, 2)


def test_char_poly_conjugation_invariance():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        p, p_inv = unimodular_pair(rng, n)
        assert mat_mul(p, p_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
        conj = RatMatrix(mat_mul(mat_mul(p, rows), p_inv))
        assert char_poly(conj).coeffs == char_poly(RatMatrix(rows)).coeffs


def block_diag(a, b):
    return RatMatrix([[*r, *[0] * b.n] for r in a.entries] + [[*[0] * a.n, *r] for r in b.entries])


def test_char_poly_block_sum():
    a = RatMatrix([[0, 1], [1, 1]])
    b = RatMatrix([[2]])
    assert char_poly(block_diag(a, b)).coeffs == (char_poly(a) * char_poly(b)).coeffs


def test_char_poly_and_determinant_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    for trial in range(60):
        n = 1 + trial % 6
        rational = (trial // 6) % 2 == 1
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6) if rational else 1)
                 for _ in range(n)] for _ in range(n)]
        oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                               for row in rows])
        # two monic polynomials are equal exactly when their primitive parts are
        _, want = oracle.charpoly().primitive()
        a = RatMatrix(rows)
        assert char_poly(a).coeffs == tuple(Fraction(int(c.p), int(c.q))
                                            for c in want.all_coeffs()[::-1])
        det = oracle.det()
        assert a.determinant() == Fraction(int(det.p), int(det.q))


def test_int_char_poly_edge_cases():
    assert int_char_poly([[7]]) == (-7, 1)
    assert int_char_poly([[-3]]) == (3, 1)
    # strictly upper triangular, hence nilpotent: det(tI - A) = t^4
    nilpotent = [[0, 2, -1, 5], [0, 0, 3, 4], [0, 0, 0, -6], [0, 0, 0, 0]]
    assert int_char_poly(nilpotent) == (0, 0, 0, 0, 1)
    # nilpotent but not triangular: A = [[2, 4], [-1, -2]], A^2 = 0
    assert int_char_poly([[2, 4], [-1, -2]]) == (0, 0, 1)


try:
    from hypothesis import given, strategies as st
except ImportError:  # the property test below needs hypothesis
    given = None

if given is not None:
    _square_rows = st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.integers(-1000, 1000), min_size=n, max_size=n),
        min_size=n, max_size=n))

    @given(_square_rows, st.integers(0, 2))
    def test_int_char_poly_is_affine_in_every_row(rows, index):
        # row i of tI - A is t e_i - a_i and det is linear in each row, so
        # chi_A = chi_0 + sum_j a_ij (chi_(e_j) - chi_0) with row i replaced
        n = len(rows)
        i = index % n

        def with_row(row):
            return int_char_poly(rows[:i] + [row] + rows[i + 1:])

        base = with_row([0] * n)
        want = list(base)
        for j, a in enumerate(rows[i]):
            unit = with_row([int(k == j) for k in range(n)])
            want = [w + a * (u - b) for w, u, b in zip(want, unit, base)]
        assert int_char_poly(rows) == tuple(want)


def _random_rational_rows(rng, n, rank, m=None):
    """n x m (default n x n) Fraction rows of the given rank (a product of
    n x rank and rank x m factors, so rank-deficient ones come up as often
    as full)."""
    m = n if m is None else m

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    left = [[entry() for _ in range(rank)] for _ in range(n)]
    right = [[entry() for _ in range(m)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(m)] for i in range(n)]


def test_gauss_jordan_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)

    def to_sympy(rows):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in rows])

    def to_fraction(x):
        return Fraction(int(x.p), int(x.q))

    def check_solve(columns, n):
        # the columns against a random target, and against one inside their
        # span: None exactly when appending the target grows the rank
        oracle = to_sympy([[c[i] for c in columns] for i in range(n)])
        rank = oracle.rank()
        inside = [sum((rng.randint(-3, 3) * c[i] for c in columns), Fraction(0))
                  for i in range(n)]
        for target in ([Fraction(rng.randint(-4, 4)) for _ in range(n)], inside):
            x = solve_columns(columns, target)
            grows = oracle.row_join(to_sympy([[t] for t in target])).rank() > rank
            assert (x is None) == grows
            if x is not None:
                assert [sum((xj * c[i] for xj, c in zip(x, columns)), Fraction(0))
                        for i in range(n)] == target

    for trial in range(120):
        n = 1 + trial % 5
        rows = _random_rational_rows(rng, n, rng.randint(0, n))
        columns, oracle = [tuple(row[j] for row in rows) for j in range(n)], to_sympy(rows)
        # the inverse column by column, from A x = e_i; None when singular
        inverse = [solve_columns(columns, [Fraction(int(k == i)) for k in range(n)])
                   for i in range(n)]
        if oracle.rank() == n:
            assert inverse == [[to_fraction(x) for x in oracle.inv().col(i)]
                               for i in range(n)]
        else:
            assert None in inverse
        # the reduced relations that solve_columns reads are sympy's kernel basis
        _, scaled = linalg._clear_denominators(RatMatrix(rows))
        relations = linalg._relations(list(zip(*scaled)), n)
        assert [v for _, v in relations] \
            == [[to_fraction(x) for x in v] for v in oracle.nullspace()]
        check_solve(columns, n)
    # rectangular column sets: m != n columns in Q^n, of every rank
    for n, m in product(range(1, 6), range(1, 8)):
        if m != n:
            for rank in sorted({0, min(n, m) - 1, min(n, m)}):
                rows = _random_rational_rows(rng, n, rank, m)
                check_solve([tuple(row[j] for row in rows) for j in range(m)], n)


def test_hnf_examples():
    assert Lattice.from_columns([[2, 0], [0, 2]]).basis == ((2, 0), (0, 2))
    lat = Lattice.from_columns([[1, 0], [0, 2]])
    assert lat.basis == ((1, 0), (0, 2)) and lat.index == 2
    # gcd elimination oracle: columns (2,0), (1,1), (0,3) generate Z^2
    assert Lattice.from_columns([[2, 0], [1, 1], [0, 3]]).index == 1


def test_hnf_rank_deficient():
    with pytest.raises(RankDeficient):
        Lattice.from_columns([[1, 2], [2, 4]])


def test_hnf_idempotent_and_basis_independent():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        det = RatMatrix(cols).determinant() if n > 1 else Fraction(cols[0][0])
        if det == 0:
            continue
        lat = Lattice.from_columns(cols)
        assert Lattice.from_columns(list(lat.basis)).basis == lat.basis
        # integer column operations leave the generated lattice unchanged
        combo = [tuple(a + b for a, b in zip(cols[i], cols[(i + 1) % n]))
                 for i in range(n)] + cols
        assert Lattice.from_columns(combo).basis == lat.basis


def test_lattice_membership_and_exponent():
    lat = Lattice.from_columns([[2, 0], [1, 1]])  # x == y mod 2
    assert lattice_contains(lat, (2, 0)) and lattice_contains(lat, (3, 1))
    assert not lattice_contains(lat, (1, 0))
    assert {v for v in product(range(-3, 4), repeat=2) if lattice_contains(lat, v)} \
        == lattice_members_box(lat, 3)
    assert lattice_exponent(lat) == 2
    assert lattice_exponent(Lattice.scaled(2, 6)) == 6


def test_intersect_examples():
    assert lattice_intersect(Lattice.scaled(1, 2), Lattice.scaled(1, 3)).basis == ((6,),)
    lat = Lattice.from_columns([[5, 0], [2, 1]])
    assert lattice_intersect(Lattice.standard(2), lat).basis == lat.basis
    # (Z + 2Z) meet {x == y mod 2} = 2Z^2, by residue enumeration oracle
    a = Lattice.from_columns([[1, 0], [0, 2]])
    b = Lattice.from_columns([[2, 0], [1, 1]])
    meet = lattice_intersect(a, b)
    box = lattice_members_box(meet, 4)
    expected = lattice_members_box(a, 4) & lattice_members_box(b, 4)
    assert box == expected
    assert meet.basis == ((2, 0), (0, 2))


def test_intersect_containment_and_index():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)

        def rand_lattice():
            while True:
                cols = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                try:
                    return Lattice.from_columns(cols)
                except RankDeficient:
                    continue

        l1, l2 = rand_lattice(), rand_lattice()
        meet = lattice_intersect(l1, l2)
        assert is_sublattice(meet, l1) and is_sublattice(meet, l2)
        assert meet.index % l1.index == 0 and meet.index % l2.index == 0
        assert meet.index <= l1.index * l2.index


def test_preimage_examples():
    assert lattice_preimage(RatMatrix([[2]]), Lattice.scaled(1, 3)).basis == ((3,),)
    lat = Lattice.standard(2)
    assert lattice_preimage(RatMatrix([[1, 0], [0, 1]]), lat).basis == lat.basis
    pre = lattice_preimage(RatMatrix([[0, 1], [1, 1]]),
                           Lattice.from_columns([[1, 0], [0, 2]]))
    assert pre.index == 2
    # enumeration oracle mod 2: A v in L iff x + y even
    members = lattice_members_box(pre, 3)
    for v in product(range(-3, 4), repeat=2):
        assert ((v[0] + v[1]) % 2 == 0) == (v in members)


def test_preimage_rejects_singular():
    with pytest.raises(SingularMap):
        lattice_preimage(RatMatrix([[1, 1], [1, 1]]), Lattice.standard(2))


def test_preimage_induced_map_injective():
    # v + A^-1(L) -> A v + L embeds Z^n / A^-1(L) into Z^n / L; checked by
    # enumerating residues for small indices, and the index must divide
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(1, 2)
        while True:
            a = RatMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if a.determinant() != 0:
                break
        lat = Lattice.from_columns([[rng.choice([1, 2, 3]) if i == j else 0
                                     for i in range(n)] for j in range(n)])
        pre = lattice_preimage(a, lat)
        assert lat.index % pre.index == 0
        images = {}
        for v in product(range(-3, 4), repeat=n):
            av = tuple(int(x) for x in a.matvec([Fraction(x) for x in v]))
            key_pre = _residue_key(pre, v)
            key_img = _residue_key(lat, av)
            if key_pre in images:
                assert images[key_pre] == key_img
            else:
                images[key_pre] = key_img
        assert len(set(images.values())) == len(images)


def _residue_key(lat, v):
    # canonical coset representative: greedy reduction by the HNF columns
    w = list(v)
    for j in range(lat.n - 1, -1, -1):
        d = lat.basis[j][j]
        q = w[j] // d
        if q:
            for i in range(j + 1):
                w[i] -= q * lat.basis[j][i]
    return tuple(w)


def test_matrix_json_round_trip():
    a = RatMatrix([[Fraction(1, 2), 1], [0, 3]])
    assert matrix_from_json({"rows": [["1/2", "1"], ["0", "3"]]}).entries == a.entries
