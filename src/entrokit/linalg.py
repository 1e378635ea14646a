"""Exact rational matrix algebra and integer lattice arithmetic.

Matrices are exact (Fraction entries); lattices are full-rank subgroups of
Z^n in a canonical column Hermite normal form: the basis matrix is upper
triangular with positive diagonal and each above-diagonal entry reduced
modulo its row's diagonal, so equal lattices have equal bases.

Rational entries are scaled to integers by the lcm of their denominators
(``clear_denominators``), and every job then runs on one of two kernels.
Division-free Berkowitz (``int_char_poly``) gives the characteristic
polynomial and the determinant.  An integer column echelon (``_Echelon``),
whose vectors carry a companion recording the inputs they were built from,
gives the Hermite normal form, lattice meets and preimages, and exact
column solves from the companions of the vectors that reduce to zero.  No
stage here is numerical: root finding is the only numerical stage of the
pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, RankDeficient, SingularMap
from .polynomials import IntPolynomial, clear_denominators, json_list, \
    parse_fraction


@dataclass(frozen=True)
class RatMatrix:
    entries: tuple  # tuple of row tuples, Fractions

    def __init__(self, rows):
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not data or any(len(row) != len(data) for row in data):
            raise InputError("matrix must be square and non-empty")
        object.__setattr__(self, "entries", data)

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def int_rows(self):
        if not self.is_integer():
            raise InputError("matrix has non-integer entries")
        return [[int(x) for x in row] for row in self.entries]

    def matvec(self, v):
        return tuple(sum(x * y for x, y in zip(row, v)) for row in self.entries)

    def determinant(self) -> Fraction:
        d, b = _clear_denominators(self)
        return (-1) ** self.n * Fraction(int_char_poly(b)[0], d ** self.n)


def _clear_denominators(a: RatMatrix):
    """(d, B) with d the lcm of the entry denominators and B = d*A in ints."""
    n = a.n
    d, flat = clear_denominators([x for row in a.entries for x in row])
    return d, [flat[i * n:(i + 1) * n] for i in range(n)]


def int_char_poly(rows) -> tuple:
    """Ascending int coefficients of det(tI - A) for square integer rows.

    Division-free Berkowitz (Inf. Proc. Letters 18, 1984): the polynomial of
    each leading principal submatrix is a Toeplitz product with that of the
    previous one, whose entries are 1, -a_rr and -R A_r^k S for the new
    row R and column S of the border.
    """
    poly = [1]  # descending coefficients of the current principal minor
    for r, row in enumerate(rows):
        col = [rows[i][r] for i in range(r)]
        toeplitz = [1, -row[r]]
        for k in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, col)))
            if k < r - 1:
                col = [sum(x * y for x, y in zip(rows[i], col)) for i in range(r)]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return tuple(reversed(poly))


def char_poly(a: RatMatrix) -> IntPolynomial:
    """Primitive part of the characteristic polynomial det(tI - A), lead
    positive; for an integer matrix, det(tI - A) itself.

    With B = d*A for the lcm d of the denominators, d^n det(tI - A) is the
    sum of c_k(B) d^k t^k, where c_k(B) comes from int_char_poly.
    """
    d, b = _clear_denominators(a)
    scaled = [c * d ** k for k, c in enumerate(int_char_poly(b))]
    return IntPolynomial(scaled).primitive()


def solve_columns(columns, target):
    """Solve sum_j x_j * columns[j] = target exactly; None if inconsistent.

    The target lies in the span of the columns exactly when it is a free
    column of [columns | target]; its reduced relation v then has v_m = 1,
    and x = -(v_0, ..., v_(m-1)) is 0 at the other free columns."""
    m, n = len(columns), len(target)
    _, flat = clear_denominators([Fraction(x) for c in (*columns, target) for x in c])
    rels = _relations([flat[j * n:(j + 1) * n] for j in range(m + 1)], n)
    if not rels or rels[-1][0] != m:
        return None
    return [-x for x in rels[-1][1][:m]]


def _relations(columns, n):
    """Reduced basis of the rational relations among integer columns of
    length n: per free column f (one in the span of those before it), the
    pair (f, v) with sum_j v_j columns[j] = 0, v_f = 1 and v = 0 at every
    other free column.  Column j enters the echelon with companion e_j, so
    f leaves a relation nonzero at f and zero past it, which is scaled and
    back-substituted."""
    m = len(columns)
    ech = _Echelon(n)
    for j, col in enumerate(columns):
        ech.insert(col, [int(i == j) for i in range(m)])
    out = []
    for rel in ech.kernel:
        f = _last_nonzero(rel, m)
        v = [Fraction(x, rel[f]) for x in rel]
        for g, k in out:
            if v[g]:
                v = [x - v[g] * y for x, y in zip(v, k)]
        out.append((f, v))
    return out


# ----------------------------------------------------------------------
# integer columns: echelon form, kernels, Hermite normal form

def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _last_nonzero(v, n):
    """Index of the last nonzero among the first n coordinates, else -1."""
    for i in range(n - 1, -1, -1):
        if v[i]:
            return i
    return -1


class _Echelon:
    """Incremental integer column echelon: pivot = last nonzero coordinate
    among the first n.  The coordinates past n are the vector's companion,
    which every row operation carries along."""

    def __init__(self, n):
        self.n = n
        self.basis = {}   # pivot index -> vector followed by its companion
        self.kernel = []  # companions of vectors that reduced to zero

    def insert(self, v, u=()):
        v = [*v, *u]
        while True:
            p = _last_nonzero(v, self.n)
            if p < 0:
                self.kernel.append(tuple(v[self.n:]))
                return
            if p not in self.basis:
                self.basis[p] = tuple(v)
                return
            b = self.basis[p]
            if v[p] % b[p] == 0:
                q = v[p] // b[p]
                v = [x - q * y for x, y in zip(v, b)]
            else:
                g, x, y = _xgcd(b[p], v[p])
                self.basis[p] = tuple(x * s + y * t for s, t in zip(b, v))
                v = [(b[p] // g) * t - (v[p] // g) * s for s, t in zip(b, v)]


@dataclass(frozen=True)
class Lattice:
    """Full-rank sublattice of Z^n in canonical column HNF."""

    n: int
    basis: tuple  # tuple of n column tuples; basis[j][i] is row i of column j

    @staticmethod
    def from_columns(columns) -> "Lattice":
        columns = [tuple(int(x) for x in c) for c in columns]
        if not columns:
            raise RankDeficient("no generators")
        n = len(columns[0])
        if any(len(c) != n for c in columns):
            raise InputError("generator dimensions disagree")
        ech = _Echelon(n)
        for col in columns:
            ech.insert(col)
        if len(ech.basis) != n:
            raise RankDeficient(f"rank {len(ech.basis)} < ambient dimension {n}")
        cols = [list(ech.basis[p][:n]) for p in range(n)]
        # positive diagonal
        for j in range(n):
            if cols[j][j] < 0:
                cols[j] = [-x for x in cols[j]]
        # reduce above-diagonal entries modulo the diagonal
        for j in range(n):
            for i in range(j - 1, -1, -1):
                q = cols[j][i] // cols[i][i]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
        return Lattice(n, tuple(tuple(c) for c in cols))

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice.scaled(n, 1)

    @staticmethod
    def scaled(n: int, k: int) -> "Lattice":
        """k * Z^n (for k >= 1 the diagonal is already canonical)."""
        cols = [[k * int(i == j) for i in range(n)] for j in range(n)]
        if k >= 1:
            return Lattice(n, tuple(tuple(c) for c in cols))
        return Lattice.from_columns(cols)

    @property
    def index(self) -> int:
        return math.prod(self.basis[j][j] for j in range(self.n))


def _meet_preimage(rows, n_lattice: Lattice, lat: Lattice) -> Lattice:
    """N meet A^-1(L) for integer rows of A, from one integer kernel.

    The echelon runs over the columns [A B_N | -B_L]; the first n carry the
    columns of B_N as companions and the rest carry zero, so the companion
    of a kernel vector (x, y) is B_N x, and these generate the meet."""
    n = lat.n
    if n_lattice.n != n or len(rows) != n:
        raise InputError("ambient dimensions disagree")
    ech = _Echelon(n)
    for col in n_lattice.basis:
        ech.insert([sum(r[k] * col[k] for k in range(n)) for r in rows], col)
    zero = (0,) * n
    for col in lat.basis:
        ech.insert([-x for x in col], zero)
    return Lattice.from_columns(ech.kernel)


def lattice_intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """L1 meet L2: the preimage of L2 under the identity, met with L1."""
    return _meet_preimage(Lattice.standard(l1.n).basis, l1, l2)


def lattice_preimage(a: RatMatrix, lat: Lattice) -> Lattice:
    """{v in Z^n : A v in L} for an integer matrix A with det A != 0."""
    rows = a.int_rows()
    if a.n != lat.n:
        raise InputError("ambient dimensions disagree")
    if a.determinant() == 0:
        raise SingularMap("preimage under a singular map is not a full-rank lattice")
    return _meet_preimage(rows, Lattice.standard(lat.n), lat)


# ----------------------------------------------------------------------
# JSON form

def matrix_from_json(obj) -> RatMatrix:
    return RatMatrix([[parse_fraction(x) for x in row]
                      for row in json_list(obj, "rows", rows=True)])
