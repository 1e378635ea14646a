"""Exact arithmetic on integer polynomials.

Coefficient vectors are ascending: ``coeffs[i]`` is the coefficient of t**i.
The zero polynomial is the empty coefficient tuple; it is representable but
rejected by every measure-related operation.  ``IntPolynomial`` is the one
polynomial type: rational coefficients are scaled to integers where they
enter (``clear_denominators``, used by ``poly_from_json``), and a
polynomial scaled that way has the same roots.

The module supplies the exact machinery the rest of the toolkit leans on:
content/primitive part, exact division over Z, cyclotomic generation (Phi_m
built from smaller cyclotomic polynomials), the exact division of the
cyclotomic factors out of a polynomial, and the classical root-growth
sequence D_n = prod_i |1 - lambda_i**n| of a monic polynomial, one n at a
time, exactly over Z.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, ZeroPolynomial


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, ascending coefficients, no trailing zeros."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim([int(c) for c in coeffs]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def compose_power(self, k: int):
        """self(t**k)."""
        out = [0] * (k * self.degree + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPolynomial(out)

    def derivative(self):
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        if self.is_zero():
            return 0
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive(self) -> "IntPolynomial":
        """Divide out the content and normalize the leading coefficient positive."""
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no primitive part")
        g = self.content()
        if self.lead < 0:
            g = -g
        return IntPolynomial([c // g for c in self.coeffs])


# ----------------------------------------------------------------------
# rational coefficients

def clear_denominators(values) -> tuple[int, list]:
    """(d, ints) for rational values (Fractions or ints): d is the lcm of
    their denominators, the least d > 0 that makes every d*v an integer,
    and ints are the products d*v as ints."""
    d = math.lcm(*[v.denominator for v in values])
    return d, [v.numerator * (d // v.denominator) for v in values]


# ----------------------------------------------------------------------
# exact division

def try_exact_divide(f: IntPolynomial, d: IntPolynomial):
    """f / d when the quotient has integer coefficients, else None.

    Long division over Z, stopped at the first step where the leading
    coefficient of d does not divide: for any d, monic or not, the quotient
    over Q is integral exactly when every step divides.
    """
    if f.is_zero():
        return f
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    n = d.degree
    if n > f.degree:
        return None
    *low, lead = d.coeffs
    rem = list(f.coeffs)
    quot = [0] * (len(rem) - n)
    for base in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[base + n], lead)
        if r:
            return None
        if q:
            quot[base] = q
            for j, c in enumerate(low):
                rem[base + j] -= q * c
    if any(rem[:n]):
        return None
    return IntPolynomial(quot)


# ----------------------------------------------------------------------
# cyclotomic polynomials

@lru_cache(maxsize=None)
def cyclotomic(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, built from smaller ones.

    Phi_m(t) = Phi_r(t**(m/r)) for the radical r of m, and for squarefree
    m = p*n with p prime, Phi_m(t) = Phi_n(t**p) / Phi_n(t): one exact
    division over Z per distinct prime of m.
    """
    if m < 1:
        raise InputError("cyclotomic index must be a positive integer")
    if m == 1:
        return IntPolynomial((-1, 1))
    primes = [p for p in _divisors(m) if is_prime(p)]
    rad = math.prod(primes)
    if rad < m:
        return cyclotomic(rad).compose_power(m // rad)
    # dividing by the largest prime keeps the divisor Phi_n smallest
    base = cyclotomic(m // primes[-1])
    poly = try_exact_divide(base.compose_power(primes[-1]), base)
    assert poly is not None
    return poly


# the largest degree d sieved so far and its (m, euler_phi(m) <= d) pairs
_totients = [0, ()]


@lru_cache(maxsize=None)
def cyclotomic_candidates(degree: int):
    """All m with euler_phi(m) <= degree, in increasing order.

    euler_phi(m) >= sqrt(m / 2) for all m, so euler_phi(m) <= d forces
    m <= 2*d**2: one totient sieve to that bound serves every degree up to
    d, and only the pairs it keeps outlive it.
    """
    if degree < 1:
        return []
    if degree > _totients[0]:
        limit = 2 * degree * degree
        phi = list(range(limit + 1))
        for p in range(2, limit + 1):
            if phi[p] == p:  # p prime
                for k in range(p, limit + 1, p):
                    phi[k] -= phi[k] // p
        _totients[:] = degree, [(m, phi[m]) for m in range(1, limit + 1)
                                if phi[m] <= degree]
    return [m for m, phi_m in _totients[1] if phi_m <= degree]


def strip_cyclotomic_factors(f: IntPolynomial):
    """Divide out every cyclotomic factor, with multiplicity.

    Returns (factors, cofactor) where factors is a sorted list of
    (m, multiplicity) pairs and cofactor has no cyclotomic divisors.
    Purely exact: no floating point is involved.  A divisibility screen at
    t = 2 (Phi_m | g forces Phi_m(2) | g(2) over Z) skips most of the trial
    divisions.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    factors = {}
    g = f
    g2 = g(2)
    for m in cyclotomic_candidates(f.degree):
        phi_m = cyclotomic(m)
        if phi_m.degree > g.degree:
            continue
        if g2 != 0 and g2 % phi_m(2) != 0:
            continue
        while True:
            q = try_exact_divide(g, phi_m)
            if q is None:
                break
            factors[m] = factors.get(m, 0) + 1
            g = q
            g2 = g(2)
        if g.degree == 0:
            break
    return sorted(factors.items()), g


# ----------------------------------------------------------------------
# gcd over Q and squarefree decomposition

def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z, computed by the monic Euclid algorithm over Q."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]
    while b:
        # a mod b
        lead = b[-1]
        for top in range(len(a) - 1, len(b) - 2, -1):
            q = a[top] / lead
            if q:
                for j, c in enumerate(b):
                    a[top - (len(b) - 1) + j] -= q * c
        a, b = b, list(_trim(a))
    if not a:
        return IntPolynomial(())
    return IntPolynomial(clear_denominators(a)[1]).primitive()


_SQUAREFREE_PRIME = 1_000_003


def _squarefree_mod_p(f: IntPolynomial) -> bool:
    """gcd(f, f') = 1 over GF(p) certifies squarefreeness over Q (one-sided)."""
    p = _SQUAREFREE_PRIME
    a = list(_trim([c % p for c in f.coeffs]))
    b = list(_trim([(i * c) % p for i, c in enumerate(f.coeffs)][1:]))
    if len(a) - 1 != f.degree:
        return False  # leading coefficient vanished mod p; stay conservative
    while b:
        inv = pow(b[-1], -1, p)
        for top in range(len(a) - 1, len(b) - 2, -1):
            q = (a[top] * inv) % p
            if q:
                for j, c in enumerate(b):
                    a[top - (len(b) - 1) + j] = (a[top - (len(b) - 1) + j] - q * c) % p
        a, b = b, list(_trim(a))
    return len(a) == 1


def squarefree_decomposition(f: IntPolynomial):
    """Yun's algorithm: pairwise-coprime squarefree parts with multiplicities.

    Returns a list of (factor, multiplicity) with f = lead-sign * prod
    factor**multiplicity up to content; factors are primitive with positive
    lead.  A GF(p) gcd pre-test short-circuits the common squarefree case.
    """
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    f = f.primitive()
    if f.degree == 0:
        return []
    if _squarefree_mod_p(f):
        return [(f, 1)]
    parts = []
    g = poly_gcd(f, f.derivative())
    # f and every gcd below are primitive, so by Gauss's lemma each
    # division is exact over Z
    c = try_exact_divide(f, g)
    i = 1
    while c.degree > 0:
        d = poly_gcd(c, g)
        factor = try_exact_divide(c, d)
        if factor.degree > 0:
            parts.append((factor, i))
        c, g = d, try_exact_divide(g, d)
        i += 1
    return parts


_FACTOR_CAP = 10**12


def rational_roots(f: IntPolynomial):
    """Extract all rational roots with multiplicity, exactly.

    Returns (roots, cofactor): roots is a list of (Fraction root, mult); the
    cofactor has no rational roots, and f is the cofactor times the
    primitive linear factors (b t - a) of the roots a/b.  A linear cofactor
    is peeled directly.  Otherwise polynomials whose extreme coefficients
    exceed _FACTOR_CAP skip the divisor search and give up only the linear
    factors of their squarefree decomposition; their other rational roots
    stay in the cofactor (the numeric stage handles them; only exactness of
    the reporting degrades).
    """
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    g = f
    roots = []
    while g.degree >= 1 and g.constant_term() == 0:
        roots.append((Fraction(0), 1))
        g = IntPolynomial(g.coeffs[1:])
    if g.degree > 1 and abs(g.constant_term()) <= _FACTOR_CAP \
            and abs(g.lead) <= _FACTOR_CAP:
        for root in _candidate_roots(g):
            linear = IntPolynomial((-root.numerator, root.denominator))
            while g.degree > 1:
                quot = try_exact_divide(g, linear)
                if quot is None:
                    break
                roots.append((root, 1))
                g = quot
            if g.degree <= 1:
                break
    elif g.degree > 1:
        for factor, k in squarefree_decomposition(g):
            if factor.degree == 1:
                roots.append((Fraction(-factor.coeffs[0], factor.coeffs[1]), k))
                for _ in range(k):
                    g = try_exact_divide(g, factor)
    if g.degree == 1:
        root = Fraction(-g.coeffs[0], g.coeffs[1])
        roots.append((root, 1))
        g = IntPolynomial((g.coeffs[1] // root.denominator,))
    return _merge_roots(roots), g


def _candidate_roots(g: IntPolynomial):
    """Every p/q in lowest terms with p | g(0) and q | lead, both signs."""
    qs = _divisors(abs(g.lead))
    for p in _divisors(abs(g.constant_term())):
        for q in qs:
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)
                yield Fraction(-p, q)


def _merge_roots(roots):
    merged = {}
    for r, k in roots:
        merged[r] = merged.get(r, 0) + k
    return sorted(merged.items())


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 primes as bases.

    Proven for n < 3,317,044,064,679,887,385,961,981 (Sorenson-Webster,
    Math. Comp. 86, 2017); larger n raise InputError instead of a guess.
    Division by the bases first answers every n < 43**2 directly.
    """
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= _PRIME_BOUND:
        raise InputError(f"primality of {n} is not decided above {_PRIME_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _divisors(n: int):
    if n == 0:
        return []
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


# ----------------------------------------------------------------------
# the Lehmer growth sequence

def _times_t(v, low):
    """t * v mod the monic t**d + sum(low[i] t**i), v of length d."""
    top = v[-1]
    return [(v[i - 1] if i else 0) - top * c for i, c in enumerate(low)]


def _square_mod(v, low):
    """v * v mod the monic t**d + sum(low[i] t**i), v of length d."""
    d = len(low)
    out = [0] * (2 * d - 1)
    for i, x in enumerate(v):
        if x:
            for j, y in enumerate(v):
                out[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        q = out[k]
        if q:
            for i, c in enumerate(low):
                out[k - d + i] -= q * c
    return out[:d]


def delta_exact(f: IntPolynomial, n: int) -> int:
    """D_n = |prod_i (lambda_i**n - 1)| over the roots of a monic f, exactly.

    With r = t**n mod f (square-and-multiply over Z), D_n is |det M| for the
    matrix M of multiplication by r - 1 on Z[t]/(f), whose columns are
    (r - 1) * t**j mod f; the determinant comes from int_char_poly.  D_n = 0
    exactly when some root is an n-th root of unity.
    """
    from .linalg import int_char_poly

    if f.is_zero() or f.lead != 1:
        raise InputError("the growth sequence needs a monic polynomial")
    if n < 1:
        raise InputError("the growth sequence starts at n = 1")
    low = list(f.coeffs[:-1])
    if not low:
        return 1
    r = [1] + [0] * (len(low) - 1)
    for bit in bin(n)[2:]:
        r = _square_mod(r, low)
        if bit == "1":
            r = _times_t(r, low)
    column = [r[0] - 1] + r[1:]
    columns = []
    for _ in low:
        columns.append(column)
        column = _times_t(column, low)
    # det M = det M^T, so the columns serve as rows
    return abs(int_char_poly(columns)[0])


# ----------------------------------------------------------------------
# JSON form

_MAX_DIGITS = 100_000          # digits one entry may expand to


def parse_fraction(text) -> Fraction:
    """Exact rational from decimal or "p/q" text.  A zero denominator is an
    InputError, and so is an entry whose digits and exponent pass
    _MAX_DIGITS, found before any int is built from the exponent."""
    text = str(text)
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if len(exponent) > len(str(_MAX_DIGITS)) or len(mantissa) + (
            int(exponent) if exponent.isdecimal() else 0) > _MAX_DIGITS:
        raise InputError(f"entry {reprlib.repr(text)} expands to more than "
                         f"{_MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {text!r}") from None


def json_list(obj, key: str, rows: bool = False) -> list:
    """The list held by a JSON input, either bare or under obj[key]; with
    rows, each of its items must be a list as well.  Any other shape is an
    InputError."""
    items = obj.get(key) if isinstance(obj, dict) else obj
    if not isinstance(items, list):
        raise InputError(f"expected a list, or an object with a {key!r} list")
    if rows and not all(isinstance(row, list) for row in items):
        raise InputError(f"each entry of {key!r} must be a list")
    return items


def poly_from_json(obj) -> IntPolynomial:
    """The integer polynomial with the roots of the rational one given: its
    coefficients times the lcm of their denominators."""
    coeffs = [parse_fraction(c) for c in json_list(obj, "coeffs")]
    return IntPolynomial(clear_denominators(coeffs)[1])
