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
cyclotomic factors out of a polynomial, the squarefree split and the
rational roots of one part, and the classical root-growth sequence D_n =
prod_i |1 - lambda_i**n| of a monic polynomial, one n at a time, over Z.
"""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, ZeroPolynomial


def as_integer(x) -> int:
    """x as an int; a value that is not integral, which int() would
    truncate, is an InputError."""
    if type(x) is int:
        return x
    value = Fraction(x)
    if value.denominator != 1:
        raise InputError(f"entry {x!r} is not an integer")
    return int(value)       # a builtin int, also for numpy integers


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
        object.__setattr__(self, "coeffs", _trim(list(map(as_integer, coeffs))))

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


@lru_cache(maxsize=None)
def cyclotomic_candidates(degree: int):
    """All m with euler_phi(m) <= degree, in increasing order.

    A depth-first walk builds them from prime powers: m = prod p**a has
    euler_phi(m) = prod p**(a-1) (p - 1), which only grows as a factor
    p**a joins, so each branch takes the primes p with p - 1 <= degree in
    increasing order and stops at the first that overshoots.
    """
    if degree < 1:
        return []
    primes = [p for p in range(2, degree + 2) if is_prime(p)]
    out = []
    stack = [(1, 1, 0)]     # (m, euler_phi(m), index of the least prime left)
    while stack:
        m, phi, i = stack.pop()
        out.append(m)
        for j in range(i, len(primes)):
            p = primes[j]
            q, phi_q = p, phi * (p - 1)
            if phi_q > degree:
                break
            while phi_q <= degree:
                stack.append((m * q, phi_q, j + 1))
                q, phi_q = q * p, phi_q * p
    return sorted(out)


@lru_cache(maxsize=None)
def _cyclotomic_at_two(m: int):
    """(Phi_m(2), Phi_m(-2)), neither of them 0."""
    phi_m = cyclotomic(m)
    return phi_m(2), phi_m(-2)


def strip_cyclotomic_factors(f: IntPolynomial):
    """Divide out every cyclotomic factor, with multiplicity.

    Returns (factors, cofactor) where factors is a sorted list of
    (m, multiplicity) pairs and cofactor has no cyclotomic divisors.
    Purely exact: no floating point is involved.  A divisibility screen at
    t = 2 and t = -2 (Phi_m | g forces Phi_m(2) | g(2) and Phi_m(-2) |
    g(-2) over Z) runs before every trial division and skips most of them;
    after each division g(2) and g(-2) are divided by Phi_m(2) and Phi_m(-2).
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    factors = {}
    g = f
    g2, gm2 = g(2), g(-2)
    for m in cyclotomic_candidates(f.degree):
        phi_m = cyclotomic(m)
        if phi_m.degree > g.degree:
            continue
        a, b = _cyclotomic_at_two(m)
        while g2 % a == 0 and gm2 % b == 0:
            q = try_exact_divide(g, phi_m)
            if q is None:
                break
            factors[m] = factors.get(m, 0) + 1
            g, g2, gm2 = q, g2 // a, gm2 // b
        if g.degree == 0:
            break
    return sorted(factors.items()), g


# ----------------------------------------------------------------------
# gcd over Z and squarefree decomposition

def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """The gcd, primitive with positive lead (gcd(f, 0) = pp(f), gcd(0, 0)
    = 0), by the heuristic GCD (Char-Geddes-Gonnet, J. Symbolic Comput. 7,
    1989): for primitive f, g, the base-xi digits in [-xi/2, xi/2) of
    gcd(f(xi), g(xi)) are the coefficients of an h, and pp(h) is returned
    once it divides f and g; otherwise xi grows.

    From xi >= 2 min(|f|_inf, |g|_inf) + 2 on, a dividing pp(h) is the gcd
    G.  Say f has the smaller norm: f(xi) != 0, so h != 0 and G = pp(h) k.
    G(xi) divides f(xi), g(xi), so h(xi) = cont(h) pp(h)(xi): k(xi) divides
    cont(h) <= xi/2.  The roots of a non-constant k are roots of f, below
    1 + |f|_inf <= xi/2 (Cauchy), so |k(xi)| > xi/2; hence k = 1.  The loop
    ends: gcd(f(xi), g(xi)) = G(xi) s, where s = gcd((f/G)(xi), (g/G)(xi))
    divides Res(f/G, g/G) != 0, and xi > 2 |Res| |G|_inf reads h = s G back.
    """
    if f.is_zero() or g.is_zero():
        h = f + g
        return h.primitive() if h.coeffs else h
    f, g = f.primitive(), g.primitive()
    xi = 2 * min(max(map(abs, f.coeffs)), max(map(abs, g.coeffs))) + 2
    while True:
        gamma, half, digits = math.gcd(f(xi), g(xi)), xi // 2, []
        while gamma:
            gamma, d = divmod(gamma + half, xi)
            digits.append(d - half)
        h = IntPolynomial(digits).primitive()
        if try_exact_divide(f, h) is not None and try_exact_divide(g, h) is not None:
            return h
        xi = 2 * xi + 1


def squarefree_decomposition(f: IntPolynomial):
    """Yun's algorithm: pairwise-coprime squarefree parts with multiplicities.

    Returns a list of (factor, multiplicity) with f = lead-sign * prod
    factor**multiplicity up to content; factors are primitive with positive
    lead.  A constant gcd(f, f') returns f alone.
    """
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    f = f.primitive()
    if f.degree == 0:
        return []
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    parts = []
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
    """The rational roots of the squarefree f, exactly, each simple.

    Returns (roots, cofactor): roots is the sorted list of the Fraction
    roots, 0 included; f is the cofactor times the primitive linear factors
    (b t - a) of the roots a/b.  A linear cofactor is peeled at any size and
    keeps the content of f.  Otherwise the divisor search runs only when the
    extreme coefficients of f, past a root 0, are within _FACTOR_CAP; the
    rational roots it skips stay in the cofactor, for the numeric stage
    (only exactness of the reporting degrades).
    """
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    roots, g = [], f
    if g.degree >= 1 and g.constant_term() == 0:
        roots.append(Fraction(0))
        g = IntPolynomial(g.coeffs[1:])
    if g.degree > 1 and abs(g.constant_term()) <= _FACTOR_CAP \
            and abs(g.lead) <= _FACTOR_CAP:
        for root in _candidate_roots(g):
            quot = try_exact_divide(g, IntPolynomial((-root.numerator, root.denominator)))
            if quot is not None:
                roots.append(root)
                g = quot
                if g.degree <= 1:
                    break
    if g.degree == 1:
        root = Fraction(-g.coeffs[0], g.coeffs[1])
        roots.append(root)
        g = IntPolynomial((g.coeffs[1] // root.denominator,))
    return sorted(roots), g


def _candidate_roots(g: IntPolynomial):
    """Every p/q in lowest terms with p | g(0) and q | lead, both signs."""
    qs = _divisors(abs(g.lead))
    for p in _divisors(abs(g.constant_term())):
        for q in qs:
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)
                yield Fraction(-p, q)


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
