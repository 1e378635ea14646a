"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own numerical paths:
real roots come from rational bisection on exact polynomial signs, lattice
questions from brute-force enumeration of residues or from back
substitution on the triangular basis, characteristic polynomials of 2x2
matrices from the cofactor formula, Mahler measures from mpmath
``polyroots`` at 100 digits, resultants from fraction-free Bareiss
elimination on the Sylvester matrix, and polynomial gcds from the Euclid
algorithm over Q (``gcd_over_q``).  Four exceptions call library code on
purpose.  ``espectrum_reference`` and ``lehmer_reference`` check an
enumeration, not a kernel: they call the library's Berkowitz and Mahler
kernels once per matrix or class (the classes themselves come from
``lehmer_candidates``, a brute-force enumeration of its own).
``aberth_reference`` is the root finder's Aberth loop in its plain form
(separate Horner passes, guarded sums, all-pairs disjointness) from the
library's starts, which the faster loop must match bit for bit, and
``strip_reference`` divides by the library's cyclotomic polynomials, every
candidate and with no screen.  Exact matrix products, powers and
conjugations are built here on plain rows, and ``power_map`` and
``disjoint_union`` build new self-map presentations from old ones for the
entropy laws the tests check.
"""
import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add

import mpmath

from entrokit.errors import InputError
from entrokit.set_maps import MAX_BRANCHING, InString, InTree, SymbolicSelfMap


def bisect_real_root(coeffs, lo, hi, steps=220):
    """Rational bisection for a root of an integer polynomial in [lo, hi].

    Requires a sign change over the interval; returns a Fraction within
    2**-steps * (hi - lo) of the root.
    """
    lo, hi = Fraction(lo), Fraction(hi)

    def ev(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    flo = ev(lo)
    assert flo * ev(hi) < 0, "no sign change on the bracket"
    for _ in range(steps):
        mid = (lo + hi) / 2
        fmid = ev(mid)
        if fmid == 0:
            return mid
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2


def residues_mod(columns, modulus):
    """The subgroup of (Z/modulus)^n generated by the columns, as a frozenset."""
    n = len(columns[0])
    seen = {tuple([0] * n)}
    frontier = [tuple([0] * n)]
    while frontier:
        x = frontier.pop()
        for col in columns:
            y = tuple((a + b) % modulus for a, b in zip(x, col))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def lattice_members_box(lat, radius):
    """All lattice points with coordinates in [-radius, radius], by residue
    filtering: v is a member iff v mod M lies in the residue subgroup, where
    M is a multiple of the exponent (here the index)."""
    from itertools import product

    n = lat.n
    modulus = lat.index
    if modulus == 1:
        return {v for v in product(range(-radius, radius + 1), repeat=n)}
    residues = residues_mod([list(c) for c in lat.basis], modulus)
    out = set()
    for v in product(range(-radius, radius + 1), repeat=n):
        if tuple(x % modulus for x in v) in residues:
            out.add(v)
    return out


def lattice_contains(lat, v) -> bool:
    """v lies in L: the triangular system B x = v of its HNF basis has an
    integer solution, by back substitution from the last coordinate."""
    w = list(v)
    for j in range(lat.n - 1, -1, -1):
        col = lat.basis[j]
        if w[j] % col[j]:
            return False
        q = w[j] // col[j]
        w = [x - q * c for x, c in zip(w, col)]
    return True


def is_sublattice(inner, outer) -> bool:
    return all(lattice_contains(outer, col) for col in inner.basis)


def lattice_exponent(lat) -> int:
    """Exponent of Z^n / L by its definition: the least e with every e * e_i
    in L (e divides the index)."""
    units = [[int(i == j) for i in range(lat.n)] for j in range(lat.n)]
    return next(e for e in range(1, lat.index + 1) if lat.index % e == 0
                and all(lattice_contains(lat, [e * x for x in u]) for u in units))


def charpoly_2x2(a, b, c, d):
    """t^2 - (a+d) t + (ad - bc), ascending coefficients."""
    return (a * d - b * c, -(a + d), 1)


def bareiss_determinant(m) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f, g) -> int:
    """Res(f, g) of ascending integer coefficient sequences without trailing
    zeros, as the determinant of their Sylvester matrix."""
    if not f or not g:
        return 0
    n, m = len(f) - 1, len(g) - 1
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    fc, gc = list(reversed(f)), list(reversed(g))
    rows = [[0] * i + fc + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + gc + [0] * (size - m - 1 - i) for i in range(n)]
    return bareiss_determinant(rows)


def gcd_over_q(f, g) -> tuple:
    """The gcd of two ascending integer coefficient sequences by the monic
    Euclid algorithm over Q, scaled to a primitive integer polynomial with
    positive lead; () when both are zero."""
    def trim(a):
        while a and a[-1] == 0:
            a.pop()
        return a

    a, b = trim([Fraction(c) for c in f]), trim([Fraction(c) for c in g])
    while b:
        # a mod b
        for top in range(len(a) - 1, len(b) - 2, -1):
            q = a[top] / b[-1]
            if q:
                for j, c in enumerate(b):
                    a[top - (len(b) - 1) + j] -= q * c
        a, b = b, trim(a)
    if not a:
        return ()
    d = math.lcm(*[c.denominator for c in a])
    ints = [c.numerator * (d // c.denominator) for c in a]
    content = functools.reduce(math.gcd, ints, 0) * (1 if ints[-1] > 0 else -1)
    return tuple(c // content for c in ints)


def classified_root_count(cl) -> int:
    """The roots a unit-circle classification accounts for, with
    multiplicity, over its five buckets; Phi_m contributes its degree, the
    number of residues mod m prime to m."""
    on = sum(k * sum(math.gcd(j, m) == 1 for j in range(1, m + 1))
             for m, k in cl.on_circle_exact)
    return on + sum(k for _, k in cl.rational) + sum(
        r.multiplicity for r in cl.inside + cl.outside + cl.on_circle_caveat)


def delta_reference(f, n: int) -> int:
    """D_n = |Res(f, t**n - 1)| of a monic f given by ascending coefficients."""
    return abs(resultant(tuple(f), (-1,) + (0,) * (n - 1) + (1,)))


def espectrum_reference(dim: int, bound: int, measure=None):
    """(values, scanned, minimal_positive) of the entropy spectrum of the
    dim x dim integer matrices with entries in [-bound, bound], by brute
    force: one int_char_poly per matrix in row-major order, then a stable
    sort of the whole list, so among equal floats the first matrix wins.
    ``measure`` (default: the library's mahler_measure) maps an
    IntPolynomial to its EntropyValue."""
    from itertools import product

    from entrokit.linalg import int_char_poly
    from entrokit.mahler import mahler_measure
    from entrokit.polynomials import IntPolynomial

    measure = measure or mahler_measure
    cache, values = {}, []
    for flat in product(range(-bound, bound + 1), repeat=dim * dim):
        key = int_char_poly([flat[i * dim:(i + 1) * dim] for i in range(dim)])
        if key not in cache:
            cache[key] = measure(IntPolynomial(key))
        values.append(cache[key])
    values.sort(key=lambda v: (v.as_float(), str(v.kind)))
    minimal = next((v for v in values if not v.is_zero()), None)
    return tuple((v.as_float(), v.kind) for v in values), len(values), minimal


def lehmer_candidates(spec):
    """The Lehmer scan's class representatives, in scan order, by brute
    force: every tuple of the family (degree, then lead, then
    ``itertools.product`` order of the lower coefficients) that is
    primitive, has a nonzero constant term, and is the smallest
    positive-lead tuple among its eight images under global sign, t -> -t
    and reversal."""
    h = spec.max_height
    leads = [1] if spec.monic_only else range(1, h + 1)
    for degree in range(1, spec.max_degree + 1):
        for lead in leads:
            for rest in itertools.product(range(-h, h + 1), repeat=degree):
                coeffs = rest + (lead,)
                if rest[0] == 0 or math.gcd(*coeffs) != 1:
                    continue
                images = []
                for x in (1, -1):
                    f = [c * x ** i for i, c in enumerate(coeffs)]
                    for g in (f, f[::-1]):
                        for sign in (1, -1):
                            images.append(tuple(sign * c for c in g))
                if coeffs == min(g for g in images if g[-1] > 0):
                    yield coeffs


def lehmer_reference(spec):
    """The SearchResult of an unpruned Lehmer scan: the library's
    ``_measure_one`` on every class of ``lehmer_candidates``, then one sort
    of all the positives by (measure, coefficients).  It checks an
    enumeration, not a kernel: the pruned scan must measure a subset of
    these classes and report the same result."""
    from entrokit import search

    candidates = list(lehmer_candidates(spec))
    zero_count, quarantined, positives = 0, [], []
    for coeffs in candidates:
        kind, payload = search._measure_one(coeffs)
        if kind == "zero":
            zero_count += 1
        elif kind == "quarantine":
            quarantined.append(payload)
        else:
            positives.append(payload)
    positives.sort(key=lambda p: (p[0], p[2]))
    board = tuple(search.LeaderboardEntry(*p) for p in positives[:spec.top])
    return search.SearchResult(board, zero_count, len(candidates),
                               tuple(sorted(quarantined)))


def mahler_reference(coeffs, dps=100):
    """(log|lead| + sum of log|root| over the roots outside the circle,
    max(0, largest log|root|)) of integer ascending coefficients, from
    mpmath polyroots at dps digits."""
    with mpmath.workdps(dps):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                 maxsteps=500, extraprec=4 * dps)
        logs = [mpmath.log(abs(r)) for r in roots]
        return (mpmath.log(abs(coeffs[-1])) + sum(x for x in logs if x > 0),
                max([mpmath.mpf(0)] + logs))


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def disjoint_reference(pairs) -> bool:
    """True when the disks (z, r) are pairwise disjoint, over all pairs."""
    return all(abs(z - w) > r + s
               for i, (z, r) in enumerate(pairs) for w, s in pairs[i + 1:])


def aberth_reference(ctx, f, tol: float, dps: int, zs):
    """``roots._aberth`` in its plain form, for bit-for-bit comparison: f
    and f' by separate Horner passes, each Aberth sum over every j != k
    with a zero difference replaced by the nudge, and the disjointness of
    the disks over all pairs.  The starts, slack and sweep cap are the
    library's own."""
    from entrokit.roots import _DOUBLE, _MAX_ITER, _SLACK, _starts

    n = f.degree
    try:
        coeffs = [ctx.mpf(c) for c in f.coeffs]
        if zs and all(map(ctx.isfinite, zs)):
            zs = [ctx.mpc(z) for z in zs]
        else:
            zs = _starts(ctx, f.coeffs)
    except OverflowError:
        return None, None
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    if ctx is _DOUBLE:
        stop, nudge = 1e-15, 1e-6 + 1e-6j
    else:
        stop, nudge = ctx.mpf(10) ** (5 - dps), ctx.mpf(10) ** (-dps // 2)
    active = range(n)
    for _ in range(_MAX_ITER):
        if not active:
            break
        threshold = stop * max(1, max(abs(z) for z in zs))
        moving = []
        for k in active:
            dv = _horner(dcoeffs, zs[k])
            if dv == 0:
                zs[k] += nudge
                moving.append(k)
                continue
            w = _horner(coeffs, zs[k]) / dv
            s = 0
            for j in range(n):
                if j != k:
                    diff = zs[k] - zs[j]
                    s += 1 / (diff if diff != 0 else nudge)
            denom = 1 - w * s
            step = w / denom if denom != 0 else w
            zs[k] -= step
            if abs(step) >= threshold:
                moving.append(k)
        active = moving
    pairs = []
    for z in zs:
        dv = _horner(dcoeffs, z)
        if dv == 0:
            return zs, None
        radius = float(_SLACK * n * abs(_horner(coeffs, z) / dv))
        allowance = 2.0 ** -50 * (abs(complex(z)) + 1.0)
        if ctx is _DOUBLE:
            radius += allowance
            certified = radius < tol
        else:
            radius += 10.0 ** (3 - dps)
            certified = radius < tol * max(1, abs(z))
            radius += allowance
        if not certified or radius == math.inf:
            return zs, None
        pairs.append((complex(z), radius))
    return zs, (pairs if disjoint_reference(pairs) else None)


def _euler_phi(m: int) -> int:
    """euler_phi(m) by trial division."""
    phi, p, rest = m, 2, m
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    return phi - phi // rest if rest > 1 else phi


def strip_reference(f):
    """(factors, cofactor) as ``strip_cyclotomic_factors`` gives them, by
    trial division of f by every Phi_m with euler_phi(m) <= deg f, m in
    increasing order up to 2 deg(f)**2 (euler_phi(m) >= sqrt(m/2)), with
    no screen."""
    from entrokit.polynomials import cyclotomic, try_exact_divide

    factors, g = {}, f
    for m in range(1, 2 * f.degree ** 2 + 1):
        if _euler_phi(m) <= f.degree:
            while (q := try_exact_divide(g, cyclotomic(m))) is not None:
                factors[m] = factors.get(m, 0) + 1
                g = q
    return sorted(factors.items()), g


def rational_roots_reference(coeffs):
    """(sorted roots, cofactor coefficients) of a squarefree integer
    polynomial with nonzero constant term, as ``rational_roots`` gives them
    within its cap: every p/q with p | f(0) and q | lead is evaluated in
    Fractions, and f is divided by q t - p at each root over Q."""
    f = [Fraction(c) for c in coeffs]
    roots = set()
    for p in range(1, abs(coeffs[0]) + 1):
        for q in range(1, abs(coeffs[-1]) + 1):
            if coeffs[0] % p or coeffs[-1] % q or math.gcd(p, q) > 1:
                continue
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * r ** i for i, c in enumerate(coeffs)) == 0:
                    roots.add(r)
    for r in roots:
        # synthetic division by t - r, then by the denominator of r
        quot, acc = [], Fraction(0)
        for c in reversed(f):
            acc = acc * r + c
            quot.append(acc)
        assert quot.pop() == 0
        f = [c / r.denominator for c in reversed(quot)]
    assert all(c.denominator == 1 for c in f)
    return sorted(roots), tuple(int(c) for c in f)


def interval_contains(value: dict, reference) -> bool:
    """True when the JSON form of an approx value encloses the reference."""
    with mpmath.workdps(100):
        return abs(mpmath.mpf(value["value"]) - reference) <= mpmath.mpf(value["error"])


def _named_preimages(obj: dict):
    """The full preimage function of a self-map given in its JSON form, on
    point names: core nodes, "R:i" on rays, "S:i" on strings, "T:digits" on
    trees."""
    core = obj.get("core", {})
    rays = set(obj.get("out_rays", ()))
    strings = {s["id"]: s["attach"] for s in obj.get("in_strings", ())}
    trees = {t["id"]: (t["attach"], t.get("branching", 2)) for t in obj.get("in_trees", ())}
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"

    def preimages(p):
        if ":" not in p:
            return ([n for n, t in core.items() if t == p]
                    + [f"{s}:0" for s, a in strings.items() if a == p]
                    + [f"{t}:{digits[d]}" for t, (a, b) in trees.items() if a == p
                       for d in range(b)])
        tail, _, suffix = p.partition(":")
        if tail in rays:
            i = int(suffix)
            return [f"{tail}:{i - 1}"] if i else [n for n, t in core.items()
                                                   if t == "ray:" + tail]
        if tail in strings:
            return [f"{tail}:{int(suffix) + 1}"]
        return [f"{tail}:{suffix}{digits[d]}" for d in range(trees[tail][1])]

    return preimages


def shift_rank_reference(obj: dict, names, horizon: int, p: int):
    """The ranks over GF(p) of the direct-sum shift trajectories of F (the
    point names) on a self-map given in its JSON form: step j adds, per
    point a of F, the indicator vector of f^-j(a), reduced by sparse
    elimination mod p against rows keyed by their least point name."""
    preimages = _named_preimages(obj)
    basis = {}  # pivot name -> row {name: value mod p} with 1 at the pivot

    def eliminate(row):
        while row:
            pivot = min(row)
            if pivot not in basis:
                inv = pow(row[pivot], -1, p)
                basis[pivot] = {c: v * inv % p for c, v in row.items()}
                return 1
            factor = row[pivot]
            for c, v in basis[pivot].items():
                value = (row.get(c, 0) - factor * v) % p
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
        return 0

    sets = {a: [a] for a in dict.fromkeys(names)}
    rank, ranks = 0, []
    for _ in range(horizon):
        for a, points in sets.items():
            rank += eliminate(dict.fromkeys(points, 1))
            sets[a] = [q for x in points for q in preimages(x)]
        ranks.append(rank)
    return tuple(ranks)


def cotrajectory_reference(obj: dict, names, horizon: int):
    """(reduced_sizes, naive_sizes, limit) of a self-map given in its JSON
    form, for the point names E, by two separate sweeps over string names.

    The surjective core is the greatest set of core nodes each of which has
    a preimage in the set or a string or tree attached (the nodes with
    infinite backward depth); a ray survives when a surviving node feeds
    it.  The limit is read off the sizes: infinite when a tree point enters
    the reduced union, otherwise the last reduced increment once the finite
    part of the backward closure is exhausted.
    """
    core = obj.get("core", {})
    rays = set(obj.get("out_rays", ()))
    strings = {s["id"] for s in obj.get("in_strings", ())}
    trees = {t["id"] for t in obj.get("in_trees", ())}
    preimages = _named_preimages(obj)

    alive = set(core)
    changed = True
    while changed:
        changed = False
        for n in sorted(alive):
            if not any(":" in q or q in alive for q in preimages(n)):
                alive.discard(n)
                changed = True
    live_rays = {t[len("ray:"):] for n, t in core.items()
                 if n in alive and t.startswith("ray:")}

    def in_core(p):
        if ":" not in p:
            return p in alive
        tail = p.partition(":")[0]
        return tail not in rays or tail in live_rays

    offsets = [int(p.partition(":")[2]) for p in names
               if p.partition(":")[0] in rays or p.partition(":")[0] in strings]
    steps = max(horizon, len(core) + max(offsets, default=0) + 4)
    profiles = []
    for keep in (in_core, lambda p: True):
        union = {p for p in names if keep(p)}
        frontier = set(union)
        sizes = [len(union)]
        for _ in range(steps - 1):
            frontier = {q for p in frontier for q in preimages(p) if keep(q)}
            union |= frontier
            sizes.append(len(union))
        profiles.append((sizes, union))
    (reduced, reduced_union), (naive, _) = profiles
    if any(p.partition(":")[0] in trees for p in reduced_union):
        limit = math.inf
    else:
        limit = reduced[-1] - reduced[-2] if len(reduced) > 1 else 0
    return tuple(reduced[:horizon]), tuple(naive[:horizon]), limit


def forward_profile_reference(obj: dict, names, horizon: int):
    """Sizes of D u f(D) u ... u f^(n-1)(D) for n = 1 .. horizon, on a
    self-map given in its JSON form and the point names D, by iterating the
    map point by point on names: a ray point climbs, a string point moves
    down, a tree point drops its last digit, and a string or tree head maps
    to its attach node."""
    core = obj.get("core", {})
    rays = set(obj.get("out_rays", ()))
    strings = {s["id"]: s["attach"] for s in obj.get("in_strings", ())}
    trees = {t["id"]: t["attach"] for t in obj.get("in_trees", ())}

    def image(p):
        if ":" not in p:
            target = core[p]
            return target[len("ray:"):] + ":0" if target.startswith("ray:") else target
        tail, _, suffix = p.partition(":")
        if tail in rays:
            return f"{tail}:{int(suffix) + 1}"
        if tail in strings:
            return f"{tail}:{int(suffix) - 1}" if suffix != "0" else strings[tail]
        return f"{tail}:{suffix[:-1]}" if len(suffix) > 1 else trees[tail]

    union = set(names)
    frontier = set(names)
    sizes = [len(union)]
    for _ in range(horizon - 1):
        frontier = {image(p) for p in frontier}
        union |= frontier
        sizes.append(len(union))
    return tuple(sizes)


def components_reference(obj: dict):
    """The weakly connected components of a self-map given in its JSON form,
    as (core nodes, rays, strings, trees, terminal) tuples sorted by (core
    nodes, rays), by union-find over the nodes, rays, strings and trees.
    The terminal is ("ray", id) or ("cycle", nodes), the cycle listed from
    the first of its nodes met walking forward from the smallest node."""
    core = obj.get("core", {})
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    units = [("n", c) for c in core] + [("r", r) for r in obj.get("out_rays", ())] \
        + [("s", e["id"]) for e in obj.get("in_strings", ())] \
        + [("t", e["id"]) for e in obj.get("in_trees", ())]
    parent.update((u, u) for u in units)
    edges = [(("n", c), ("r", t[len("ray:"):]) if t.startswith("ray:") else ("n", t))
             for c, t in core.items()]
    edges += [((kind, e["id"]), ("n", e["attach"]))
              for kind, key in (("s", "in_strings"), ("t", "in_trees"))
              for e in obj.get(key, ())]
    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for u in units:
        groups.setdefault(find(u), []).append(u)
    out = []
    for members in groups.values():
        nodes, rays, strings, trees = (tuple(sorted(name for kind, name in members
                                                    if kind == k)) for k in "nrst")
        if not nodes:
            terminal = ("ray", rays[0])
        else:
            path, current = [], nodes[0]
            while current not in path and not current.startswith("ray:"):
                path.append(current)
                current = core[current]
            terminal = ("ray", current[len("ray:"):]) if current.startswith("ray:") \
                else ("cycle", tuple(path[path.index(current):]))
        out.append((nodes, rays, strings, trees, terminal))
    return sorted(out, key=lambda c: (c[0], c[1]))


def surjective_core_reference(obj: dict) -> dict:
    """The surjective core of a self-map given in its JSON form, in that
    form.  A core node survives when it has a backward chain of |core| + 1
    core nodes, which must run round a cycle, or a shorter one that reaches
    a node with a string or tree attached; ``deep(n, k)`` asks for k more
    links by a depth recursion.  A ray survives when a surviving node maps
    to its head, and every string and tree survives."""
    core = obj.get("core", {})
    fed = {e["attach"] for key in ("in_strings", "in_trees") for e in obj.get(key, ())}

    @functools.cache
    def deep(n, k):
        return k == 0 or n in fed or any(deep(p, k - 1) for p, t in core.items() if t == n)

    alive = {n: t for n, t in core.items() if deep(n, len(core))}
    return {"core": alive,
            "out_rays": [r for r in obj.get("out_rays", ()) if "ray:" + r in alive.values()],
            "in_strings": list(obj.get("in_strings", ())),
            "in_trees": [dict(t, branching=t.get("branching", 2))
                         for t in obj.get("in_trees", ())]}


def reduce_word(word):
    """The reduced form of a free-group word given as signed letters."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _growth_factor(spec: str):
    """(identity, generators, multiply) of one factor, with tuple elements."""
    name, _, rest = spec.partition(":")
    if name == "heisenberg":
        gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
        return (0, 0, 0), gens, \
            lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])
    rank, _, extra = rest.partition(":")
    rank = int(rank)
    if name == "abelian":
        gens = [tuple(s if j == i else 0 for j in range(rank))
                for i in range(rank) for s in (1, -1)]
        return (0,) * rank, gens, lambda a, b: tuple(x + y for x, y in zip(a, b))
    words = [(i,) for i in range(1, rank + 1)] + ([(1, 2)] if extra else [])
    gens = list(dict.fromkeys(g for w in words
                              for g in (w, tuple(-x for x in reversed(w)))))
    return (), gens, lambda a, b: reduce_word(a + b)


def ball_distances(specs, radius: int):
    """The word-metric distance from the identity of every element of the
    ball of the given radius, keyed by the tuple of its factor elements
    (free words as reduced tuples), for the direct product of the factors
    "free:K", "free:K:standard+ab", "abelian:D" and "heisenberg" with the
    union of their generating sets, by breadth-first search."""
    factors = [_growth_factor(s) for s in specs]
    start = tuple(identity for identity, _, _ in factors)
    distance, frontier = {start: 0}, [start]
    for r in range(1, radius + 1):
        new_frontier = []
        for x in frontier:
            for i, (_, gens, multiply) in enumerate(factors):
                for g in gens:
                    y = x[:i] + (multiply(x[i], g),) + x[i + 1:]
                    if y not in distance:
                        distance[y] = r
                        new_frontier.append(y)
        frontier = new_frontier
    return distance


def growth_reference(specs, horizon: int):
    """Ball sizes gamma(0..horizon) of the product, from ``ball_distances``."""
    spheres = Counter(ball_distances(specs, horizon).values())
    return tuple(itertools.accumulate(spheres[r] for r in range(horizon + 1)))


def trajectory_reference(rows, points, horizon: int):
    """The sizes |T_1| .. |T_horizon| of the sumsets T_n = F + A F + ... +
    A^(n-1) F over Z^n, F normalized to contain 0, for the integer matrix
    given by its rows, by adding every point of A^(n-1) F to every point
    of T_(n-1) as tuples."""
    n = len(rows)
    base = {tuple(int(x) for x in v) for v in points}
    base.add((0,) * n)
    current = set(base)            # T_n
    image = set(base)              # A^(n-1) F as it evolves
    sizes = [len(current)]
    for _ in range(horizon - 1):
        image = {tuple(sum(rows[i][j] * v[j] for j in range(n)) for i in range(n))
                 for v in image}
        sumset = set()
        for t in current:
            sumset.update(tuple(map(add, t, g)) for g in image)
        current = sumset
        sizes.append(len(current))
    return tuple(sizes)


# ----------------------------------------------------------------------
# exact matrix arithmetic on rows

def mat_mul(a, b):
    """The product of two square matrices given as rows of exact numbers."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_pow(a, k: int):
    """A^k for k >= 1, by repeated multiplication."""
    out = a
    for _ in range(k - 1):
        out = mat_mul(out, a)
    return out


def unimodular_pair(rng, n: int, steps: int = 6):
    """(P, P^-1) as Fraction rows for a random unimodular P.  Each step
    draws rows i and j and, when they differ, c in [-2, 2]; it adds c times
    row j to row i of P, and subtracts c times column i from column j of
    P^-1, which multiplies it on the right by the inverse row operation."""
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            p[i][k] += c * p[j][k]
            q[k][j] -= c * q[k][i]
    return p, q


# ----------------------------------------------------------------------
# self-maps: the forward map, powers and disjoint unions

def apply(m: SymbolicSelfMap, point):
    """The image of a point of the map, in the point form of ``resolve``."""
    if isinstance(point, str):
        return m.core[point]
    tail_id, k = point
    tail = m.tails[tail_id]
    if tail is None:
        return (tail_id, k + 1)
    if isinstance(tail, InString):
        return (tail_id, k - 1) if k else tail.attach
    return (tail_id, (k - 1) // tail.branching) if k > tail.branching else tail.attach


def power_map(m: SymbolicSelfMap, k: int) -> SymbolicSelfMap:
    """The symbolic presentation of the k-th iterate.

    Each ray splits into k rays (residue classes of position mod k) with the
    first k positions materialized as core nodes; each string splits into k
    strings; a b-ary tree contributes, for each depth j <= k, its depth-j
    points as core nodes each carrying a fresh b**k-ary tree.  Entropies
    scale by k on both sides.  A materialized point R:i becomes the core
    node R@i.
    """
    if k < 1:
        raise InputError("the exponent must be a positive integer")
    if k == 1:
        return m

    def iterate(point, steps):
        for _ in range(steps):
            point = apply(m, point)
        return point

    def rename(point):
        """Old point -> new core-node name (materialized) or core name."""
        return m.point_name(point).replace(":", "@")

    # a core orbit reaches at most position k - 1 of a ray in k steps, so
    # every tail point it lands on is materialized
    new_core = {node: rename(iterate(node, k)) for node in m.core}
    new_rays = []
    new_strings = []
    new_trees = []

    for ray in m.out_rays:
        for j in range(k):
            new_rays.append(f"{ray}^{j}")
        for i in range(k):
            # materialized prefix point; its k-step image is position i + k,
            # the head of the residue-i ray
            new_core[f"{ray}@{i}"] = (f"{ray}^{i}", 0)

    for s in m.in_strings:
        for j in range(k):
            # new string j holds old positions j, j + k, ...; its head maps
            # under f^k to the (k - 1 - j)-step image of the attach node
            attach = iterate(s.attach, k - 1 - j)
            new_strings.append(InString(f"{s.id}^{j}", rename(attach)))

    for t in m.in_trees:
        if t.branching ** k > MAX_BRANCHING:
            raise InputError(
                f"branching {t.branching}**{k} exceeds the supported maximum")
        first = 0
        for j in range(1, k + 1):
            first = t.branching * first + 1   # heap index of the first depth-j point
            attach = rename(iterate(t.attach, k - j))
            for index in range(first, first + t.branching ** j):
                # each depth-j point becomes a core node carrying a fresh
                # b**k-ary tree that holds its depth j + k, j + 2k, ...
                # descendants
                name = m.point_name((t.id, index))
                node = name.replace(":", "@")
                new_core[node] = attach
                new_trees.append(InTree(name.replace(":", "^"), node, t.branching ** k))

    return SymbolicSelfMap.build(new_core, new_rays, new_strings, new_trees)


def disjoint_union(a: SymbolicSelfMap, b: SymbolicSelfMap) -> SymbolicSelfMap:
    """The two maps side by side, every name of a suffixed _l and of b _r."""
    def tag(m, suffix):
        def rn(name):
            return f"{name}{suffix}"

        core = {rn(n): rn(t) if isinstance(t, str) else (rn(t[0]), 0)
                for n, t in m.core_map}
        return (core, [rn(r) for r in m.out_rays],
                [(rn(s.id), rn(s.attach)) for s in m.in_strings],
                [(rn(t.id), rn(t.attach), t.branching) for t in m.in_trees])

    ca, ra, sa, ta = tag(a, "_l")
    cb, rb, sb, tb = tag(b, "_r")
    ca.update(cb)
    return SymbolicSelfMap.build(ca, ra + rb, sa + sb, ta + tb)
