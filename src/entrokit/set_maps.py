"""Symbolic self-maps of countable sets and their two set-theoretic entropies.

A map is presented by a finite functional core plus three kinds of infinite
tail, which together realize every value the two entropies can take while
keeping all computations terminating:

  OutRay   R: points R:0 -> R:1 -> R:2 -> ...   (forward-infinite orbit;
              core nodes may map to the head R:0, written "ray:R")
  InString S: points ... -> S:1 -> S:0 -> attach  (backward-infinite chain
              feeding a core node)
  InTree   T: a complete backward b-ary tree feeding a core node; the point
              T:p for a nonempty word p of digits below b maps to
              T:p-minus-last-digit, and the single-digit points map to the
              attach node.  Digits are 0-9 then a-z, so b <= 36.

A point is a core node name (a str) or a tail point (tail id, k) with an int
k: the position on a ray or string, or the heap index of a tree point (the
children of k are b*k+1 .. b*k+b, the depth-1 points are 1..b).  Names are
read by ``SymbolicSelfMap.resolve`` and written by ``point_name``; a name is
accepted only in the form ``point_name`` writes back (no sign, no leading
zero, no blank, digits below the branching).  A map is checked when it is
constructed and raises ``InvalidMap`` listing every violated invariant.

Every core node has exactly one image, so a weakly connected component is
the basin of one terminal, a core cycle or a ray, and ``components`` finds
it by a forward walk from each core node.  The covariant entropy counts
pairwise disjoint infinite forward orbits: one per component whose terminal
is a ray, so one per ray; the local covariant entropy of a finite set counts
the rays its forward orbits reach.  The contravariant entropy lives on the
surjective core: infinite when a tree survives there (unbounded antichains
of ramification points), otherwise the number of pairwise disjoint
backward-infinite strings; the surjective core keeps every string and tree,
so all three are read off the presentation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .errors import DEFAULT_BUDGET, BudgetExceeded, HorizonTooShort, InputError, InvalidMap

RAY_PREFIX = "ray:"
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_BRANCHING = len(_DIGITS)


@dataclass(frozen=True)
class InString:
    id: str
    attach: str


@dataclass(frozen=True)
class InTree:
    id: str
    attach: str
    branching: int


def _parse_target(text: str):
    """A core target as written in JSON: a node name, or "ray:R" for (R, 0)."""
    return (text[len(RAY_PREFIX):], 0) if text.startswith(RAY_PREFIX) else text


def _target_text(target) -> str:
    return target if isinstance(target, str) else RAY_PREFIX + target[0]


@dataclass(frozen=True)
class SymbolicSelfMap:
    core_map: tuple        # (node, target) pairs sorted by node; target node or (ray, 0)
    out_rays: tuple        # ray ids
    in_strings: tuple      # InString entries
    in_trees: tuple        # InTree entries

    def __post_init__(self):
        problems = validate(self)
        if problems:
            raise InvalidMap(problems)

    @staticmethod
    def build(core_map=None, out_rays=(), in_strings=(), in_trees=()):
        """Targets are node names, "ray:R" strings or (R, 0) ray heads."""
        core = tuple(sorted(
            ((str(k), v if isinstance(v, tuple) else _parse_target(str(v)))
             for k, v in (core_map or {}).items()), key=lambda pair: pair[0]))
        strings = tuple(InString(str(s.id if isinstance(s, InString) else s[0]),
                                 str(s.attach if isinstance(s, InString) else s[1]))
                        for s in in_strings)
        trees = tuple(InTree(str(t.id), str(t.attach), int(t.branching))
                      if isinstance(t, InTree)
                      else InTree(str(t[0]), str(t[1]), int(t[2]))
                      for t in in_trees)
        return SymbolicSelfMap(core, tuple(str(r) for r in out_rays), strings, trees)

    @cached_property
    def core(self) -> dict:
        return dict(self.core_map)

    @cached_property
    def tails(self) -> dict:
        """tail id -> None for a ray, its InString or its InTree otherwise."""
        out = dict.fromkeys(self.out_rays)
        out.update((s.id, s) for s in self.in_strings)
        out.update((t.id, t) for t in self.in_trees)
        return out

    @cached_property
    def _listed_preimages(self) -> dict:
        """Preimages of the core nodes and of the ray heads, the only points
        with a core node among their preimages: the core nodes, then the
        tail points as (tail, lo, hi) ranges of positions."""
        out = {node: ([], []) for node, _ in self.core_map}
        out.update(((r, 0), ([], [])) for r in self.out_rays)
        for node, target in self.core_map:
            out[target][0].append(node)
        for s in self.in_strings:
            out[s.attach][1].append((s.id, 0, 0))
        for t in self.in_trees:
            out[t.attach][1].append((t.id, 1, t.branching))
        return out

    # -- the map on points ---------------------------------------------

    def apply(self, point):
        if isinstance(point, str):
            return self.core[point]
        tail_id, k = point
        tail = self.tails[tail_id]
        if tail is None:
            return (tail_id, k + 1)
        if isinstance(tail, InString):
            return (tail_id, k - 1) if k else tail.attach
        return (tail_id, (k - 1) // tail.branching) if k > tail.branching else tail.attach

    def preimages(self, point) -> list:
        """Full preimage set (finite by construction)."""
        listed = self._listed_preimages.get(point)
        if listed is not None:
            nodes, ranges = listed
            return nodes + [(tail_id, k) for tail_id, lo, hi in ranges
                            for k in range(lo, hi + 1)]
        tail_id, k = point
        tail = self.tails[tail_id]
        if tail is None:
            return [(tail_id, k - 1)]
        if isinstance(tail, InString):
            return [(tail_id, k + 1)]
        first = tail.branching * k + 1
        return [(tail_id, j) for j in range(first, first + tail.branching)]

    # -- names and JSON --------------------------------------------------

    def point_name(self, point) -> str:
        if isinstance(point, str):
            return point
        tail_id, k = point
        tail = self.tails.get(tail_id)
        if not isinstance(tail, InTree):
            return f"{tail_id}:{k}"
        digits = []
        while k:
            k, d = divmod(k - 1, tail.branching)
            digits.append(_DIGITS[d])
        return f"{tail_id}:{''.join(reversed(digits))}"

    def resolve(self, name: str):
        """The point a core node name or a tail point name denotes."""
        if ":" not in name:
            if name not in self.core:
                raise InputError(f"unknown node {name!r}")
            return name
        tail_id, _, suffix = name.partition(":")
        if tail_id not in self.tails:
            raise InputError(f"unknown tail id in point {name!r}")
        tail = self.tails[tail_id]
        if isinstance(tail, InTree):
            k = 0
            for ch in suffix:
                k = tail.branching * k + 1 + _DIGITS.find(ch)
        else:
            try:
                k = int(suffix)
            except ValueError:
                k = -1
        point = (tail_id, k)
        if k < (1 if isinstance(tail, InTree) else 0) or self.point_name(point) != name:
            raise InputError(f"malformed point name {name!r}")
        return point

    def to_json(self) -> dict:
        return {
            "core": {node: _target_text(target) for node, target in self.core_map},
            "out_rays": list(self.out_rays),
            "in_strings": [{"id": s.id, "attach": s.attach} for s in self.in_strings],
            "in_trees": [{"id": t.id, "attach": t.attach, "branching": t.branching}
                         for t in self.in_trees],
        }

    @staticmethod
    def from_json(obj: dict) -> "SymbolicSelfMap":
        known = {"core", "out_rays", "in_strings", "in_trees"}
        if not isinstance(obj, dict) or not (known & set(obj)) or (set(obj) - known):
            raise InputError(
                "a self-map needs the keys core/out_rays/in_strings/in_trees")
        if not isinstance(obj.get("core", {}), dict) or any(
                not isinstance(obj.get(key, []), list)
                for key in ("out_rays", "in_strings", "in_trees")):
            raise InputError("core must be an object, out_rays/in_strings/in_trees lists")
        for key in ("in_strings", "in_trees"):
            if any(not isinstance(e, dict) or not {"id", "attach"} <= set(e)
                   for e in obj.get(key, [])):
                raise InputError(f"every {key} entry needs the keys id and attach")
        # build() coerces with str() and int(); input from outside must
        # already have the right types
        core, rays = obj.get("core", {}), obj.get("out_rays", [])
        strings = [(s["id"], s["attach"]) for s in obj.get("in_strings", [])]
        trees = [(t["id"], t["attach"], t.get("branching", 2))
                 for t in obj.get("in_trees", [])]
        names = [*core, *core.values(), *rays, *(x for e in strings + trees for x in e[:2])]
        if not all(isinstance(name, str) for name in names):
            raise InputError("node names, targets, ids and attaches must be strings")
        if any(isinstance(t[2], bool) or not isinstance(t[2], int) for t in trees):
            raise InputError("a tree's branching must be an integer")
        return SymbolicSelfMap.build(core, rays, strings, trees)


# ----------------------------------------------------------------------
# validation

def validate(m: SymbolicSelfMap) -> list:
    """All violated invariants, by name; empty list means the map is valid.

    A component holding two rays, or a cycle together with a ray, cannot be
    expressed at all because the presentation is single-valued; the checks
    here are the representable ones: dangling references, duplicate ids,
    reserved characters, undersized branching.
    """
    problems = []
    names = [n for n, _ in m.core_map]
    ids = list(m.out_rays) + [s.id for s in m.in_strings] + [t.id for t in m.in_trees]
    for name in names + ids:
        if ":" in name or not name:
            problems.append(f"name {name!r} is empty or contains ':'")
    seen = set()
    for name in names + ids:
        if name in seen:
            problems.append(f"duplicate name {name!r}")
        seen.add(name)
    core = set(names)
    for node, target in m.core_map:
        if isinstance(target, str):
            if target not in core:
                problems.append(f"core node {node!r} maps to unknown node {target!r}")
        elif target[0] not in m.out_rays:
            problems.append(f"core node {node!r} maps to undeclared {_target_text(target)!r}")
    for s in m.in_strings:
        if s.attach not in core:
            problems.append(f"string {s.id!r} attaches to unknown node {s.attach!r}")
    for t in m.in_trees:
        if t.attach not in core:
            problems.append(f"tree {t.id!r} attaches to unknown node {t.attach!r}")
        if not 2 <= t.branching <= MAX_BRANCHING:
            problems.append(
                f"tree {t.id!r} needs branching between 2 and {MAX_BRANCHING}")
    return problems


# ----------------------------------------------------------------------
# components and the covariant entropies

@dataclass(frozen=True)
class Component:
    core_nodes: tuple
    rays: tuple
    strings: tuple
    trees: tuple
    terminal: tuple  # ("cycle", (nodes...)) or ("ray", ray_id)


def components(m: SymbolicSelfMap) -> list:
    """The weakly connected components, sorted by (core nodes, rays).

    One forward walk per core node, in sorted order and memoized on the
    nodes already placed, finds its terminal; strings and trees join the
    component of their attach node.  The first walk into a component starts
    at its smallest node, and a cycle is listed from the first of its nodes
    that walk meets.
    """
    terminal_of = {}
    for start in m.core:
        path, position, current = [], {}, start
        while isinstance(current, str) and current not in terminal_of \
                and current not in position:
            position[current] = len(path)
            path.append(current)
            current = m.core[current]
        if not isinstance(current, str):
            terminal = ("ray", current[0])
        elif current in terminal_of:
            terminal = terminal_of[current]
        else:
            terminal = ("cycle", tuple(path[position[current]:]))
        terminal_of.update(dict.fromkeys(path, terminal))

    members = {("ray", r): ([], [], []) for r in m.out_rays}  # nodes, strings, trees
    for node, terminal in terminal_of.items():
        members.setdefault(terminal, ([], [], []))[0].append(node)
    for s in m.in_strings:
        members[terminal_of[s.attach]][1].append(s.id)
    for t in m.in_trees:
        members[terminal_of[t.attach]][2].append(t.id)
    out = [Component(tuple(sorted(nodes)), (terminal[1],) if terminal[0] == "ray" else (),
                     tuple(sorted(strings)), tuple(sorted(trees)), terminal)
           for terminal, (nodes, strings, trees) in members.items()]
    out.sort(key=lambda c: (c.core_nodes, c.rays))
    return out


def covariant_entropy(m: SymbolicSelfMap) -> int:
    """The number of pairwise disjoint infinite forward orbits: one per
    wandering component.  Every part of the presentation but a ray has
    exactly one outgoing edge, so a weakly connected component holds at
    most one ray, and the wandering components are counted by the rays."""
    return len(m.out_rays)


def covariant_local_entropy(m: SymbolicSelfMap, points) -> int:
    """h(f, D): the per-step growth of D u f(D) u ... u f^(n-1)(D) for
    large n, read off the presentation as the number of distinct rays the
    forward orbits of D reach.

    Every forward orbit ends in a core cycle or climbs one ray forever, and
    once the finitely many other points are passed, each ray reached adds
    one point per step.  A ray point climbs its own ray; a string or tree
    point drains into its attach node; from a core node the walk follows
    the core, memoized across the points, to a ray head or to a node some
    walk already visited (a cycle, or a node whose ray is already counted).
    """
    d = [m.resolve(p) for p in points]
    if not d:
        raise InputError("the trajectory of an empty set is empty")
    rays, seen = set(), set()
    for p in d:
        if not isinstance(p, str):
            tail = m.tails[p[0]]
            if tail is None:
                rays.add(p[0])
                continue
            p = tail.attach
        while isinstance(p, str) and p not in seen:
            seen.add(p)
            p = m.core[p]
        if not isinstance(p, str):
            rays.add(p[0])
    return len(rays)


# ----------------------------------------------------------------------
# surjective core and the contravariant entropy

def surjective_core(m: SymbolicSelfMap) -> SymbolicSelfMap:
    """Restriction of the map to the intersection of all forward images.

    A point survives exactly when it has arbitrarily long backward chains.
    Seeds with infinite backward depth are the core cycles and the string
    and tree attach points; infinite depth propagates forward, so the
    surviving core is the forward closure of the seeds, and a ray survives
    exactly when a surviving core node feeds it.  String and tree points
    always survive.  The result may be the empty map.
    """
    seeds = set()
    for comp in components(m):
        if comp.terminal[0] == "cycle":
            seeds.update(comp.terminal[1])
    seeds.update(s.attach for s in m.in_strings)
    seeds.update(t.attach for t in m.in_trees)

    alive = set()
    kept_rays = set()
    frontier = list(seeds)
    while frontier:
        node = frontier.pop()
        if node in alive:
            continue
        alive.add(node)
        target = m.core[node]
        if isinstance(target, str):
            frontier.append(target)
        else:
            kept_rays.add(target[0])
    return SymbolicSelfMap.build(
        {n: t for n, t in m.core_map if n in alive},
        tuple(r for r in m.out_rays if r in kept_rays),
        m.in_strings,
        m.in_trees,
    )


def point_in_core(sc: SymbolicSelfMap, point) -> bool:
    """Whether a point of the map lies in its surjective core sc."""
    return point in sc.core if isinstance(point, str) else point[0] in sc.tails


def contravariant_entropy(m: SymbolicSelfMap):
    """The string number of the surjective core: math.inf when a tree
    survives there, otherwise the number of pairwise disjoint
    backward-infinite chains, which is the number of string tails (0 for
    an empty core).  The surjective core keeps every string and tree, so
    both are read off the map itself."""
    return math.inf if m.in_trees else len(m.in_strings)


# ----------------------------------------------------------------------
# backward cotrajectory profiles

@dataclass(frozen=True)
class BackwardProfile:
    reduced_sizes: tuple     # |union of reduced preimages| per step
    naive_sizes: tuple       # same with full preimages (not restricted)
    limit: object            # exact value of h*(f, E): int or math.inf


def cotrajectory_profile(m: SymbolicSelfMap, points, horizon: int,
                         budget: int = DEFAULT_BUDGET) -> BackwardProfile:
    """Sizes of E u f^-1(E) u ... u f^-(n-1)(E), reduced to the surjective
    core and naive, together with the exact limit of reduced-size/n.

    The limit is infinity exactly when a tree is backward-reachable from E
    inside the core (infinitely many ramification points); otherwise it
    counts the strings whose tail the iterated preimages eventually march
    down, each contributing one fresh point per step.

    The n-th union is the disjoint union of the first n backward levels of
    E (``_backward_levels``): its size sums their core points and range
    lengths.  The surjective core is forward-invariant, so the reduced
    union is the naive union intersected with the core: a range counts
    there when its tail survives, a core point when it does.  The budget
    bounds the pieces (core points and ranges) of the levels held plus the
    decimal digits of the sizes, so a size may run to thousands of digits.
    """
    if horizon < 1:
        raise HorizonTooShort("horizon must be at least 1")
    e = [m.resolve(p) for p in points]
    sc = surjective_core(m)
    naive_digits, reduced_digits = _digit_counter(), _digit_counter()
    naive = reduced = digits = 0
    naive_sizes, reduced_sizes = [], []
    for levels in islice(_backward_levels(m, e), horizon):
        held = 0
        for nodes, ranges in levels:
            held += len(nodes) + len(ranges)
            naive += len(nodes)
            reduced += sum(x in sc.core for x in nodes)
            for tail_id, lo, hi in ranges:
                naive += hi - lo + 1
                if tail_id in sc.tails:
                    reduced += hi - lo + 1
        digits += naive_digits(naive) + reduced_digits(reduced)
        if held + digits > budget:
            raise BudgetExceeded(budget, "cotrajectory enumeration")
        naive_sizes.append(naive)
        reduced_sizes.append(reduced)
    return BackwardProfile(tuple(reduced_sizes), tuple(naive_sizes),
                           _backward_limit(sc, [p for p in e if point_in_core(sc, p)]))


def _backward_levels(m: SymbolicSelfMap, sources):
    """The backward sweep that stops at the finite source set F, one step
    at a time: yields, per step j, the nonempty j-th levels of the sources.

    Level 0 of a source a is {a}, and level j + 1 is the preimages of level
    j outside F, so level j holds the points x with f^j(x) = a whose path
    x, f(x), ... meets F first at a.  Each point meets F first at one time
    only, so the levels are pairwise disjoint and no visited set is kept.

    A level is a pair (core nodes, (tail, lo, hi) ranges of positions).
    Below a tree point, a level is one contiguous range of heap indices,
    and string and ray points have one forward path, so a level stays a few
    core points plus O(1) ranges per tail whatever its size: a tree range
    [lo, hi] pulls back to [b*lo + 1, b*hi + b], a string range moves up by
    one, a ray range down by one and, from position 0, hands over to the
    core preimages of the ray head; a source inside a range splits it.
    """
    sources = list(dict.fromkeys(sources))
    f = set(sources)
    cuts = {}  # tail id -> sorted positions of the sources on that tail
    for p in sorted(p for p in f if not isinstance(p, str)):
        cuts.setdefault(p[0], []).append(p[1])
    listed = m._listed_preimages

    def pull_back(level):
        nodes, ranges = [], []
        for x in level[0]:
            listed_nodes, listed_ranges = listed[x]
            nodes += listed_nodes
            ranges += listed_ranges
        for tail_id, lo, hi in level[1]:
            tail = m.tails[tail_id]
            if isinstance(tail, InTree):
                ranges.append((tail_id, tail.branching * lo + 1,
                               tail.branching * (hi + 1)))
            elif isinstance(tail, InString):
                ranges.append((tail_id, lo + 1, hi + 1))
            else:
                if lo == 0:
                    nodes += listed[(tail_id, 0)][0]
                    lo = 1
                if lo <= hi:
                    ranges.append((tail_id, lo - 1, hi - 1))
        kept = []
        for tail_id, lo, hi in ranges:
            for k in cuts.get(tail_id, ()):
                if lo <= k <= hi:
                    if lo < k:
                        kept.append((tail_id, lo, k - 1))
                    lo = k + 1
            if lo <= hi:
                kept.append((tail_id, lo, hi))
        return [x for x in nodes if x not in f], kept

    levels = [([p], []) if isinstance(p, str) else ([], [(p[0], p[1], p[1])])
              for p in sources]
    while True:
        yield levels
        levels = [level for level in map(pull_back, levels) if level != ([], [])]


def _digit_counter():
    """Counts the decimal digits of a non-decreasing sequence of ints, one
    call each, against a running power of ten: str() of a long int is
    capped and quadratic."""
    width, power = 1, 10

    def digits(n: int) -> int:
        nonlocal width, power
        while n >= power:
            width, power = width + 1, power * 10
        return width
    return digits


def _backward_limit(sc: SymbolicSelfMap, start: list):
    """Walks the backward closure of the start points in the surjective core
    sc over the finite skeleton: reaching any tree makes the value infinite;
    otherwise the value is the number of distinct strings met, realized by
    the stratifiable antichain of one deep point per string.
    """
    seen = set()
    strings_hit = set()
    frontier = list(start)
    while frontier:
        p = frontier.pop()
        if p in seen:
            continue
        seen.add(p)
        if not isinstance(p, str):
            tail = sc.tails[p[0]]
            if isinstance(tail, InTree):
                return math.inf
            if isinstance(tail, InString):
                strings_hit.add(p[0])
                continue  # the backward chain stays inside the string
            if tail is None and p[1]:
                frontier.append((p[0], 0))  # down the ray to its head at once
                continue
        frontier += sc.preimages(p)
    return len(strings_hit)


# ----------------------------------------------------------------------
# powers of the map

def power_map(m: SymbolicSelfMap, k: int) -> SymbolicSelfMap:
    """The symbolic presentation of the k-th iterate.

    Each ray splits into k rays (residue classes of position mod k) with the
    first k positions materialized as core nodes; each string splits into k
    strings; a b-ary tree contributes, for each depth j <= k, its depth-j
    points as core nodes each carrying a fresh b**k-ary tree.  Entropies
    scale by k on both sides, which the tests exercise.  A materialized
    point R:i becomes the core node R@i.
    """
    if k < 1:
        raise InputError("the exponent must be a positive integer")
    if k == 1:
        return m

    def iterate(point, steps):
        for _ in range(steps):
            point = m.apply(point)
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


# ----------------------------------------------------------------------
# canonical presentations

def right_shift() -> SymbolicSelfMap:
    """One forward-infinite orbit: n -> n + 1 on the naturals."""
    return SymbolicSelfMap.build({}, ["R"])


def left_shift() -> SymbolicSelfMap:
    """n -> n - 1 with 0 fixed: a fixed point fed by one backward string."""
    return SymbolicSelfMap.build({"z": "z"}, [], [("S", "z")])


_UNION_SUFFIXES = ("_l", "_r")


def disjoint_union(a: SymbolicSelfMap, b: SymbolicSelfMap) -> SymbolicSelfMap:
    def tag(m, suffix):
        def rn(name):
            return f"{name}{suffix}"

        core = {rn(n): rn(t) if isinstance(t, str) else (rn(t[0]), 0)
                for n, t in m.core_map}
        return (core, [rn(r) for r in m.out_rays],
                [(rn(s.id), rn(s.attach)) for s in m.in_strings],
                [(rn(t.id), rn(t.attach), t.branching) for t in m.in_trees])

    ca, ra, sa, ta = tag(a, _UNION_SUFFIXES[0])
    cb, rb, sb, tb = tag(b, _UNION_SUFFIXES[1])
    ca.update(cb)
    return SymbolicSelfMap.build(ca, ra + rb, sa + sb, ta + tb)
