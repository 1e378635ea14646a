"""Symbolic self-maps of countable sets and their two set-theoretic entropies.

A map is presented by a finite functional core plus three kinds of infinite
tail, which together realize every value the two entropies can take while
keeping all computations terminating:

  OutRay   R: points R:0 -> R:1 -> R:2 -> ...   (forward-infinite orbit;
              core nodes may map to the head R:0)
  InString S: points ... -> S:1 -> S:0 -> attach  (backward-infinite chain
              feeding a core node)
  InTree   T: a complete backward b-ary tree feeding a core node; the point
              T:p for a nonempty digit word p maps to T:p-minus-last-digit,
              and the single-digit points map to the attach node.

The covariant entropy counts pairwise disjoint infinite forward orbits: one
per weakly connected component whose terminal structure is a ray.  The
contravariant entropy lives on the surjective core: infinite when a tree
survives there (unbounded antichains of ramification points), otherwise the
number of pairwise disjoint backward-infinite strings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceeded, HorizonTooShort, InputError, InvalidMap

RAY_PREFIX = "ray:"
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
MAX_BRANCHING = len(_DIGITS)


def _digit(d: int) -> str:
    return _DIGITS[d]


@dataclass(frozen=True)
class InString:
    id: str
    attach: str


@dataclass(frozen=True)
class InTree:
    id: str
    attach: str
    branching: int


@dataclass(frozen=True)
class SymbolicSelfMap:
    core_map: tuple        # sorted (node, target) pairs; target node or "ray:ID"
    out_rays: tuple        # ray ids
    in_strings: tuple      # InString entries
    in_trees: tuple        # InTree entries

    @staticmethod
    def build(core_map=None, out_rays=(), in_strings=(), in_trees=()):
        core = tuple(sorted((str(k), str(v)) for k, v in (core_map or {}).items()))
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
    def ray_set(self) -> frozenset:
        return frozenset(self.out_rays)

    @cached_property
    def string_by_id(self) -> dict:
        return {s.id: s for s in self.in_strings}

    @cached_property
    def tree_by_id(self) -> dict:
        return {t.id: t for t in self.in_trees}

    @cached_property
    def strings_at(self) -> dict:
        out = {}
        for s in self.in_strings:
            out.setdefault(s.attach, []).append(s)
        return out

    @cached_property
    def trees_at(self) -> dict:
        out = {}
        for t in self.in_trees:
            out.setdefault(t.attach, []).append(t)
        return out

    @cached_property
    def ray_feeders(self) -> dict:
        """ray id -> core nodes mapping to its head."""
        out = {r: [] for r in self.out_rays}
        for node, target in self.core_map:
            if target.startswith(RAY_PREFIX):
                out[target[len(RAY_PREFIX):]].append(node)
        return out

    def is_empty(self) -> bool:
        return not (self.core_map or self.out_rays or self.in_strings or self.in_trees)

    # -- the map on points ---------------------------------------------

    def apply(self, point: str) -> str:
        if ":" in point:
            kind_id, _, suffix = point.partition(":")
            if kind_id in self.ray_set:
                return f"{kind_id}:{int(suffix) + 1}"
            if kind_id in self.string_by_id:
                i = int(suffix)
                return f"{kind_id}:{i - 1}" if i > 0 else self.string_by_id[kind_id].attach
            if kind_id in self.tree_by_id:
                return (f"{kind_id}:{suffix[:-1]}" if len(suffix) > 1
                        else self.tree_by_id[kind_id].attach)
            raise InputError(f"unknown tail id in point {point!r}")
        target = self.core.get(point)
        if target is None:
            raise InputError(f"unknown point {point!r}")
        if target.startswith(RAY_PREFIX):
            return f"{target[len(RAY_PREFIX):]}:0"
        return target

    def preimages(self, point: str) -> list:
        """Full preimage set (finite by construction)."""
        if ":" in point:
            kind_id, _, suffix = point.partition(":")
            if kind_id in self.ray_set:
                i = int(suffix)
                if i > 0:
                    return [f"{kind_id}:{i - 1}"]
                return list(self.ray_feeders[kind_id])
            if kind_id in self.string_by_id:
                return [f"{kind_id}:{int(suffix) + 1}"]
            if kind_id in self.tree_by_id:
                b = self.tree_by_id[kind_id].branching
                return [f"{kind_id}:{suffix}{_digit(d)}" for d in range(b)]
            raise InputError(f"unknown tail id in point {point!r}")
        if point not in self.core:
            raise InputError(f"unknown point {point!r}")
        out = [node for node, target in self.core_map if target == point]
        out += [f"{s.id}:0" for s in self.strings_at.get(point, [])]
        for t in self.trees_at.get(point, []):
            out += [f"{t.id}:{d}" for d in range(t.branching)]
        return out

    def resolve(self, name: str) -> str:
        """Accept either a core node name or a tail point name; validate it."""
        if ":" in name:
            self.apply(name)  # raises on unknown ids
            return name
        if name not in self.core:
            raise InputError(f"unknown node {name!r}")
        return name

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "core": dict(self.core_map),
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
        return SymbolicSelfMap.build(
            obj.get("core", {}),
            obj.get("out_rays", ()),
            [(s["id"], s["attach"]) for s in obj.get("in_strings", ())],
            [(t["id"], t["attach"], t.get("branching", 2)) for t in obj.get("in_trees", ())],
        )


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
    core = dict(m.core_map)
    for node, target in m.core_map:
        if target.startswith(RAY_PREFIX):
            if target[len(RAY_PREFIX):] not in m.ray_set:
                problems.append(f"core node {node!r} maps to undeclared {target!r}")
        elif target not in core:
            problems.append(f"core node {node!r} maps to unknown node {target!r}")
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


def require_valid(m: SymbolicSelfMap) -> SymbolicSelfMap:
    problems = validate(m)
    if problems:
        raise InvalidMap(problems)
    return m


# ----------------------------------------------------------------------
# components and the quasi-periodic / wandering partition

@dataclass(frozen=True)
class Component:
    core_nodes: tuple
    rays: tuple
    strings: tuple
    trees: tuple
    terminal: tuple  # ("cycle", (nodes...)) or ("ray", ray_id)


def components(m: SymbolicSelfMap) -> list:
    require_valid(m)
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    core = dict(m.core_map)
    for unit in list(core) + list(m.out_rays) + \
            [("s", s.id) for s in m.in_strings] + [("t", t.id) for t in m.in_trees]:
        parent.setdefault(unit, unit)
    for node, target in m.core_map:
        if target.startswith(RAY_PREFIX):
            union(node, target[len(RAY_PREFIX):])
        else:
            union(node, target)
    for s in m.in_strings:
        union(("s", s.id), s.attach)
    for t in m.in_trees:
        union(("t", t.id), t.attach)

    groups = {}
    for unit in parent:
        groups.setdefault(find(unit), []).append(unit)

    out = []
    for members in groups.values():
        nodes = tuple(sorted(u for u in members if isinstance(u, str) and u in core))
        rays = tuple(sorted(u for u in members if isinstance(u, str) and u in m.ray_set))
        strings = tuple(sorted(u[1] for u in members if isinstance(u, tuple) and u[0] == "s"))
        trees = tuple(sorted(u[1] for u in members if isinstance(u, tuple) and u[0] == "t"))
        out.append(Component(nodes, rays, strings, trees, _terminal(m, nodes, rays)))
    out.sort(key=lambda c: (c.core_nodes, c.rays))
    return out


def _terminal(m: SymbolicSelfMap, nodes, rays):
    if not nodes:
        # a bare ray with no feeders
        return ("ray", rays[0])
    core = dict(m.core_map)
    path = []
    position = {}
    current = nodes[0]
    while True:
        if current in position:
            return ("cycle", tuple(path[position[current]:]))
        position[current] = len(path)
        path.append(current)
        target = core[current]
        if target.startswith(RAY_PREFIX):
            return ("ray", target[len(RAY_PREFIX):])
        current = target


def qper_wan_partition(m: SymbolicSelfMap):
    """Components split by terminal structure: cycle terminals carry only
    quasi-periodic points, ray terminals only wandering points."""
    qper, wan = [], []
    for comp in components(m):
        (wan if comp.terminal[0] == "ray" else qper).append(comp)
    return qper, wan


def covariant_entropy(m: SymbolicSelfMap) -> int:
    """The number of pairwise disjoint infinite forward orbits: one per
    wandering component.  Always finite on a finite presentation."""
    _, wan = qper_wan_partition(m)
    return len(wan)


# ----------------------------------------------------------------------
# forward trajectory profiles

def _tail_depth(m: SymbolicSelfMap, point: str) -> int:
    """Steps before the forward orbit of the point reaches the core
    (0 for core nodes), plus the ray offset for ray points."""
    if ":" not in point:
        return 0
    kind_id, _, suffix = point.partition(":")
    if kind_id in m.string_by_id:
        return int(suffix) + 1
    if kind_id in m.tree_by_id:
        return len(suffix)
    return 0


def _ray_offset(m: SymbolicSelfMap, point: str) -> int:
    if ":" in point:
        kind_id, _, suffix = point.partition(":")
        if kind_id in m.ray_set:
            return int(suffix)
    return 0


@dataclass(frozen=True)
class ForwardProfile:
    sizes: tuple
    local_entropy: int       # the stabilized per-step increment
    stabilized_at: int       # first step from which the increment is provably final

    @property
    def increments(self):
        return tuple(b - a for a, b in zip(self.sizes, self.sizes[1:]))


def covariant_trajectory_profile(m: SymbolicSelfMap, points, horizon: int) -> ForwardProfile:
    """Sizes of D u f(D) u ... u f^(n-1)(D) for n up to the horizon.

    The per-step increment becomes constant once every orbit stream has
    drained through the finite core and colliding ray fronts have merged;
    both events happen within a bound computed from the presentation, so the
    stabilized increment (the local entropy, an integer <= |D|) is exact.
    Raises HorizonTooShort when the horizon does not cover the bound plus a
    confirmation window of |D| + 1 steps.
    """
    require_valid(m)
    d = [m.resolve(p) for p in points]
    if not d:
        raise InputError("the trajectory of an empty set is empty")
    bound = (max(_tail_depth(m, p) for p in d)
             + max(_ray_offset(m, p) for p in d)
             + len(m.core_map) + 2)
    window = len(d) + 1
    if horizon < bound + window:
        raise HorizonTooShort(
            f"need a horizon of at least {bound + window} to certify stabilization")
    current = set(d)
    frontier = set(d)
    sizes = [len(current)]
    for _ in range(horizon - 1):
        frontier = {m.apply(p) for p in frontier}
        current |= frontier
        sizes.append(len(current))
    increments = [b - a for a, b in zip(sizes, sizes[1:])]
    tail = increments[bound - 1:]
    if any(x != tail[-1] for x in tail):
        raise HorizonTooShort("increments still moving past the stabilization bound")
    return ForwardProfile(tuple(sizes), tail[-1], bound)


def covariant_local_entropy(m: SymbolicSelfMap, points) -> int:
    """h(f, D): the stabilized increment, with an automatically chosen horizon."""
    d = [m.resolve(p) for p in points]
    bound = (max(_tail_depth(m, p) for p in d)
             + max(_ray_offset(m, p) for p in d)
             + len(m.core_map) + 2)
    return covariant_trajectory_profile(m, d, bound + len(d) + 1).local_entropy


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
    require_valid(m)
    core = dict(m.core_map)
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
        target = core[node]
        if target.startswith(RAY_PREFIX):
            kept_rays.add(target[len(RAY_PREFIX):])
        else:
            frontier.append(target)
    return SymbolicSelfMap.build(
        {n: t for n, t in m.core_map if n in alive},
        tuple(r for r in m.out_rays if r in kept_rays),
        m.in_strings,
        m.in_trees,
    )


def point_in_core(sc: SymbolicSelfMap, point: str) -> bool:
    if ":" not in point:
        return point in sc.core
    kind_id = point.partition(":")[0]
    return (kind_id in sc.ray_set or kind_id in sc.string_by_id
            or kind_id in sc.tree_by_id)


def contravariant_entropy(m: SymbolicSelfMap):
    """The string number of the surjective core: math.inf when a tree
    survives there, otherwise the number of pairwise disjoint
    backward-infinite chains, which is the number of string tails.
    An empty surjective core gives 0 by convention."""
    sc = surjective_core(m)
    if sc.is_empty():
        return 0
    if sc.in_trees:
        return math.inf
    return len(sc.in_strings)


# ----------------------------------------------------------------------
# backward cotrajectory profiles

@dataclass(frozen=True)
class BackwardProfile:
    reduced_sizes: tuple     # |union of reduced preimages| per step
    naive_sizes: tuple       # same with full preimages (not restricted)
    limit: object            # exact value of h*(f, E): int or math.inf

    @property
    def reduced_increments(self):
        return tuple(b - a for a, b in zip(self.reduced_sizes, self.reduced_sizes[1:]))


def cotrajectory_profile(m: SymbolicSelfMap, points, horizon: int,
                         budget: int = 1_000_000) -> BackwardProfile:
    """Sizes of E u f^-1(E) u ... u f^-(n-1)(E), reduced to the surjective
    core and naive, together with the exact limit of reduced-size/n.

    The limit is infinity exactly when a tree is backward-reachable from E
    inside the core (infinitely many ramification points); otherwise it
    counts the strings whose tail the iterated preimages eventually march
    down, each contributing one fresh point per step.
    """
    require_valid(m)
    if horizon < 1:
        raise HorizonTooShort("horizon must be at least 1")
    e = [m.resolve(p) for p in points]
    sc = surjective_core(m)
    reduced = {p for p in e if point_in_core(sc, p)}
    naive = set(e)
    reduced_sizes = [len(reduced)]
    naive_sizes = [len(naive)]
    red_frontier, naive_frontier = set(reduced), set(naive)
    for _ in range(horizon - 1):
        naive_frontier = {q for p in naive_frontier for q in m.preimages(p)}
        naive |= naive_frontier
        red_frontier = {q for p in red_frontier for q in m.preimages(p)
                        if point_in_core(sc, q)}
        reduced |= red_frontier
        if len(naive) > budget or len(reduced) > budget:
            raise BudgetExceeded(budget, "cotrajectory enumeration")
        naive_sizes.append(len(naive))
        reduced_sizes.append(len(reduced))
    return BackwardProfile(tuple(reduced_sizes), tuple(naive_sizes),
                           cotrajectory_limit(m, e))


def cotrajectory_limit(m: SymbolicSelfMap, points):
    """Exact h*(f, E) for E inside (or intersected with) the surjective core.

    Walks the backward closure of E in the restricted map over the finite
    skeleton: reaching any tree makes the value infinite; otherwise the
    value is the number of distinct strings met, realized by the
    stratifiable antichain of one deep point per string.
    """
    require_valid(m)
    sc = surjective_core(m)
    start = [p for p in (m.resolve(q) for q in points) if point_in_core(sc, p)]
    seen = set()
    strings_hit = set()
    frontier = list(start)
    while frontier:
        p = frontier.pop()
        if p in seen:
            continue
        seen.add(p)
        if ":" in p:
            kind_id = p.partition(":")[0]
            if kind_id in sc.tree_by_id:
                return math.inf
            if kind_id in sc.string_by_id:
                strings_hit.add(kind_id)
                continue  # the backward chain stays inside the string
        for q in sc.preimages(p):
            if ":" in q:
                kind_id = q.partition(":")[0]
                if kind_id in sc.tree_by_id:
                    return math.inf
                if kind_id in sc.string_by_id:
                    strings_hit.add(kind_id)
                    continue
            if q not in seen:
                frontier.append(q)
    return len(strings_hit)


# ----------------------------------------------------------------------
# powers of the map

def power_map(m: SymbolicSelfMap, k: int) -> SymbolicSelfMap:
    """The symbolic presentation of the k-th iterate.

    Each ray splits into k rays (residue classes of position mod k) with the
    first k positions materialized as core nodes; each string splits into k
    strings; a b-ary tree contributes, for each depth j <= k, its depth-j
    points as core nodes each carrying a fresh b**k-ary tree.  Entropies
    scale by k on both sides, which the tests exercise.
    """
    require_valid(m)
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
        if ":" not in point:
            return point
        kind_id, _, suffix = point.partition(":")
        return f"{kind_id}@{suffix}"

    new_core = {}
    new_rays = []
    new_strings = []
    new_trees = []

    for node in dict(m.core_map):
        target = iterate(node, k)
        if ":" in target:
            ray_id, _, suffix = target.partition(":")
            i = int(suffix)
            assert i < k, "a core orbit cannot pass position k-1 in k steps"
            new_core[node] = rename(target)
        else:
            new_core[node] = target

    for ray in m.out_rays:
        for j in range(k):
            new_rays.append(f"{ray}^{j}")
        for i in range(k):
            # materialized prefix point; its k-step image is position i + k,
            # the head of the residue-i ray
            new_core[f"{ray}@{i}"] = f"{RAY_PREFIX}{ray}^{i}"

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
        paths = [""]
        for j in range(1, k + 1):
            paths = [p + _digit(d) for p in paths for d in range(t.branching)]
            attach = iterate(t.attach, k - j)
            for p in paths:
                # each depth-j point becomes a core node carrying a fresh
                # b**k-ary tree that holds its depth j + k, j + 2k, ...
                # descendants
                node = f"{t.id}@{p}"
                new_core[node] = rename(attach)
                new_trees.append(InTree(f"{t.id}^{p}", node, t.branching ** k))

    return SymbolicSelfMap.build(new_core, new_rays, new_strings, new_trees)


# ----------------------------------------------------------------------
# canonical presentations

def right_shift() -> SymbolicSelfMap:
    """One forward-infinite orbit: n -> n + 1 on the naturals."""
    return SymbolicSelfMap.build({}, ["R"])


def left_shift() -> SymbolicSelfMap:
    """n -> n - 1 with 0 fixed: a fixed point fed by one backward string."""
    return SymbolicSelfMap.build({"z": "z"}, [], [("S", "z")])


def disjoint_union(a: SymbolicSelfMap, b: SymbolicSelfMap,
                   suffixes=("_l", "_r")) -> SymbolicSelfMap:
    def tag(m, suffix):
        def rn(name):
            return f"{name}{suffix}"

        core = {rn(n): (RAY_PREFIX + rn(t[len(RAY_PREFIX):])
                        if t.startswith(RAY_PREFIX) else rn(t))
                for n, t in m.core_map}
        return (core, [rn(r) for r in m.out_rays],
                [(rn(s.id), rn(s.attach)) for s in m.in_strings],
                [(rn(t.id), rn(t.attach), t.branching) for t in m.in_trees])

    ca, ra, sa, ta = tag(a, suffixes[0])
    cb, rb, sb, tb = tag(b, suffixes[1])
    ca.update(cb)
    return SymbolicSelfMap.build(ca, ra + rb, sa + sb, ta + tb)
