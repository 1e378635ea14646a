"""Outside-in layer trace of entrokit, for the workload process.

``Tracer.install`` replaces each function in LAYERS, in every ``entrokit``
namespace that binds it, by a wrapper that records one span per call:
(name, parent span, start, end), timed on the clock the tracer is given.
Spans stay in memory; ``metrics`` turns them into the per-layer numbers at
the end of the run.  A span's self time is its duration minus the
durations of its child spans (calls are nested, the process is
single-threaded).  No entrokit source changes.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter

LAYERS = (
    ("cli", "dispatch"),
    ("search", "lehmer_search"),
    ("search", "espectrum_sample"),
    ("mahler", "mahler_measure"),
    ("polynomials", "strip_cyclotomic_factors"),
    ("polynomials", "try_exact_divide"),
    ("polynomials", "cyclotomic"),
    ("polynomials", "poly_gcd"),
    ("polynomials", "squarefree_decomposition"),
    ("polynomials", "rational_roots"),
    ("roots", "classify_unit_circle"),
    ("roots", "find_roots"),
    ("linalg", "char_poly"),
    ("linalg", "lattice_preimage"),
    ("linalg", "lattice_intersect"),
    ("linear_entropy", "trajectory_oracle"),
    ("adjoint", "adjoint_entropy_at"),
    ("growth", "growth_table"),
    ("set_maps", "cotrajectory_profile"),
    ("shifts", "shift_bruteforce_oracle"),
)

# per-layer metrics that are counts; they must repeat exactly between runs
COUNTS = (
    "search.reverify",
    "mahler.mahler_measure.calls", "mahler.mahler_measure.exact",
    "polynomials.strip_cyclotomic_factors.calls",
    "polynomials.try_exact_divide.calls", "polynomials.try_exact_divide.hit_frac",
    "polynomials.cyclotomic.builds", "polynomials.poly_gcd.calls",
    "roots.classify_unit_circle.calls", "roots.find_roots.calls",
    "roots.boundary_retries", "roots.caveat_roots",
    "linalg.char_poly.calls",
    "linear_entropy.trajectory_oracle.max_set",
    "adjoint.adjoint_entropy_at.calls",
    "growth.growth_table.max_ball",
    "set_maps.cotrajectory_profile.max_set",
)
SELF_TIMES = (
    "search.lehmer_search", "search.espectrum_sample", "mahler.mahler_measure",
    "polynomials.strip_cyclotomic_factors", "polynomials.try_exact_divide",
    "polynomials.cyclotomic", "polynomials.poly_gcd",
    "polynomials.squarefree_decomposition", "polynomials.rational_roots",
    "roots.classify_unit_circle", "roots.find_roots", "linalg.char_poly",
    "linalg.lattice_preimage", "linalg.lattice_intersect",
    "linear_entropy.trajectory_oracle", "adjoint.adjoint_entropy_at",
    "growth.growth_table", "set_maps.cotrajectory_profile",
    "shifts.shift_bruteforce_oracle", "cli.dispatch",
)

# what each layer's return value adds to the tallies
_OBSERVERS = {
    "search.lehmer_search": lambda r: {"scanned": r.scanned_count},
    "mahler.mahler_measure": lambda r: {"mahler.exact": int(r.is_exact())},
    "polynomials.try_exact_divide": lambda r: {"divide.hits": int(r is not None)},
    "roots.classify_unit_circle": lambda r: {"caveat": len(r.on_circle_caveat)},
    "linear_entropy.trajectory_oracle": lambda r: {"max:oracle": max(r.sizes)},
    "growth.growth_table": lambda r: {"max:ball": max(r.gamma)},
    "set_maps.cotrajectory_profile": lambda r: {"max:coset": max(r.naive_sizes)},
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []          # [name, parent index or -1, start, end]
        self.stack = []          # indices of the open spans
        self.tallies = Counter()
        self.originals = {}

    def install(self):
        import entrokit  # noqa: F401  (imports every submodule)
        modules = [m for name, m in sys.modules.items()
                   if name == "entrokit" or name.startswith("entrokit.")]
        for module_name, fn_name in LAYERS:
            original = getattr(importlib.import_module(f"entrokit.{module_name}"), fn_name)
            name = f"{module_name}.{fn_name}"
            self.originals[name] = original
            wrapped = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        observe, tallies = _OBSERVERS.get(name), self.tallies

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if observe is not None:
                for key, n in observe(result).items():
                    if key.startswith("max:"):
                        tallies[key] = max(tallies[key], n)
                    else:
                        tallies[key] += n
            return result

        return traced

    def metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        kids = Counter()       # (parent index, child name) -> calls
        for i, (name, parent, start, end) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                kids[parent, name] += 1
        calls, self_s = Counter(), Counter()
        for i, (name, parent, start, end) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        retries = sum(n - 1 for (p, name), n in kids.items()
                      if name == "roots.find_roots"
                      and spans[p][0] == "roots.classify_unit_circle" and n > 1)
        under_search = sum(n for (p, name), n in kids.items()
                           if name == "mahler.mahler_measure"
                           and spans[p][0] == "search.lehmer_search")
        t = self.tallies
        divides = calls["polynomials.try_exact_divide"]
        out = {f"{name}.self_s": self_s[name] for name in SELF_TIMES}
        out.update({
            "search.reverify": under_search - t["scanned"],
            "mahler.mahler_measure.calls": calls["mahler.mahler_measure"],
            "mahler.mahler_measure.exact": t["mahler.exact"],
            "polynomials.strip_cyclotomic_factors.calls":
                calls["polynomials.strip_cyclotomic_factors"],
            "polynomials.try_exact_divide.calls": divides,
            "polynomials.try_exact_divide.hit_frac":
                t["divide.hits"] / divides if divides else 0.0,
            "polynomials.cyclotomic.builds":
                self.originals["polynomials.cyclotomic"].cache_info().misses,
            "polynomials.poly_gcd.calls": calls["polynomials.poly_gcd"],
            "roots.classify_unit_circle.calls": calls["roots.classify_unit_circle"],
            "roots.find_roots.calls": calls["roots.find_roots"],
            "roots.boundary_retries": retries,
            "roots.caveat_roots": t["caveat"],
            "linalg.char_poly.calls": calls["linalg.char_poly"],
            "linear_entropy.trajectory_oracle.max_set": t["max:oracle"],
            "adjoint.adjoint_entropy_at.calls": calls["adjoint.adjoint_entropy_at"],
            "growth.growth_table.max_ball": t["max:ball"],
            "set_maps.cotrajectory_profile.max_set": t["max:coset"],
        })
        return out
