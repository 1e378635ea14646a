"""Command-line interface.

One executable, one subcommand per pipeline.  File inputs are JSON; small
inputs can be given inline ("1,1,0,-1" for polynomials, "0,1;1,1" for
matrices, "a,b" for node sets).  A subcommand takes --tol and --budget only
if it reads them.  Reports echo the inputs and carry the result payload;
--json emits the machine form (same numbers, exact values never floats).
Exit codes: 0 success, 2 invalid input, 3 non-certification or blown budget.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from itertools import groupby
from pathlib import Path

from .adjoint import COTRAJECTORY_HORIZON, adjoint_entropy_at, dichotomy_probe
from .errors import DEFAULT_BUDGET, CertificationError, BudgetExceeded, EntrokitError, InputError
from .growth import family_from_spec, growth_exponent, growth_rate, growth_table
from .linalg import Lattice, RatMatrix, matrix_from_json
from .linear_entropy import LinearFlow, algebraic_entropy, topological_entropy, \
    trajectory_oracle
from .mahler import mahler_measure
from .polynomials import json_list, parse_fraction, poly_from_json
from .search import SearchSpec, espectrum_sample, lehmer_search
from .set_maps import SymbolicSelfMap, covariant_entropy, contravariant_entropy, \
    cotrajectory_profile
from .shifts import GeneralizedShiftSpec, adjoint_entropy_of_shift, \
    shift_algebraic_entropy, shift_bruteforce_oracle, shift_topological_entropy


def _load_json_or_inline(arg: str):
    path = Path(arg)
    try:
        # Path("") is the current directory, so an empty argument is inline
        is_file = bool(arg) and path.exists()
    except OSError:
        # e.g. a name longer than NAME_MAX: it cannot be a file, so it is inline
        is_file = False
    if path.suffix == ".json" or is_file:
        try:
            text = path.read_text()
        except OSError as exc:
            raise InputError(f"cannot read {arg}: {exc.strerror}") from None
        return json.loads(text)
    return None


def _read_list(arg: str, key: str, rows: bool = False) -> list:
    """The list an input holds: ``json_list`` of a JSON file, or the inline
    text split on ";" into rows and on "," within each (on "," alone when
    the schema has no rows)."""
    obj = _load_json_or_inline(arg)
    if obj is not None:
        return json_list(obj, key, rows)
    if rows:
        return [[c.strip() for c in row.split(",")] for row in arg.split(";")]
    return [c.strip() for c in arg.split(",")]


def parse_poly(arg: str):
    return poly_from_json(_read_list(arg, "coeffs"))


def parse_matrix(arg: str) -> RatMatrix:
    return matrix_from_json(_read_list(arg, "rows", rows=True))


def parse_lattice(arg: str) -> Lattice:
    cols = _read_list(arg, "columns", rows=True)
    return Lattice.from_columns([[int(str(x)) for x in col] for col in cols])


def parse_map(arg: str) -> SymbolicSelfMap:
    obj = _load_json_or_inline(arg)
    if obj is None:
        raise InputError("self-maps are JSON files (see the map schema)")
    return SymbolicSelfMap.from_json(obj)


def parse_nodes(arg: str):
    nodes = _read_list(arg, "nodes")
    if not all(isinstance(node, str) for node in nodes):
        raise InputError("every entry of 'nodes' must be a string")
    return nodes


def parse_vectors(arg: str):
    vectors = _read_list(arg, "vectors", rows=True)
    return [tuple(int(str(x)) for x in v) for v in vectors]


def _count_json(x):
    return "infinity" if x == math.inf else int(x)


# ----------------------------------------------------------------------
# subcommand handlers: each returns (result_payload, lines), where lines()
# gives the human-readable lines; they are formatted only to be printed

def _cmd_mahler(args):
    value = mahler_measure(parse_poly(args.poly), args.tol)
    return {"value": value.to_json()}, lambda: [f"mahler measure: {value}"]


def _cmd_yuzvinski(args):
    matrix = parse_matrix(args.matrix)
    domain = args.domain
    if domain in ("zn", "qn", "rn"):
        flow = LinearFlow(domain, matrix)
        value = algebraic_entropy(flow, args.tol)
        label = "algebraic entropy"
    else:
        value = topological_entropy(LinearFlow("tn_dual", matrix), args.tol)
        label = "topological entropy (dual toral map)"
    return {"domain": domain, "value": value.to_json()}, lambda: [f"{label}: {value}"]


def _cmd_topological(args):
    matrix = parse_matrix(args.matrix)
    domain = "tn_dual" if args.domain == "tn" else args.domain
    value = topological_entropy(LinearFlow(domain, matrix), args.tol)
    return {"domain": args.domain, "value": value.to_json()}, \
        lambda: [f"topological entropy: {value}"]


def _cmd_padic(args):
    flow = LinearFlow.padic_scalar(args.p, parse_fraction(args.xi))
    value = algebraic_entropy(flow)
    return {"p": args.p, "xi": args.xi, "value": value.to_json()}, \
        lambda: [f"algebraic entropy of x -> ({args.xi})*x on Q_{args.p}: {value}"]


def _cmd_set_entropy(args):
    m = parse_map(args.map)
    h = covariant_entropy(m)
    h_star = contravariant_entropy(m)
    payload = {"h": _count_json(h), "h_star": _count_json(h_star)}
    return payload, lambda: [f"covariant entropy h = {h}",
                             f"contravariant entropy h* = {h_star}"]


def _cmd_cotrajectory(args):
    m = parse_map(args.map)
    profile = cotrajectory_profile(m, parse_nodes(args.set), args.horizon,
                                   budget=args.budget)
    payload = {
        "reduced_sizes": list(profile.reduced_sizes),
        "naive_sizes": list(profile.naive_sizes),
        "limit": _count_json(profile.limit),
    }
    return payload, lambda: [
        f"reduced cotrajectory sizes: {list(profile.reduced_sizes)}",
        f"naive cotrajectory sizes:   {list(profile.naive_sizes)}",
        f"exact limit h*(map, E) = {profile.limit}",
    ]


def _cmd_shift(args):
    m = parse_map(args.map)
    variant = "direct_sum" if args.variant == "sum" else "product"
    spec = GeneralizedShiftSpec(m, args.order, variant)
    if variant == "product":
        value = shift_topological_entropy(spec)
        label = "topological entropy of the product shift"
    else:
        value = shift_algebraic_entropy(spec)
        label = "algebraic entropy of the direct-sum shift"
    payload = {"variant": args.variant, "order": args.order, "value": value.to_json()}
    if args.oracle is not None:
        points = parse_nodes(args.oracle)
        report = shift_bruteforce_oracle(spec, points, args.horizon,
                                        budget=args.budget)
        sizes = [str(size) for size in report.sizes]
        payload["oracle_sizes"] = sizes
        payload["oracle_ranks"] = list(report.ranks)
        adj = adjoint_entropy_of_shift(spec, points)
        payload["coordinate_adjoint"] = adj.to_json()

    def lines():
        yield f"{label}: {value}"
        if args.oracle is not None:
            yield f"oracle subgroup sizes: [{', '.join(sizes)}]"
            yield f"coordinate-subgroup adjoint entropy: {adj}"
    return payload, lines


def _cmd_adjoint(args):
    report = adjoint_entropy_at(parse_matrix(args.matrix),
                                parse_lattice(args.lattice), args.horizon)
    payload = {
        "indices": [str(i) for i in report.indices],
        "alphas": [str(a) for a in report.alphas],
        "stationary_at": report.stationary_at,
        "certificate": report.certificate,
        "value": report.value.to_json(),
    }
    return payload, lambda: [
        f"cotrajectory indices: {list(report.indices)}",
        f"stationary at step {report.stationary_at} "
        f"(containment certificate: {report.certificate})",
        f"adjoint entropy: {report.value}",
    ]


def _cmd_adjoint_probe(args):
    probe = dichotomy_probe(parse_matrix(args.matrix), args.max_index,
                            budget=args.budget)
    payload = {
        "outcome": probe.outcome,
        "lattices_probed": probe.lattices_probed,
        "max_stabilization": probe.max_stabilization,
    }
    return payload, lambda: [
        f"probed {probe.lattices_probed} lattices of index <= {args.max_index}: "
        f"{probe.outcome} (worst stabilization step {probe.max_stabilization})",
    ]


def _cmd_growth(args):
    if args.horizon < 1:
        raise InputError("horizon must be positive")
    family = family_from_spec(args.family, budget=args.budget)
    table = growth_table(family, args.horizon, budget=args.budget)
    payload = {"family": family.describe(), "gamma": list(table.gamma)}
    if args.horizon >= 4:
        rate = growth_rate(table)
        payload["rate_estimate"] = rate.estimate
        payload["rate_fekete_min"] = rate.fekete_min
    if args.horizon >= 8:
        exponent = growth_exponent(table)
        payload["exponent_estimate"] = \
            "infinity" if exponent == math.inf else exponent

    def lines():
        yield f"family: {family.describe()}"
        yield f"ball sizes gamma(0..{args.horizon}): {list(table.gamma)}"
        if args.horizon >= 4:
            yield f"growth rate estimate: {rate.estimate:.6f} " \
                  f"(Fekete upper bound {rate.fekete_min:.6f})"
        if args.horizon >= 8:
            yield f"growth exponent estimate: {exponent}"
    return payload, lines


def _cmd_lehmer(args):
    spec = SearchSpec(max_degree=args.max_degree, max_height=args.height,
                      monic_only=not args.non_monic, top=args.top,
                      budget=args.budget)
    result = lehmer_search(spec, workers=args.threads)
    payload = {
        "scanned": result.scanned_count,
        "zero_measures": result.zero_count,
        "quarantined": [list(c) for c in result.quarantined],
        "leaderboard": [
            {"measure": e.measure, "error": e.error, "coeffs": list(e.coeffs),
             "value": e.value.to_json()} for e in result.leaderboard],
    }

    def lines():
        yield f"scanned {result.scanned_count} symmetry classes, " \
              f"{result.zero_count} with exactly zero measure"
        for rank, e in enumerate(result.leaderboard, 1):
            yield f"  #{rank}: m = {e.measure:.9f} (+/- {e.error:.2g})  " \
                  f"coeffs {list(e.coeffs)}"
    return payload, lines


def _cmd_espectrum(args):
    report = espectrum_sample(args.dim, args.bound, budget=args.budget,
                              tol=args.tol)
    minimal = report.minimal_positive
    payload = {
        "dimension": report.dimension,
        "entry_bound": report.entry_bound,
        "scanned": report.scanned,
        "distinct_values": sorted({round(v, 12) for (v, _), _ in groupby(report.values)}),
        "minimal_positive": minimal.to_json() if minimal else None,
    }
    return payload, lambda: [
        f"scanned {report.scanned} matrices",
        f"distinct entropy values: {payload['distinct_values']}",
        f"minimal positive value: {minimal if minimal else 'none'}",
    ]


def _cmd_oracle(args):
    profile = trajectory_oracle(parse_matrix(args.matrix),
                                parse_vectors(args.set), args.horizon,
                                budget=args.budget)
    payload = {
        "sizes": list(profile.sizes),
        "estimate": profile.estimate,
        "fekete_upper_bound": profile.fekete_upper,
    }
    return payload, lambda: [
        f"sumset sizes: {list(profile.sizes)}",
        f"entropy estimate (last-step quotient): {profile.estimate:.6f}",
        f"Fekete upper bound: {profile.fekete_upper:.6f}",
    ]


# ----------------------------------------------------------------------

def _positive(convert, what: str):
    """An argparse type: convert(text), which must be positive and finite."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a positive {what}")
        return value
    return parse


_positive_int = _positive(int, "integer")
_positive_float = _positive(float, "finite number")


@functools.cache          # built once per process: dispatch runs many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrokit",
        description="dynamical entropies: Mahler measures, linear and "
                    "symbolic systems, lattice cotrajectories, group growth")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # a subcommand takes --tol or --budget only if its handler reads it
    def add(name, handler, tol=False, budget=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
        if tol:
            p.add_argument("--tol", type=_positive_float, default=1e-12,
                           help="root certification tolerance")
        if budget:
            p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                           help="element budget for enumerations")
        return p

    p = add("mahler", _cmd_mahler, tol=True, help="Mahler measure of a polynomial")
    p.add_argument("--poly", required=True)

    p = add("yuzvinski", _cmd_yuzvinski, tol=True,
            help="entropy of a linear endomorphism via its characteristic polynomial")
    p.add_argument("--matrix", required=True)
    p.add_argument("--domain", choices=["zn", "qn", "rn", "tn"], default="zn")

    p = add("topological", _cmd_topological, tol=True,
            help="topological entropy on R^n or the dual toral map")
    p.add_argument("--matrix", required=True)
    p.add_argument("--domain", choices=["rn", "tn"], default="tn")

    p = add("padic", _cmd_padic, help="entropy of a p-adic scalar map")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--xi", required=True)

    p = add("set-entropy", _cmd_set_entropy,
            help="covariant and contravariant set-theoretic entropies")
    p.add_argument("--map", required=True)

    p = add("cotrajectory", _cmd_cotrajectory, budget=True,
            help="backward cotrajectory profile of a node set")
    p.add_argument("--map", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--horizon", type=int, default=12)

    p = add("shift", _cmd_shift, budget=True, help="entropies of a generalized shift")
    p.add_argument("--map", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--variant", choices=["sum", "prod"], required=True)
    p.add_argument("--oracle", help="node set for the GF(p) subgroup oracle")
    p.add_argument("--horizon", type=int, default=8)

    p = add("adjoint", _cmd_adjoint,
            help="adjoint entropy of an integer matrix at a lattice")
    p.add_argument("--matrix", required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--horizon", type=_positive_int, default=COTRAJECTORY_HORIZON)

    p = add("adjoint-probe", _cmd_adjoint_probe, budget=True,
            help="probe all lattices up to an index bound")
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-index", type=_positive_int, required=True)

    p = add("growth", _cmd_growth, budget=True, help="growth function of a group family")
    p.add_argument("--family", required=True,
                   help="abelian:D | free:K[:standard+ab] | heisenberg | product:...; "
                        "the spec chooses the generating set")
    p.add_argument("--horizon", type=int, default=10)

    p = add("lehmer", _cmd_lehmer, budget=True,
            help="search for small positive Mahler measures")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--height", type=int, default=1)
    p.add_argument("--top", type=_positive_int, default=5)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes, capped at the CPU count")
    p.add_argument("--non-monic", action="store_true")

    p = add("espectrum", _cmd_espectrum, tol=True, budget=True,
            help="entropy values over a box of integer matrices")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = add("oracle", _cmd_oracle, budget=True, aliases=["trajectory"],
            help="exact sumset trajectory oracle on Z^n")
    p.add_argument("--matrix", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--horizon", type=int, default=12)

    return parser


def _echo_inputs(args) -> dict:
    skip = {"handler", "subcommand", "json"}
    if args.subcommand == "shift" and args.oracle is None:
        skip |= {"horizon", "budget"}  # only the oracle reads them
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


@contextlib.contextmanager
def _uncapped_int_digits():
    """Lifts CPython's cap on the digits of one int-to-str conversion: a
    size may run to thousands of digits, and the budgets bound the total."""
    cap = getattr(sys, "get_int_max_str_digits", None)
    if cap is None:
        yield
        return
    saved = cap()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    with _uncapped_int_digits():
        try:
            payload, lines = args.handler(args)
        except (InputError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (CertificationError, BudgetExceeded) as exc:
            print(f"not certified: {exc}", file=sys.stderr)
            return 3
        except EntrokitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = {
            "subcommand": args.subcommand,
            "inputs": _echo_inputs(args),
            "result": payload,
            "timing_ms": round(1000 * (time.perf_counter() - started), 3),
        }
        try:
            if args.json:
                print(json.dumps(report, sort_keys=True))
            else:
                for line in lines():
                    print(line)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early; the result was computed, so exit 0,
            # and point stdout at devnull to keep the flush at exit quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
