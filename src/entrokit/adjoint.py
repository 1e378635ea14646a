"""Adjoint algebraic entropy over integer lattices.

For a nonsingular integer matrix A and a finite-index sublattice N of Z^n,
the cotrajectory chain is C_1 = N, C_(k+1) = N meet A^-1(C_k); the adjoint
entropy with respect to N is the limit of log[Z^n : C_k] / k.  Over Z^n the
chain always freezes: e * Z^n sits inside every C_k, where e is the exponent
of Z^n / N, because an integer matrix maps e * Z^n into itself.  Indices are
therefore bounded, one repeated step certifies stationarity forever (the
recursion depends only on the previous term), and the value is an exact
zero.  The infinite side of the 0-or-infinity dichotomy needs infinite rank
and lives with the generalized shifts.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, BudgetExceeded, InputError, SingularMap
from .linalg import Lattice, RatMatrix, _meet_preimage
from .values import EntropyValue

COTRAJECTORY_HORIZON = 64     # safety stop on chain steps (see adjoint_entropy_at)


@dataclass(frozen=True)
class CotrajectoryReport:
    indices: tuple        # [Z^n : C_k] for k = 1..
    alphas: tuple         # alphas[k] = indices[k+1] / indices[k]
    stationary_at: int    # first k with C_(k+1) = C_k
    value: EntropyValue   # exact zero once the chain freezes
    certificate: bool     # e*Z^n was verified inside the frozen lattice


def _check_matrix(a: RatMatrix, n: int) -> None:
    if not a.is_integer():
        raise InputError("the cotrajectory machinery runs over integer matrices")
    if a.determinant() == 0:
        raise SingularMap("preimages under a singular map lose finite index")
    if a.n != n:
        raise InputError("matrix and lattice dimensions disagree")


def adjoint_entropy_at(a: RatMatrix, n_lattice: Lattice,
                       horizon: int = COTRAJECTORY_HORIZON) -> CotrajectoryReport:
    """Cotrajectory chain of N under A with the exact freeze certificate.

    The horizon is a safety stop only; the chain provably freezes within
    [Z^n : e*Z^n] strict drops.  Raises SingularMap when det A = 0 and
    BudgetExceeded when the horizon is hit first (which indicates a horizon
    far below the index bound, not a genuinely growing chain).

    The chain only shrinks, so C_(k+1) = C_k exactly when A C_k lies in
    C_k; that test runs before the step's kernel, so the confirming step
    costs n membership tests instead of a kernel.
    """
    _check_matrix(a, n_lattice.n)
    return _cotrajectory(a.int_rows(), n_lattice, horizon)


def _cotrajectory(rows, n_lattice: Lattice, horizon: int) -> CotrajectoryReport:
    """The chain of adjoint_entropy_at for the integer rows of a matrix the
    caller has checked."""
    n = n_lattice.n
    bound = Lattice.scaled(n, n_lattice.exponent())
    current = n_lattice
    indices = [current.index]
    stationary_at = None
    for step in range(1, horizon + 1):
        if all(current.contains([sum(r[k] * col[k] for k in range(n)) for r in rows])
               for col in current.basis):
            indices.append(current.index)
            stationary_at = step
            break
        current = _meet_preimage(rows, n_lattice, current)
        indices.append(current.index)
    if stationary_at is None:
        raise BudgetExceeded(horizon, "cotrajectory iteration")
    certificate = bound.is_sublattice_of(current)
    alphas = tuple(b // ax for ax, b in zip(indices, indices[1:]))
    return CotrajectoryReport(tuple(indices), alphas, stationary_at,
                              EntropyValue.zero(), certificate)


def enumerate_lattices(n: int, max_index: int):
    """All HNF lattices of Z^n with index <= max_index, in lexicographic
    order of (diagonal, off-diagonal) entries.  Each basis is built in
    canonical form, so no normalisation runs."""
    if max_index < 1:
        return

    def diagonals(remaining, budget):
        if remaining == 0:
            yield ()
            return
        for d in range(1, budget + 1):
            for rest in diagonals(remaining - 1, budget // d):
                yield (d,) + rest

    for diag in sorted(diagonals(n, max_index)):
        # column j has free entries in rows i < j, each modulo diag[i]; the
        # entries are taken column by column, column j from offset j(j-1)/2
        free = [range(diag[i]) for j in range(n) for i in range(j)]
        for entries in itertools.product(*free):
            yield Lattice(n, tuple(entries[j * (j - 1) // 2:j * (j + 1) // 2]
                                   + (diag[j],) + (0,) * (n - j - 1)
                                   for j in range(n)))


def lattice_count(n: int, max_index: int, cap: int) -> int:
    """Number of lattices enumerate_lattices(n, max_index) yields, or cap + 1
    once it passes cap.  A diagonal (d_1..d_n) carries prod d_i^(n-i)
    (1-based i) choices of off-diagonal entries."""
    if n == 0:
        return 1
    if n == 1:
        return min(max(max_index, 0), cap + 1)
    total = 0
    for d in range(1, max_index + 1):
        total += d ** (n - 1) * lattice_count(n - 1, max_index // d, cap)
        if total > cap:
            return cap + 1
    return total


@dataclass(frozen=True)
class DichotomyProbe:
    outcome: str              # "all_zero" (Z^n side of the dichotomy)
    lattices_probed: int
    max_stabilization: int


def dichotomy_probe(a: RatMatrix, max_index: int, budget: int = DEFAULT_BUDGET) -> DichotomyProbe:
    """Probe every lattice of index <= max_index.

    Over Z^n every probe lands on the zero side of the dichotomy, and the
    run records the exact freeze certificate for each lattice.  The infinite
    side is realized only by infinite-rank systems (the direct-sum Bernoulli
    shift), outside this module's domain.  So the probe illustrates the
    freeze theorem (the adjoint entropy of an endomorphism of Z^n is 0) on
    concrete lattices; it does not search for a counterexample, and a probe
    without a certificate is a bug, raised as AssertionError.
    """
    _check_matrix(a, a.n)
    if lattice_count(a.n, max_index, budget) > budget:
        raise BudgetExceeded(budget, "lattice enumeration")
    rows = a.int_rows()
    probed = worst = 0
    for lattice in enumerate_lattices(a.n, max_index):
        report = _cotrajectory(rows, lattice, COTRAJECTORY_HORIZON)
        if not (report.value.is_zero() and report.certificate):
            raise AssertionError("a Z^n probe failed its freeze certificate")
        worst = max(worst, report.stationary_at)
        probed += 1
    return DichotomyProbe("all_zero", probed, worst)
