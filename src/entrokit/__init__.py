"""entrokit: exact and certified computation of dynamical entropies."""

from .values import EntropyValue
from .polynomials import IntPolynomial, cyclotomic
from .roots import CertifiedRoot, CircleClassification, classify_unit_circle, \
    find_roots
from .mahler import mahler_measure
from .linalg import Lattice, RatMatrix, char_poly, hnf, int_char_poly, \
    kernel_subspace, lattice_intersect, lattice_preimage
from .linear_entropy import LinearFlow, algebraic_entropy, classify_growth, \
    pinsker_subspace, topological_entropy, trajectory_oracle
from .set_maps import InString, InTree, SymbolicSelfMap, covariant_entropy, \
    contravariant_entropy, cotrajectory_profile, left_shift, power_map, \
    right_shift, surjective_core, validate
from .shifts import GeneralizedShiftSpec, adjoint_entropy_of_shift, \
    shift_algebraic_entropy, shift_bruteforce_oracle, shift_topological_entropy
from .adjoint import CotrajectoryReport, adjoint_entropy_at, dichotomy_probe
from .growth import FreeAbelian, Free, Heisenberg3, DirectProduct, \
    bass_guivarch, growth_exponent, growth_rate, growth_table
from .search import SearchSpec, SearchResult, espectrum_sample, lehmer_search

__version__ = "0.1.0"
