"""Exact splitting types of pushforwards under finite endomorphisms of P^n.

The pushforward of a line bundle O(lH') under a finite degree-k
endomorphism of projective space splits as a sum of line bundles; this
package computes the splitting exactly (closed form and cross-checking
linear algebra), applies it to model varieties to produce cohomology
tables for inverse images, and derives linear-completeness and adjunction
verdicts, all in integer arithmetic.
"""

from .adjunction import AdjunctionReport, BoundCheckReport, \
    CanonicalSystemReport, canonical_birationality_verdict, \
    canonical_system_dimensions, delta_l_bound_check, surface_adjunction
from .endomorphism import Endomorphism, FinitenessReport, hilbert_function, \
    load_endomorphism, parse_endomorphism, power_map, random_endomorphism, \
    validate_finite
from .errors import FormSyntaxError, InputError, IntegrityError, \
    MissingDataError, PushsplitError, TableRangeError
from .exactla import DEFAULT_PRIMES, ExactMatrix, RankResult, is_prime, \
    rank_mod, rank_rational, rank_verified
from .polyring import HomogPoly, graded_dim, monomials_of_degree, \
    multiplication_matrix, parse_form
from .pullback import CompletenessVerdict, PullbackReport, Verdict, \
    build_pullback_report, completeness_verdict, dualizing_cohomology, \
    euler_characteristic, hyperplane_section_verdict, \
    ideal_pushforward_cohomology, injectivity_hypothesis_check, \
    pullback_degree, pushforward_cohomology
from .splitting import HilbertCheckReport, SplittingType, delta, \
    hilbert_check, splitting_from_endo, splitting_universal
from .varieties import ExplicitTable, KoszulTable, ModelVariety, ci_h0, \
    complete_intersection, dump_table, load_custom_table, parse_table, \
    plane_in_p4, projective_space

__version__ = "0.1.0"

__all__ = [
    "AdjunctionReport", "BoundCheckReport", "CanonicalSystemReport",
    "CompletenessVerdict", "DEFAULT_PRIMES", "Endomorphism", "ExactMatrix",
    "ExplicitTable", "FinitenessReport", "FormSyntaxError",
    "HilbertCheckReport", "HomogPoly", "InputError", "IntegrityError",
    "KoszulTable", "MissingDataError", "ModelVariety", "PullbackReport",
    "PushsplitError", "RankResult", "SplittingType", "TableRangeError",
    "Verdict", "build_pullback_report",
    "canonical_birationality_verdict", "canonical_system_dimensions",
    "ci_h0", "complete_intersection", "completeness_verdict",
    "delta", "delta_l_bound_check",
    "dualizing_cohomology", "dump_table", "euler_characteristic",
    "graded_dim", "hilbert_check", "hilbert_function",
    "hyperplane_section_verdict",
    "ideal_pushforward_cohomology",
    "injectivity_hypothesis_check", "is_prime", "load_custom_table",
    "load_endomorphism", "monomials_of_degree",
    "multiplication_matrix", "parse_endomorphism", "parse_form",
    "parse_table", "plane_in_p4", "power_map", "projective_space",
    "pullback_degree", "pushforward_cohomology",
    "random_endomorphism", "rank_mod", "rank_rational", "rank_verified",
    "splitting_from_endo", "splitting_universal", "surface_adjunction",
    "validate_finite",
]
