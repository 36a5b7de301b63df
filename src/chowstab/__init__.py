"""Exact stability certificates for projective hypersurfaces and Chow-form
supports, with companion threshold bounds and discriminant tools.

Everything is exact: big integers, rationals, and prime fields; the LP core
is an exact simplex on fraction-free integer tableaux, so verdicts are
certificates rather than numerics.
"""

from .cycles import lift_support, multiple_cycle, sum_cycles
from .discriminants import ExtensionField, ProjPoint, QuarticST, \
    cyclic_critical_exponent, discriminant_binary, quartic_st, \
    quartic_st_generic, singular_locus_enumerate, smoothness_binary, \
    sylvester_resultant
from .errors import ChowstabError, ParseError, PreconditionError
from .fields import FP, QQ, ZZ, Domain, PrimeFieldElem, domain_from_tag, \
    is_prime
from .poly import Poly, apply_matrix, parse_poly, reduce_mod_p
from .stability import BracketSupport, SearchBudget, StabilityCertificate, \
    Verdict, WeightVector, bracket_from_hypersurface, destab_search, \
    lee_ratio, mu_bracket, mu_hypersurface, torus_certificate
from .thresholds import INFINITY, LeeOutcome, LeeVerdict, ThresholdInterval, \
    WeightAssignment, blowup_discrepancy, fpt_interval, fpt_nu, \
    lct_bound_optimize, lct_upper_bound, lee_verdict

__version__ = "0.1.0"

__all__ = [
    "BracketSupport", "ChowstabError", "Domain", "ExtensionField", "FP",
    "INFINITY", "LeeOutcome", "LeeVerdict", "ParseError", "Poly",
    "PreconditionError", "PrimeFieldElem", "ProjPoint", "QQ", "QuarticST",
    "SearchBudget", "StabilityCertificate", "ThresholdInterval", "Verdict",
    "WeightAssignment", "WeightVector", "ZZ", "apply_matrix",
    "blowup_discrepancy", "bracket_from_hypersurface",
    "cyclic_critical_exponent", "destab_search", "discriminant_binary",
    "domain_from_tag", "fpt_interval", "fpt_nu", "is_prime",
    "lct_bound_optimize", "lct_upper_bound", "lee_ratio", "lee_verdict",
    "lift_support", "mu_bracket", "mu_hypersurface", "multiple_cycle",
    "parse_poly", "quartic_st", "quartic_st_generic", "reduce_mod_p",
    "singular_locus_enumerate", "smoothness_binary", "sum_cycles",
    "sylvester_resultant", "torus_certificate",
]
