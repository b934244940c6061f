"""Exact Groebner-basis machinery for almost centralizing extensions.

The package computes in skew polynomial rings R over k[x1..xm] whose
extra generators y1..yn satisfy relations (y_i x_j - x_j y_i) in k[x]
and (y_i y_j - y_j y_i) of y-degree at most one -- Weyl algebras and
enveloping algebras are the motivating cases.  It provides weight
filtrations and the polynomial region, Rees homogenization, Buchberger
completion for term orders and weight-refined orders (including mixed
sign weights), Groebner cones / walks / fans, weighted Hilbert series
and the characteristic-variety dimension-bound checker, all in exact
rational arithmetic.
"""

from .charvar import (
    CharacteristicIdeal,
    ComponentReport,
    HilbertSeries,
    QuasiPolynomial,
    char_ideal,
    fit_quasi_polynomial,
    gk_dim,
    hilbert_series_monomial,
    krull_dim_monomial,
    minimal_primes_monomial,
    quasi_poly_degree,
    radical_monomial,
    verify_component_bound,
)
from .errors import (
    BudgetExceeded,
    ParseError,
    PresentationError,
    RegionError,
    SkewGbError,
)
from .fan import (
    GroebnerCone,
    GroebnerFan,
    WalkSegment,
    cone_of,
    enumerate_fan,
    epsilon_threshold,
    gr_region_contains,
    universal_gb,
    walk,
)
from .groebner import (
    MonomialIdeal,
    buchberger,
    groebner_wrt_weight,
    initial_ideal_order,
    initial_ideal_weight,
    normal_form,
)
from .orders import KINDS, MonomialOrder, validate_order
from .parsing import Problem, parse_expression, parse_problem, parse_problem_file
from .rees import (
    ReesPresentation,
    dehomogenize,
    homogenize,
    rees_presentation,
)
from .ring import (
    RingPresentation,
    SkewPoly,
    commutative_presentation,
    multiply,
    sl2_presentation,
    validate_presentation,
    weyl_presentation,
)
from .weights import (
    HalfspaceSystem,
    WeightVector,
    degree,
    initial_form,
    pr_contains,
    pr_halfspaces,
    pr_sample_positive,
    weight_degree,
)

__version__ = "0.1.0"

# The multiplication kernel is pure Python; kept as a constant for callers
# that record which kernel produced a result.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "BudgetExceeded",
    "CharacteristicIdeal",
    "ComponentReport",
    "GroebnerCone",
    "GroebnerFan",
    "HalfspaceSystem",
    "HilbertSeries",
    "KINDS",
    "MonomialIdeal",
    "MonomialOrder",
    "ParseError",
    "PresentationError",
    "Problem",
    "QuasiPolynomial",
    "ReesPresentation",
    "RegionError",
    "RingPresentation",
    "SkewGbError",
    "SkewPoly",
    "WalkSegment",
    "WeightVector",
    "buchberger",
    "char_ideal",
    "commutative_presentation",
    "cone_of",
    "degree",
    "dehomogenize",
    "enumerate_fan",
    "epsilon_threshold",
    "fit_quasi_polynomial",
    "gk_dim",
    "gr_region_contains",
    "groebner_wrt_weight",
    "hilbert_series_monomial",
    "homogenize",
    "initial_form",
    "initial_ideal_order",
    "initial_ideal_weight",
    "krull_dim_monomial",
    "minimal_primes_monomial",
    "multiply",
    "normal_form",
    "parse_expression",
    "parse_problem",
    "parse_problem_file",
    "pr_contains",
    "pr_halfspaces",
    "pr_sample_positive",
    "quasi_poly_degree",
    "radical_monomial",
    "rees_presentation",
    "sl2_presentation",
    "universal_gb",
    "validate_order",
    "validate_presentation",
    "verify_component_bound",
    "walk",
    "weight_degree",
    "weyl_presentation",
]
