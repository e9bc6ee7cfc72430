"""Exact tools for Fermat-type arrangements, derived configurations of
flats, dimensions of linear systems with fat base loci over cyclotomic
fields, and symbolic verification of unexpected hypersurfaces."""

__version__ = "0.1.0"

from .arrange import (
    Arrangement,
    Flat,
    GroupElement,
    derived_flats,
    dual_points,
    fermat_arrangement,
    format_spec,
    monomial_group,
    parse_spec,
    reflections_of,
)
from .cyclo import CyclotomicNumber, cyclotomic_polynomial, euler_phi
from .formulas import (
    BuiltFormula,
    build_formula,
    equal_up_to_scalar,
    membership_in_fat_ideal,
    symbolic_multiplicity_at_general,
    symbolic_vanishing_on_Z,
    verify_family,
)
from .interp import (
    UnexpectednessReport,
    decide_unexpected,
    hilbert_function,
    system_dimension,
)
from .mpoly import MultiPoly, format_point, parse_point, parse_poly
from .scheme import (
    ConditionMatrix,
    FatScheme,
    conditions_count,
    format_scheme,
    named_configuration,
    parse_scheme,
    verify_published_generators,
)
