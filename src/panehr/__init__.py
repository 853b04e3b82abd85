"""Exact Ehrhart polynomials of panhandle and paving matroid polytopes.

The package has three layers: an exact arithmetic substrate
(exactmath), the combinatorial ground truth (forests and processing,
which enumerate ordered chain forests and drive the value-to-weight
processing map and its sign-reversing pairing), and the polynomial layer
(ehrhart for the closed formulas, oracle for independent lattice-point
counts).  The campaigns module wires the two sides together into
verification sweeps, fronted by the panehr command-line tool.
"""

__version__ = "0.1.0"

from .exactmath import (
    Polynomial,
    binom_poly,
    binomial,
    interpolate,
    pi_range,
    poly_eval,
    poly_from_json,
    poly_leq,
    poly_to_json,
)
from .forests import (
    Distinguished,
    Valued,
    block_weight,
    cf1_count,
    cf_count_formula,
    cf_refined_formula,
    dcf1_signed_sum,
    dcf_signed_sum,
    enumerate_cf,
    enumerate_cf1,
    enumerate_cf_refined,
    enumerate_dcf,
    enumerate_dcf1,
    forest_weight,
    format_distinguished,
    format_forest,
    format_valued,
    gamma,
)
from .processing import (
    AlgorithmState,
    CheckResult,
    ReverseError,
    image_check,
    involution_f,
    phi,
    phi_inverse,
    phi_trace,
    process_step,
    reverse_step,
    reverse_trace,
)
from .ehrhart import (
    check_relaxation_positivity,
    ehr_hypersimplex,
    ehr_panhandle,
    ehr_paving,
    ehr_product_simplex,
    phi_poly,
    psi_poly,
    upper_expression,
)
from .oracle import (
    count_points_panhandle,
    count_points_paving,
)

__all__ = [
    "Polynomial", "binom_poly", "binomial", "pi_range", "poly_eval",
    "poly_from_json", "poly_leq", "poly_to_json",
    "Distinguished", "Valued", "block_weight", "cf1_count",
    "cf_count_formula", "cf_refined_formula", "dcf1_signed_sum",
    "dcf_signed_sum", "enumerate_cf", "enumerate_cf1",
    "enumerate_cf_refined", "enumerate_dcf", "enumerate_dcf1",
    "forest_weight", "format_distinguished", "format_forest",
    "format_valued", "gamma",
    "AlgorithmState", "CheckResult", "ReverseError", "image_check",
    "involution_f", "phi", "phi_inverse", "phi_trace", "process_step",
    "reverse_step", "reverse_trace",
    "check_relaxation_positivity", "ehr_hypersimplex", "ehr_panhandle",
    "ehr_paving", "ehr_product_simplex", "phi_poly", "psi_poly",
    "upper_expression",
    "count_points_panhandle", "count_points_paving", "interpolate",
]
