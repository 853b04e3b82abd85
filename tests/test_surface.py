"""The public surface: exported names, CLI family choices, campaign names."""

import argparse

import panehr
from panehr import campaigns
from panehr.cli import build_parser


def _subparser(parser, name):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def _positional_choices(parser, dest):
    return tuple(next(a for a in parser._actions if a.dest == dest).choices)


def test_all_exports():
    assert panehr.__all__ == [
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
    assert all(hasattr(panehr, name) for name in panehr.__all__)


def test_cli_family_choices():
    parser = build_parser()
    compute = _subparser(parser, "compute")
    count = _subparser(_subparser(parser, "oracle"), "count")
    assert _positional_choices(compute, "family") == (
        "panhandle", "paving", "hypersimplex", "phi", "psi")
    assert _positional_choices(count, "family") == (
        "panhandle", "hypersimplex", "paving")


def test_campaign_names():
    names = ("bounds", "ehrhart-oracle", "identity-lah", "identity-main",
             "identity-upper", "involution", "per-term", "phi", "positivity")
    assert tuple(sorted(campaigns.CAMPAIGNS)) == names
    verify = _subparser(build_parser(), "verify")
    assert _positional_choices(verify, "campaign") == names
