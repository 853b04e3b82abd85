"""The public surface: exported names, CLI family choices, campaign names,
and the record types."""

import argparse
import concurrent.futures
import pickle
import sys

import pytest

import panehr
from panehr import campaigns
from panehr.cli import build_parser
from panehr.processing import CheckResult


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


def test_exports_resolve_to_their_defining_modules():
    for name in panehr.__all__:
        value = getattr(panehr, name)
        assert value.__module__.startswith("panehr."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert panehr.upper_expression is panehr.forests.upper_expression
    assert panehr.interpolate is panehr.exactmath.interpolate
    assert set(panehr.__all__) <= set(dir(panehr))
    namespace = {}
    exec("from panehr import *", namespace)
    assert all(namespace[name] is getattr(panehr, name) for name in panehr.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        panehr.no_such_name


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


def _options(parser):
    return tuple(opt for action in parser._actions for opt in action.option_strings)


def test_cli_options():
    # a flag no command reads must not come back unnoticed
    parser = build_parser()
    common = ("-h", "--help")
    assert _options(_subparser(parser, "compute")) == common + (
        "--r", "--s", "--n", "--hyperplane-sizes", "--json",
        "--cache-dir", "--no-cache", "--no-color")
    assert _options(_subparser(parser, "verify")) == common + (
        "--max-s", "--max-q", "--max-n", "--max-paving-n", "--jobs", "--csv",
        "--i-know-this-is-slow", "--no-color")
    assert _options(_subparser(parser, "enumerate")) == common + (
        "--q", "--s", "--k", "--ell", "--m", "--no-color")
    assert _options(_subparser(_subparser(parser, "oracle"), "count")) == common + (
        "--r", "--s", "--n", "--t", "--hyperplane", "--no-color")
    assert _options(_subparser(parser, "cache")) == common + ("--cache-dir", "--no-color")


def test_campaign_bounds():
    taken = {name: tuple(dict(spec.defaults))
             for name, spec in sorted(campaigns.CAMPAIGNS.items())}
    assert taken == {
        "bounds": ("max_n", "max_paving_n"),
        "ehrhart-oracle": ("max_n",),
        "identity-lah": ("max_s", "max_q"),
        "identity-main": ("max_s", "max_q"),
        "identity-upper": ("max_s", "max_q"),
        "involution": ("max_s", "max_q"),
        "per-term": ("max_s", "max_q"),
        "phi": ("max_s", "max_q"),
        "positivity": ("max_n",),
    }


def test_record_fields():
    assert campaigns.Row._fields == ("params", "ok", "expected", "actual")
    assert campaigns.SweepReport._fields == ("campaign", "bounds", "rows", "wall_time")
    assert campaigns.Campaign._fields == ("name", "units", "runner", "defaults",
                                          "description")
    assert CheckResult._fields == ("accepted", "j", "reason")
    assert CheckResult._field_defaults == {"j": None, "reason": None}


ROW = campaigns.Row((("s", "1"), ("q", "0")), False, "1", "2")


def test_record_reprs():
    assert repr(CheckResult(False, None, "no split index balances the weights")) == (
        "CheckResult(accepted=False, j=None, reason='no split index balances the weights')")
    assert repr(CheckResult(True, 2)) == "CheckResult(accepted=True, j=2, reason=None)"
    assert repr(ROW) == ("Row(params=(('s', '1'), ('q', '0')), ok=False, "
                         "expected='1', actual='2')")


def test_record_truth_and_methods():
    assert CheckResult(True) and not CheckResult(False, None, "rejected")
    assert ROW  # a failing row is still a nonempty record
    assert ROW.describe() == "FAIL s=1 q=0 expected=1 actual=2"
    passing = ROW._replace(ok=True)
    report = campaigns.SweepReport("phi", (), (passing, ROW), 0.0)
    assert not report.passed and report.failures == (ROW,)
    assert report._replace(rows=(passing,)).passed


@pytest.mark.parametrize("record, field", [
    (ROW, "ok"), (CheckResult(True), "accepted"),
    (campaigns.SweepReport("phi", (), (), 0.0), "rows"),
    (campaigns.CAMPAIGNS["phi"], "defaults")],
    ids=["Row", "CheckResult", "SweepReport", "Campaign"])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_row_pickles():
    back = pickle.loads(pickle.dumps(ROW))
    assert type(back) is campaigns.Row and back == ROW


def test_real_pool_rows_equal_serial_rows(monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        # a real pool that records the pool size asked for
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    bounds = {"max_s": 2, "max_q": 1}
    rows = campaigns.run_campaign("phi", bounds, jobs=2)
    assert pools == [2]
    assert rows == campaigns.run_campaign("phi", bounds, jobs=1)
    assert all(type(row) is campaigns.Row for row in rows)
