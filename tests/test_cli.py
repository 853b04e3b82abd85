"""End-to-end tests of the command-line interface."""

import json

import pytest

from panehr import cache
from panehr.cli import main
from panehr.ehrhart import ehr_paving


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_panhandle_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", "panhandle", "--r", "1",
                           "--s", "1", "--n", "2", "--json",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.strip() == '["1","1"]'

    def test_hypersimplex_pretty(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", "hypersimplex", "--r", "1",
                           "--n", "3", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.strip() == "1/2 t^2 + 3/2 t + 1"

    def test_paving_matches_library(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compute", "paving", "--r", "2", "--n", "4",
                           "--hyperplane-sizes", "2", "--json",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out) == [str(c) for c in ehr_paving(2, 4, [2]).coeffs]

    def test_invalid_parameters_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "compute", "panhandle", "--r", "3",
                           "--s", "2", "--n", "4", "--cache-dir", str(tmp_path))
        assert code == 2
        assert "r <= s" in err

    def test_missing_parameters_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "compute", "panhandle", "--r", "1",
                           "--cache-dir", str(tmp_path))
        assert code == 2
        assert "--s" in err

    def test_deterministic_output(self, capsys, tmp_path):
        args = ("compute", "phi", "--r", "2", "--s", "3", "--n", "5",
                "--no-cache", "--no-color")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_resolves_the_closed_form_per_call(self, capsys, monkeypatch):
        # a replaced ehrhart attribute, such as a tracer's wrapper, is the
        # function the CLI calls
        from panehr import ehrhart

        calls = []
        original = ehrhart.ehr_panhandle
        monkeypatch.setattr(ehrhart, "ehr_panhandle",
                            lambda *a: calls.append(a) or original(*a))
        code, out, _ = run(capsys, "compute", "panhandle", "--r", "1", "--s", "1",
                           "--n", "2", "--json", "--no-cache")
        assert code == 0
        assert calls == [(1, 1, 2)]
        assert out.strip() == '["1","1"]'


class TestCache:
    ARGS = ("compute", "panhandle", "--r", "2", "--s", "2", "--n", "4", "--json")

    def test_hit_on_second_run(self, capsys, tmp_path):
        code, first, err = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
        assert code == 0 and "cache hit" not in err
        code, second, err = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
        assert code == 0 and "cache hit" in err
        assert first == second

    def test_no_cache_bypasses(self, capsys, tmp_path):
        run(capsys, *self.ARGS, "--cache-dir", str(tmp_path), "--no-cache")
        assert list(tmp_path.glob("*.json")) == []

    @pytest.mark.parametrize("mangle", [
        lambda payload: "{not json",
        lambda payload: json.dumps({**payload, "coefficients": ["x/y"]}),
        lambda payload: json.dumps({**payload, "coefficients": ["1/0"]}),
        lambda payload: "[]",
        lambda payload: json.dumps({**payload, "coefficients": []}),
        lambda payload: json.dumps({**payload,
                                    "coefficients": payload["coefficients"] + ["0"]}),
    ], ids=["not-json", "unparsable", "zero-denominator", "not-object", "empty",
            "trailing-zero"])
    def test_corrupt_entry_recomputed(self, capsys, tmp_path, mangle):
        code, first, _ = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
        entry = next(tmp_path.glob("*.json"))
        entry.write_text(mangle(json.loads(entry.read_text())))
        code, second, err = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
        assert code == 0 and first == second
        assert "corrupt" in err

    def test_load_returns_the_polynomial(self, tmp_path):
        from panehr import poly_to_json

        poly = ehr_paving(2, 4, [2])
        cache.store(tmp_path, "paving", {"r": 2, "n": 4}, poly_to_json(poly))
        assert cache.load(tmp_path, "paving", {"r": 2, "n": 4}) == poly

    def test_version_in_key(self, tmp_path):
        key = cache.cache_key("panhandle", {"r": 1, "s": 1, "n": 2})
        from panehr import __version__
        assert __version__ in key

    def test_env_var_sets_default_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PANEHR_CACHE_DIR", str(tmp_path))
        run(capsys, *self.ARGS)
        assert list(tmp_path.glob("*.json"))

    def test_clear_and_stats(self, capsys, tmp_path):
        run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
        assert code == 0 and out.startswith("entries: 1")
        code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0 and out.strip() == "removed: 1"
        code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
        assert out.startswith("entries: 0")


class TestEnumerate:
    def test_forests_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "forests", "--q", "0",
                           "--s", "3", "--k", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "count: 3"
        assert len(lines) == 4

    def test_single_forest(self, capsys):
        code, out, _ = run(capsys, "enumerate", "forests", "--q", "1",
                           "--s", "2", "--k", "1")
        assert out.splitlines()[0] == "[2,1]"

    def test_dcf_includes_full_a(self, capsys):
        code, out, _ = run(capsys, "enumerate", "dcf", "--q", "1", "--s", "1",
                           "--k", "1", "--ell", "0", "--m", "1")
        assert code == 0
        assert "[1]|A={1}" in out.splitlines()

    def test_cf1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "cf1", "--q", "1", "--s", "2",
                           "--k", "2", "--ell", "0", "--m", "2")
        assert code == 0
        assert out.splitlines()[0] == "[2][1]"

    def test_invalid_query(self, capsys):
        code, _, err = run(capsys, "enumerate", "forests", "--q", "0",
                           "--s", "2", "--k", "3")
        assert code == 2 and "k <= s" in err


class TestVerify:
    def test_small_campaign_passes(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, out, err = run(capsys, "verify", "identity-lah", "--max-s", "3",
                             "--max-q", "2", "--csv", str(csv_path), "--no-color")
        assert code == 0
        assert "result: PASS" in out
        assert "failures: 0" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.endswith("expected,actual,ok")
        assert "elapsed" in err

    def test_unwritable_csv_exits_two_before_running(self, capsys, tmp_path,
                                                     monkeypatch):
        from panehr import campaigns

        def not_expected(*args, **kwargs):
            raise RuntimeError("the campaign ran")

        monkeypatch.setattr(campaigns, "run_campaign_report", not_expected)
        code, out, err = run(capsys, "verify", "identity-lah", "--max-s", "2",
                             "--max-q", "1", "--csv",
                             str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert "panehr: error:" in err
        assert out == ""

    @pytest.mark.parametrize("flags", [
        ("--max-s", "1", "--max-q", "0", "--jobs", "0"),
        ("--max-s", "-1"),
    ], ids=["jobs-0", "negative-bound"])
    def test_rejected_run_leaves_the_csv_file_alone(self, capsys, tmp_path, flags):
        csv_path = tmp_path / "keep.csv"
        csv_path.write_text("kept\n")
        code, out, err = run(capsys, "verify", "phi", *flags, "--csv", str(csv_path))
        assert code == 2
        assert "panehr: error:" in err
        assert csv_path.read_text() == "kept\n"

    def test_empty_run_leaves_the_csv_file_alone(self, capsys, tmp_path):
        # the empty run is rejected only once the campaign is over
        csv_path = tmp_path / "keep.csv"
        csv_path.write_text("kept\n")
        code, out, err = run(capsys, "verify", "phi", "--max-s", "0", "--csv", str(csv_path))
        assert code == 2
        assert "checks no tuples" in err
        assert csv_path.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [csv_path]

    def test_csv_replaced_once_the_run_is_over(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("old\n")
        code, out, _ = run(capsys, "verify", "identity-lah", "--max-s", "2",
                           "--max-q", "1", "--csv", str(csv_path), "--no-color")
        assert code == 0
        assert csv_path.read_text().splitlines()[0].endswith("expected,actual,ok")
        assert list(tmp_path.iterdir()) == [csv_path]

    def test_csv_path_that_is_a_directory(self, capsys, tmp_path, monkeypatch):
        from panehr import campaigns

        def not_expected(*args, **kwargs):
            raise RuntimeError("the campaign ran")

        monkeypatch.setattr(campaigns, "run_campaign_report", not_expected)
        code, out, err = run(capsys, "verify", "identity-lah", "--max-s", "2",
                             "--max-q", "1", "--csv", str(tmp_path))
        assert code == 2
        assert "cannot write the --csv file" in err
        assert out == ""

    def test_bound_guard(self, capsys):
        code, _, err = run(capsys, "verify", "identity-main", "--max-s", "9")
        assert code == 2
        assert "--i-know-this-is-slow" in err

    def test_jobs_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "ehrhart-oracle", "--max-n", "4",
                           "--jobs", "2", "--no-color")
        assert code == 0 and "result: PASS" in out

    def test_jobs_capped_at_unit_count(self, monkeypatch):
        from panehr import campaigns

        workers = []

        class FakePool:
            # runs the units in this process; records the pool size asked for
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(campaigns, "ProcessPoolExecutor", FakePool)
        bounds = {"max_s": 1, "max_q": 1}
        assert len(campaigns.units_by_sq(**bounds)) == 2
        rows = campaigns.run_campaign("phi", bounds, jobs=64)
        assert workers == [2]
        assert rows == campaigns.run_campaign("phi", bounds, jobs=1)

    def test_processing_fault_is_a_failure(self, capsys, monkeypatch):
        from panehr import processing

        def broken(d, q):
            raise processing.ReverseError("reversal broke")

        monkeypatch.setattr(processing, "phi_inverse", broken)
        code, out, err = run(capsys, "verify", "involution", "--max-s", "2",
                             "--max-q", "1", "--no-color")
        assert code == 1
        assert "result: FAIL" in out
        first = [line for line in out.splitlines() if line.startswith("first failure:")]
        assert len(first) == 1 and "reversal broke" in first[0]
        assert "panehr: error:" not in err

    def test_deterministic_summary(self, capsys):
        args = ("verify", "per-term", "--max-s", "2", "--max-q", "2", "--no-color")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("campaign, flag, value", [
        ("phi", "--max-s", "-1"),
        ("phi", "--max-s", "0"),
        ("identity-main", "--max-q", "-3"),
        ("phi", "--jobs", "0"),
    ])
    def test_empty_or_negative_bounds_exit_two(self, capsys, campaign, flag, value):
        code, out, err = run(capsys, "verify", campaign, flag, value, "--no-color")
        assert code == 2
        assert "panehr: error:" in err
        assert "result: PASS" not in out

    def test_failure_exits_one_and_echoes_tuple(self, capsys, monkeypatch):
        from panehr import campaigns

        bad = campaigns.Row((("s", "3"), ("q", "1")), False, "7", "8")
        monkeypatch.setattr(campaigns, "run_campaign",
                            lambda name, bounds, jobs=1: [bad])
        code, out, _ = run(capsys, "verify", "identity-main", "--no-color")
        assert code == 1
        assert "result: FAIL" in out
        assert "first failure: FAIL s=3 q=1 expected=7 actual=8" in out


class TestOracleCommand:
    def test_panhandle_count(self, capsys):
        code, out, _ = run(capsys, "oracle", "count", "panhandle", "--r", "1",
                           "--s", "1", "--n", "2", "--t", "2")
        assert code == 0 and out.strip() == "3"

    def test_paving_count(self, capsys):
        code, out, _ = run(capsys, "oracle", "count", "paving", "--r", "2",
                           "--n", "4", "--hyperplane", "1,2", "--t", "1")
        assert code == 0 and out.strip() == "5"

    @pytest.mark.parametrize("r", ["5", "0"])
    def test_hypersimplex_rank_checked_like_compute(self, capsys, tmp_path, r):
        code, out, err = run(capsys, "oracle", "count", "hypersimplex", "--r", r,
                             "--n", "4", "--t", "2")
        assert code == 2 and out == ""
        ccode, _, cerr = run(capsys, "compute", "hypersimplex", "--r", r, "--n", "4",
                             "--cache-dir", str(tmp_path))
        assert ccode == 2 and err == cerr and "1 <= r <= n-1" in err

    @pytest.mark.parametrize("r, hyperplane, message", [
        ("2", "1,1,2", "repeats element 1"),
        ("3", "1,2", "hyperplane size 2 outside [3, 3]"),
    ])
    def test_bad_hyperplane_exit_two(self, capsys, r, hyperplane, message):
        code, out, err = run(capsys, "oracle", "count", "paving", "--r", r,
                             "--n", "4", "--hyperplane", hyperplane, "--t", "2")
        assert code == 2 and out == ""
        assert message in err

    def test_missing_dilation(self, capsys):
        code, _, err = run(capsys, "oracle", "count", "panhandle", "--r", "1",
                           "--s", "1", "--n", "2")
        assert code == 2 and "--t" in err
