"""End-to-end tests of the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panehr import cache, campaigns
from panehr.cli import (COMPUTE_OPTIONS, FAMILIES, VERIFY_BOUNDS, _family_call, _read_compute,
                        build_parser, main)
from panehr.ehrhart import ehr_paving

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def compute_grid_argvs(n=12):
    """The compute argvs of a grid at n: every panhandle and psi, every
    hypersimplex, and a three-cut paving family per r."""
    argvs = [[family, "--r", str(r), "--s", str(s)] for family in ("panhandle", "psi")
             for s in range(1, n) for r in range(1, s + 1)]
    argvs += [["hypersimplex", "--r", str(r)] for r in range(1, n)]
    argvs += [["paving", "--r", str(r), "--hyperplane-sizes",
               *(str(min(r + j, n - 1)) for j in range(3))] for r in range(1, n)]
    return [["compute", *argv, "--n", str(n)] for argv in argvs]


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

    @pytest.mark.parametrize("argv, message", [
        (("hypersimplex", "--r", "2", "--n", "4", "--s", "9"),
         "the hypersimplex family takes no --s"),
        (("panhandle", "--r", "1", "--s", "1", "--n", "2", "--hyperplane-sizes", "5"),
         "the panhandle family takes no --hyperplane-sizes"),
        (("phi", "--r", "1", "--s", "1", "--n", "2", "--hyperplane-sizes", "5"),
         "the phi family takes no --hyperplane-sizes"),
        (("paving", "--r", "2", "--s", "3", "--n", "4", "--hyperplane-sizes", "2"),
         "the paving family takes no --s"),
    ], ids=["hypersimplex-s", "panhandle-sizes", "phi-sizes", "paving-s"])
    def test_flag_the_family_does_not_take_exits_two(self, capsys, tmp_path, argv,
                                                      message):
        code, out, err = run(capsys, "compute", *argv, "--cache-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"panehr: error: {message}\n"
        assert not any(tmp_path.iterdir())

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

    def test_a_request_builds_its_key_once(self, capsys, tmp_path, monkeypatch):
        built = []
        cache_key = cache.cache_key

        def counting_key(family, params):
            built.append(family)
            return cache_key(family, params)
        monkeypatch.setattr(cache, "cache_key", counting_key)
        for hit in (False, True):  # a miss that stores the entry, then a hit
            built.clear()
            code, _, err = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
            assert code == 0 and ("cache hit" in err) == hit
            assert built == ["panhandle"]

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

    PARAMS = {"r": 2, "s": 2, "n": 4}
    KEY = cache.cache_key("panhandle", PARAMS)

    def test_missing_entry_is_a_silent_miss(self, capsys, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        for cache_dir in (tmp_path, tmp_path / "absent", not_a_dir):
            assert cache.load(cache_dir, self.KEY) is None
        assert capsys.readouterr().err == ""

    def test_entry_vanishing_before_the_read_is_a_silent_miss(self, capsys, tmp_path,
                                                              monkeypatch):
        cache.store(tmp_path, self.KEY, ["1", "1"])

        def vanished(path, *args, **kwargs):
            raise FileNotFoundError(2, "No such file or directory", str(path))
        monkeypatch.setattr(cache.os, "open", vanished)
        assert cache.load(tmp_path, self.KEY) is None
        assert capsys.readouterr().err == ""

    def test_directory_at_the_entry_path_warns(self, capsys, tmp_path):
        key = cache.cache_key("panhandle", self.PARAMS)
        cache._entry_path(tmp_path, key).mkdir()
        assert cache.load(tmp_path, self.KEY) is None
        assert "ignoring corrupt entry" in capsys.readouterr().err

    def test_entry_names_keep_their_per_character_form(self, tmp_path):
        # the keys of a compute grid at n = 12, as compute forms them: every
        # panhandle and psi, every hypersimplex, and a three-cut paving
        # family per r, whose sizes join with "+"
        keys = []
        for argv in compute_grid_argvs():
            args = build_parser().parse_args(argv)
            keys.append(cache.cache_key(args.family, _family_call(args.family, args)[1]))
        assert len(set(keys)) == 154 and sum("+" in key for key in keys) == 11
        for key in keys:
            safe = "".join(c if c.isalnum() or c in "._-" else "-" for c in key)
            assert cache._entry_path(tmp_path, key) == tmp_path / f"{safe}.json"

    def test_failed_store_leaves_no_temporary_file(self, capsys, tmp_path):
        key = cache.cache_key("panhandle", self.PARAMS)
        cache._entry_path(tmp_path, key).mkdir()
        cache.store(tmp_path, self.KEY, ["1", "1"])
        err = capsys.readouterr().err
        assert "could not write entry" in err and "directory not writable" not in err
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_encoding_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not serialisable")
        monkeypatch.setattr(cache.json, "dumps", broken)
        with pytest.raises(TypeError):
            cache.store(tmp_path, self.KEY, ["1", "1"])
        assert list(tmp_path.iterdir()) == []

    def test_short_writes_still_store_the_whole_entry(self, tmp_path, monkeypatch):
        # the entry is the bytes json.dump writes, however few of them each
        # write takes
        real_write = os.write
        monkeypatch.setattr(cache.os, "write", lambda fd, data: real_write(fd, data[:3]))
        cache.store(tmp_path, self.KEY, ["1", "3/2", "1/2"])
        key = cache.cache_key("panhandle", self.PARAMS)
        written = cache._entry_path(tmp_path, key).read_text()
        assert written == '{"key": "%s", "coefficients": ["1", "3/2", "1/2"]}' % key
        monkeypatch.undo()
        assert cache.load(tmp_path, self.KEY) == ["1", "3/2", "1/2"]

    def test_store_under_a_file_warns_about_the_directory(self, capsys, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        cache.store(not_a_dir, self.KEY, ["1", "1"])
        assert "cache directory not writable" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_unreadable_entry_warns(self, capsys, tmp_path, monkeypatch):
        # a permission check cannot stop a privileged user, so the read fails
        # the way an unreadable file makes it fail
        cache.store(tmp_path, self.KEY, ["1", "1"])

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(cache.os, "open", denied)
        assert cache.load(tmp_path, self.KEY) is None
        assert "ignoring corrupt entry" in capsys.readouterr().err

    def test_load_returns_the_stored_coefficients(self, tmp_path):
        from panehr import poly_to_json

        poly = ehr_paving(2, 4, [2])
        key = cache.cache_key("paving", {"r": 2, "n": 4})
        cache.store(tmp_path, key, poly_to_json(poly))
        assert cache.load(tmp_path, key) == poly_to_json(poly)

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

    @pytest.mark.parametrize("spelling", [["--cache-dir", ""], ["--cache-dir="]],
                             ids=["separate", "equals"])
    @pytest.mark.parametrize("command", [
        ["compute", "panhandle", "--r", "1", "--s", "1", "--n", "2"],
        ["cache", "clear"], ["cache", "stats"]], ids=["compute", "clear", "stats"])
    def test_empty_cache_dir_is_a_usage_error(self, capsys, tmp_path, monkeypatch,
                                              command, spelling):
        # Path("") is the current directory, which must not become a cache
        monkeypatch.chdir(tmp_path)
        kept = tmp_path / "panhandle_n2_r1_s1__v0.0.1.json"
        kept.write_text("{}")
        code, out, err = _invoke(capsys, main, [*command, *spelling])
        assert code == 2 and out == ""
        assert err.endswith(f"panehr {command[0]}: error: argument --cache-dir: "
                            "expected a nonempty path\n")
        assert list(tmp_path.iterdir()) == [kept]

    def test_clear_and_stats_skip_foreign_files(self, capsys, tmp_path):
        foreign = tmp_path / "package.json"
        foreign.write_text('{"name": "not a cache entry"}')
        stale = tmp_path / "panhandle_n4_r2_s2__v0.0.1.json"
        stale.write_text("{}")
        run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
        assert code == 0 and out.startswith("entries: 2")
        code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0 and out.strip() == "removed: 2"
        assert list(tmp_path.iterdir()) == [foreign]
        assert foreign.read_text() == '{"name": "not a cache entry"}'
        code, out, _ = run(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
        assert out.startswith("entries: 0")

    def test_entry_holds_only_key_and_coefficients(self, capsys, tmp_path):
        code, out, _ = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
        entry = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert code == 0 and entry == {"key": cache.cache_key("panhandle", self.PARAMS),
                         "coefficients": json.loads(out)}

    def test_entry_with_the_older_six_fields_still_hits(self, capsys, tmp_path):
        from panehr import __version__

        code, cold, err = run(capsys, *self.ARGS, "--no-cache")
        assert code == 0 and "cache hit" not in err
        key = cache.cache_key("panhandle", self.PARAMS)
        entry = cache._entry_path(tmp_path, key)
        entry.write_text(json.dumps({
            "key": key, "family": "panhandle", "params": self.PARAMS,
            "coefficients": json.loads(cold), "version": __version__,
            "created": "2026-01-01T00:00:00Z"}, indent=1))
        written = entry.read_bytes()
        code, warm, err = run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
        assert code == 0 and "cache hit" in err
        assert warm == cold
        assert entry.read_bytes() == written

    def test_clear_and_stats_skip_a_directory_named_like_an_entry(self, capsys,
                                                                  tmp_path):
        from panehr import __version__

        run(capsys, *self.ARGS, "--cache-dir", str(tmp_path))
        entry = next(tmp_path.glob("*.json"))
        named_like_one = tmp_path / f"panhandle_n5_r2_s2__v{__version__}.json"
        named_like_one.mkdir()
        code, out, err = run(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
        assert code == 0 and err == ""
        assert out == f"entries: 1\nbytes: {entry.stat().st_size}\n"
        code, out, err = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0 and out == "removed: 1\n" and err == ""
        assert list(tmp_path.iterdir()) == [named_like_one]


# one request of each compute family; the first three have fractional
# coefficients, phi and psi integral ones
FAMILY_ARGS = [
    ("panhandle", "--r", "2", "--s", "3", "--n", "6"),
    ("paving", "--r", "2", "--n", "5", "--hyperplane-sizes", "3"),
    ("hypersimplex", "--r", "2", "--n", "5"),
    ("phi", "--r", "2", "--s", "3", "--n", "6"),
    ("psi", "--r", "2", "--s", "4", "--n", "7"),
]


class TestHitText:
    """A hit prints the stored coefficient strings, so its stdout must be
    what a fresh computation prints, and a stored string that is not
    exactly a reduced fraction must be recomputed, not printed."""

    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "pretty"])
    @pytest.mark.parametrize("argv", FAMILY_ARGS, ids=[a[0] for a in FAMILY_ARGS])
    def test_a_hit_prints_what_a_fresh_compute_prints(self, capsys, tmp_path, argv,
                                                      mode):
        code, fresh, _ = run(capsys, "compute", *argv, *mode, "--no-cache")
        assert code == 0 and ("/" in fresh) == (argv[0] not in ("phi", "psi"))
        code, miss, err = run(capsys, "compute", *argv, *mode, "--cache-dir", str(tmp_path))
        assert code == 0 and "cache hit" not in err and miss == fresh
        code, hit, err = run(capsys, "compute", *argv, *mode, "--cache-dir", str(tmp_path))
        assert code == 0 and "cache hit" in err and err.count("\n") == 1
        assert hit == fresh

    @pytest.mark.parametrize("text", ["2/4", "-0", "+1", " 1", "0/3", "1_0", "1.5", "01"])
    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "pretty"])
    def test_an_unreduced_coefficient_is_recomputed(self, capsys, tmp_path, text, mode):
        argv = ("compute", *FAMILY_ARGS[0], *mode)
        code, fresh, _ = run(capsys, *argv, "--no-cache")
        run(capsys, *argv, "--cache-dir", str(tmp_path))
        entry = next(tmp_path.glob("*.json"))
        payload = json.loads(entry.read_text())
        payload["coefficients"][0] = text
        entry.write_text(json.dumps(payload))
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and out == fresh
        assert "ignoring corrupt entry" in err and repr(text) in err
        assert "cache hit" not in err
        # the recomputation rewrote the entry, so the next run hits
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and out == fresh and "cache hit" in err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_the_cache_leaks_no_descriptor(capsys, tmp_path, monkeypatch):
    params = {"r": 2, "s": 2, "n": 4}
    argv = ("compute", "panhandle", "--r", "2", "--s", "2", "--n", "4", "--json")
    key = cache.cache_key("panhandle", params)
    corrupt = tmp_path / "corrupt"
    corrupt.mkdir()
    directory = tmp_path / "directory"
    cache._entry_path(directory, key).mkdir(parents=True)

    def full(fd, data):
        raise OSError(28, "No space left on device")

    def exercise():
        for _ in range(3):
            cache.clear(tmp_path / "hits")
            for hit in (False, True):  # a miss that stores the entry, then a hit
                _, _, err = run(capsys, *argv, "--cache-dir", str(tmp_path / "hits"))
                assert ("cache hit" in err) == hit
            assert cache.load(tmp_path / "absent", key) is None
            cache._entry_path(corrupt, key).write_text('{"key": "%s", '
                                                       '"coefficients": ["2/4"]}' % key)
            run(capsys, *argv, "--cache-dir", str(corrupt))
            cache._entry_path(corrupt, key).write_text("{not json")
            assert cache.load(corrupt, key) is None
            assert cache.load(directory, key) is None
            cache.store(directory, key, ["1", "1"])
            with monkeypatch.context() as patch:
                patch.setattr(cache.os, "write", full)
                cache.store(tmp_path / "full", key, ["1", "1"])
        err = capsys.readouterr().err
        assert "could not write entry" in err and "No space left" in err
        assert "ignoring corrupt entry" in err

    exercise()  # first calls may open what stays open, e.g. a lazy import
    before = sorted(os.listdir("/proc/self/fd"))
    exercise()
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert list((tmp_path / "full").iterdir()) == []
    assert [p.name for p in directory.iterdir()] == [cache._entry_path(directory, key).name]


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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
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

    UNTAKEN = [(name, key) for name, spec in sorted(campaigns.CAMPAIGNS.items())
               for key in VERIFY_BOUNDS if key not in dict(spec.defaults)]

    def test_twenty_untaken_bounds(self):
        assert len(self.UNTAKEN) == 20

    @pytest.mark.parametrize("campaign, key", UNTAKEN,
                             ids=[f"{c}-{k}" for c, k in UNTAKEN])
    def test_bound_the_campaign_does_not_take_exits_two(self, capsys, tmp_path,
                                                        monkeypatch, campaign, key):
        def not_expected(*args, **kwargs):
            raise RuntimeError("the campaign ran")

        monkeypatch.setattr(campaigns, "run_campaign_report", not_expected)
        csv_path = tmp_path / "keep.csv"
        csv_path.write_bytes(b"kept\r\n")
        flag = "--" + key.replace("_", "-")
        code, out, err = run(capsys, "verify", campaign, flag, "1",
                             "--csv", str(csv_path))
        assert code == 2 and out == ""
        assert err == f"panehr: error: the {campaign} campaign takes no {flag}\n"
        assert csv_path.read_bytes() == b"kept\r\n"
        assert list(tmp_path.iterdir()) == [csv_path]

    @pytest.mark.parametrize("campaign, flags", [
        ("identity-main", ("--max-s", "2")),
        ("identity-lah", ("--max-q", "1")),
        ("identity-upper", ("--max-s", "2", "--max-q", "1")),
        ("per-term", ("--max-s", "2")),
        ("phi", ("--max-q", "1", "--max-s", "3")),
        ("involution", ("--max-s", "2")),
        ("ehrhart-oracle", ("--max-n", "4")),
        ("bounds", ("--max-paving-n", "5")),
        ("positivity", ("--max-n", "5")),
    ])
    def test_bound_the_campaign_takes_passes(self, capsys, campaign, flags):
        code, out, _ = run(capsys, "verify", campaign, *flags, "--no-color")
        assert code == 0 and out.endswith("result: PASS\n")

    def test_library_bounds_are_owned_by_the_campaign(self):
        assert campaigns.campaign_bounds("positivity", {"max_n": 4}) == {"max_n": 4}
        with pytest.raises(ValueError, match="the positivity campaign takes no --max-s"):
            campaigns.campaign_bounds("positivity", {"max_s": 3})

    def test_help_text_is_pinned(self, capsys, monkeypatch):
        # the --max-* options come from the campaign registry's defaults, in
        # the order the registry first names each bound
        assert VERIFY_BOUNDS == ("max_s", "max_q", "max_n", "max_paving_n")
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = _invoke(capsys, main, ["verify", "--help"])
        assert code == 0 and out == VERIFY_HELP

    def test_help_describes_every_campaign(self, capsys):
        code, out, _ = _invoke(capsys, main, ["verify", "--help"])
        assert code == 0
        for name, spec in campaigns.CAMPAIGNS.items():
            assert any(line.split() == [name, *spec.description.split()]
                       for line in out.splitlines()), name


VERIFY_HELP = """\
usage: panehr verify [-h] [--max-s MAX_S] [--max-q MAX_Q] [--max-n MAX_N]
                     [--max-paving-n MAX_PAVING_N] [--jobs JOBS] [--csv CSV]
                     [--i-know-this-is-slow] [--no-color]
                     {bounds,ehrhart-oracle,identity-lah,identity-main,identity-upper,involution,per-term,phi,positivity}

positional arguments:
  {bounds,ehrhart-oracle,identity-lah,identity-main,identity-upper,involution,per-term,phi,positivity}

options:
  -h, --help            show this help message and exit
  --max-s MAX_S
  --max-q MAX_Q
  --max-n MAX_N
  --max-paving-n MAX_PAVING_N
  --jobs JOBS
  --csv CSV             write per-tuple rows to this file
  --i-know-this-is-slow
                        allow bounds beyond the desk-scale defaults
  --no-color            never emit ANSI color codes

campaigns:
  identity-main   refined chain-forest count vs its closed form
  identity-lah    total chain-forest count vs its closed form, plus marginals
  identity-upper  leader-1 forest count vs the upper-bound expression
  per-term        signed distinguished-forest sums vs individual summands
  phi             processing map bijectivity and image characterization
  involution      sign-reversing pairing and cancellation
  ehrhart-oracle  panhandle Ehrhart polynomials vs direct lattice-point counts
  bounds          coefficientwise sandwich and paving upper bound
  positivity      coefficient nonnegativity of the formula polynomials
"""


class TestOracleCommand:
    def test_panhandle_count(self, capsys):
        code, out, _ = run(capsys, "oracle", "count", "panhandle", "--r", "1",
                           "--s", "1", "--n", "2", "--t", "2")
        assert code == 0 and out.strip() == "3"

    def test_paving_count(self, capsys):
        code, out, _ = run(capsys, "oracle", "count", "paving", "--r", "2",
                           "--n", "4", "--hyperplane", "1,2", "--t", "1")
        assert code == 0 and out.strip() == "5"

    def test_paving_count_three_hyperplanes(self, capsys):
        code, out, err = run(capsys, "oracle", "count", "paving", "--r", "4",
                             "--n", "10", "--t", "3",
                             "--hyperplane", "1,2,3,4,5", "--hyperplane", "5,6,7,8",
                             "--hyperplane", "1,6,9,10")
        assert code == 0 and err == ""
        assert out.strip() == str(ehr_paving(4, 10, [4, 4, 5]).evaluate(3))

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

    @pytest.mark.parametrize("spec", ["1,,2", "", "a"])
    def test_hyperplane_that_is_not_integers_is_named(self, capsys, spec):
        code, out, err = run(capsys, "oracle", "count", "paving", "--r", "2",
                             "--n", "4", "--hyperplane", spec, "--t", "2")
        assert code == 2 and out == ""
        assert err == (f"panehr: error: hyperplane '{spec}' is not a "
                       "comma-separated list of integers\n")

    @pytest.mark.parametrize("argv", [
        ("panhandle", "--r", "1", "--s", "1", "--n", "2"),
        ("hypersimplex", "--r", "1", "--n", "3"),
        ("paving", "--r", "2", "--n", "4", "--hyperplane", "1,2"),
    ])
    def test_negative_dilation_gets_the_oracle_message(self, capsys, argv):
        code, out, err = run(capsys, "oracle", "count", *argv, "--t", "-1")
        assert code == 2 and out == ""
        assert err == "panehr: error: dilation factor must be nonnegative\n"

    @pytest.mark.parametrize("argv, message", [
        (("panhandle", "--r", "1", "--s", "1", "--n", "2", "--hyperplane", "1"),
         "the panhandle family takes no --hyperplane"),
        (("hypersimplex", "--r", "1", "--n", "3", "--s", "9"),
         "the hypersimplex family takes no --s"),
        (("paving", "--r", "2", "--s", "1", "--n", "4", "--hyperplane", "1,2"),
         "the paving family takes no --s"),
    ], ids=["panhandle-hyperplane", "hypersimplex-s", "paving-s"])
    def test_flag_the_family_does_not_take_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, "oracle", "count", *argv, "--t", "2")
        assert code == 2 and out == ""
        assert err == f"panehr: error: {message}\n"

    def test_missing_dilation(self, capsys):
        code, _, err = run(capsys, "oracle", "count", "panhandle", "--r", "1",
                           "--s", "1", "--n", "2")
        assert code == 2 and "--t" in err


def _invoke(capsys, parse, argv):
    """Exit code, stdout and stderr of one CLI call through parse."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_parser_main(argv):
    args = build_parser.__wrapped__().parse_args(argv)
    return args.func(args)


def _python(*argv):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_python_m_panehr_runs_main(capsys):
    argv = ["enumerate", "forests", "--q", "0", "--s", "3", "--k", "2"]
    assert _python("-m", "panehr", *argv).stdout == _invoke(capsys, main, argv)[1]


class TestOneParser:
    """main reuses one parser per process; no call may leak into the next."""

    SEQUENCE = (
        ["compute", "paving", "--r", "3", "--n", "6", "--hyperplane-sizes", "3", "3",
         "--json", "--no-cache"],
        ["compute", "paving", "--r", "3", "--n", "6", "--json", "--no-cache"],
        ["oracle", "count", "paving", "--r", "2", "--n", "4", "--t", "2",
         "--hyperplane", "1,2,3"],
        ["oracle", "count", "paving", "--r", "2", "--n", "4", "--t", "2",
         "--hyperplane", "1,2,3"],
        ["compute", "nosuch", "--r", "1"],
        ["compute", "panhandle", "--r", "1", "--s", "1", "--n", "2", "--no-cache"],
        ["verify", "identity-lah", "--max-s", "2", "--max-q", "1", "--no-color"],
        ["compute", "panhandle", "--r", "2", "--s", "3", "--n", "5", "--json",
         "--no-cache"],
    )

    def test_repeated_calls_match_a_fresh_parser(self, capsys):
        codes = []
        for argv in self.SEQUENCE:
            code, out, err = _invoke(capsys, main, argv)
            fresh = _invoke(capsys, _fresh_parser_main, argv)
            assert (code, out) == fresh[:2], argv
            if code == 2:  # argparse's usage and error text
                assert err == fresh[2] and "invalid choice" in err
            codes.append(code)
        assert codes == [0, 0, 0, 0, 2, 0, 0, 0]

    def test_fifty_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        for _ in range(50):
            assert main(["cache", "stats", "--cache-dir", "/nonexistent"]) == 0
        capsys.readouterr()
        assert built.count("panehr") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["compute", "--help"]],
                             ids=["top", "compute"])
    def test_help_follows_columns_after_caching(self, capsys, monkeypatch, argv):
        main(["cache", "stats", "--cache-dir", "/nonexistent"])
        capsys.readouterr()
        texts = {}
        for columns in ("40", "160"):
            monkeypatch.setenv("COLUMNS", columns)
            code, texts[columns], _ = _invoke(capsys, main, argv)
            assert code == 0
            assert texts[columns] == _invoke(capsys, _fresh_parser_main, argv)[1]
        assert texts["40"] != texts["160"]
        assert len(texts["40"].splitlines()) > len(texts["160"].splitlines())


# spellings the direct reader leaves to argparse where an option or an
# integer stands: an abbreviation, "=", help, "--", a sign, "_", a
# non-ASCII digit, a negative number, ""
TRICKY = ("--r=3", "--hyper", "-h", "--", "+3", "1_0", "\uff13", "-3", "")


def _compute_argvs():
    """compute argvs of well-formed option chunks mixed with tricky tokens,
    repeated options and stray integers."""
    number = st.integers(0, 20).map(str)
    values = {"int": st.lists(number, min_size=1, max_size=1),
              "ints": st.lists(number, min_size=1, max_size=3),
              "path": st.sampled_from((["D"], ["a b"], ["compute"], ["+3"])),
              "flag": st.just([])}
    chunk = st.one_of(
        *(values[option.kind].map(lambda tail, flag=option.flag: [flag, *tail])
          for option in COMPUTE_OPTIONS),
        st.tuples(st.sampled_from([option.flag for option in COMPUTE_OPTIONS]),
                  st.sampled_from(TRICKY + ("3",))).map(list),
        st.sampled_from(TRICKY + ("3",)).map(lambda token: [token]))
    family = st.sampled_from(tuple(FAMILIES) + ("nosuch",))
    return st.tuples(family, st.lists(chunk, max_size=6)).map(
        lambda drawn: ["compute", drawn[0], *(token for part in drawn[1] for token in part)])


class TestDirectReader:
    """main reads a canonical compute argv itself; argparse reads the rest."""

    @settings(max_examples=300, deadline=None)
    @given(_compute_argvs())
    @example(["compute", "paving", "--r", "2", "--n", "4", "--hyperplane-sizes", "3", "3",
              "--json", "--cache-dir", "D", "--no-cache", "--no-color"])
    @example(["compute", "psi", "--n", "007", "--s", "0", "--r", "12"])
    def test_an_accepted_argv_reads_as_argparse_reads_it(self, argv):
        read = _read_compute(argv)
        flags = {option.flag for option in COMPUTE_OPTIONS}
        if any(not token or token.startswith("-") and token not in flags for token in argv):
            assert read is None
        if read is not None:
            assert vars(read) == vars(build_parser.__wrapped__().parse_args(argv))

    def test_the_compute_grid_takes_the_direct_path(self):
        for argv in compute_grid_argvs():
            argv += ["--json", "--cache-dir", "D"]
            read = _read_compute(argv)
            assert read is not None, argv
            assert vars(read) == vars(build_parser().parse_args(argv))

    BASE = ["compute", "panhandle", "--r", "1", "--s", "1", "--n", "2"]

    @pytest.mark.parametrize("argv", [
        ["compute", "panhandle", "--r=1", "--s", "1", "--n", "2", "--no-cache"],
        BASE + ["--no-cach"],
        ["compute", "paving", "--r", "2", "--n", "4", "--hyper", "3", "--no-cache"],
        ["compute", "-h"],
        BASE + ["--help"],
        ["--version"],
        ["compute", "panhandle", "--r", "1", "--", "--s", "1", "--n", "2"],
        ["compute", "panhandle", "--r", "+1", "--s", "1", "--n", "2", "--no-cache"],
        ["compute", "panhandle", "--r", "1_0", "--s", "1", "--n", "2", "--no-cache"],
        ["compute", "panhandle", "--r", "\uff11", "--s", "1", "--n", "2", "--no-cache"],
        ["compute", "panhandle", "--r", "-1", "--s", "1", "--n", "2", "--no-cache"],
        BASE + ["--cache-dir", "", "--no-cache"],
        BASE + ["--cache-dir", "-d", "--no-cache"],
        BASE + ["--cache-dir"],
        BASE + ["--no-cache", "--json", "--json"],
        BASE + ["--no-cache", "3"],
        ["compute", "--r", "1", "--s", "1", "--n", "2", "--no-cache", "panhandle"],
        ["compute", "paving", "--r", "2", "--n", "4", "--hyperplane-sizes", "--no-cache"],
        ["compute", "panhandle", "--r", "1", "--s", "1", "--n"],
        ["compute", "nosuch", "--r", "1"],
        ["compute"],
        ["cache", "stats", "--cache-dir", "/nonexistent"],
    ])
    def test_a_declined_argv_behaves_as_argparse_has_it(self, capsys, argv):
        assert _read_compute(argv) is None
        assert _invoke(capsys, main, argv) == _invoke(capsys, _fresh_parser_main, argv)

    def test_an_integer_too_long_for_int_exits_as_argparse_has_it(self, capsys):
        # int() refuses more digits than sys.get_int_max_str_digits()
        argv = ["compute", "panhandle", "--r", "1" * 5000, "--s", "1", "--n", "2",
                "--no-cache"]
        assert _invoke(capsys, main, argv) == _invoke(capsys, _fresh_parser_main, argv)

    def test_a_fresh_canonical_compute_builds_no_parser(self, tmp_path):
        script = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counting_init(parser, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(parser, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import panehr.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = panehr.cli.main()
print(json.dumps([built, code, out.getvalue()]))
"""
        tail = ["--json", "--cache-dir", str(tmp_path)]
        canonical = ["compute", "psi", "--r", "2", "--s", "4", "--n", "7", *tail]
        spelled = ["compute", "psi", "--r=2", "--s", "4", "--n", "7", *tail]
        built, code, out = json.loads(_python("-c", script, *canonical).stdout)
        assert (built, code) == ([], 0)
        built, code, spelled_out = json.loads(_python("-c", script, *spelled).stdout)
        assert code == 0 and spelled_out == out
        assert built.count("panehr") == 1


def test_import_builds_no_parser():
    script = """
import argparse, json
built = []
init = argparse.ArgumentParser.__init__
def counting_init(parser, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(parser, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import panehr, panehr.cli
print(json.dumps(built))
"""
    assert json.loads(_python("-c", script).stdout) == []


def test_import_loads_no_pool_or_dataclass_machinery():
    script = """
import json, sys
before = set(sys.modules)
import panehr, panehr.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    added = set(json.loads(_python("-c", script).stdout))
    assert "panehr.cli" in added
    assert not added & {"concurrent.futures", "multiprocessing", "dataclasses", "inspect"}


def test_compute_loads_no_forests_or_processing():
    # the package resolves its names on first access, and only enumerate,
    # verify and the campaign runners load the chain-forest modules
    script = """
import contextlib, io, json, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith("panehr."))
import panehr
alone = loaded()
import panehr.cli
imported = loaded()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = panehr.cli.main(["compute", "panhandle", "--r", "1", "--s", "1",
                            "--n", "2", "--no-cache"])
print(json.dumps([alone, imported, code, out.getvalue(), loaded()]))
"""
    alone, imported, code, out, computed = json.loads(_python("-c", script).stdout)
    assert alone == []
    assert "panehr.cli" in imported
    assert (code, out) == (0, "t + 1\n")
    for modules in (imported, computed):
        assert not {"panehr.forests", "panehr.processing"} & set(modules)


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["compute", "panhandle", "--r", "2", "--s", "3", "--n", "5", "--json",
            "--no-cache"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert _python("-m", "panehr.cli", *argv).stdout == out


@pytest.mark.parametrize("argv", [
    ["verify", "identity-lah", "--max-s", "2", "--max-q", "1"],
    ["enumerate", "forests", "--q", "0", "--s", "3", "--k", "2"],
    ["oracle", "count", "panhandle", "--r", "1", "--s", "1", "--n", "2", "--t", "2"],
], ids=["verify", "enumerate", "oracle-count"])
@pytest.mark.parametrize("flag", [["--cache-dir", "."], ["--no-cache"]],
                         ids=["cache-dir", "no-cache"])
def test_cache_flags_rejected_where_the_cache_is_not_read(capsys, argv, flag):
    code, out, err = _invoke(capsys, main, argv + flag)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag[0]}" in err


def test_cache_command_takes_no_no_cache(capsys, tmp_path):
    code, out, err = _invoke(capsys, main, ["cache", "stats", "--cache-dir",
                                            str(tmp_path), "--no-cache"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --no-cache" in err
