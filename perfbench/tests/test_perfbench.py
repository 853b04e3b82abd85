"""Tests of the benchmark's own logic: percentiles, span self time, the
paving-family generator, and failure accounting.

    python3 -m pytest perfbench/tests
"""

import json
import math
import random
import sys
import types
from itertools import combinations
from pathlib import Path

import pytest

import families
import layers
import run
import spans
import speed
import stats
import workloads

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ----------------------------------------------------------

def test_nearest_rank_percentiles():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.samples_beyond(100, 90) == 10


@pytest.mark.parametrize("n, expected", [
    (10, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (10000, 99.9)])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected


def test_tail_percentile_refuses_thin_tails():
    assert stats.tail_percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(99)), 90)


def test_relative_spread():
    assert stats.relative_spread([1.0] * 10) == 0
    assert stats.relative_spread([8, 9, 10, 11, 12]) == pytest.approx(3 / 10)


# -- spans --------------------------------------------------------------------

@pytest.fixture
def fake_clock(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))


def test_self_time_subtracts_direct_children(fake_clock):
    tracer = spans.Tracer()
    with tracer.span("outer"):          # opens at 0
        with tracer.span("inner"):      # 1 .. 2
            pass
        with tracer.span("inner"):      # 3 .. 6
            with tracer.span("leaf"):   # 4 .. 5
                pass
    summary = tracer.summary()          # outer closes at 7
    assert summary["outer"]["total_s"] == 7
    assert summary["outer"]["self_s"] == 7 - 1 - 3
    assert summary["inner"] == {"calls": 2, "total_s": 4, "self_s": 3, "max_s": 3}
    assert summary["leaf"]["self_s"] == 1


def test_generator_spans_count_objects(fake_clock):
    tracer = spans.Tracer()
    gen = tracer.wrap_generator(lambda k: iter(range(k)), "gen")
    with tracer.span("outer"):
        assert list(gen(3)) == [0, 1, 2]
    assert tracer.counters["gen.objects"] == 3
    assert tracer.summary()["gen"]["calls"] == 4  # three items and the stop


def test_patch_reaches_every_from_import_and_restores():
    def f(x):
        return x + 1

    class Holder:
        method = f

    a = types.ModuleType("fakepkg")
    b = types.ModuleType("fakepkg.user")
    a.f, b.f, b.alias = f, f, f
    Holder.__module__ = "fakepkg.user"
    b.Holder = Holder
    sys.modules.update({"fakepkg": a, "fakepkg.user": b})
    try:
        tracer = spans.Tracer()
        wrapped = tracer.wrap(f, "f")
        assert tracer.patch(f, wrapped, package="fakepkg") == 4
        assert a.f is b.f is b.alias is Holder.method is wrapped
        assert b.alias(1) == 2 and tracer.summary()["f"]["calls"] == 1
        tracer.restore()
        assert a.f is b.f is b.alias is Holder.method is f
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.user"]


def test_layer_trace_wraps_panehr_from_imports():
    from panehr import forests, processing
    original = forests.check_distinguished
    trace = layers.LayerTrace()
    trace.install()
    try:
        assert processing.check_distinguished is forests.check_distinguished
        assert processing.check_distinguished is not original
        d = next(forests.iter_dcf(1, 2))
        processing.phi(d)
        metrics = trace.metrics()
    finally:
        trace.restore()
    assert processing.check_distinguished is original
    assert metrics["processing.phi.calls"] == 1
    assert metrics["forests.check_distinguished.calls"] == 1
    assert metrics["forests.iter_dcf.objects"] == 1
    assert metrics["processing.phi_per_object"] == 1
    assert set(metrics) == set(layers.METRICS) - {"trace.overhead_frac"}


# -- speed correction ---------------------------------------------------------

def test_timeline_cuts_segments_between_requests(monkeypatch):
    # start; tick's check, cut and restart; close's cut and restart
    ticks = iter([0.0, 1.0, 1.0, 1.0, 3.0, 3.0])
    monkeypatch.setattr(speed, "_clock", lambda: next(ticks))
    monkeypatch.setattr(speed, "PROBE_EVERY_S", 0.5)
    timeline = speed.Timeline(probe_fn=lambda: speed.REFERENCE_PROBE_S)
    assert timeline.current == 0
    timeline.tick()
    assert timeline.current == 1
    timeline.close()
    assert timeline.segments == [(0.0, 1.0), (1.0, 3.0)]
    assert len(timeline.probes) == 3
    assert timeline.raw_wall() == timeline.wall() == 3.0


def test_timeline_scales_by_nearby_probes_and_ignores_one_glitch():
    ref = speed.REFERENCE_PROBE_S
    timeline = speed.Timeline(probe_fn=lambda: ref)
    timeline.segments = [(0.0, 1.0)] * 5
    timeline.probes = [ref, ref, 5 * ref, ref, 2 * ref, 2 * ref]
    # the glitch at probe 2 is outvoted; segment 2 straddles the change
    assert [timeline.factor(i) for i in range(5)] == pytest.approx([1, 1, 2 / 3, 0.5, 0.5])
    assert timeline.wall() == pytest.approx(1 + 1 + 2 / 3 + 0.5 + 0.5)
    assert timeline.raw_wall() == 5.0


def test_probe_is_short_and_positive():
    assert 0 < speed.probe() < 1


# -- paving families ----------------------------------------------------------

def test_check_family_enforces_the_axioms():
    families.check_family(6, 3, [frozenset({1, 2, 3}), frozenset({3, 4, 5})])
    with pytest.raises(ValueError):   # meet in 2 > r-2 elements
        families.check_family(6, 3, [frozenset({1, 2, 3, 4}), frozenset({3, 4, 5, 6})])
    with pytest.raises(ValueError):   # smaller than r
        families.check_family(6, 3, [frozenset({1, 2})])
    with pytest.raises(ValueError):   # not a proper subset of [n]
        families.check_family(4, 2, [frozenset({1, 2, 3, 4})])


@pytest.mark.parametrize("seed", range(20))
def test_generated_families_are_valid_and_reproducible(seed):
    drawn = families.generate(f"test:{seed}", workloads.CERTIFY_PLAN)
    assert drawn == families.generate(f"test:{seed}", workloads.CERTIFY_PLAN)
    for fam, (n, r, count) in zip(drawn, workloads.CERTIFY_PLAN):
        assert (fam.n, fam.r, len(fam.hyperplanes)) == (n, r, count)
        assert all(r <= len(h) <= min(r + families.SIZE_SPREAD, n - 1)
                   for h in fam.hyperplanes)
        families.check_family(n, r, fam.hyperplanes)


def test_tight_strata_never_run_out_of_redraws():
    # three hyperplanes at (6, 3) fit only when all have size 3
    for seed in range(300):
        families.draw_family(random.Random(seed), 6, 3, 3)


def test_basis_count_matches_brute_force():
    fam = families.generate("bases", [(7, 3, 3)])[0]
    brute = sum(1 for b in combinations(range(1, 8), 3)
                if not any(set(b) <= h for h in fam.hyperplanes))
    assert workloads.basis_count(fam) == brute


def test_infeasible_family_request_is_refused():
    with pytest.raises(ValueError):
        families.draw_family(random.Random(0), 4, 1, 2)


# -- failures count and are never timed as successes --------------------------

def steady_timeline():
    return speed.Timeline(probe_fn=lambda: speed.REFERENCE_PROBE_S)


def test_wrong_result_counts_as_failure_with_infinite_latency():
    rep = workloads.Rep(steady_timeline())
    rep.request("cold", "wrong", lambda: 41, lambda v: "" if v == 42 else f"got {v}")
    rep.request("cold", "right", lambda: 42, lambda v: "" if v == 42 else f"got {v}")
    rep.request("warm", "division", lambda: 1 / 0, lambda v: "")
    latency = rep.finish()["latency_ms"]
    assert (rep.attempted, rep.failed) == (3, 2)
    assert latency["cold"]["wrong"] == [math.inf]
    assert math.isfinite(latency["cold"]["right"][0])
    assert latency["warm"] == {"division": [math.inf]}
    assert "got 41" in rep.failures[0] and "ZeroDivisionError" in rep.failures[1]


def test_request_latency_is_its_median_unless_it_ever_failed():
    reps = [{"latency_ms": {"cold": {"a": [1.0], "b": [5.0]}}},
            {"latency_ms": {"cold": {"a": [3.0, 2.0], "b": [math.inf]}}}]
    assert sorted(run.request_latencies(reps, "cold")) == [2.0, math.inf]


def test_failed_requests_push_percentiles_up():
    keys = [f"r{i}" for i in range(100)]
    fast = {"setup_s": 1, "wall_s": 1, "peak_rss_mb": 1,
            "latency_ms": {p: {k: [1.0] for k in keys} for p in ("cold", "warm")}}
    broken = json.loads(json.dumps(fast))
    for k in keys[:11]:
        broken["latency_ms"]["cold"][k] = [math.inf]
    assert run.end_to_end([fast])["cold_p90_ms"] == 1.0
    assert run.end_to_end([broken])["cold_p90_ms"] == math.inf
    assert run.end_to_end([broken])["warm_p90_ms"] == 1.0


def test_wrong_polynomials_are_caught():
    expected = workloads.compute_expected("panhandle", {"r": 1, "s": 1, "n": 2})
    assert workloads.compute_problem('["1","1"]', expected) == ""
    assert workloads.compute_problem('["1","2"]', expected) != ""
    assert workloads.compute_problem("t + 1", expected) != ""
    fam = families.Family(4, 2, (frozenset({1, 2}),))
    good = workloads.certify_family(fam)
    assert workloads.certify_problem(fam, good) == ""
    counted, formula, at_one = good
    assert workloads.certify_problem(fam, (counted, ["1", "13/6", "3/2", "1/2"], at_one)) != ""
    assert workloads.certify_problem(fam, (counted, formula, at_one + 1)) != ""


# -- the benchmark description ------------------------------------------------

def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
