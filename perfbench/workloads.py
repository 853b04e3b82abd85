"""The three benchmark workloads and their exactness gates.

Every workload is a list of requests served twice in one fresh process,
one request at a time (closed loop, a single client): a cold pass with
empty in-process memos and an empty result cache, then a warm pass over
the same requests.  Each request is timed on its own, under a key that
names it, and its time is corrected for the host's speed (speed.py).  Its
result is checked outside the timed call, and a request whose result is
wrong or that raised counts as a failure with infinite latency, so a
wrong answer can never make a number look faster.

compute    `panehr compute ... --json` through `panehr.cli.main` for a fixed
           grid at n = 12: what a user of the tool waits for.  Cold requests
           spend their time in ehrhart/exactmath and cache.store; warm ones
           are answered by cache.load.
enumerate  one request per campaign work unit of the identity, per-term,
           phi and involution campaigns (101 units): the combinatorial ground truth,
           all forests/processing/campaigns with integer arithmetic.
certify    seeded valid paving families: lattice counts at t = 0..n,
           interpolation, and comparison with ehr_paving.  The counting
           DP of the oracle layer dominates and runs nowhere else.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

from panehr import campaigns, cli, ehrhart, oracle, poly_to_json

import families
import speed

PASSES = ("cold", "warm")
_clock = time.perf_counter


class Rep:
    """Latencies and check counts of one repetition.

    Latencies are kept per request key, raw and with the index of the
    speed.Timeline segment they fell in, and scaled by `finish`."""

    def __init__(self, timeline: speed.Timeline) -> None:
        self.timeline = timeline
        self._raw: dict[str, list[tuple[str, float, int]]] = {p: [] for p in PASSES}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
        return ok

    def request(self, pass_name: str, key: str, fn, validate):
        """Time fn(); validate(result) returns "" or what is wrong with it.

        A wrong or raising request is recorded with infinite latency."""
        start = _clock()
        try:
            result = fn()
        except Exception as exc:  # a request that raises is a failed request
            result, problem = None, f"raised {exc!r}"
        else:
            problem = ""
        elapsed = _clock() - start
        segment = self.timeline.current
        if not problem:
            problem = validate(result)
        ok = self.check(not problem, f"{pass_name} {key}: {problem}")
        self._raw[pass_name].append((key, elapsed * 1000 if ok else math.inf, segment))
        self.timeline.tick()
        return result

    def finish(self) -> dict[str, dict[str, dict[str, list[float]]]]:
        """Close the timeline; per pass, request key -> latencies in
        reference ms ("latency_ms") and in raw ms ("raw_latency_ms")."""
        self.timeline.close()
        out: dict = {"latency_ms": {}, "raw_latency_ms": {}}
        for p, rows in self._raw.items():
            scaled: dict[str, list[float]] = {}
            raw: dict[str, list[float]] = {}
            for key, ms, segment in rows:
                scaled.setdefault(key, []).append(ms * self.timeline.factor(segment))
                raw.setdefault(key, []).append(ms)
            out["latency_ms"][p], out["raw_latency_ms"][p] = scaled, raw
        return out


def _eval(coeffs: list[str], t: int) -> Fraction:
    return sum(Fraction(c) * t ** d for d, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# compute

COMPUTE_N = 12


def compute_grid(n: int = COMPUTE_N) -> list[tuple[str, dict]]:
    """panhandle and psi for every 1 <= r <= s <= n-1, then hypersimplex
    and a three-hyperplane paving request for every r."""
    grid = [(family, {"r": r, "s": s, "n": n})
            for family in ("panhandle", "psi")
            for s in range(1, n) for r in range(1, s + 1)]
    grid += [("hypersimplex", {"r": r, "n": n}) for r in range(1, n)]
    grid += [("paving", {"r": r, "n": n,
                         "sizes": [min(r + j, n - 1) for j in range(3)]})
             for r in range(1, n)]
    return grid


def compute_argv(family: str, params: dict, cache_dir: Path) -> list[str]:
    argv = ["compute", family, "--json", "--cache-dir", str(cache_dir)]
    for key in ("r", "s", "n"):
        if key in params:
            argv += [f"--{key}", str(params[key])]
    if "sizes" in params:
        argv += ["--hyperplane-sizes", *map(str, params["sizes"])]
    return argv


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def compute_expected(family: str, params: dict) -> dict[int, int]:
    """Values at small t that the compute answer must reproduce: the basis
    count at t = 1 and, for panhandles, the lattice count at t = 2."""
    r, n = params["r"], params["n"]
    if family == "hypersimplex":
        return {1: comb(n, r)}
    if family == "panhandle":
        s = params["s"]
        return {1: comb(s, r) + (n - s) * comb(s, r - 1),
                2: oracle.count_points_panhandle(r, s, n, 2)}
    return {}


def compute_problem(output: str, expected: dict[int, int]) -> str:
    try:
        coeffs = json.loads(output)
    except ValueError:
        return f"unparsable output {output!r}"
    if not isinstance(coeffs, list) or not coeffs:
        return f"not a coefficient list: {output!r}"
    for t, value in expected.items():
        if _eval(coeffs, t) != value:
            return f"value {_eval(coeffs, t)} at t={t}, expected {value}"
    return ""


class Compute:
    name = "compute"

    def __init__(self, seed: int, batch: int, workdir: Path) -> None:
        self.cache_dir = workdir / "cache"
        self.requests = [(f"{family} {params}", compute_argv(family, params, self.cache_dir),
                          family, params)
                         for family, params in compute_grid()]

    def run(self, rep: Rep, span) -> None:
        cold: dict[str, str] = {}
        for pass_name in PASSES:
            for what, argv, family, params in self.requests:
                def validate(result, what=what, family=family, params=params):
                    code, output = result
                    if code != 0:
                        return f"exit code {code}"
                    if pass_name == "cold":
                        cold[what] = output
                        return compute_problem(output, compute_expected(family, params))
                    return "" if output == cold.get(what) else "warm output differs from cold"
                rep.request(pass_name, what, lambda argv=argv: run_cli(argv), validate)
        rep.check(str(ehrhart.ehr_panhandle(1, 1, 2)) == "t + 1",
                  "ehr_panhandle(1,1,2) != t + 1")
        rep.check(poly_to_json(ehrhart.ehr_paving(2, 4, [2])) == ["1", "13/6", "3/2", "1/3"],
                  "ehr_paving(2,4,[2]) != [1, 13/6, 3/2, 1/3]")


# ---------------------------------------------------------------------------
# enumerate

# Campaigns at their defaults, except phi and involution at max_s=4 and
# max_q=6: at max_s=6, max_q=3 they take 10-13 s, too long for several
# fresh-process repetitions in one run.  The grid then runs to larger
# budgets q instead of larger s, and its 101 units are enough for a 90th
# percentile with ten units beyond it.
ENUMERATE_PLAN = (
    ("identity-main", {}),
    ("identity-lah", {}),
    ("identity-upper", {}),
    ("per-term", {}),
    ("phi", {"max_s": 4, "max_q": 6}),
    ("involution", {"max_s": 4, "max_q": 6}),
)


class Enumerate:
    name = "enumerate"

    def __init__(self, seed: int, batch: int, workdir: Path) -> None:
        self.units = []
        for name, bounds in ENUMERATE_PLAN:
            spec = campaigns.CAMPAIGNS[name]
            merged = {**dict(spec.defaults), **bounds}
            self.units += [(name, unit) for unit in spec.units(**merged)]

    def run(self, rep: Rep, span) -> None:
        cold: dict[int, list] = {}
        for pass_name in PASSES:
            for idx, (name, unit) in enumerate(self.units):
                def call(name=name, unit=unit):
                    with span("campaigns.unit"):
                        return campaigns.CAMPAIGNS[name].runner(**unit)

                def validate(rows, idx=idx):
                    bad = [row for row in rows if not row.ok]
                    if bad:
                        return f"{len(bad)} failing rows, first: {bad[0].describe()}"
                    if pass_name == "cold":
                        cold[idx] = rows
                    elif rows != cold.get(idx):
                        return "warm rows differ from cold"
                    return ""
                rep.request(pass_name, f"{name} {unit}", call, validate)


# ---------------------------------------------------------------------------
# certify

# (n, r, number of stressed hyperplanes) per family; each repetition draws
# a fresh batch.  Two hyperplanes at n = 8, or three at n >= 7, cost
# 0.1-1.6 s per family, and that cost varies two- to four-fold with the
# draw, so runs of such families read 8-15 % apart from seed to seed.
# These strata are cheap enough for several hundred families per run.
# Three hyperplanes are covered at n = 6, whose cost varies little.  The
# counts put the median inside the (8, 4, 1) stratum and the 90th
# percentile inside the (6, 3, 3) one, not on a boundary between strata.
CERTIFY_PLAN = ((7, 3, 1),) * 3 + ((8, 3, 1), (8, 4, 1), (6, 3, 3)) * 4 + ((7, 3, 2),) * 2


def basis_count(fam: families.Family) -> int:
    """Bases of the paving matroid: the r-subsets inside no stressed
    hyperplane (each r-subset lies in at most one)."""
    return comb(fam.n, fam.r) - sum(comb(len(h), fam.r) for h in fam.hyperplanes)


def certify_family(fam: families.Family) -> tuple[list[str], list[str], int]:
    """Interpolated lattice counts, the closed form, and the count at t=1."""
    counts = [oracle.count_points_paving(fam.r, fam.n, fam.hyperplanes, t)
              for t in range(fam.n + 1)]
    counted = oracle.interpolate(list(enumerate(counts)), fam.n - 1)
    formula = ehrhart.ehr_paving(fam.r, fam.n, fam.sizes)
    return poly_to_json(counted), poly_to_json(formula), counts[1]


def certify_problem(fam: families.Family, result) -> str:
    counted, formula, at_one = result
    if counted != formula:
        return f"lattice counts give {counted}, ehr_paving gives {formula}"
    if at_one != basis_count(fam):
        return f"{at_one} points at t=1, expected {basis_count(fam)} bases"
    return ""


class Certify:
    name = "certify"

    def __init__(self, seed: int, batch: int, workdir: Path) -> None:
        self.batch = batch
        self.families = families.generate(f"certify:{seed}:{batch}", CERTIFY_PLAN)

    def run(self, rep: Rep, span) -> None:
        # Each draw is its own request, also when an earlier batch drew
        # the same family, so every batch weighs the strata alike.
        for pass_name in PASSES:
            for i, fam in enumerate(self.families):
                rep.request(pass_name, f"{self.batch}.{i} {fam.describe()}",
                            lambda fam=fam: certify_family(fam),
                            lambda result, fam=fam: certify_problem(fam, result))


WORKLOADS = {w.name: w for w in (Compute, Enumerate, Certify)}
