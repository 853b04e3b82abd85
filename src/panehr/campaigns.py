"""Verification campaigns: sweep drivers comparing enumeration to formulas.

Each campaign walks a parameter grid, compares an exhaustively enumerated
quantity against its closed form (or a lattice-point count against a
polynomial), and emits one Row per checked tuple.  Campaigns are pure
functions of their bounds, so they can fan out over work units in worker
processes and still produce deterministic, ordered output.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterator

from . import ehrhart, forests, oracle, processing
from .exactmath import Polynomial, binomial, poly_leq


@dataclass(frozen=True)
class Row:
    """Verdict for one checked tuple."""

    params: tuple[tuple[str, str], ...]
    ok: bool
    expected: str
    actual: str

    def describe(self) -> str:
        ptxt = " ".join(f"{k}={v}" for k, v in self.params)
        status = "ok" if self.ok else "FAIL"
        return f"{status} {ptxt} expected={self.expected} actual={self.actual}"


@dataclass(frozen=True)
class SweepReport:
    """Aggregated outcome of one campaign run.

    A campaign passes iff every per-tuple verdict passes.
    """

    campaign: str
    bounds: tuple[tuple[str, int], ...]
    rows: tuple[Row, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def failures(self) -> tuple[Row, ...]:
        return tuple(r for r in self.rows if not r.ok)


def _row(params: dict, expected, actual) -> Row:
    return Row(tuple((k, str(v)) for k, v in params.items()),
               expected == actual, str(expected), str(actual))


def _bool_row(params: dict, ok: bool, expected: str, actual: str) -> Row:
    return Row(tuple((k, str(v)) for k, v in params.items()), ok, expected, actual)


# ---------------------------------------------------------------------------
# units per campaign; each unit is a picklable (name, kwargs) task


def units_by_s(max_s: int, max_q: int) -> list[dict]:
    """One unit per s, each sweeping q up to max_q."""
    return [{"s": s, "max_q": max_q} for s in range(1, max_s + 1)]


def units_by_sq(max_s: int, max_q: int) -> list[dict]:
    """One unit per (s, q) cell."""
    return [{"s": s, "q": q} for s in range(1, max_s + 1)
            for q in range(max_q + 1)]


def _classes(s: int) -> Iterator[tuple[int, int, int]]:
    """Every class (k, ell, m) of the forests of [s]: 1 <= m <= k <= s and
    0 <= ell <= s-1, in grid order."""
    for k in range(1, s + 1):
        for ell in range(s):
            for m in range(1, k + 1):
                yield k, ell, m


def run_identity_main(s: int, max_q: int) -> list[Row]:
    _, refined = forests.cf_census(s)
    rows = []
    for q in range(max_q + 1):
        for k, ell, m in _classes(s):
            counted = refined.get((q, k, ell, m), 0)
            formula = forests.cf_refined_formula(q, s, k, ell, m)
            rows.append(_row({"s": s, "q": q, "k": k, "ell": ell, "m": m},
                             counted, formula))
    return rows


def run_identity_lah(s: int, max_q: int) -> list[Row]:
    totals, refined = forests.cf_census(s)
    rows = []
    for q in range(max_q + 1):
        for k in range(1, s + 1):
            counted = totals.get((q, k), 0)
            formula = forests.cf_count_formula(q, s, k)
            rows.append(_row({"s": s, "q": q, "k": k, "check": "total"},
                             counted, formula))
            for ell in range(s):
                marginal = sum(refined.get((q, k, ell, m), 0)
                               for m in range(1, k + 1))
                rows.append(_row(
                    {"s": s, "q": q, "k": k, "ell": ell, "check": "marginal"},
                    counted, marginal))
    return rows


def run_identity_upper(s: int, max_q: int) -> list[Row]:
    census = forests.cf1_census(s + 1)
    rows = []
    for q in range(max_q + 1):
        for k, ell, m in _classes(s):
            counted = census.get((q + 1, k + 1, ell, m + 1), 0)
            formula = ehrhart.upper_expression(q, s, k, ell, m)
            params = {"s": s, "q": q, "k": k, "ell": ell, "m": m}
            rows.append(_row(params, counted, formula))
            rows.append(_bool_row({**params, "check": "nonnegative"},
                                  formula >= 0, ">=0", str(formula)))
    return rows


def run_per_term(s: int, q: int) -> list[Row]:
    rows = []
    # the leader-1 census of [s+1] keys each class one step up in i, k and m
    for side, census, up, term in (
            ("plain", forests.dcf_signed_census(q, s), 0, forests.dcf_term_formula),
            ("leader1", forests.dcf1_signed_census(q + 1, s + 1), 1,
             forests.upper_term_formula)):
        for k, ell, m in _classes(s):
            for i in range(q + 1):
                counted = census.get((i + up, k + up, ell, m + up), 0)
                formula = term(q, s, k, ell, m, i)
                rows.append(_row(
                    {"s": s, "q": q, "k": k, "ell": ell, "m": m, "i": i, "side": side},
                    counted, formula))
    return rows


def run_phi(s: int, q: int) -> list[Row]:
    """Bijectivity and image battery for one (s, q) cell.

    Applies the processing map to every distinguished forest, requiring
    injectivity, exact round trips, image membership, preservation of the
    block length sequence and the A part, and that the constructively
    enumerated image candidates are hit exactly.
    """
    rows = []
    images: dict = {}
    count = 0
    problems = []
    for d in forests.iter_dcf(q, s):
        count += 1
        img = processing.phi(d)
        if img in images:
            problems.append(f"collision: {forests.format_distinguished(d)} and "
                            f"{forests.format_distinguished(images[img])}")
            continue
        images[img] = d
        if tuple(map(len, img.blocks)) != tuple(map(len, d.blocks)):
            problems.append(f"length sequence changed: {forests.format_distinguished(d)}")
        if img.aset != d.aset:
            problems.append(f"A changed: {forests.format_distinguished(d)}")
        try:
            back = processing.phi_inverse(img, q)
        except ValueError as exc:
            problems.append(f"image rejected: {forests.format_distinguished(img)}: {exc}")
            continue
        if back != d:
            problems.append(f"round trip failed: {forests.format_distinguished(d)}")
    rows.append(_bool_row({"s": s, "q": q, "check": "bijection"},
                          not problems,
                          f"{count} forests map injectively and round-trip",
                          problems[0] if problems else f"{count} verified"))
    candidates = set(processing.enumerate_image_candidates(q, s))
    mismatch = candidates.symmetric_difference(images.keys())
    sample = forests.format_distinguished(next(iter(mismatch))) if mismatch else ""
    rows.append(_bool_row({"s": s, "q": q, "check": "image-complete"},
                          not mismatch,
                          f"{len(candidates)} accepted candidates all hit",
                          f"{len(images)} images, diff {len(mismatch)} {sample}"))
    return rows


def _first_mismatch(s: int, lhs: Callable, rhs: Callable) -> str:
    """The first class (k, ell, m) of [s] where the two tallies differ,
    described; empty when they agree on every class."""
    for cls in _classes(s):
        left, right = lhs(cls), rhs(cls)
        if left != right:
            k, ell, m = cls
            return f"class k={k} ell={ell} m={m}: {left} != {right}"
    return ""


def run_involution(s: int, q: int) -> list[Row]:
    """Sign cancellation battery for one (s, q) cell.

    Splits the distinguished forests into the minus side, the plus side,
    and the plain-forest representatives, maps the minus side through the
    sign-reversing map, and checks injectivity, class preservation, and
    per-class cardinality matches, which together force the alternating
    sum to collapse onto the plain count.
    """
    minus: list = []
    plus_count: dict = {}
    minus_count: dict = {}
    plain_count: dict = {}
    classes: dict = {}
    for d in forests.iter_dcf(q, s):
        if processing.negative_side(d):
            minus.append(d)
            side = minus_count
        elif processing.positive_side(d):
            side = plus_count
        else:
            side = plain_count
        classes[d] = (len(d.blocks), forests.tally_gamma(side, (), d.blocks))
    problems = []
    seen = set()
    for d in minus:
        try:
            y = processing.involution_f(d)
            on_plus = y not in seen and processing.positive_side(y)
        except ValueError as exc:
            problems.append(f"pairing failed at {forests.format_distinguished(d)}: {exc}")
            continue
        if y in seen:
            problems.append(f"not injective at {forests.format_distinguished(d)}")
            continue
        seen.add(y)
        if not on_plus:
            problems.append(f"image not on plus side: {forests.format_distinguished(y)}")
        if (len(y.blocks), forests.gamma_vector(y.blocks)) != classes[d]:
            problems.append(f"class changed at {forests.format_distinguished(d)}")
    rows = [_bool_row({"s": s, "q": q, "check": "injective-into-plus"},
                      not problems,
                      f"{len(minus)} minus-side elements pair off",
                      problems[0] if problems else f"{len(minus)} verified")]
    _, refined = forests.cf_census(s)
    detail = _first_mismatch(s, lambda c: minus_count.get(c, 0),
                             lambda c: plus_count.get(c, 0))
    rows.append(_bool_row({"s": s, "q": q, "check": "cancellation"},
                          not detail, "per-class |minus| == |plus|",
                          detail or "balanced"))
    detail = _first_mismatch(s, lambda c: plain_count.get(c, 0),
                             lambda c: refined.get((q, *c), 0))
    rows.append(_bool_row({"s": s, "q": q, "check": "plain-residue"},
                          not detail, "plain representatives count the forests",
                          detail or "matched"))
    signed = forests.dcf_signed_census(q, s)
    detail = _first_mismatch(
        s, lambda c: sum(signed.get((i, *c), 0) for i in range(q + 1)),
        lambda c: refined.get((q, *c), 0))
    rows.append(_bool_row({"s": s, "q": q, "check": "alternating-sum"},
                          not detail,
                          "signed sums collapse onto the forest count",
                          detail or "collapsed"))
    return rows


def units_ehrhart_oracle(max_n: int) -> list[dict]:
    return [{"r": r, "s": s, "n": n}
            for n in range(2, max_n + 1)
            for s in range(1, n)
            for r in range(1, s + 1)]


def run_ehrhart_oracle(r: int, s: int, n: int) -> list[Row]:
    samples = [(t, oracle.count_points_panhandle(r, s, n, t))
               for t in range(n + 1)]
    counted = oracle.interpolate(samples, n - 1)
    poly = ehrhart.ehr_panhandle(r, s, n)
    rows = [_row({"r": r, "s": s, "n": n, "check": "interpolation"},
                 poly, counted)]
    at_one = poly.evaluate(1)
    bases = binomial(s, r) + (n - s) * binomial(s, r - 1)
    rows.append(_row({"r": r, "s": s, "n": n, "check": "basis-count"},
                     bases, at_one))
    if s == n - 1:
        rows.append(_row({"r": r, "s": s, "n": n, "check": "uniform"},
                         ehrhart.ehr_hypersimplex(r, n), poly))
    return rows


def units_positivity(max_n: int) -> list[dict]:
    return [{"n": n} for n in range(2, max_n + 1)]


def run_positivity(n: int) -> list[Row]:
    rows = []
    zero = Polynomial()
    for s in range(1, n):
        for r in range(1, s + 1):
            params = {"r": r, "s": s, "n": n}
            rows.append(_bool_row({**params, "poly": "phi"},
                                  poly_leq(zero, ehrhart.phi_poly(r, s, n)),
                                  "coefficients >= 0",
                                  str(ehrhart.phi_poly(r, s, n))))
            rows.append(_bool_row({**params, "poly": "psi"},
                                  poly_leq(zero, ehrhart.psi_poly(r, s, n)),
                                  "coefficients >= 0",
                                  str(ehrhart.psi_poly(r, s, n))))
            ehr = ehrhart.ehr_panhandle(r, s, n)
            strict = all(c > 0 for c in ehr.coeffs)
            rows.append(_bool_row({**params, "poly": "ehr"},
                                  strict, "coefficients > 0", str(ehr)))
            rows.append(_bool_row({**params, "poly": "relaxation"},
                                  ehrhart.check_relaxation_positivity(r, s, n),
                                  "correction >= 0", "checked"))
    return rows


def units_bounds(max_n: int, max_paving_n: int) -> list[dict]:
    return ([{"kind": "sandwich", "n": n} for n in range(2, max_n + 1)]
            + [{"kind": "paving", "n": n} for n in range(2, max_paving_n + 1)]
            + [{"kind": "explicit", "n": 4}])


def run_bounds(kind: str, n: int) -> list[Row]:
    rows = []
    if kind == "sandwich":
        for s in range(1, n):
            for r in range(1, s + 1):
                params = {"r": r, "s": s, "n": n}
                lower = ehrhart.ehr_product_simplex(r, s, n)
                mid = ehrhart.ehr_panhandle(r, s, n)
                upper = ehrhart.ehr_hypersimplex(r, n)
                rows.append(_bool_row({**params, "check": "product<=panhandle"},
                                      poly_leq(lower, mid), str(lower), str(mid)))
                rows.append(_bool_row({**params, "check": "panhandle<=uniform"},
                                      poly_leq(mid, upper), str(mid), str(upper)))
    elif kind == "paving":
        for r in range(1, n):
            upper = ehrhart.ehr_hypersimplex(r, n)
            for count in range(0, 4):
                for sizes in combinations_with_replacement(range(r, n), count):
                    poly = ehrhart.ehr_paving(r, n, sizes)
                    rows.append(_bool_row(
                        {"r": r, "n": n, "sizes": "+".join(map(str, sizes)) or "none",
                         "check": "paving<=uniform"},
                        poly_leq(poly, upper), str(poly), str(upper)))
    elif kind == "explicit":
        poly = ehrhart.ehr_paving(2, 4, [2])
        for t in range(5):
            counted = oracle.count_points_paving(2, 4, [frozenset({1, 2})], t)
            rows.append(_row({"r": 2, "n": 4, "H": "{1,2}", "t": t},
                             counted, poly.evaluate(t)))
    else:
        raise ValueError(f"unknown bounds unit kind {kind!r}")
    return rows


# ---------------------------------------------------------------------------
# registry and runner


@dataclass(frozen=True)
class Campaign:
    name: str
    units: Callable
    runner: Callable
    defaults: tuple[tuple[str, int], ...]
    description: str


CAMPAIGNS: dict[str, Campaign] = {}


def _register(name, units, runner, defaults, description):
    CAMPAIGNS[name] = Campaign(name, units, runner, tuple(defaults.items()),
                               description)


_register("identity-main", units_by_s, run_identity_main,
          {"max_s": 7, "max_q": 6},
          "refined chain-forest count vs its closed form")
_register("identity-lah", units_by_s, run_identity_lah,
          {"max_s": 7, "max_q": 6},
          "total chain-forest count vs its closed form, plus marginals")
_register("identity-upper", units_by_s, run_identity_upper,
          {"max_s": 6, "max_q": 4},
          "leader-1 forest count vs the upper-bound expression")
_register("per-term", units_by_sq, run_per_term,
          {"max_s": 5, "max_q": 4},
          "signed distinguished-forest sums vs individual summands")
_register("phi", units_by_sq, run_phi,
          {"max_s": 6, "max_q": 4},
          "processing map bijectivity and image characterization")
_register("involution", units_by_sq, run_involution,
          {"max_s": 6, "max_q": 4},
          "sign-reversing pairing and cancellation")
_register("ehrhart-oracle", units_ehrhart_oracle, run_ehrhart_oracle,
          {"max_n": 8},
          "panhandle Ehrhart polynomials vs direct lattice-point counts")
_register("bounds", units_bounds, run_bounds,
          {"max_n": 8, "max_paving_n": 7},
          "coefficientwise sandwich and paving upper bound")
_register("positivity", units_positivity, run_positivity,
          {"max_n": 9},
          "coefficient nonnegativity of the formula polynomials")


def _run_unit(task: tuple[str, dict]) -> list[Row]:
    name, kwargs = task
    return CAMPAIGNS[name].runner(**kwargs)


def campaign_bounds(name: str, bounds: dict | None = None, jobs: int = 1) -> dict:
    """The campaign's default bounds overridden by the given ones, for a run
    on jobs workers; None values and keys the campaign does not take are
    ignored.  Raises ValueError for a negative bound or jobs < 1."""
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got jobs={jobs}")
    merged = dict(CAMPAIGNS[name].defaults)
    for key, value in (bounds or {}).items():
        if value is not None and key in merged:
            if value < 0:
                raise ValueError(f"bound {key}={value} must be nonnegative")
            merged[key] = value
    return merged


def run_campaign(name: str, bounds: dict | None = None, jobs: int = 1) -> list[Row]:
    """Run one campaign; rows come back in deterministic grid order."""
    merged = campaign_bounds(name, bounds, jobs)
    tasks = [(name, unit) for unit in CAMPAIGNS[name].units(**merged)]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(_run_unit, tasks))
    else:
        chunks = [_run_unit(t) for t in tasks]
    return [row for chunk in chunks for row in chunk]


def run_campaign_report(name: str, bounds: dict | None = None,
                        jobs: int = 1) -> SweepReport:
    """Run one campaign and wrap the rows with bounds and wall time.

    A run that checks no tuple would pass vacuously, so it raises
    ValueError instead.
    """
    merged = tuple(sorted(campaign_bounds(name, bounds).items()))
    started = time.monotonic()
    rows = run_campaign(name, bounds, jobs)
    if not rows:
        raise ValueError(f"campaign {name} checks no tuples at "
                         + " ".join(f"{k}={v}" for k, v in merged))
    return SweepReport(name, merged, tuple(rows), time.monotonic() - started)
