"""Command-line front end.

Subcommands: compute (closed-form polynomials), verify (identity and
oracle campaigns), enumerate (combinatorial objects), oracle count
(direct lattice-point counts), and cache management.  All stdout output
is deterministic given --no-color; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, cache, campaigns, ehrhart, forests, oracle
from .exactmath import poly_to_json


def _err(msg: str) -> None:
    print(f"panehr: error: {msg}", file=sys.stderr)


def _color(text: str, code: str, enabled: bool) -> str:
    if enabled and sys.stdout.isatty():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="cache directory (default: PANEHR_CACHE_DIR or ~/.cache/panehr)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely")
    parser.add_argument("--no-color", action="store_true",
                        help="never emit ANSI color codes")


class Family(NamedTuple):
    """How the CLI reads, checks and computes one polynomial family."""

    flags: tuple[str, ...]              # required parameters, in call order
    validate: Callable[..., None]       # raises ValueError on bad parameters
    compute: str                        # the ehrhart function, looked up per call
    sized: bool = False                 # takes --hyperplane-sizes as a last argument


# compute names the function rather than holding it, so that a replaced
# ehrhart attribute (a tracer's wrapper, a test's stub) is the one called
FAMILIES: dict[str, Family] = {
    "panhandle": Family(("r", "s", "n"), ehrhart.validate_panhandle, "ehr_panhandle"),
    "paving": Family(("r", "n"), ehrhart.validate_paving, "ehr_paving", sized=True),
    "hypersimplex": Family(("r", "n"), ehrhart.validate_rank, "ehr_hypersimplex"),
    "phi": Family(("r", "s", "n"), ehrhart.validate_panhandle, "phi_poly"),
    "psi": Family(("r", "s", "n"), ehrhart.validate_panhandle, "psi_poly"),
}
COMPUTE_FAMILIES = tuple(FAMILIES)


def _family_call(family: str, args) -> tuple[tuple, dict]:
    """Validated call arguments for the family's functions, and the
    parameters that key its cache entry."""
    spec = FAMILIES[family]
    _need(args, *spec.flags)
    call = tuple(getattr(args, name) for name in spec.flags)
    params = dict(zip(spec.flags, call))
    if spec.sized:
        sizes = tuple(sorted(args.hyperplane_sizes or []))
        call += (sizes,)
        params["sizes"] = "+".join(map(str, sizes)) or "none"
    spec.validate(*call)
    return call, params


def _need(args, *names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required parameter(s): "
                         + ", ".join("--" + n for n in missing))


def cmd_compute(args) -> int:
    cache_dir = args.cache_dir or cache.default_cache_dir()
    try:
        call, params = _family_call(args.family, args)
        poly = None if args.no_cache else cache.load(cache_dir, args.family, params)
        if poly is not None:
            print(f"panehr: cache hit for {cache.cache_key(args.family, params)}",
                  file=sys.stderr)
        else:
            poly = getattr(ehrhart, FAMILIES[args.family].compute)(*call)
            if not args.no_cache:
                cache.store(cache_dir, args.family, params, poly_to_json(poly))
    except ValueError as exc:
        _err(str(exc))
        return 2
    if args.json:
        print(json.dumps(poly_to_json(poly), separators=(",", ":")))
    else:
        print(str(poly))
    return 0


def cmd_verify(args) -> int:
    spec = campaigns.CAMPAIGNS[args.campaign]
    defaults = dict(spec.defaults)
    bounds = {}
    for key in defaults:
        flag = key.replace("_", "-")
        value = getattr(args, key, None)
        if value is not None:
            if value > defaults[key] and not args.i_know_this_is_slow:
                _err(f"--{flag} {value} exceeds the default desk-scale bound "
                     f"{defaults[key]}; pass --i-know-this-is-slow to override")
                return 2
            bounds[key] = value
    try:
        campaigns.campaign_bounds(args.campaign, bounds, args.jobs)
        csv_file = _open_csv_temp(args.csv) if args.csv else None
    except ValueError as exc:
        _err(str(exc))
        return 2
    except OSError as exc:
        _err(f"cannot write the --csv file: {exc}")
        return 2
    try:
        report = campaigns.run_campaign_report(args.campaign, bounds, jobs=args.jobs)
        if csv_file:
            _write_csv(csv_file, report.rows)
            csv_file.close()
            os.replace(csv_file.name, args.csv)
    except ValueError as exc:
        _err(str(exc))
        return 2
    finally:
        if csv_file:
            csv_file.close()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(csv_file.name)
    print(f"campaign: {report.campaign}")
    print("bounds: " + " ".join(f"{k}={v}" for k, v in report.bounds))
    print(f"tuples: {len(report.rows)}")
    print(f"failures: {len(report.failures)}")
    if report.failures:
        print("first failure: " + report.failures[0].describe())
    use_color = not args.no_color
    verdict = "PASS" if report.passed else "FAIL"
    print("result: " + _color(verdict, "32" if report.passed else "31", use_color))
    print(f"elapsed: {report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def _open_csv_temp(path: Path):
    """An empty file next to path that holds the rows until the run is over
    and is then renamed onto path, so a rejected run leaves path as it was.
    Opening it before the run makes an unwritable directory fail fast."""
    if path.is_dir():
        raise IsADirectoryError(f"is a directory: '{path}'")
    return open(path.with_name(f".{path.name}.{os.getpid()}.tmp"), "w", newline="")


def _write_csv(handle, rows) -> None:
    columns: list[str] = []
    for row in rows:
        for key, _ in row.params:
            if key not in columns:
                columns.append(key)
    writer = csv.writer(handle)
    writer.writerow(columns + ["expected", "actual", "ok"])
    for row in rows:
        record = dict(row.params)
        writer.writerow([record.get(c, "") for c in columns]
                        + [row.expected, row.actual, "ok" if row.ok else "FAIL"])


# kind: (required query flags, enumerator taking q, s, k, ell, m, line format)
KINDS = {
    "forests": (("q", "s", "k"), forests.enumerate_cf, forests.format_forest),
    "dcf": (("q", "s", "k", "ell", "m"), forests.enumerate_dcf, forests.format_distinguished),
    "cf1": (("q", "s", "k", "ell", "m"), forests.enumerate_cf1, forests.format_forest),
}


def cmd_enumerate(args) -> int:
    flags, enumerate_kind, line = KINDS[args.kind]
    try:
        _need(args, *flags)
        _check_query(args)
        items = enumerate_kind(args.q, args.s, args.k, args.ell, args.m)
    except ValueError as exc:
        _err(str(exc))
        return 2
    for item in items:
        print(line(item))
    print(f"count: {len(items)}")
    return 0


def _check_query(args) -> None:
    if args.q < 0:
        raise ValueError(f"need q >= 0, got q={args.q}")
    if not 1 <= args.k <= args.s:
        raise ValueError(f"need 1 <= k <= s, got k={args.k}, s={args.s}")
    if args.ell is not None and not 0 <= args.ell <= args.s - 1:
        raise ValueError(f"need 0 <= ell <= s-1, got ell={args.ell}")
    if args.m is not None and not 1 <= args.m <= args.k:
        raise ValueError(f"need 1 <= m <= k, got m={args.m}")
    if (args.ell is None) != (args.m is None):
        raise ValueError("--ell and --m must be given together")


def cmd_oracle(args) -> int:
    try:
        if args.t is None or args.t < 0:
            raise ValueError("need a dilation --t >= 0")
        if args.family == "paving":
            cuts = [_parse_hyperplane(spec) for spec in (args.hyperplane or [])]
            # the paving validator checks the sizes of the explicit hyperplanes
            args.hyperplane_sizes = [len(h) for h in cuts]
        _family_call(args.family, args)
        if args.family == "panhandle":
            value = oracle.count_points_panhandle(args.r, args.s, args.n, args.t)
        elif args.family == "hypersimplex":
            value = oracle.count_points_panhandle(args.r, args.n - 1, args.n, args.t)
        else:
            value = oracle.count_points_paving(args.r, args.n, cuts, args.t)
    except ValueError as exc:
        _err(str(exc))
        return 2
    print(value)
    return 0


def _parse_hyperplane(spec: str) -> frozenset[int]:
    """Elements of a comma-separated hyperplane; repeating one is an error."""
    elements = [int(x) for x in spec.split(",")]
    for idx, x in enumerate(elements):
        if x in elements[:idx]:
            raise ValueError(f"hyperplane {spec} repeats element {x}")
    return frozenset(elements)


def cmd_cache(args) -> int:
    cache_dir = args.cache_dir or cache.default_cache_dir()
    if args.action == "clear":
        removed = cache.clear(cache_dir)
        print(f"removed: {removed}")
    else:
        entries, size = cache.stats(cache_dir)
        print(f"entries: {entries}")
        print(f"bytes: {size}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panehr",
        description="Exact Ehrhart polynomials of panhandle and paving "
                    "matroid polytopes, plus verification campaigns for the "
                    "chain-forest identities behind them.",
        epilog="CSV columns per campaign are the parameter names printed by "
               "'verify ... --csv', followed by expected, actual, ok.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one closed-form polynomial")
    p_compute.add_argument("family", choices=COMPUTE_FAMILIES)
    p_compute.add_argument("--r", type=int)
    p_compute.add_argument("--s", type=int)
    p_compute.add_argument("--n", type=int)
    p_compute.add_argument("--hyperplane-sizes", type=int, nargs="+",
                           help="stressed hyperplane sizes for the paving family")
    p_compute.add_argument("--json", action="store_true",
                           help="print the coefficient array instead of pretty text")
    _add_common(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("campaign", choices=sorted(campaigns.CAMPAIGNS))
    p_verify.add_argument("--max-s", dest="max_s", type=int)
    p_verify.add_argument("--max-q", dest="max_q", type=int)
    p_verify.add_argument("--max-n", dest="max_n", type=int)
    p_verify.add_argument("--max-paving-n", dest="max_paving_n", type=int)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--csv", type=Path, help="write per-tuple rows to this file")
    p_verify.add_argument("--i-know-this-is-slow", action="store_true",
                          help="allow bounds beyond the desk-scale defaults")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="list combinatorial objects")
    p_enum.add_argument("kind", choices=tuple(KINDS))
    p_enum.add_argument("--q", type=int)
    p_enum.add_argument("--s", type=int)
    p_enum.add_argument("--k", type=int)
    p_enum.add_argument("--ell", type=int)
    p_enum.add_argument("--m", type=int)
    _add_common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_oracle = sub.add_parser("oracle", help="direct lattice-point counts")
    oracle_sub = p_oracle.add_subparsers(dest="action", required=True)
    p_count = oracle_sub.add_parser("count")
    p_count.add_argument("family", choices=("panhandle", "hypersimplex", "paving"))
    p_count.add_argument("--r", type=int)
    p_count.add_argument("--s", type=int)
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--t", type=int)
    p_count.add_argument("--hyperplane", action="append",
                         help="explicit hyperplane as comma-separated elements; repeatable")
    _add_common(p_count)
    p_count.set_defaults(func=cmd_oracle)

    p_cache = sub.add_parser("cache", help="manage the result cache")
    p_cache.add_argument("action", choices=("clear", "stats"))
    _add_common(p_cache)
    p_cache.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
