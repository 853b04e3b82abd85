"""Command-line front end.

Subcommands: compute (closed-form polynomials), verify (identity and
oracle campaigns), enumerate (combinatorial objects), oracle count
(direct lattice-point counts), and cache management.  All stdout output
is deterministic given --no-color; timing goes to stderr.  Only compute
and cache take --cache-dir, only compute takes --no-cache, and verify
rejects a --max-* bound its campaign does not take.

`main` reads a canonical compute argv directly: "compute <family>" and
then only compute's long options, each spelled in full and given once,
its integers in ASCII decimal digits.  It builds the namespace argparse
would build, and no parser.  argparse parses every other argv (help,
abbreviations, "--opt=value", "--", every other command) and writes
every usage, help and error message.  The parser is built once per
process, on the first argv that needs it, and reused, so `main` can be
called many times in one process (each call parses into a new
namespace).  Importing this module builds nothing, and help text is
still wrapped to the terminal width at the time it prints.
Nor does it load forests or processing: enumerate imports forests when it
runs, and verify loads them through the campaign runners that use them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import __version__, cache, campaigns, ehrhart, oracle
from .exactmath import poly_from_json, poly_to_json


def _err(msg: str) -> None:
    print(f"panehr: error: {msg}", file=sys.stderr)


def _color(text: str, code: str, enabled: bool) -> str:
    if enabled and sys.stdout.isatty():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


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
    parameters that key its cache entry.  A missing flag the family needs
    and a given flag it does not take are both errors."""
    spec = FAMILIES[family]
    _need(args, *spec.flags)
    # compute names the cuts by their sizes, oracle count by their members
    cut_flags = ("hyperplane_sizes", "hyperplane")
    taken = spec.flags + (cut_flags if spec.sized else ())
    extra = [name for name in ("r", "s", "n") + cut_flags
             if name not in taken and getattr(args, name, None) is not None]
    if extra:
        raise ValueError(f"the {family} family takes no "
                         + ", ".join("--" + n.replace("_", "-") for n in extra))
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
    """Print one closed form.  The command works on its coefficient
    strings: a miss computes the polynomial and turns it into strings once,
    for the cache entry and the output; a hit prints the stored strings
    with --json, and builds the polynomial from them only to print it
    pretty.  Either way stdout is the same."""
    cache_dir = args.cache_dir or cache.default_cache_dir()
    poly = None
    try:
        call, params = _family_call(args.family, args)
        key = None if args.no_cache else cache.cache_key(args.family, params)
        coeffs = None if key is None else cache.load(cache_dir, key)
        if coeffs is not None:
            print(f"panehr: cache hit for {key}", file=sys.stderr)
        else:
            poly = getattr(ehrhart, FAMILIES[args.family].compute)(*call)
            coeffs = poly_to_json(poly)
            if key is not None:
                cache.store(cache_dir, key, coeffs)
    except ValueError as exc:
        _err(str(exc))
        return 2
    if args.json:
        print(json.dumps(coeffs, separators=(",", ":")))
    else:
        print(poly if poly is not None else poly_from_json(coeffs))
    return 0


class Option(NamedTuple):
    """A long option of compute, as the parser declares it and as
    _read_compute reads it."""

    dest: str
    kind: str                           # "int", "ints" (one or more), "path" or "flag"
    help: Optional[str] = None

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")


def _nonempty_path(value: str) -> Path:
    """A --cache-dir value: Path("") is the current directory, so an empty
    value is a usage error rather than a cache in the working directory."""
    if not value:
        raise argparse.ArgumentTypeError("expected a nonempty path")
    return Path(value)


_KIND_ARGUMENTS = {
    "int": {"type": int},
    "ints": {"type": int, "nargs": "+"},
    "path": {"type": _nonempty_path, "default": None},
    "flag": {"action": "store_true"},
}

# compute's options in the order its help lists them; cache also takes
# --cache-dir, and verify, enumerate, oracle count and cache take --no-color
COMPUTE_OPTIONS = (
    Option("r", "int"),
    Option("s", "int"),
    Option("n", "int"),
    Option("hyperplane_sizes", "ints", "stressed hyperplane sizes for the paving family"),
    Option("json", "flag", "print the coefficient array instead of pretty text"),
    Option("cache_dir", "path",
           "cache directory (default: PANEHR_CACHE_DIR or ~/.cache/panehr)"),
    Option("no_cache", "flag", "bypass the result cache entirely"),
    Option("no_color", "flag", "never emit ANSI color codes"),
)
_COMPUTE_FLAGS = {option.flag: option for option in COMPUTE_OPTIONS}
_COMPUTE_DEFAULTS = {option.dest: False if option.kind == "flag" else None
                     for option in COMPUTE_OPTIONS}


VERIFY_BOUNDS = ("max_s", "max_q", "max_n", "max_paving_n")


def cmd_verify(args) -> int:
    defaults = dict(campaigns.CAMPAIGNS[args.campaign].defaults)
    bounds = {key: getattr(args, key) for key in VERIFY_BOUNDS
              if getattr(args, key) is not None}
    for key, value in bounds.items():
        # campaign_bounds rejects a bound the campaign does not take
        if key in defaults and value > defaults[key] and not args.i_know_this_is_slow:
            _err(f"--{key.replace('_', '-')} {value} exceeds the default desk-scale "
                 f"bound {defaults[key]}; pass --i-know-this-is-slow to override")
            return 2
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


# kind: (required query flags, the forests enumerator taking q, s, k, ell,
# m, the forests line format); names, so only enumerate loads forests
KINDS = {
    "forests": (("q", "s", "k"), "enumerate_cf", "format_forest"),
    "dcf": (("q", "s", "k", "ell", "m"), "enumerate_dcf", "format_distinguished"),
    "cf1": (("q", "s", "k", "ell", "m"), "enumerate_cf1", "format_forest"),
}


def cmd_enumerate(args) -> int:
    from . import forests

    flags, enumerator, formatter = KINDS[args.kind]
    enumerate_kind, line = getattr(forests, enumerator), getattr(forests, formatter)
    try:
        _need(args, *flags)
        items = enumerate_kind(args.q, args.s, args.k, args.ell, args.m)
    except ValueError as exc:
        _err(str(exc))
        return 2
    for item in items:
        print(line(item))
    print(f"count: {len(items)}")
    return 0


def cmd_oracle(args) -> int:
    try:
        _need(args, "t")
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
    """Elements of a comma-separated hyperplane; a part that is not an
    integer, or an element repeated, is an error that names the spec."""
    try:
        elements = [int(x) for x in spec.split(",")]
    except ValueError:
        raise ValueError(f"hyperplane {spec!r} is not a comma-separated list "
                         "of integers") from None
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later
    one.  Parsing does not change it, and callers must not either."""
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
    for option in COMPUTE_OPTIONS:
        _add_option(p_compute, option)
    p_compute.set_defaults(func=cmd_compute)

    width = max(map(len, campaigns.CAMPAIGNS))
    p_verify = sub.add_parser(
        "verify", help="run a verification campaign",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="campaigns:\n" + "\n".join(f"  {c.name:<{width}}  {c.description}"
                                          for c in campaigns.CAMPAIGNS.values()))
    p_verify.add_argument("campaign", choices=sorted(campaigns.CAMPAIGNS))
    for key in VERIFY_BOUNDS:
        p_verify.add_argument("--" + key.replace("_", "-"), dest=key, type=int)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--csv", type=Path, help="write per-tuple rows to this file")
    p_verify.add_argument("--i-know-this-is-slow", action="store_true",
                          help="allow bounds beyond the desk-scale defaults")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="list combinatorial objects")
    p_enum.add_argument("kind", choices=tuple(KINDS))
    p_enum.add_argument("--q", type=int)
    p_enum.add_argument("--s", type=int)
    p_enum.add_argument("--k", type=int)
    p_enum.add_argument("--ell", type=int)
    p_enum.add_argument("--m", type=int)
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
    p_count.set_defaults(func=cmd_oracle)

    p_cache = sub.add_parser("cache", help="manage the result cache")
    p_cache.add_argument("action", choices=("clear", "stats"))
    p_cache.set_defaults(func=cmd_cache)

    _add_option(p_cache, _COMPUTE_FLAGS["--cache-dir"])
    for command in (p_verify, p_enum, p_count, p_cache):
        _add_option(command, _COMPUTE_FLAGS["--no-color"])

    return parser


def _add_option(parser: argparse.ArgumentParser, option: Option) -> None:
    parser.add_argument(option.flag, help=option.help, **_KIND_ARGUMENTS[option.kind])


def _read_int(token: str) -> Optional[int]:
    """The int that ASCII decimal digits spell, or None for any other token."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _read_compute(argv: list) -> Optional[argparse.Namespace]:
    """The namespace argparse builds for a canonical compute argv, or None.

    Canonical is "compute <family>" and then compute's options, each spelled
    in full and given at most once: an integer option takes ASCII decimal
    digits, --hyperplane-sizes one or more of them, and --cache-dir a
    nonempty value that does not start with "-".  Every other argv,
    however argparse would read it, is None.  This only splits tokens: the
    command checks the values as it does after argparse."""
    if (len(argv) < 2 or argv[0] != "compute"
            or not all(isinstance(token, str) for token in argv)
            or argv[1] not in FAMILIES):
        return None
    values = dict(_COMPUTE_DEFAULTS)
    seen = set()
    pos = 2
    while pos < len(argv):
        option = _COMPUTE_FLAGS.get(argv[pos])
        if option is None or option in seen:
            return None
        seen.add(option)
        pos += 1
        if option.kind == "flag":
            value = True
        elif option.kind == "path":
            if pos == len(argv) or not argv[pos] or argv[pos].startswith("-"):
                return None
            value = Path(argv[pos])
            pos += 1
        elif option.kind == "int":
            if pos == len(argv) or (value := _read_int(argv[pos])) is None:
                return None
            pos += 1
        else:
            value = []
            while pos < len(argv) and (number := _read_int(argv[pos])) is not None:
                value.append(number)
                pos += 1
            if not value:
                return None
        values[option.dest] = value
    return argparse.Namespace(command="compute", family=argv[1], func=cmd_compute,
                              **values)


def main(argv=None) -> int:
    """Run one command and return its exit code.  A canonical compute argv
    (see _read_compute) is read directly, without building the parser;
    argparse parses every other argv and writes every usage, help and
    error message."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_compute(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
