"""Persistent result cache for computed polynomials, kept as text.

One JSON object per entry file: its key, which bakes in the family tag,
the parameters and the tool version (so version bumps invalidate old
entries without touching them), and its coefficients, the strings
`exactmath.poly_to_json` writes; a read uses no other field.  A hit
returns those strings as they are stored, after checking that each is a
reduced fraction written exactly as `str(Fraction)` writes it, so the
cache never parses a coefficient into a number.  An entry file is named
after its key, so its name ends in `__v<version>.json`; `clear` and
`stats` touch only regular files named so, of any version, and leave
every other file or directory in the cache directory alone.  A read is
one open, reads to the end and a close; a write encodes the entry first,
then writes it to a temporary file that an atomic rename puts in place,
and a failed write removes its temporary file.  Unreadable or unwritable
caches degrade to plain recomputation with a warning on stderr.  `load`
and `store` take the entry's key, so a request builds it once, with
`cache_key`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import stat
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import __version__


def default_cache_dir() -> Path:
    env = os.environ.get("PANEHR_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "panehr"


def cache_key(family: str, params: dict) -> str:
    ptxt = "_".join(f"{k}{params[k]}" for k in sorted(params))
    return f"{family}_{ptxt}__v{__version__}"


# every entry file name, whatever its version: cache_key ends in __v<version>
_ENTRY_GLOB = "*__v*.json"


# a key character outside these is written "-" in its entry file name
_UNSAFE = re.compile(r"[^0-9A-Za-z._-]")


def _entry_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{_UNSAFE.sub('-', key)}.json"


def _warn(msg: str) -> None:
    print(f"panehr: cache warning: {msg}", file=sys.stderr)


def _read(path: Path) -> bytes:
    """The whole file: one open, reads until end of file, one close."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _is_reduced_fraction(text: str) -> bool:
    """Whether text is exactly what str(Fraction) writes: an int written
    as str(int) writes it, then optionally "/" and a denominator of at
    least 2, written the same way and coprime to the numerator."""
    num, slash, den = text.partition("/")
    try:
        n = int(num)
        if not slash:
            return str(n) == num
        d = int(den)
    except ValueError:
        return False
    return d >= 2 and str(n) == num and str(d) == den and math.gcd(n, d) == 1


def load(cache_dir: Path, key: str) -> Optional[list[str]]:
    """Return the coefficient strings cached under key (a `cache_key`),
    ascending by degree, as `poly_to_json` wrote them, or None on a miss or
    a corrupt entry.  A missing entry (or cache directory) is a silent
    miss; an entry that cannot be read or parsed, or whose coefficients
    are not reduced fractions with a nonzero leading one, warns."""
    path = _entry_path(cache_dir, key)
    try:
        payload = json.loads(_read(path))
        if not isinstance(payload, dict):
            raise ValueError("entry is not a JSON object")
        if payload.get("key") != key:
            _warn(f"stale key in {path.name}, recomputing")
            return None
        coeffs = payload["coefficients"]
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            raise ValueError("bad coefficient payload")
        for c in coeffs:
            if not _is_reduced_fraction(c):
                raise ValueError(f"coefficient {c!r} is not a reduced fraction")
        # no family yields the zero polynomial, and poly_to_json writes no
        # trailing zero
        if not coeffs or coeffs[-1] == "0":
            raise ValueError("no nonzero leading coefficient")
        return coeffs
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError, KeyError) as exc:
        _warn(f"ignoring corrupt entry {path.name} ({exc})")
        return None


def store(cache_dir: Path, key: str, coeffs: list[str]) -> None:
    """Write the entry for key (a `cache_key`) atomically: encode it, write
    it to a temporary file in the cache directory (made only if it is
    missing) and rename that onto the entry.  On failure, warn naming the
    error, remove the temporary file and continue without the cache."""
    path = _entry_path(cache_dir, key)
    data = json.dumps({"key": key, "coefficients": coeffs}).encode()
    try:
        try:
            fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        except FileNotFoundError:
            cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except OSError as exc:
        _warn(f"cache directory not writable, continuing without cache ({exc})")
        return
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException as exc:
        # the temporary file never outlives a failed write
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
        _warn(f"could not write entry {path.name}, continuing without cache ({exc})")


def _entry_files(cache_dir: Path) -> list[tuple[Path, int]]:
    """(path, size) of each regular file named like an entry, of any
    version; a directory, link or other file by such a name is no entry."""
    if not cache_dir.exists():
        return []
    found = []
    for path in sorted(cache_dir.glob(_ENTRY_GLOB)):
        with contextlib.suppress(FileNotFoundError):
            info = path.lstat()
            if stat.S_ISREG(info.st_mode):
                found.append((path, info.st_size))
    return found


def clear(cache_dir: Path) -> int:
    """Remove every entry file, of any version, and nothing else; returns
    the number of files removed."""
    removed = 0
    for path, _ in _entry_files(cache_dir):
        try:
            path.unlink()
            removed += 1
        except OSError as exc:
            _warn(f"could not remove {path.name} ({exc})")
    return removed


def stats(cache_dir: Path) -> tuple[int, int]:
    """(entry count, total bytes) of the entry files, of any version, in
    the cache directory."""
    entries = _entry_files(cache_dir)
    return len(entries), sum(size for _, size in entries)
