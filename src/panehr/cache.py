"""Persistent result cache for computed polynomials.

One JSON object per entry file: its key, which bakes in the family tag,
the parameters and the tool version (so version bumps invalidate old
entries without touching them), and its coefficients; a read uses no other
field.  An entry file is named after its key, so its name ends in
`__v<version>.json`; `clear` and `stats` touch only files named so, of any
version, and leave every other file in the directory alone.  Writes go
through a temporary file and an atomic rename, and a failed write removes
its temporary file; unreadable or unwritable caches degrade to plain
recomputation with a warning on stderr.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import __version__
from .exactmath import Polynomial, poly_from_json


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


def _entry_path(cache_dir: Path, key: str) -> Path:
    safe = "".join(c if c.isalnum() or c in "._-" else "-" for c in key)
    return cache_dir / f"{safe}.json"


def _warn(msg: str) -> None:
    print(f"panehr: cache warning: {msg}", file=sys.stderr)


def load(cache_dir: Path, family: str, params: dict) -> Optional[Polynomial]:
    """Return the cached polynomial, or None on miss/corruption.  A missing
    entry (or cache directory) is a silent miss; an entry that cannot be
    read or parsed warns."""
    key = cache_key(family, params)
    path = _entry_path(cache_dir, key)
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise ValueError("entry is not a JSON object")
        if payload.get("key") != key:
            _warn(f"stale key in {path.name}, recomputing")
            return None
        coeffs = payload["coefficients"]
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            raise ValueError("bad coefficient payload")
        poly = poly_from_json(coeffs)  # raises if one does not parse
        # no family yields the zero polynomial, and poly_to_json writes no
        # trailing zero (which Polynomial drops)
        if not poly.coeffs or len(poly.coeffs) != len(coeffs):
            raise ValueError("no nonzero leading coefficient")
        return poly
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        _warn(f"ignoring corrupt entry {path.name} ({exc})")
        return None


def store(cache_dir: Path, family: str, params: dict, coeffs: list[str]) -> None:
    """Write an entry atomically; on failure, warn naming the error, remove
    the temporary file and continue without the cache."""
    key = cache_key(family, params)
    path = _entry_path(cache_dir, key)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except OSError as exc:
        _warn(f"cache directory not writable, continuing without cache ({exc})")
        return
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump({"key": key, "coefficients": coeffs}, handle)
        os.replace(tmp, path)
    except BaseException as exc:
        # the temporary file never outlives a failed write
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise
        _warn(f"could not write entry {path.name}, continuing without cache ({exc})")


def clear(cache_dir: Path) -> int:
    """Remove every entry file, of any version, and no other file; returns
    the number of files removed."""
    if not cache_dir.exists():
        return 0
    removed = 0
    for path in sorted(cache_dir.glob(_ENTRY_GLOB)):
        try:
            path.unlink()
            removed += 1
        except OSError as exc:
            _warn(f"could not remove {path.name} ({exc})")
    return removed


def stats(cache_dir: Path) -> tuple[int, int]:
    """(entry count, total bytes) of the entry files, of any version, in
    the cache directory."""
    if not cache_dir.exists():
        return 0, 0
    entries = list(cache_dir.glob(_ENTRY_GLOB))
    return len(entries), sum(p.stat().st_size for p in entries)
