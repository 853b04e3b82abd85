"""Persistent result cache for computed polynomials.

One JSON file per entry under the cache directory.  The entry key bakes
in the family tag, the parameters, and the tool version, so version bumps
invalidate old entries without touching them.  Writes go through a
temporary file and an atomic rename; unreadable or unwritable caches
degrade to plain recomputation with a warning on stderr.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
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


def _entry_path(cache_dir: Path, key: str) -> Path:
    safe = "".join(c if c.isalnum() or c in "._-" else "-" for c in key)
    return cache_dir / f"{safe}.json"


def _warn(msg: str) -> None:
    print(f"panehr: cache warning: {msg}", file=sys.stderr)


def load(cache_dir: Path, family: str, params: dict) -> Optional[Polynomial]:
    """Return the cached polynomial, or None on miss/corruption."""
    path = _entry_path(cache_dir, cache_key(family, params))
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise ValueError("entry is not a JSON object")
        if payload.get("key") != cache_key(family, params):
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
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        _warn(f"ignoring corrupt entry {path.name} ({exc})")
        return None


def store(cache_dir: Path, family: str, params: dict, coeffs: list[str]) -> None:
    """Write an entry atomically; degrade silently to no-cache on failure."""
    key = cache_key(family, params)
    payload = {
        "key": key,
        "family": family,
        "params": params,
        "coefficients": coeffs,
        "version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = _entry_path(cache_dir, key)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=1)
        os.replace(tmp, path)
    except OSError as exc:
        _warn(f"cache directory not writable, continuing without cache ({exc})")


def clear(cache_dir: Path) -> int:
    """Remove all entries; returns the number of files removed."""
    if not cache_dir.exists():
        return 0
    removed = 0
    for path in sorted(cache_dir.glob("*.json")):
        try:
            path.unlink()
            removed += 1
        except OSError as exc:
            _warn(f"could not remove {path.name} ({exc})")
    return removed


def stats(cache_dir: Path) -> tuple[int, int]:
    """(entry count, total bytes) for the cache directory."""
    if not cache_dir.exists():
        return 0, 0
    entries = list(cache_dir.glob("*.json"))
    return len(entries), sum(p.stat().st_size for p in entries)
