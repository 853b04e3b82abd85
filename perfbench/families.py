"""Seeded generator of stressed-hyperplane families for the certify workload.

A paving matroid of rank r on [n] is determined by its stressed
hyperplanes: subsets H with |H| >= r whose pairwise intersections have at
most r-2 elements.  `ehr_paving` takes only the sizes and does not check
that a family with those sizes exists, so the generator enforces the
axioms itself and hands out explicit hyperplanes.

The draw is deterministic in the seed: a `random.Random(seed)` stream
picks sizes and members, and a family that cannot be completed is redrawn
from the same stream.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple


class Family(NamedTuple):
    """A valid stressed-hyperplane family of a rank-r paving matroid on [n]."""

    n: int
    r: int
    hyperplanes: tuple[frozenset[int], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(h) for h in self.hyperplanes))

    def describe(self) -> str:
        sets = " ".join("".join(map(str, sorted(h))) for h in self.hyperplanes)
        return f"n={self.n} r={self.r} H={{{sets}}}"


def check_family(n: int, r: int, hyperplanes) -> None:
    """Raise ValueError unless the sets are stressed hyperplanes of a paving
    matroid of rank r on [n]: proper subsets of [n] with at least r
    elements, pairwise meeting in at most r-2 elements."""
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    ground = frozenset(range(1, n + 1))
    for h in hyperplanes:
        if not h <= ground or len(h) >= n:
            raise ValueError(f"{sorted(h)} is not a proper subset of [1..{n}]")
        if len(h) < r:
            raise ValueError(f"{sorted(h)} has fewer than r={r} elements")
    for a, b in combinations(hyperplanes, 2):
        if len(a & b) > r - 2:
            raise ValueError(
                f"{sorted(a)} and {sorted(b)} share {len(a & b)} > r-2 = {r - 2} elements")


# Hyperplane sizes run from r to r + SIZE_SPREAD (capped at n-1).
SIZE_SPREAD = 2
# Placement attempts per hyperplane before the whole family is redrawn, and
# redraws before the (n, r, count) request is declared infeasible.  Sizes
# are drawn freely, so some strata need many redraws: three hyperplanes
# at (6, 3) fit only when all three have size 3, one draw in 27.
_ATTEMPTS = 50
_REDRAWS = 2000


def draw_family(rng: random.Random, n: int, r: int, count: int) -> Family:
    """Draw `count` stressed hyperplanes of a rank-r paving matroid on [n]."""
    top = min(r + SIZE_SPREAD, n - 1)
    for _ in range(_REDRAWS):
        chosen: list[frozenset[int]] = []
        for _ in range(count):
            size = rng.randint(r, top)
            for _ in range(_ATTEMPTS):
                h = frozenset(rng.sample(range(1, n + 1), size))
                if all(len(h & g) <= r - 2 for g in chosen):
                    chosen.append(h)
                    break
            else:
                break
        if len(chosen) == count:
            hyperplanes = tuple(sorted(chosen, key=sorted))
            check_family(n, r, hyperplanes)
            return Family(n, r, hyperplanes)
    raise ValueError(f"no family of {count} stressed hyperplanes found for n={n}, r={r}")


def generate(seed: str, plan) -> list[Family]:
    """One family per (n, r, count) entry of `plan`, drawn from `seed`.

    A string seed keeps the stream independent of hash randomization."""
    rng = random.Random(seed)
    return [draw_family(rng, n, r, count) for n, r, count in plan]
