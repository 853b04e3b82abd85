"""Summarize benchmark results across seeds against the bounds.

    python3 perfbench/spread.py RESULTS.jsonl [SECOND.jsonl]

Reads the records run.py appends to .perfbench_out/results.jsonl (or a
copy of them), and prints, per workload and end-to-end metric, the median
over seeds and the spread: the distance between the first and third
quartile as a share of the median.  A spread above a third of the
metric's bound in BENCHMARK.json is marked "wide", one above the bound
"OVER".  With a second file it also prints how far the second set's
median moved from the first's, which must stay within the bound.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced records."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"] == 0:
            for name, value in record["metrics"].items():
                out[record["workload"]][name].append(value)
    return out


def main(argv: list[str]) -> int:
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    first = load(argv[0])
    second = load(argv[1]) if len(argv) > 1 else None
    worst = "ok"
    for workload, metrics in first.items():
        for name, values in metrics.items():
            spread = stats.relative_spread(values)
            bound = bounds[name]
            flag = "OVER" if spread > bound else "wide" if spread > bound / 3 else "ok"
            if name != "setup_s" and flag == "OVER":
                worst = "OVER"
            line = (f"{workload:10s} {name:12s} n={len(values):2d} "
                    f"median={stats.median(values):10.4f} spread={spread:6.3f} "
                    f"bound={bound:.2f} {flag}")
            if second is not None:
                other = second[workload][name]
                moved = stats.median(other) / stats.median(values) - 1
                line += f"  second median {moved:+.3f}"
                if moved > bound:
                    worst = "OVER"
            print(line)
    return 1 if worst == "OVER" else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
