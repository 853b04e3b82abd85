"""panehr benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload compute|enumerate|certify \
        --seed N --seconds S --trace 0|1

Runs repetitions of the workload one after another, each in a fresh
interpreter (perfbench/worker.py) with cold memos and an empty private
cache, until S seconds have passed and enough distinct requests have
been timed for a 90th percentile with ten requests beyond it.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: medians over
repetitions of set-up time, wall time and peak RSS, and latency
percentiles over the distinct requests of the cold and of the warm pass,
each request's latency being its median over the repetitions that served
it.  Times are corrected for the host's speed (see speed.py).  With
--trace 1 untraced and traced repetitions alternate on the same inputs;
the metrics are the per-layer ones from the traced repetitions plus
trace.overhead_frac.  A human-readable summary, the environment and the
sample counts go to stderr, and the full record is appended to
.perfbench_out/results.jsonl.

Exits 1 without a result if a repetition cannot run (for example when
the checkout has no src/panehr), and 1 after the result if any check
failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import layers
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("compute", "enumerate", "certify")
PASSES = ("cold", "warm")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cold_p50_ms": "ms",
    "cold_p90_ms": "ms",
    "warm_p50_ms": "ms",
    "warm_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
MIN_REPS = 3
# A run stops starting repetitions after this long, so that it ends well
# inside three minutes even on a slow machine.
HARD_STOP_S = 120


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_revision": git_revision(ROOT),
    }


def run_worker(workload: str, seed: int, batch: int, traced: bool,
               timeout: float) -> dict:
    """Run one repetition; raises RuntimeError when it cannot."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"repetition {batch} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {batch} exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"repetition {batch} printed no result:\n" + proc.stderr[-2000:])


def request_latencies(reps: list[dict], pass_name: str) -> list[float]:
    """One latency per distinct request of the pass: the median over the
    repetitions that served it, or infinity if any of them failed it."""
    pooled: dict[str, list[float]] = {}
    for r in reps:
        for key, values in r["latency_ms"][pass_name].items():
            pooled.setdefault(key, []).extend(values)
    return [math.inf if math.inf in v else stats.median(v) for v in pooled.values()]


def enough(reps: list[dict]) -> bool:
    return len(reps) >= MIN_REPS and all(
        stats.samples_beyond(len(request_latencies(reps, p)), 90) >= stats.MIN_BEYOND
        for p in PASSES)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    out = {name: stats.median([r[name] for r in reps])
           for name in ("setup_s", "wall_s", "peak_rss_mb")}
    for p in PASSES:
        latencies = request_latencies(reps, p)
        out[f"{p}_p50_ms"] = stats.percentile(latencies, 50)
        out[f"{p}_p90_ms"] = stats.tail_percentile(latencies, 90)
    return out


def per_layer(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    traced = [t["layers"] for _, t in pairs]
    out = {name: stats.median([m[name] for m in traced])
           for name in layers.METRICS if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = stats.median(
        [t["wall_s"] / u["wall_s"] for u, t in pairs]) - 1
    return out


def occurrences(reps: list[dict], pass_name: str) -> int:
    return sum(len(v) for r in reps for v in r["latency_ms"][pass_name].values())


def describe(workload: str, reps: list[dict], attempted: int, failed: int,
             metrics: dict, units: dict) -> str:
    lines = [f"perfbench: workload {workload}, {len(reps)} untraced repetitions"]
    for p in PASSES:
        latencies = request_latencies(reps, p)
        top = stats.highest_percentile(len(latencies))
        lines.append(f"  {p} pass: {len(latencies)} distinct requests, "
                     f"{occurrences(reps, p)} served; highest percentile with "
                     f"{stats.MIN_BEYOND} requests beyond it: p{top} = "
                     f"{stats.percentile(latencies, top):.3f} ms")
    lines.append(f"  failed_frac = {failed}/{attempted} = {failed / attempted:g}")
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "panehr" / "__init__.py").is_file():
        print(f"perfbench: no panehr sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    untraced: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    batch = 0
    try:
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= args.seconds and enough(untraced):
                break
            if elapsed >= HARD_STOP_S:
                raise RuntimeError(f"too few samples after {elapsed:.0f} s")
            timeout = 170 - elapsed
            rep = run_worker(args.workload, args.seed, batch, False, timeout)
            untraced.append(rep)
            if args.trace:
                timeout = 170 - (time.perf_counter() - started)
                pairs.append((rep, run_worker(args.workload, args.seed, batch,
                                              True, timeout)))
            batch += 1
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    everything = untraced + [t for _, t in pairs]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    if args.trace:
        metrics, units = per_layer(pairs), layers.METRICS
    else:
        metrics, units = end_to_end(untraced), END_TO_END
    env = environment()
    print(f"perfbench: {json.dumps(env)}", file=sys.stderr)
    print(describe(args.workload, untraced, attempted, failed, metrics, units), file=sys.stderr)
    for r in everything:
        for failure in r["failures"]:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "repetitions": len(untraced), "traced_repetitions": len(pairs),
        "samples": {p: {"requests": len(request_latencies(untraced, p)),
                        "served": occurrences(untraced, p)} for p in PASSES},
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "per_repetition": [{**{k: r[k] for k in ("setup_s", "wall_s", "peak_rss_mb")},
                            "raw": r["raw"]} for r in untraced],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
