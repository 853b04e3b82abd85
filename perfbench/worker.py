"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --batch I --trace 0|1

Imports panehr from the checkout's own src/ (and refuses any other copy),
works in a private temporary directory under the checkout whose cache
directory is passed to the program both as --cache-dir and as
PANEHR_CACHE_DIR, and prints one JSON object with the repetition's
timings (scaled to reference speed by speed.Timeline, raw ones alongside),
check counts and, when traced, per-layer metrics.  run.py starts
one worker per repetition so that no in-process memo survives from one
repetition to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

_clock = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    started = _clock()
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        os.environ["PANEHR_CACHE_DIR"] = str(workdir / "cache")
        sys.path.insert(0, str(SRC))
        import panehr
        if Path(panehr.__file__).resolve().parent != SRC / "panehr":
            print(f"perfbench: imported panehr from {panehr.__file__}, "
                  f"not from {SRC}", file=sys.stderr)
            return 2
        import layers
        import speed
        import workloads
        workload = workloads.WORKLOADS[args.workload](args.seed, args.batch, workdir)
        setup_raw_s = _clock() - started

        trace = layers.LayerTrace() if args.trace else None
        if trace:
            trace.install()
        rep = workloads.Rep(speed.Timeline())
        workload.run(rep, trace.tracer.span if trace else lambda name: nullcontext())
        latencies = rep.finish()
        if trace:
            trace.restore()
        timeline = rep.timeline
        result = {
            "setup_s": setup_raw_s * speed.REFERENCE_PROBE_S / timeline.probes[0],
            "wall_s": timeline.wall(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **latencies,
            "raw": {"setup_s": setup_raw_s, "wall_s": timeline.raw_wall(),
                    "probe_median_s": statistics.median(timeline.probes)},
            "attempted": rep.attempted,
            "failed": rep.failed,
            "failures": rep.failures,
            "layers": trace.metrics() if trace else None,
        }
        if trace:
            OUT.mkdir(exist_ok=True)
            trace.tracer.write(OUT / f"spans-{args.workload}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # json.dumps writes a failed request's infinite latency as Infinity,
    # which json.loads in run.py reads back.
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
