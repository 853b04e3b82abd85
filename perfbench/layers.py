"""Which panehr functions the traced run wraps, and the per-layer metrics
derived from their spans."""

from __future__ import annotations

import importlib
import sys

from spans import Tracer

# (module, attribute, span name); a dotted attribute names a method.
# Functions listed under one span name are accounted together.
CALLS = (
    ("panehr.cli", "main", "cli.main"),
    ("panehr.cache", "load", "cache.load"),
    ("panehr.cache", "store", "cache.store"),
    ("panehr.exactmath", "Polynomial.__mul__", "exactmath.poly_mul"),
    ("panehr.exactmath", "binom_poly", "exactmath.binom_poly"),
    ("panehr.exactmath", "pi_range", "exactmath.pi_range"),
    ("panehr.ehrhart", "ehr_panhandle", "ehrhart.ehr_panhandle"),
    ("panehr.ehrhart", "phi_poly", "ehrhart.phi_poly"),
    ("panehr.ehrhart", "psi_poly", "ehrhart.psi_poly"),
    ("panehr.ehrhart", "ehr_paving", "ehrhart.ehr_paving"),
    ("panehr.oracle", "count_points_paving", "oracle.count_points_paving"),
    ("panehr.oracle", "interpolate", "oracle.interpolate"),
    ("panehr.forests", "cf_census", "forests.census"),
    ("panehr.forests", "cf1_census", "forests.census"),
    ("panehr.forests", "dcf_signed_census", "forests.census"),
    ("panehr.forests", "dcf1_signed_census", "forests.census"),
    ("panehr.forests", "check_distinguished", "forests.check_distinguished"),
    ("panehr.processing", "phi", "processing.phi"),
    ("panehr.processing", "phi_inverse", "processing.phi_inverse"),
    ("panehr.processing", "image_check", "processing.image_check"),
    ("panehr.processing", "process_step", "processing.process_step"),
    ("panehr.processing", "reverse_step", "processing.reverse_step"),
    ("panehr.processing", "involution_f", "processing.involution_f"),
)
# Iterators: one span per object produced.
ITERATORS = (("panehr.forests", "iter_dcf", "forests.iter_dcf"),)
# Spans the workloads open themselves around each campaign work unit.
UNIT = "campaigns.unit"

SPAN_NAMES = sorted({span for _, _, span in CALLS} | {UNIT})

METRICS: dict[str, str] = {}
for _span in SPAN_NAMES:
    METRICS[_span + ".calls"] = "count"
    METRICS[_span + ".self_s"] = "s"
METRICS.update({
    "forests.iter_dcf.objects": "count",
    "forests.iter_dcf.self_s": "s",
    "ehrhart.memo_hit_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "processing.checks_per_object": "ratio",
    "processing.phi_per_object": "ratio",
    "campaigns.unit_max_share": "ratio",
    "trace.overhead_frac": "ratio",
})


def _lookup(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


class LayerTrace:
    """Installs a Tracer on the panehr functions above and reads it back."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.cache_hits = 0
        ehrhart = importlib.import_module("panehr.ehrhart")
        self.memos = [f for f in vars(ehrhart).values() if hasattr(f, "cache_info")]

    def install(self) -> None:
        def count_hit(result) -> None:
            if result is not None:
                self.cache_hits += 1

        for module, attr, span in CALLS + ITERATORS:
            original = _lookup(module, attr)
            if original is None:
                print(f"perfbench: {module}.{attr} not found, not traced", file=sys.stderr)
                continue
            if (module, attr, span) in ITERATORS:
                wrapper = self.tracer.wrap_generator(original, span)
            else:
                wrapper = self.tracer.wrap(original, span,
                                           count_hit if span == "cache.load" else None)
            self.tracer.patch(original, wrapper)

    def restore(self) -> None:
        self.tracer.restore()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac, which needs an
        untraced run to compare with."""
        summary = self.tracer.summary()
        empty = {"calls": 0, "self_s": 0.0, "max_s": 0.0, "total_s": 0.0}
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            row = summary.get(span, empty)
            out[span + ".calls"] = row["calls"]
            out[span + ".self_s"] = row["self_s"]
        objects = self.tracer.counters["forests.iter_dcf.objects"]
        out["forests.iter_dcf.objects"] = objects
        out["forests.iter_dcf.self_s"] = summary.get("forests.iter_dcf", empty)["self_s"]
        hits = sum(f.cache_info().hits for f in self.memos)
        lookups = hits + sum(f.cache_info().misses for f in self.memos)
        out["ehrhart.memo_hit_ratio"] = hits / lookups if lookups else 0.0
        loads = out["cache.load.calls"]
        out["cache.hit_ratio"] = self.cache_hits / loads if loads else 0.0
        checks = out["forests.check_distinguished.calls"] + out["processing.image_check.calls"]
        out["processing.checks_per_object"] = checks / objects if objects else 0.0
        out["processing.phi_per_object"] = (out["processing.phi.calls"] / objects
                                            if objects else 0.0)
        unit = summary.get(UNIT, empty)
        out["campaigns.unit_max_share"] = (unit["max_s"] / unit["total_s"]
                                           if unit["total_s"] else 0.0)
        return out
