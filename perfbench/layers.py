"""Per-layer metrics of a traced run, computed from its spans.

Every metric is reported on every workload; a layer the workload does not
reach reads 0. Counts and times are per timed pass, so runs that fit a
different number of passes into their seconds stay comparable. The
`p50_ms.N<n>` metrics are per-call medians of the solver kernels at mode
count n.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from tracer import ATTRS, END, NAME, START, TARGETS, Tracer

POINTWISE = ("pressure", "pressure_gradient", "velocity_gradients", "f_field")

# The per-layer metrics as BENCHMARK.json declares them: (name, unit).
SPEC: list[tuple[str, str]] = [
    (m["name"], m["unit"]) for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())["per_layer"]]

# Functions whose own self time is a metric; every layer's is one too.
SELF_TIMED = ("spectral_solver.newton_solve", "verifier.verify_all")


def _values(tracer: Tracer, passes: int, wall_s: float) -> dict[str, float]:
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    failed: dict[str, int] = defaultdict(int)
    failed_total: dict[str, float] = defaultdict(float)
    extra: dict[str, float] = defaultdict(float)
    per_call: dict[str, list[float]] = defaultdict(list)
    selfs = tracer.self_times()
    for i, rec in enumerate(tracer.spans):
        name, dur, attrs = rec[NAME], rec[END] - rec[START], rec[ATTRS] or {}
        calls[name] += 1
        total[name] += dur
        self_total[name] += selfs[i]
        self_total[name.split(".", 1)[0]] += selfs[i]
        if attrs.get("failed"):
            failed[name] += 1
            failed_total[name] += dur
            if name == "spectral_solver.newton_solve":
                for outer in ("oracles.limit_bracket",
                              "spectral_solver.estimate_limit"):
                    if tracer.ancestor_named(i, outer):
                        extra[outer + ".newton_failed_s"] += dur
            continue
        if "order" in attrs:
            extra[name + ".gflop_computed"] += 2.0 / 3.0 * attrs["order"] ** 3 / 1e9
        for key in ("samples", "bytes"):
            if key in attrs:
                extra[f"{name}.{key}"] += attrs[key]
        if "n" in attrs:
            per_call[f"{name}.p50_ms.N{attrs['n']}"].append(1e3 * dur)

    out = {key: value / passes for key, value in extra.items()}
    for layer, names in TARGETS.items():
        for fname in names:
            key = f"{layer}.{fname}"
            out[key + ".calls"] = calls[key] / passes
            out[key + ".s"] = total[key] / passes
        out[layer + ".self_s"] = self_total[layer] / passes
    for key in SELF_TIMED:
        out[key + ".self_s"] = self_total[key] / passes
    ns = "spectral_solver.newton_solve"
    out[ns + ".failed"] = failed[ns] / passes
    out[ns + ".failed_s"] = failed_total[ns] / passes
    out[ns + ".useful_ratio"] = 1.0 - failed[ns] / calls[ns] if calls[ns] else 0.0
    out["hodograph_fields.pointwise.calls"] = sum(
        calls[f"hodograph_fields.{f}"] for f in POINTWISE) / passes
    out["hodograph_fields.pointwise.s"] = sum(
        total[f"hodograph_fields.{f}"] for f in POINTWISE) / passes
    out.update({key: statistics.median(d) for key, d in per_call.items()})
    out["bench.self_s"] = self_total["bench"] / passes
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = len(tracer.spans) / passes
    return out


def layer_metrics(tracer: Tracer, passes: int, wall_s: float) -> dict[str, dict]:
    """Every per-layer metric of `SPEC`, as {name: {"value", "unit"}}."""
    values = _values(tracer, passes, wall_s)
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in SPEC}
