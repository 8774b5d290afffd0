"""Record a result set: untraced runs over several seeds plus one traced run.

    python3 perfbench/record.py --out perfbench/results/BENCH_baseline.json \
        [--workloads sweep,limit,certify] [--seeds 1-10] [--seconds S]

Each run is a fresh `run.py` process, one after another. For every workload
the file holds the end-to-end metrics of each seed with their median and
spread (distance between the first and third quartile over the median),
the traced run's per-layer metrics on the first seed, the tracing overhead
(traced `wall_s` minus untraced `wall_s` on that seed), the known defects
the runs reported, and the machine description. The solver kernels'
per-call medians are collected next to the kernel table measured before
this benchmark existed. `--seconds` defaults to `run_seconds` in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
    "run_seconds"]

# Per-call kernel times in ms from the project roadmap's first baseline
# (same 2-core machine, measured by a one-off script before this benchmark).
ROADMAP_KERNEL_MS = {
    "residual_vector": {"N256": 0.05, "N1024": 1.7, "N2048": 10.3, "N4096": 28},
    "jacobian": {"N256": 1.9, "N1024": 37, "N2048": 142, "N4096": 714},
    "lu_factor": {"N256": 1.0, "N1024": 33, "N2048": 204, "N4096": 1230},
}


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                         cwd=HERE.parent)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(": ")
        if key in ("machine", "stages"):
            result[key] = json.loads(rest)
    for key, prefix in (("findings", "FINDING: "),
                        ("known_defects", "KNOWN DEFECT: ")):
        result[key] = [ln[len(prefix):] for ln in lines
                       if ln.startswith(prefix)]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workloads", default="sweep,limit,certify")
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--seconds", default=RUN_SECONDS, type=float)
    args = ap.parse_args()

    doc: dict = {"command": "python3 perfbench/run.py --workload W --seed N "
                            f"--seconds {args.seconds:g} --trace 0|1",
                 "seeds": args.seeds, "workloads": {}}
    kernels: dict = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(one_run(name, seed, args.seconds, 0))
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = one_run(name, args.seeds[0], args.seconds, 1)
        doc.setdefault("machine", runs[0]["machine"])
        metrics = {}
        for key, first in runs[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in runs]
            metrics[key] = {"unit": first["unit"], "values": values,
                            "median": statistics.median(values),
                            "spread": spread(values) if len(values) > 1 else None}
        layer = traced["metrics"]
        untraced_wall = runs[0]["metrics"]["wall_s"]["value"]
        doc["workloads"][name] = {
            "end_to_end": metrics,
            "stages_by_seed": [r["stages"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "findings": [f for r in runs for f in r["findings"]],
            "known_defects": sorted({d for r in runs
                                     for d in r["known_defects"]}),
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in layer.items()},
            "tracing_overhead_s": layer["trace.wall_s"]["value"] - untraced_wall,
        }
        for key, value in layer.items():
            if ".p50_ms.N" in key and value["value"] > 0.0:
                kernel, _, n = key.split(".", 1)[1].partition(".p50_ms.")
                kernels.setdefault(kernel, {}).setdefault(n, {})[name] = value["value"]
    doc["kernel_p50_ms"] = kernels
    doc["roadmap_kernel_ms"] = ROADMAP_KERNEL_MS
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
