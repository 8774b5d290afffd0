"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep|limit|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/`. Set-up runs `SETUP_REPEATS` times, each in a fresh interpreter
(`prepare.py`), and `setup_s` is the median; the last set-up's files feed
the timed phase. The timed phase runs whole passes over the
workload's inputs, one more while the next is expected to end within
`--seconds` (the last pass's time is the estimate), at least one. With
`--trace 0` nothing is wrapped and the end-to-end metrics are printed; with
`--trace 1` the layer wrappers are installed for the timed phase only, the
spans are written to `.perfbench/spans/`, and the per-layer metrics are
printed. After the timed phase an untimed probe adds the workload's extra
checks (the `limit` containment check from the seed's start) and reports
known program defects (`certify`). The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exit code 2 means the
benchmark could not start (for example, no package source next to it), 1
that a set-up step failed; neither prints a result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5


class SetupFailed(RuntimeError):
    """A set-up step the timed phase depends on did not succeed."""


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads[Path(lib).name] = int(fn())
                break
    return threads


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> dict:
    """Cores, CPU, BLAS and versions the numbers were taken with."""
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    np_blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "numpy_blas": f"{np_blas['name']} {np_blas['version']}",
        "scipy_blas": f"{sp_blas['name']} {sp_blas['version']}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def _prepare(workload, inputs: dict, workdir: Path) -> float:
    """One set-up in a fresh interpreter (import, solver tables, the
    workload's stored inputs); returns its wall time."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), workload.name,
         json.dumps(inputs), str(workdir)],
        capture_output=True, text=True, timeout=300)
    seconds = time.perf_counter() - t0
    if out.returncode != 0:
        raise SetupFailed(out.stderr.strip() or f"exit code {out.returncode}")
    return seconds


def run(workload, inputs: dict, seconds: float, tracer, workdir: Path) -> dict:
    """Set up, run the timed phase and the probe, and return the raw results."""
    setups = [_prepare(workload, inputs, workdir / f"setup{rep}")
              for rep in range(SETUP_REPEATS)]
    state = workload.state(inputs, workdir / f"setup{SETUP_REPEATS - 1}")

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    passes = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(workload.run_pass(state, len(passes), span))
            now = time.perf_counter()
            if len(passes) == 1:
                # Later passes only add allocator fragmentation, and their
                # number depends on speed; the peak is taken here.
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if now - t_start + (now - t0) > seconds:
                break
    return {"setups": setups, "passes": passes, "peak_kb": peak_kb,
            "probe": workload.probe(state)}


def pass_seconds(passes) -> float:
    """Time of one pass, taken command by command: the sum over a pass's
    commands of each command's median time over the passes.

    On a shared 2-core VM, load from outside the process drifts every
    command's speed by up to 2x over tens of seconds, with CPU time equal
    to wall time and next to no steal time. The fastest repeat is a rare
    event under such drift: over 8 minutes of `certify` passes cut into
    32 s windows, the sum of fastest repeats spread 0.25 (quartile distance
    over median) and the sum of medians 0.18. A pass that runs once is its
    own time.
    """
    first = passes[0].stages
    return sum(statistics.median(p.stages[stage][i] for p in passes)
               for stage in first for i in range(len(first[stage])))


def end_to_end(raw: dict) -> dict[str, dict]:
    return {
        "setup_s": {"value": statistics.median(raw["setups"]), "unit": "s"},
        "wall_s": {"value": pass_seconds(raw["passes"]), "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_kb"] / 1024, "unit": "MB"},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stokespressure" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: on the 2-core VM this benchmark was built on, a second
    # thread made no workload faster and made `limit` noisier, since every
    # factorization then waits on whichever core is slowed by outside load.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import layers
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    inputs = workload.inputs(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    try:
        raw = run(workload, inputs, args.seconds, tracer, workdir)
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = raw["passes"]
    attempted = sum(p.attempted for p in passes) + raw["probe"].attempted
    failures = [f for p in passes for f in p.failures] + raw["probe"].failures
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} pass(es)")
    print("inputs:", json.dumps(inputs, sort_keys=True))
    print("machine:", json.dumps(machine(), sort_keys=True))
    stages = {stage: statistics.median(t for p in passes for t in p.stages[stage])
              for stage in passes[0].stages}
    stages[f"{workload.output_name}_per_s"] = (
        sum(p.outputs for p in passes)
        / sum(t for p in passes for ts in p.stages.values() for t in ts))
    print("stages:", json.dumps(stages))
    for failure in failures:
        print(f"FINDING: {failure}")
    for defect in raw["probe"].defects:
        print(f"KNOWN DEFECT: {defect}")
    print(f"failed_ratio: {len(failures)}/{attempted}")

    if tracer:
        metrics = layers.layer_metrics(tracer, len(passes),
                                       pass_seconds(passes))
        tracer.dump(OUT / "spans" / f"{workload.name}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(raw)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
