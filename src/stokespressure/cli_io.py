"""Command-line interface and artifact persistence.

Subcommands:

    solve    solve one wave at a requested steepness
    sweep    walk a steepness range and tabulate the family
    verify   run every certification check against a stored solution
    fields   export the sampled flow fields (CSV or JSON)
    limit    push the continuation to the steepest resolvable wave

Exit codes: 0 success, 1 verification failed, 2 invalid input or
configuration, 3 solver failure (diagnostics are still written).

All artifacts are JSON or CSV written atomically (temp file + rename) with
deterministic content, so identical runs at the same OpenBLAS thread count
produce byte-identical files. BLAS can round differently at another thread
count: `solve --steepness 0.01 --modes 4096` writes a different
`solution.json` with 1 and with 2 threads.
Dictionary keys are sorted. JSON floats use repr, the shortest digit string
that round-trips exactly. CSV floats (`fields.csv`, `summary.csv`) use
%.17g: 17 significant digits with trailing zeros dropped, so 0.1 is written
0.10000000000000001; that round-trips too, but is not the shortest string.
`fields.csv` is formatted on every core the process may run on: the rows
are split into one contiguous slice per core, the caller formats the first
and a child made by `os.fork` each other one, and the bytes are the same as
from one process. Python >= 3.12 warns when a process with threads (OpenBLAS
has some) forks; the child only formats strings and writes them to a pipe.
Every run also writes a manifest (tool version, configuration snapshot,
input hashes, outputs, wall-clock timestamps); the manifest is written last,
and its timestamps are the one intentionally non-reproducible artifact.

Output directory resolution: --out flag, else the STOKESPRESSURE_OUT
environment variable, else the working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import __version__
from .spectral_solver import (
    _MIN_STEP,
    ContinuationFamily,
    NonConvergence,
    SolverError,
    continue_family,
    estimate_limit,
    initial_guess,
    midpoint_residual,
    newton_solve,
)
from .hodograph_fields import physical_grid
from .verifier import VerificationReport, crest_angle, verify_all
from .wave_model import ConformalSolution, InvalidConfig, WaveConfig, steepness

__all__ = [
    "CliInputError",
    "FIELDS_CSV_HEADER",
    "OUTPUT_DIR_ENV",
    "load_config",
    "save_solution",
    "load_solution",
    "save_report",
    "load_report",
    "write_fields_csv",
    "write_manifest",
    "main",
    "entrypoint",
]

OUTPUT_DIR_ENV = "STOKESPRESSURE_OUT"
FIELDS_CSV_HEADER = "q,p,x,y,u,v,P,f,Px,Py,excluded"
# One CSV line, q and p already printed and excluded given as "0"/"1".
_FIELDS_CSV_LINE = "%s,%s," + "%.17g," * 8 + "%s\n"
_FIELDS_CSV_FLOATS = ("x", "y", "u", "v", "P", "f", "P_x", "P_y")
_FIELDS_CSV_BLOCK = 1024
_SOLUTION_FORMAT = "stokespressure.solution/1"
_REPORT_FORMAT = "stokespressure.report/1"

_CONFIG_KEYS = {f.name for f in dataclasses.fields(WaveConfig)}


class CliInputError(ValueError):
    """Unusable file, config key, or argument value (exit code 2)."""


def _atomic_write(path: Path, chunks: list[bytes]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, [text.encode()])


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _null_to_nan(obj):
    """The inverse of `_finite_or_null` for a document with no other null."""
    if obj is None:
        return math.nan
    if isinstance(obj, dict):
        return {k: _null_to_nan(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_null_to_nan(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    """Strict JSON: non-finite floats (the NaN margin of a check with no
    sample) are written as null."""
    return json.dumps(_finite_or_null(obj), sort_keys=True, indent=1,
                      allow_nan=False) + "\n"


def load_config(path: str | Path | None, overrides: dict | None = None) -> WaveConfig:
    """Build a WaveConfig from an optional JSON file plus flag overrides.

    The file must hold a flat object whose keys are WaveConfig field names;
    anything else is rejected. Overrides win over file values.
    """
    values: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliInputError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise CliInputError(f"config {path} must hold a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise CliInputError(
                f"unknown config keys in {path}: {', '.join(sorted(unknown))}")
        values.update(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    try:
        return WaveConfig(**values)
    except (InvalidConfig, TypeError) as exc:
        raise CliInputError(f"invalid configuration: {exc}") from exc


def save_solution(sol: ConformalSolution, path: str | Path,
                  diagnostics: dict | None = None) -> None:
    """Write a solution as deterministic JSON (atomic)."""
    doc = {
        "format": _SOLUTION_FORMAT,
        "c": sol.c,
        "E": sol.E,
        "gravity": sol.gravity,
        "surface_pressure": sol.surface_pressure,
        "mode_count": sol.mode_count,
        "coefficients": [float(a) for a in sol.coeffs],
    }
    if diagnostics:
        doc["diagnostics"] = diagnostics
    _atomic_write_text(Path(path), _dump_json(doc))


def load_solution(path: str | Path) -> ConformalSolution:
    """Read a solution written by `save_solution`; bit-exact round trip.

    Truncated, malformed, or inconsistent files raise CliInputError.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot read solution {path}: {exc}") from exc
    try:
        if doc["format"] != _SOLUTION_FORMAT:
            raise CliInputError(
                f"{path}: unrecognized format tag {doc.get('format')!r}")
        coeffs = np.asarray(doc["coefficients"], dtype=float)
        if coeffs.size != int(doc["mode_count"]):
            raise CliInputError(
                f"{path}: coefficient count {coeffs.size} does not match "
                f"mode_count {doc['mode_count']}")
        return ConformalSolution(
            c=float(doc["c"]), E=float(doc["E"]), coeffs=coeffs,
            gravity=float(doc["gravity"]),
            surface_pressure=float(doc["surface_pressure"]))
    except CliInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: malformed solution file: {exc}") from exc


def save_report(report: VerificationReport, path: str | Path) -> None:
    doc = {"format": _REPORT_FORMAT}
    doc.update(report.to_dict())
    _atomic_write_text(Path(path), _dump_json(doc))


def load_report(path: str | Path) -> VerificationReport:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot read report {path}: {exc}") from exc
    try:
        return VerificationReport.from_dict(_null_to_nan(doc))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: malformed report file: {exc}") from exc


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _printed(column: np.ndarray) -> np.ndarray:
    """Each row's value as `_fmt` prints it, formatting every distinct value
    once. Values are told apart by bit pattern, not by float equality:
    0.0 == -0.0, but they print as 0 and -0."""
    bits, row_text = np.unique(column.view(np.uint64), return_inverse=True)
    text = np.array([_fmt(v) for v in bits.view(np.float64).tolist()],
                    dtype=object)
    return text[row_text]


def _format_rows(columns: list[np.ndarray], start: int,
                 stop: int) -> list[bytes]:
    """Encoded CSV lines of rows start:stop, one `%` and one bytes object
    per block of rows.

    A block at a time: turning a whole 256x128 grid into Python objects at
    once fragments the small-object heap, and peak RSS then creeps up over
    repeated exports.
    """
    out = []
    for a in range(start, stop, _FIELDS_CSV_BLOCK):
        b = min(a + _FIELDS_CSV_BLOCK, stop)
        cells = np.empty((b - a, len(columns)), dtype=object)
        for k, col in enumerate(columns):
            cells[:, k] = col[a:b]
        text = _FIELDS_CSV_LINE * (b - a) % tuple(cells.ravel().tolist())
        out.append(text.encode())
    return out


def _fork_rows(columns: list[np.ndarray], start: int, stop: int,
               earlier: list[tuple[int, BinaryIO]]) -> tuple[int, BinaryIO]:
    """Format rows start:stop in a forked child; returns its pid and the
    read end of the pipe it writes the encoded lines to. `earlier` holds the
    (pid, reader) pairs of children already started."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            for _, reader in earlier:
                reader.close()
            with open(w, "wb") as fh:
                fh.writelines(_format_rows(columns, start, stop))
            status = 0
        finally:
            # Never return into the caller's stack: its finally blocks,
            # atexit hooks and buffered output belong to the parent.
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def write_fields_csv(samples: np.recarray, path: str | Path) -> None:
    """Export `physical_grid` records with the fixed header; floats carry 17
    significant digits.

    The rows are split on block boundaries into one contiguous slice per
    core this process may use. The caller formats the first slice and a
    forked child each other one; the file is written, atomically, only
    after every child has exited cleanly, else OSError is raised.
    """
    n = len(samples)
    columns = [_printed(samples["q"]), _printed(samples["p"]),
               *(samples[name] for name in _FIELDS_CSV_FLOATS),
               np.where(samples["excluded"], "1", "0")]
    blocks = -(-n // _FIELDS_CSV_BLOCK)
    workers = 1  # where the platform cannot fork or report its affinity
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = max(1, min(len(os.sched_getaffinity(0)), blocks))
    edges = [min(n, k * blocks // workers * _FIELDS_CSV_BLOCK)
             for k in range(workers + 1)]
    children: list[tuple[int, BinaryIO]] = []
    try:
        for start, stop in zip(edges[1:-1], edges[2:]):
            children.append(_fork_rows(columns, start, stop, children))
        parts = [(FIELDS_CSV_HEADER + "\n").encode(),
                 *_format_rows(columns, 0, edges[1])]
        parts += [reader.read() for _, reader in children]
    finally:
        # Closing the pipes first lets a child blocked on a full pipe fail
        # and exit, so that waiting for it cannot hang.
        for _, reader in children:
            reader.close()
        failed = [pid for pid, _ in children
                  if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0]
    if failed:
        raise OSError(f"fields.csv: {len(failed)} of {len(children)} "
                      f"formatting processes failed")
    _atomic_write(Path(path), parts)


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(outdir: Path, command: str, cfg: WaveConfig,
                   inputs: list[str | Path], outputs: list[str | Path],
                   started: float, extra: dict | None = None) -> Path:
    """Write the run manifest; call last so it can hash every output."""
    doc = {
        "format": "stokespressure.manifest/1",
        "tool_version": __version__,
        "command": command,
        "config": dataclasses.asdict(cfg),
        "timestamps": {"started": started, "finished": time.time()},
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(Path(p).name): _sha256(p) for p in outputs},
    }
    if extra:
        doc["run"] = extra
    path = outdir / "manifest.json"
    _atomic_write_text(path, _dump_json(doc))
    return path


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nq, np_ = text.lower().split("x")
        return int(nq), int(np_)
    except (ValueError, AttributeError) as exc:
        raise CliInputError(
            f"--grid expects NQxNP (e.g. 256x128), got {text!r}") from exc


def _overrides_from(args) -> dict:
    over = {
        "gravity": getattr(args, "gravity", None),
        "mode_count": getattr(args, "modes", None),
        "newton_tol": getattr(args, "tol", None),
        "grid_depth": getattr(args, "depth", None),
    }
    grid = getattr(args, "grid", None)
    if grid is not None:
        over["grid_nq"], over["grid_np"] = _parse_grid(grid)
    return over


def _solve_to(s_target: float, cfg: WaveConfig, max_modes: int) -> tuple[ConformalSolution, dict]:
    if s_target < 0.0:
        raise CliInputError("steepness must be nonnegative")
    if s_target == 0.0:
        diag: dict = {}
        sol = newton_solve(initial_guess(0.0, cfg), 0.0, cfg, diagnostics=diag)
        return sol, diag
    # Every positive target goes through the continuation, which doubles N
    # up to the cap while the tail is unresolved; up to s = 0.02 it is one
    # solve from the linear guess. A cap below the starting N allows no
    # doubling.
    fam = continue_family(min(0.02, s_target), s_target, cfg,
                          max_modes=max(max_modes, cfg.mode_count))
    last = fam.members[-1]
    if fam.stop_reason != "reached_stop" or \
            abs(last.steepness - s_target) > 1e-10:
        raise NonConvergence(
            f"continuation stalled at s = {last.steepness:.6f} "
            f"({fam.stop_reason}) before reaching {s_target}")
    return last.solution, {"iterations": last.newton_iters,
                           "residual_norm": last.residual_norm,
                           "tail_ratio": last.tail_ratio}


def _check_mode_cap(cfg: WaveConfig, max_modes: int) -> None:
    if cfg.mode_count > max_modes:
        raise CliInputError(f"mode_count {cfg.mode_count} exceeds "
                            f"--max-modes {max_modes}")


def _cmd_solve(args) -> int:
    started = time.time()
    cfg = load_config(args.config, _overrides_from(args))
    outdir = _out_dir(args)
    inputs = [args.config] if args.config else []
    try:
        sol, diag = _solve_to(args.steepness, cfg, args.max_modes)
    except SolverError as exc:
        failure = outdir / "solve_failure.json"
        _atomic_write_text(failure, _dump_json({
            "error": type(exc).__name__,
            "message": str(exc),
            "steepness": args.steepness,
            "mode_count": cfg.mode_count,
        }))
        write_manifest(outdir, "solve", cfg, inputs, [failure], started)
        print(f"solve: FAILED ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 3
    path = outdir / "solution.json"
    save_solution(sol, path, diagnostics=diag)
    write_manifest(outdir, "solve", cfg, inputs, [path], started,
                   extra={"steepness": steepness(sol)})
    print(f"solve: s = {steepness(sol):.6f}  c = {sol.c:.12g}  "
          f"E = {sol.E:.12g}  N = {sol.mode_count}  -> {path}")
    return 0


def _cmd_sweep(args) -> int:
    started = time.time()
    cfg = load_config(args.config, _overrides_from(args))
    _check_mode_cap(cfg, args.max_modes)
    if not 0.0 < args.s_start <= args.s_stop:
        raise CliInputError("need 0 < --s-start <= --s-stop")
    if not args.s_step >= _MIN_STEP:
        raise CliInputError(f"--s-step must be at least {_MIN_STEP:g}")
    outdir = _out_dir(args)
    inputs = [args.config] if args.config else []
    try:
        fam = continue_family(args.s_start, args.s_stop, cfg,
                              initial_step=args.s_step,
                              max_modes=args.max_modes)
    except SolverError as exc:
        print(f"sweep: FAILED ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 3
    outputs = []
    rows = ["s,c,E,K,N,newton_iters,residual_norm,tail_ratio,"
            "midpoint_residual,crest_angle_deg"]
    for m in fam.members:
        spath = outdir / f"solution_s{m.steepness:.6f}.json"
        save_solution(m.solution, spath)
        outputs.append(spath)
        rows.append(",".join([
            _fmt(m.steepness), _fmt(m.solution.c), _fmt(m.solution.E),
            _fmt(m.crest_indicator), str(m.solution.mode_count),
            str(m.newton_iters), _fmt(m.residual_norm), _fmt(m.tail_ratio),
            _fmt(midpoint_residual(m.solution)),
            _fmt(crest_angle(m.solution))]))
    summary = outdir / "summary.csv"
    _atomic_write_text(summary, "\n".join(rows) + "\n")
    outputs.append(summary)
    write_manifest(outdir, "sweep", cfg, inputs, outputs, started,
                   extra={"stop_reason": fam.stop_reason,
                          "members": len(fam.members)})
    print(f"sweep: {len(fam.members)} members to s = "
          f"{fam.members[-1].steepness:.6f} ({fam.stop_reason}) -> {summary}")
    return 0


def _cmd_verify(args) -> int:
    started = time.time()
    cfg = load_config(args.config, _overrides_from(args))
    outdir = _out_dir(args)
    sol = load_solution(args.solution)
    report = verify_all(sol, cfg)
    path = outdir / "report.json"
    save_report(report, path)
    write_manifest(outdir, "verify", cfg, [args.solution], [path], started,
                   extra={"passed": report.passed})
    for ch in report.checks:
        print(f"[{'pass' if ch.passed else 'FAIL'}] {ch.name}: "
              f"margin {ch.worst_margin:.3e} (tol {ch.tolerance_used:.1e}, "
              f"{ch.samples_checked} samples, {ch.samples_excluded} excluded)")
    print(f"verify: {'PASSED' if report.passed else 'FAILED'} "
          f"{sum(ch.passed for ch in report.checks)}/{len(report.checks)} "
          f"checks -> {path}")
    return 0 if report.passed else 1


def _cmd_fields(args) -> int:
    started = time.time()
    cfg = load_config(args.config, _overrides_from(args))
    outdir = _out_dir(args)
    sol = load_solution(args.solution)
    samples = physical_grid(sol, cfg)
    if args.format == "csv":
        path = outdir / "fields.csv"
        write_fields_csv(samples, path)
    else:
        path = outdir / "fields.json"
        names = samples.dtype.names
        _atomic_write_text(path, _dump_json(
            [dict(zip(names, row)) for row in samples.tolist()]))
    write_manifest(outdir, "fields", cfg, [args.solution], [path], started,
                   extra={"samples": len(samples)})
    print(f"fields: {len(samples)} samples -> {path}")
    return 0


def _cmd_limit(args) -> int:
    started = time.time()
    cfg = load_config(args.config, _overrides_from(args))
    _check_mode_cap(cfg, args.max_modes)
    outdir = _out_dir(args)
    est = estimate_limit(cfg, max_modes=args.max_modes,
                         time_budget=args.time_budget)
    path = outdir / "limit.json"
    _atomic_write_text(path, _dump_json({
        "s_max": est.s_max,
        "K_at_max": est.K_at_max,
        "N_used": est.N_used,
        "stop_reason": est.stop_reason,
        "crest_angle_deg": crest_angle(est.family.last.solution),
    }))
    inputs = [args.config] if args.config else []
    write_manifest(outdir, "limit", cfg, inputs, [path], started)
    print(f"limit: s_max = {est.s_max:.6f}  K = {est.K_at_max:.4f}  "
          f"N = {est.N_used} ({est.stop_reason}) -> {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stokespressure",
        description="Solve and certify periodic deep-water traveling waves.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, solution=False):
        p.add_argument("--config", help="JSON file of configuration values")
        p.add_argument("--out", help=f"output directory (default: "
                                     f"${OUTPUT_DIR_ENV} or the working directory)")
        p.add_argument("--modes", type=int, help="override mode_count")
        p.add_argument("--gravity", type=float, help="override gravity")
        p.add_argument("--tol", type=float, help="override newton_tol")
        p.add_argument("--grid", help="override field grid as NQxNP")
        p.add_argument("--depth", type=float, help="override grid floor p_min")
        if solution:
            p.add_argument("--solution", required=True,
                           help="path to a stored solution JSON")

    p = sub.add_parser("solve", help="solve one wave at a target steepness")
    common(p)
    p.add_argument("--steepness", type=float, required=True,
                   help="target crest-to-trough height over wavelength")
    p.add_argument("--max-modes", type=int, default=2048)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="walk a steepness range")
    common(p)
    p.add_argument("--s-start", type=float, required=True)
    p.add_argument("--s-stop", type=float, required=True)
    p.add_argument("--s-step", type=float, default=0.01)
    p.add_argument("--max-modes", type=int, default=2048)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="certify a stored solution")
    common(p, solution=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fields", help="export sampled flow fields")
    common(p, solution=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_fields)

    p = sub.add_parser("limit", help="estimate the steepest resolvable wave")
    common(p)
    p.add_argument("--max-modes", type=int, default=2048)
    p.add_argument("--time-budget", type=float, default=None,
                   help="soft wall-clock cap in seconds")
    p.set_defaults(func=_cmd_limit)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidConfig as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
