"""Command-line interface and artifact persistence.

Subcommands:

    solve    solve one wave at a requested steepness
    sweep    walk a steepness range and tabulate the family
    verify   run every certification check against a stored solution
    fields   export the sampled flow fields (CSV or JSON)
    limit    push the continuation to the steepest resolvable wave

Exit codes: 0 success, 1 verification failed, 2 invalid input or
configuration (nothing is written), 3 solver failure. On a solver failure
every command writes `<command>_failure.json` (error class, message, mode
count, and the requested steepness for `solve`) and the manifest.

All artifacts are JSON or CSV written atomically (temp file + rename), with
the mode a plain open() gives (0o666 less the umask) and deterministic
content, so identical runs at the same OpenBLAS thread count produce
byte-identical files. BLAS can round differently at another thread count:
`solve --steepness 0.01 --modes 4096` writes a different `solution.json`
with 1 and with 2 threads.
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
SHA-256 of the inputs, `--config` and `--solution` where given, and of the
bytes each output was written with, wall-clock timestamps); the manifest is
written last, and its timestamps are the one intentionally non-reproducible
artifact.

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
import secrets
import sys
import time
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import __version__
from .spectral_solver import (
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


def _atomic_write(path: Path, chunks: list[bytes]) -> str:
    """Write chunks to path atomically, creating its parent directories;
    returns the SHA-256 hex digest of the bytes written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    # Created 0o666 less the umask, as open() creates a file: the rename
    # keeps the temp file's mode, so mkstemp's 0o600 would stick.
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def _atomic_write_text(path: Path, text: str) -> str:
    return _atomic_write(path, [text.encode()])


def _finite_or_null(obj):
    """obj as plain JSON values: NumPy scalars as their Python values, and
    every non-finite float replaced by None."""
    if isinstance(obj, np.generic):
        obj = obj.item()
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
                  diagnostics: dict | None = None) -> str:
    """Write a solution as deterministic JSON (atomic); returns the file's
    SHA-256."""
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
    return _atomic_write_text(Path(path), _dump_json(doc))


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


def save_report(report: VerificationReport, path: str | Path) -> str:
    """Write a report as deterministic JSON (atomic); returns the file's
    SHA-256."""
    doc = {"format": _REPORT_FORMAT}
    doc.update(report.to_dict())
    return _atomic_write_text(Path(path), _dump_json(doc))


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


def write_fields_csv(samples: np.recarray, path: str | Path) -> str:
    """Export `physical_grid` records with the fixed header; floats carry 17
    significant digits. Returns the file's SHA-256.

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
    return _atomic_write(Path(path), parts)


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(outdir: Path, command: str, cfg: WaveConfig,
                   inputs: list[str | Path], outputs: dict[str, str],
                   started: float, extra: dict | None = None) -> Path:
    """Write the run manifest last. ``outputs`` maps each file name written
    to the SHA-256 its writer returned; only the inputs are read back to be
    hashed."""
    doc = {
        "format": "stokespressure.manifest/1",
        "tool_version": __version__,
        "command": command,
        "config": dataclasses.asdict(cfg),
        "timestamps": {"started": started, "finished": time.time()},
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "outputs": outputs,
    }
    if extra:
        doc["run"] = extra
    path = outdir / "manifest.json"
    _atomic_write_text(path, _dump_json(doc))
    return path


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or ".")


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
    if s_target == 0.0:
        diag: dict = {}
        sol = newton_solve(initial_guess(0.0, cfg), 0.0, cfg, diagnostics=diag)
        return sol, diag
    # Every other target goes through the continuation, which rejects a
    # negative or non-finite one and doubles N up to the cap while the tail
    # is unresolved; up to s = 0.02 it is one solve from the linear guess. A
    # cap below the starting N allows no doubling.
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


# Each `_cmd_*` runs one subcommand on the loaded configuration and the
# resolved output directory. It returns the exit code, {file name: SHA-256}
# of what it wrote, and the manifest's `run` extras; `main` does the rest.

def _cmd_solve(args, cfg: WaveConfig, outdir: Path):
    sol, diag = _solve_to(args.steepness, cfg, args.max_modes)
    path = outdir / "solution.json"
    digest = save_solution(sol, path, diagnostics=diag)
    print(f"solve: s = {steepness(sol):.6f}  c = {sol.c:.12g}  "
          f"E = {sol.E:.12g}  N = {sol.mode_count}  -> {path}")
    return 0, {path.name: digest}, {"steepness": steepness(sol)}


def _cmd_sweep(args, cfg: WaveConfig, outdir: Path):
    fam = continue_family(args.s_start, args.s_stop, cfg,
                          initial_step=args.s_step, max_modes=args.max_modes)
    outputs = {}
    rows = ["s,c,E,K,N,newton_iters,residual_norm,tail_ratio,"
            "midpoint_residual,crest_angle_deg"]
    for m in fam.members:
        spath = outdir / f"solution_s{m.steepness:.6f}.json"
        outputs[spath.name] = save_solution(m.solution, spath)
        rows.append(",".join([
            _fmt(m.steepness), _fmt(m.solution.c), _fmt(m.solution.E),
            _fmt(m.crest_indicator), str(m.solution.mode_count),
            str(m.newton_iters), _fmt(m.residual_norm), _fmt(m.tail_ratio),
            _fmt(midpoint_residual(m.solution)),
            _fmt(crest_angle(m.solution))]))
    summary = outdir / "summary.csv"
    outputs[summary.name] = _atomic_write_text(summary, "\n".join(rows) + "\n")
    print(f"sweep: {len(fam.members)} members to s = "
          f"{fam.members[-1].steepness:.6f} ({fam.stop_reason}) -> {summary}")
    return 0, outputs, {"stop_reason": fam.stop_reason,
                        "members": len(fam.members)}


def _cmd_verify(args, cfg: WaveConfig, outdir: Path):
    report = verify_all(load_solution(args.solution), cfg)
    path = outdir / "report.json"
    digest = save_report(report, path)
    for ch in report.checks:
        print(f"[{'pass' if ch.passed else 'FAIL'}] {ch.name}: "
              f"margin {ch.worst_margin:.3e} (tol {ch.tolerance_used:.1e}, "
              f"{ch.samples_checked} samples, {ch.samples_excluded} excluded)")
    print(f"verify: {'PASSED' if report.passed else 'FAILED'} "
          f"{sum(ch.passed for ch in report.checks)}/{len(report.checks)} "
          f"checks -> {path}")
    code = 0 if report.passed else 1
    return code, {path.name: digest}, {"passed": report.passed}


def _cmd_fields(args, cfg: WaveConfig, outdir: Path):
    samples = physical_grid(load_solution(args.solution), cfg)
    if args.format == "csv":
        path = outdir / "fields.csv"
        digest = write_fields_csv(samples, path)
    else:
        path = outdir / "fields.json"
        names = samples.dtype.names
        digest = _atomic_write_text(path, _dump_json(
            [dict(zip(names, row)) for row in samples.tolist()]))
    print(f"fields: {len(samples)} samples -> {path}")
    return 0, {path.name: digest}, {"samples": len(samples)}


def _cmd_limit(args, cfg: WaveConfig, outdir: Path):
    est = estimate_limit(cfg, max_modes=args.max_modes)
    path = outdir / "limit.json"
    digest = _atomic_write_text(path, _dump_json({
        "s_max": est.s_max,
        "K_at_max": est.K_at_max,
        "N_used": est.N_used,
        "stop_reason": est.stop_reason,
        "crest_angle_deg": crest_angle(est.family.last.solution),
    }))
    print(f"limit: s_max = {est.s_max:.6f}  K = {est.K_at_max:.4f}  "
          f"N = {est.N_used} ({est.stop_reason}) -> {path}")
    return 0, {path.name: digest}, None


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
    p.set_defaults(func=_cmd_limit)
    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: load the configuration, run the command, write
    the manifest last. Invalid input exits 2 before anything is written; a
    solver failure writes `<command>_failure.json` and exits 3."""
    args = _build_parser().parse_args(argv)
    started = time.time()
    try:
        cfg = load_config(args.config, _overrides_from(args))
        outdir = _out_dir(args)
        try:
            code, outputs, extra = args.func(args, cfg, outdir)
        except SolverError as exc:
            print(f"{args.command}: FAILED ({type(exc).__name__}: {exc})",
                  file=sys.stderr)
            failure = {"error": type(exc).__name__, "message": str(exc),
                       "mode_count": cfg.mode_count}
            if args.command == "solve":
                failure["steepness"] = args.steepness
            name = f"{args.command}_failure.json"
            outputs = {name: _atomic_write_text(outdir / name,
                                                _dump_json(failure))}
            code, extra = 3, None
    except (CliInputError, InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = [p for p in (args.config, getattr(args, "solution", None)) if p]
    write_manifest(outdir, args.command, cfg, inputs, outputs, started, extra)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
