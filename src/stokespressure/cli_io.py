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
`fields.csv` is printed in this one process by NumPy operations on whole
arrays (`_cells_17g`), to the same bytes as %.17g; the few values those
cannot prove exact (NaN, ±inf, subnormals, near-ties) go through
`format(x, ".17g")`. It is written 1,024 rows at a time.
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
import functools
import hashlib
import json
import math
import os
import secrets
import sys
import time
from pathlib import Path
from typing import Iterable

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
_FIELDS_CSV_FLOATS = ("x", "y", "u", "v", "P", "f", "P_x", "P_y")
# Rows per block of fields.csv. Larger blocks save little time but leave more
# freed heap resident: 4,096-row blocks raised the peak RSS of the `certify`
# benchmark by 3-4 MB.
_FIELDS_CSV_BLOCK = 1024
_SOLUTION_FORMAT = "stokespressure.solution/1"
_REPORT_FORMAT = "stokespressure.report/1"

_CONFIG_KEYS = {f.name for f in dataclasses.fields(WaveConfig)}


class CliInputError(ValueError):
    """Unusable file, config key, or argument value (exit code 2)."""


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> str:
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


# --- %.17g for arrays --------------------------------------------------------
#
# `_cells_17g` prints a float array as `_fmt` prints each value, with NumPy
# operations on whole arrays; the few values it cannot prove it prints
# exactly go through `_fmt`. Its tables are built on first use (~6 ms), not
# at import.

_CELL = 32                 # bytes per printed value, NUL-padded
_TIE_MARGIN = 1e-9         # 10**5 times the error bound of `_digits_17g`
_VELTKAMP = 134217729.0    # 2**27 + 1
_K_LO, _K_HI = -325, 309   # table rows; log10 of any double is clipped to them
# Layout classes: %g's fixed notation for k = -4..16 (class k + 4), its
# exponent notation, zero, and values left to `_fmt`.
_EXPONENT, _ZERO, _SCALAR = 21, 22, 23
_LE64 = np.dtype("<u8")    # byte i of a word is bits 8i..8i+7 on any host


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each part with at most 26 significant bits. If
    (2**27 + 1)·a overflows, both parts are NaN."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _words(b: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (..., 8n) bytes b as n arrays of little-endian 64-bit words."""
    w = np.ascontiguousarray(b, dtype=np.uint8).view(_LE64).astype(np.uint64)
    return tuple(np.ascontiguousarray(w[..., j]) for j in range(w.shape[-1]))


@functools.cache
def _g17_tables() -> dict[str, np.ndarray]:
    """The read-only tables of `_cells_17g`: per k in [_K_LO, _K_HI] the
    scale 10**(16-k), the layout class and the exponent suffix; per 4-digit
    chunk its ASCII and trailing zeros; and the layout masks, indexed by
    class and sign or by class and trailing zeros."""
    k = np.arange(_K_LO, _K_HI + 1)
    hi, lo = np.full(k.size, np.nan), np.full(k.size, np.nan)
    for i, e in enumerate((16 - k).tolist()):  # hi + lo = 10**e to 2**-106
        if 0 <= e <= 308:
            hi[i] = float(10 ** e)
            lo[i] = 10 ** e - int(hi[i])
        elif e < 0:
            hi[i] = 1 / 10 ** -e           # int / int rounds correctly
            num, den = hi[i].as_integer_ratio()
            lo[i] = (den - num * 10 ** -e) / (den * 10 ** -e)
    with np.errstate(over="ignore", invalid="ignore"):
        hi_hi, hi_lo = _veltkamp(hi)
    # Word 3 of an exponent-notation cell: "e+XX" or "e-XXX" from byte 1.
    suffix = np.zeros((k.size, 8), np.uint8)
    for i, kk in enumerate(k.tolist()):
        text = b"e%+03d" % kk
        suffix[i, 1:1 + len(text)] = np.frombuffer(text, np.uint8)

    # The 24-byte digit string E of a value: "-000000" then the 17 digits
    # of D, so digit j is byte 7 + j. A class keeps bytes first..last of E
    # as the integer part (and byte 0 for a negative value), and the bytes
    # after `last` up to the last nonzero digit as the fraction, which goes
    # one byte further on with a '.' in front.
    fixed = np.arange(-4, 17)
    first = np.r_[7 + np.minimum(fixed, 0), 7, 6, 24]
    last = np.r_[7 + fixed, 7, 6, -1]
    b = np.arange(24)
    cls = np.arange(24)[:, None, None]
    neg = np.arange(2)[:, None]
    zeros = np.arange(17)[:, None]         # trailing zeros of D
    keep_int = ((b >= first[cls]) & (b <= last[cls])) | ((b == 0) & (neg == 1))
    keep_frac = ((b > last[cls]) & (b < 24 - zeros)) & (cls < _ZERO)
    dot = (b == last[cls]) & keep_frac.any(axis=-1, keepdims=True)
    c = np.arange(10000)
    quad = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    tables = {
        "scale": np.stack([hi, hi_hi, hi_lo, lo]),
        "class": np.where((k >= -4) & (k <= 16), k + 4, _EXPONENT),
        "suffix": _words(suffix)[0],
        # four ASCII digits of 0..9999 in the low half of a word
        "quad": (quad + ord("0")).astype(np.uint8).view("<u4")[:, 0]
                .astype(np.uint64),
        "lead": np.frombuffer(b"".join(b"-000000%d" % d for d in range(10)),
                              _LE64).astype(np.uint64),
        "quad_zeros": ((c % 10 == 0).astype(np.uint8) + (c % 100 == 0)
                       + (c % 1000 == 0) + (c == 0)),
        "int_mask": _words(np.where(keep_int, 255, 0).reshape(-1, 24)),
        "frac_mask": _words(np.where(keep_frac, 255, 0).reshape(-1, 24)),
        "dot": _words(np.where(dot, ord("."), 0).reshape(-1, 24)),
    }
    for t in tables.values():
        for a in (t if isinstance(t, tuple) else (t,)):
            a.setflags(write=False)
    return tables


def _digits_17g(x: np.ndarray, tab: dict) -> tuple[np.ndarray, ...]:
    """(D, row, ok) for magnitudes x: the 17 digits %.17g prints as an
    integer D, the table row of k = floor(log10 x), and where D and k are
    exact. `_fmt` prints the values where ok is False.

    For x > 0 let y = x·10**(16-k), so 10**16 <= y < 10**17 and %.17g prints
    the digits of D = round-half-even(y) with %g's exponent k. The table
    holds 10**(16-k) as hi + lo to within 2**-106 relative. Dekker's
    two-product (Veltkamp splits of x and hi) gives p = fl(x·hi) and its
    rounding error e exactly, and with t = e + fl(x·lo), since |t| < 20 and
    y < 10**17,

        |y - (p + t)| <= (|x·lo| + |t|)·2**-53 + y·2**-106 < 1e-14.

    p >= 2**53 is an integer, so D = p + rint(t) whenever the fraction of t
    is more than `_TIE_MARGIN` from 1/2. log10 may come out one too large
    next to a power of ten; then y < 10**16, and (p - 10**16) + t < 0 shows
    it, because no double but 10**k itself has |y - 10**16| < 1.6e-3. ok is
    False where t misses the margin (exact ties among them), where
    (p - 10**16) + t < 0, where D >= 10**17 (log10 one too small, or y
    rounding up to 10**17), and where t is NaN: for NaN, inf, 0, subnormals,
    and x or 10**(16-k) above 1.3e300, where a Veltkamp split overflows.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.fmin(np.fmax(np.floor(np.log10(x)), _K_LO), _K_HI)
        row = (k - _K_LO).astype(np.intp)
        hi, hi_hi, hi_lo, lo = (np.take(s, row) for s in tab["scale"])
        p = x * hi
        x_hi, x_lo = _veltkamp(x)
        err = ((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo
        t = err + x * lo
        r = np.rint(t)
        d = p.astype(np.intp) + r.astype(np.intp)
    ok = ((np.abs(t - r) < 0.5 - _TIE_MARGIN) & ((p - 10**16) + t >= 0)
          & (d < 10**17))
    return d, row, ok


def _cells_17g(values: np.ndarray) -> np.ndarray:
    """Each value as `%.17g` prints it, as NUL-padded bytes: an array of
    shape values.shape + (32,) whose last byte is always NUL.

    `_digits_17g` gives the digits; the values it cannot vouch for are
    printed by `_fmt`, and ±0 print as 0 and -0. D's digits come four at a
    time from a table, and its trailing zeros from the four 4-digit chunks.
    The value's class (fixed notation at k, exponent notation, zero, or
    `_fmt`), sign and trailing zeros select masks that keep the integer
    digits in place and the fraction digits, led by '.', one byte further
    on; NUL stands for every dropped byte.
    """
    tab = _g17_tables()
    v = np.asarray(values, dtype=np.float64)
    d, row, ok = _digits_17g(np.abs(v), tab)
    cls = np.where(ok, np.take(tab["class"], row), _SCALAR)
    cls[v == 0] = _ZERO
    d[~ok] = 10**16
    high, low = d // 10**8, d % 10**8      # intp: np.take's fast index type
    chunks = [high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4]
    q = [np.take(tab["quad"], c) for c in chunks]
    digits = [np.take(tab["lead"], high // 10**8), q[0] | q[1] << 32,
              q[2] | q[3] << 32]
    zeros = np.take(tab["quad_zeros"], chunks[0])
    for c in chunks[1:]:
        z = np.take(tab["quad_zeros"], c)
        zeros = z + (z == 4) * zeros
    by_sign = cls * 2 + np.signbit(v)
    by_zeros = cls * 17 + zeros
    whole = [w & np.take(m, by_sign) for w, m in zip(digits, tab["int_mask"])]
    frac = [(w & np.take(m, by_zeros)) | np.take(dot, by_zeros)
            for w, m, dot in zip(digits, tab["frac_mask"], tab["dot"])]
    suffix = np.where(cls == _EXPONENT, np.take(tab["suffix"], row), 0)
    cells = np.stack([whole[0] | frac[0] << 8,
                      whole[1] | frac[1] << 8 | frac[0] >> 56,
                      whole[2] | frac[2] << 8 | frac[1] >> 56,
                      frac[2] >> 56 | suffix], axis=-1)
    cells = cells.astype(_LE64, copy=False).view(np.uint8)
    for i in zip(*np.nonzero(cls == _SCALAR)):
        text = _fmt(v[i]).encode()
        cells[i] = 0
        cells[i][:len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _distinct_cells(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cells, row_cell): `_cells_17g` of each distinct value of column, and
    each row's index into them. Values are told apart by bit pattern, not by
    float equality: 0.0 == -0.0, but they print as 0 and -0."""
    bits, row_cell = np.unique(column.view(np.uint64), return_inverse=True)
    return _cells_17g(bits.view(np.float64)), row_cell


def _fields_csv_chunks(samples: np.recarray):
    """The bytes of fields.csv: the header, then one chunk per block of
    `_FIELDS_CSV_BLOCK` rows, built as one uint8 matrix of NUL-padded cells
    and commas whose NULs are then dropped (`bytes.translate` drops them
    faster than a boolean mask)."""
    yield (FIELDS_CSV_HEADER + "\n").encode()
    q_cells, q_row = _distinct_cells(samples["q"])
    p_cells, p_row = _distinct_cells(samples["p"])
    for a in range(0, len(samples), _FIELDS_CSV_BLOCK):
        b = min(a + _FIELDS_CSV_BLOCK, len(samples))
        lines = np.zeros((b - a, 10 * _CELL + 2), np.uint8)
        cells = lines[:, :10 * _CELL].reshape(b - a, 10, _CELL)
        cells[:, 0] = q_cells[q_row[a:b]]
        cells[:, 1] = p_cells[p_row[a:b]]
        cells[:, 2:] = _cells_17g(np.stack(
            [samples[name][a:b] for name in _FIELDS_CSV_FLOATS], axis=1))
        cells[:, :, -1] = ord(",")
        lines[:, -2] = np.where(samples["excluded"][a:b], ord("1"), ord("0"))
        lines[:, -1] = ord("\n")
        yield lines.tobytes().translate(None, b"\0")


def write_fields_csv(samples: np.recarray, path: str | Path) -> str:
    """Export `physical_grid` records with the fixed header; floats are
    printed as `%.17g`. Returns the file's SHA-256.

    The file is written atomically, a block of rows at a time; if a block
    fails, neither the file nor its temp file is left behind.
    """
    return _atomic_write(Path(path), _fields_csv_chunks(samples))


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
