"""Span tracer that times the package's layers from the outside.

`Tracer.installed()` replaces each function named in `TARGETS` with a timing
wrapper at every module attribute of the package that holds it, which is the
name its callers look it up by: `cli_io.verify_all` as well as
`verifier.verify_all`, and scipy's `lu_factor` as bound in
`spectral_solver`. Nothing under `src/` is edited, and leaving the context
puts every original object back.

Each wrapped call records one span: name, start, end, the index of the span
that was open when it began (its parent) and a few attributes. Spans stay in
memory until `dump` writes them out. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

PACKAGE = "stokespressure"

# Layer (module) -> public functions wrapped in it.
TARGETS: dict[str, tuple[str, ...]] = {
    "wave_model": ("eval_conformal_jet", "eval_jet_grid"),
    "spectral_solver": ("newton_solve", "residual_vector", "jacobian",
                        "lu_factor", "continue_family", "estimate_limit"),
    "hodograph_fields": ("grid_fields", "physical_grid", "invert_position",
                         "pressure", "pressure_gradient",
                         "velocity_gradients", "f_field"),
    "verifier": ("verify_all", "verify_theorem_Px", "verify_theorem_Py",
                 "verify_f_results", "verify_velocity_results",
                 "crest_angle"),
    "oracles": ("naive_eval", "fd_derivative", "fd_laplacian",
                "limit_bracket"),
    "cli_io": ("save_solution", "load_solution", "save_report",
               "write_fields_csv", "write_manifest"),
}

# Span attributes taken from a call's arguments or result. Solver kernel
# spans carry the mode count N; lu_factor also the matrix order.
_ATTRS = {
    "spectral_solver.residual_vector": lambda a, out: {"n": a[0].mode_count},
    "spectral_solver.jacobian": lambda a, out: {"n": a[0].mode_count},
    "spectral_solver.lu_factor": lambda a, out: {"n": a[0].shape[0] - 2,
                                                 "order": a[0].shape[0]},
    "hodograph_fields.physical_grid": lambda a, out: {"samples": len(out)},
    "cli_io.write_fields_csv": lambda a, out: {"bytes": os.path.getsize(a[1])},
}

# Span record fields.
NAME, START, END, PARENT, ATTRS = range(5)


def package_modules() -> list:
    """The imported modules of the package, in name order."""
    return [mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    """In-memory span recorder with install/restore of the layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one of its own steps."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ATTRS] = {"failed": True}
                raise
            finally:
                self._close(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target at every package attribute that holds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        for layer, names in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                out[rec[PARENT]] -= rec[END] - rec[START]
        return out

    def ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, times in seconds from tracer start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": rec[NAME], "parent": rec[PARENT],
                    "start": rec[START] - self.t0, "end": rec[END] - self.t0,
                    **(rec[ATTRS] or {})}) + "\n")
