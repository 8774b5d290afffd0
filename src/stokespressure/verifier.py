"""Certification sweeps for solved waves.

Each check examines one claimed property of the reconstructed flow on a
deterministic sampling set and reports a `CheckResult` with the worst signed
margin, its location, and the sample counts. `verify_all` bundles every
check into a `VerificationReport`. Strict-sign checks (P_x < 0, v > 0, ...)
compare at floating-point resolution; identity checks carry explicit
tolerances. For a flat stream the strict-sign fields vanish identically, so
those checks report a degenerate pass (margin 0, flagged in the note) rather
than a vacuous failure.

Sampling points inside the excision disc of a near-stagnation crest are
counted and skipped; every reported result states how many samples were
checked and how many were excluded. A check left with no sample to check
fails with margin NaN and the note "empty sampling set": it has certified
nothing.

The finite-difference witnesses evaluate all their points at once: each
stencil is one array call on the scattered-point jet, through one array
position inversion per stencil point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .hodograph_fields import (
    FieldGrid,
    _exclusion_mask,
    f_field,
    grid_fields,
    pressure,
    pressure_gradient,
    surface_curvature,
    velocity_gradients,
)
from .spectral_solver import _grid_defect, collocation_angles
from .wave_model import (
    ConformalSolution,
    StripPoint,
    WaveConfig,
    crest_indicator,
    eval_conformal_jet,
    eval_jet_grid,
    steepness,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "verify_theorem_Px",
    "verify_theorem_Py",
    "verify_f_results",
    "verify_velocity_results",
    "crest_angle",
    "verify_all",
]

_DEFAULT = WaveConfig()

# Fields smaller than this (relative to gravity) over the whole sampling set
# are treated as identically zero for strict-sign purposes.
_DEGENERATE_FLOOR = 1e-14


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    worst_margin: float
    worst_location: tuple[float, float]
    samples_checked: int
    samples_excluded: int
    tolerance_used: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_margin": float(self.worst_margin),
            "worst_location": [float(self.worst_location[0]),
                               float(self.worst_location[1])],
            "samples_checked": int(self.samples_checked),
            "samples_excluded": int(self.samples_excluded),
            "tolerance_used": float(self.tolerance_used),
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckResult":
        return cls(
            name=d["name"], passed=bool(d["passed"]),
            worst_margin=float(d["worst_margin"]),
            worst_location=(float(d["worst_location"][0]),
                            float(d["worst_location"][1])),
            samples_checked=int(d["samples_checked"]),
            samples_excluded=int(d["samples_excluded"]),
            tolerance_used=float(d["tolerance_used"]),
            note=d.get("note", ""),
        )


@dataclass(frozen=True)
class VerificationReport:
    """All check outcomes for one solution, plus identifying metadata."""

    steepness: float
    c: float
    E: float
    mode_count: int
    crest_indicator: float
    grid_nq: int
    grid_np: int
    grid_depth: float
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def check(self, name: str) -> CheckResult:
        for ch in self.checks:
            if ch.name == name:
                return ch
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "steepness": float(self.steepness),
            "c": float(self.c),
            "E": float(self.E),
            "mode_count": int(self.mode_count),
            "crest_indicator": float(self.crest_indicator),
            "grid_nq": int(self.grid_nq),
            "grid_np": int(self.grid_np),
            "grid_depth": float(self.grid_depth),
            "passed": bool(self.passed),
            "checks": [ch.to_dict() for ch in self.checks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(
            steepness=float(d["steepness"]), c=float(d["c"]), E=float(d["E"]),
            mode_count=int(d["mode_count"]),
            crest_indicator=float(d["crest_indicator"]),
            grid_nq=int(d["grid_nq"]), grid_np=int(d["grid_np"]),
            grid_depth=float(d["grid_depth"]),
            checks=tuple(CheckResult.from_dict(c) for c in d["checks"]),
        )


def _default_grid(sol: ConformalSolution, cfg: WaveConfig) -> FieldGrid:
    q = np.linspace(0.0, np.pi * sol.c, cfg.grid_nq)
    p = np.linspace(cfg.resolved_depth(sol.c), 0.0, cfg.grid_np)
    return grid_fields(sol, q, p, cfg)


def _loc(gf: FieldGrid, flat_index: int) -> tuple[float, float]:
    i, j = np.unravel_index(flat_index, gf.excluded.shape)
    return (float(gf.q[j]), float(gf.p[i]))


def _empty_set(name: str, n_excl: int, tol: float) -> CheckResult:
    """The failed result of a check that has no sample left to check."""
    return CheckResult(name, False, math.nan, (math.nan, math.nan), 0, n_excl,
                       tol, "empty sampling set")


def _strict_negative(name, gf, values, mask, scale, note="") -> CheckResult:
    """Strict sign check: values < 0 on the unexcluded masked set."""
    sel = mask & ~gf.excluded
    n_checked = int(sel.sum())
    n_excl = int((mask & gf.excluded).sum())
    vals = np.where(sel, values, -np.inf)
    if n_checked == 0:
        return _empty_set(name, n_excl, 0.0)
    if np.abs(np.where(sel, values, 0.0)).max() <= _DEGENERATE_FLOOR * scale:
        return CheckResult(name, True, 0.0, (0.0, 0.0), n_checked, n_excl, 0.0,
                           "degenerate pass: field vanishes identically "
                           "on the sampling set" + (("; " + note) if note else ""))
    idx = int(vals.argmax())
    worst = float(vals.flat[idx])
    return CheckResult(name, bool(worst < 0.0), worst, _loc(gf, idx),
                       n_checked, n_excl, 0.0, note)


def _abs_bound(name, gf, values, mask, tol, note="") -> CheckResult:
    """Bound check: |values| <= tol on the unexcluded masked set."""
    sel = mask & ~gf.excluded
    n_checked = int(sel.sum())
    n_excl = int((mask & gf.excluded).sum())
    if n_checked == 0:
        return _empty_set(name, n_excl, tol)
    vals = np.where(sel, np.abs(values), -np.inf)
    idx = int(vals.argmax())
    worst = float(vals.flat[idx])
    return CheckResult(name, bool(worst <= tol), worst, _loc(gf, idx),
                       n_checked, n_excl, tol, note)


def verify_theorem_Px(sol: ConformalSolution, cfg: WaveConfig | None = None,
                      fields: FieldGrid | None = None) -> list[CheckResult]:
    """Horizontal pressure-gradient structure on the half period.

    (a) P_x < 0 strictly at every unexcluded point strictly between the
    crest and trough lines, surface row included; (b, c) P_x vanishes on the
    crest and trough lines to 1e-10 * g.
    """
    cfg = cfg or _DEFAULT
    gf = fields if fields is not None else _default_grid(sol, cfg)
    g = sol.gravity
    interior = np.ones_like(gf.excluded)
    interior[:, 0] = interior[:, -1] = False
    crest = np.zeros_like(interior)
    crest[:, 0] = True
    trough = np.zeros_like(interior)
    trough[:, -1] = True
    return [
        _strict_negative("pressure_x_negative", gf, gf.P_x, interior, g),
        _abs_bound("pressure_x_crest_line", gf, gf.P_x, crest, 1e-10 * g),
        _abs_bound("pressure_x_trough_line", gf, gf.P_x, trough, 1e-10 * g),
    ]


def verify_theorem_Py(sol: ConformalSolution, cfg: WaveConfig | None = None,
                      fields: FieldGrid | None = None) -> list[CheckResult]:
    """Vertical pressure-gradient structure.

    (a) P_y < 0 at every unexcluded grid point, lines and surface included;
    (b) at depth p = -20 c the flow is indistinguishable from hydrostatic,
    |P_y + g| <= 1e-8 * g. The slower e^{p/c} decay at p = -10 c is recorded
    in the note of (b) against its own decay-scaled bound.
    """
    cfg = cfg or _DEFAULT
    gf = fields if fields is not None else _default_grid(sol, cfg)
    g = sol.gravity
    everywhere = np.ones_like(gf.excluded)
    res = [_strict_negative("pressure_y_negative", gf, gf.P_y, everywhere, g)]

    deep = grid_fields(sol, gf.q, np.array([-20.0 * sol.c]), cfg)
    worst = float(np.abs(deep.P_y + g).max())
    j = int(np.abs(deep.P_y + g).argmax())
    ten = grid_fields(sol, gf.q, np.array([-10.0 * sol.c]), cfg)
    margin10 = float(np.abs(ten.P_y + g).max())
    bound10 = math.exp(-10.0) * float(
        np.abs(sol.coeffs).sum()) * (g + sol.c**2) / max(sol.c, 1.0)
    res.append(CheckResult(
        "pressure_y_far_field", bool(worst <= 1e-8 * g), worst,
        (float(deep.q[j]), -20.0 * sol.c), int(deep.P_y.size), 0, 1e-8 * g,
        note=(f"at p=-10c: max |P_y + g| = {margin10:.3e} "
              f"(decay-scaled bound {bound10:.3e})")))
    return res


def verify_f_results(sol: ConformalSolution, cfg: WaveConfig | None = None,
                     fields: FieldGrid | None = None) -> list[CheckResult]:
    """Surface and line structure of the comparison function f = (c-u)v - gx.

    (a) f <= 0 on the surface over the half period, (b) f decreases along
    the surface, (c) f = 0 on the crest line and f = -g pi on the trough
    line, (d) f is harmonic in the physical variables (finite-difference
    Laplacian at deterministic interior points).
    """
    cfg = cfg or _DEFAULT
    gf = fields if fields is not None else _default_grid(sol, cfg)
    g = sol.gravity
    tol = 1e-10 * g
    surface_row = np.zeros_like(gf.excluded)
    surface_row[-1, :] = True

    checks = [
        _abs_bound("surface_f_nonpositive", gf, np.maximum(gf.f, 0.0),
                   surface_row, tol,
                   note="margin is max(f, 0); f must not exceed 0"),
    ]

    # d/dx f(x, eta(x)) = f_q / h_p on p = 0.
    dfdx = gf.f_q[-1] / gf.h_p[-1]
    checks.append(_abs_bound("surface_f_decreasing", gf,
                             np.where(surface_row, np.maximum(dfdx, 0.0), 0.0),
                             surface_row, tol,
                             note="margin is max(df/dx, 0) along the surface"))

    lines = np.zeros_like(gf.excluded)
    lines[:, 0] = lines[:, -1] = True
    line_err = np.zeros_like(gf.f)
    line_err[:, 0] = gf.f[:, 0]
    line_err[:, -1] = gf.f[:, -1] + g * np.pi
    checks.append(_abs_bound("f_line_values", gf, line_err, lines, tol,
                             note="f on the crest line and f + g pi on the "
                                  "trough line"))

    q, p, n_excl = _fd_points(sol, cfg, count=12, seed=7)
    jet = eval_conformal_jet(sol, StripPoint(q, p))
    lift = oracles.physical_lift(
        sol, lambda s_, pt: f_field(s_, pt, cfg), q, p)
    lap = oracles.fd_laplacian(lift, np.array([jet.x, jet.h]), step=1e-3)
    checks.append(_witness("f_harmonic_fd", q, p, np.abs(lap), n_excl,
                           1e-5 * g))
    return checks


def verify_velocity_results(sol: ConformalSolution,
                            cfg: WaveConfig | None = None,
                            fields: FieldGrid | None = None) -> list[CheckResult]:
    """Sign structure of the velocity field.

    (a) v > 0 strictly off the crest and trough lines (surface included)
    and v = 0 on the lines to 1e-12 * c; (b) u < c everywhere; (c) the
    horizontal velocity decreases from crest to trough at fixed p
    (u_q < 0 strictly off the lines).
    """
    cfg = cfg or _DEFAULT
    gf = fields if fields is not None else _default_grid(sol, cfg)
    interior = np.ones_like(gf.excluded)
    interior[:, 0] = interior[:, -1] = False
    everywhere = np.ones_like(gf.excluded)

    v_interior = _strict_negative("velocity_v_positive", gf, -gf.v, interior,
                                  sol.c)
    lines = ~interior
    line_v = np.abs(gf.v[lines & ~gf.excluded])
    n_checked = v_interior.samples_checked + line_v.size
    n_excl = v_interior.samples_excluded + int((lines & gf.excluded).sum())
    if n_checked == 0:
        v_check = _empty_set("velocity_v_positive", n_excl, 1e-12 * sol.c)
    else:
        # With no line sample left, line_max is NaN and the check fails.
        line_max = float(line_v.max()) if line_v.size else math.nan
        v_pass = v_interior.passed and line_max <= 1e-12 * sol.c
        v_check = CheckResult(
            "velocity_v_positive", v_pass,
            -v_interior.worst_margin if np.isfinite(v_interior.worst_margin)
            else math.nan,
            v_interior.worst_location, n_checked, n_excl, 1e-12 * sol.c,
            note=(v_interior.note + ("; " if v_interior.note else "")
                  + "margin is min v off the lines; "
                  + f"max |v| on lines = {line_max:.3e}"))

    return [
        v_check,
        _strict_negative("velocity_below_wave_speed", gf, gf.u - sol.c,
                         everywhere, sol.c),
        _strict_negative("velocity_uq_negative", gf, gf.u_q, interior, sol.c),
    ]


def crest_angle(sol: ConformalSolution, samples: int = 256) -> float:
    """Interior crest angle estimate in degrees.

    Takes the three surface samples nearest the crest at the fixed angular
    resolution pi/samples, forms the quadratic extrapolation of their |slope|
    to the crest, and converts the largest of extrapolation and samples to
    an interior angle. The flat stream gives 180; values fall monotonically
    with steepness toward the 120-degree corner of the limiting wave.
    Extrapolation alone would vanish for every smooth wave (the slope is odd
    in the crest distance), hence the max with the sampled slopes.
    """
    if samples < 8:
        raise ValueError("need at least 8 surface samples")
    theta = np.pi / samples * np.arange(1, 4, dtype=float)
    jets = eval_jet_grid(sol, sol.c * theta, np.array([0.0]))
    s1, s2, s3 = (-(jets.h_q[0] / jets.h_p[0])).tolist()
    extrapolated = 3.0 * s1 - 3.0 * s2 + s3
    slope = max(extrapolated, s1, s2, s3, 0.0)
    return 180.0 - 2.0 * math.degrees(math.atan(slope))


def _fd_points(sol, cfg, count, seed, qlo=0.12, qhi=0.88,
               plo=-3.0, phi=-0.15):
    """Deterministic pseudo-random interior points clear of the boundaries:
    (q, p) of the points kept and the count excluded."""
    rng = np.random.default_rng(seed)
    q = np.pi * sol.c * rng.uniform(qlo, qhi, count)
    p = sol.c * rng.uniform(plo, phi, count)
    excl = _exclusion_mask(sol, q, p, cfg)
    return q[~excl], p[~excl], int(excl.sum())


def _witness(name, q, p, err, n_excl, tol, note="") -> CheckResult:
    """Worst of the per-point witness errors err at the points (q, p)."""
    if err.size == 0:
        return _empty_set(name, n_excl, tol)
    j = int(err.argmax())
    return CheckResult(name, bool(err[j] <= tol), float(err[j]),
                       (float(q[j]), float(p[j])), err.size, n_excl, tol, note)


def _series_reference_check(sol: ConformalSolution, cfg: WaveConfig) -> CheckResult:
    """Vectorized jet against the extended-precision term-by-term oracle."""
    rng = np.random.default_rng(11)
    q, p = np.array([(rng.uniform(-2.0 * np.pi * sol.c, 2.0 * np.pi * sol.c),
                      rng.uniform(-4.0 * sol.c, 0.0)) for _ in range(24)]).T
    fast = eval_conformal_jet(sol, StripPoint(q, p))
    err = np.zeros_like(q)
    for i in range(q.size):
        slow = oracles.naive_eval(sol, StripPoint(float(q[i]), float(p[i])))
        err[i] = max(abs(getattr(fast, name)[i] - getattr(slow, name))
                     for name in ("h", "h_q", "h_p", "h_qq", "h_qp", "h_pp",
                                  "x", "x_q", "x_p"))
    return _witness("series_reference", q, p, err, 0, 1e-12,
                    note="includes conjugacy and harmonicity: the oracle "
                         "sums x_q, x_p, h_pp independently")


def _bernoulli_checks(sol: ConformalSolution, cfg: WaveConfig) -> list[CheckResult]:
    n = sol.mode_count
    # On the 2N-interval grid theta_m = m pi / (2N) the even points are the
    # collocation angles and the odd points the midpoints between them.
    defect = np.abs(_grid_defect(sol, 2 * n))
    r_c, r_m = defect[0::2], defect[1::2]
    j = int(r_c.argmax())
    coll = CheckResult(
        "bernoulli_collocation", bool(r_c[j] <= 10.0 * cfg.newton_tol),
        float(r_c[j]), (float(sol.c * collocation_angles(n)[j]), 0.0),
        r_c.size, 0, 10.0 * cfg.newton_tol)
    j = int(r_m.argmax())
    midc = CheckResult(
        "bernoulli_midpoint", bool(r_m[j] <= 1e3 * cfg.newton_tol),
        float(r_m[j]), (float(sol.c * ((j + 0.5) * np.pi / n)), 0.0), r_m.size,
        0, 1e3 * cfg.newton_tol,
        note="aliasing probe between collocation angles")
    return [coll, midc]


def _identity_checks(sol: ConformalSolution, cfg: WaveConfig,
                     gf: FieldGrid) -> list[CheckResult]:
    g = sol.gravity
    checks = []

    everywhere = np.ones_like(gf.excluded)
    checks.append(_abs_bound(
        "hodograph_consistency", gf,
        ((sol.c - gf.u) ** 2 + gf.v**2) * gf.D - 1.0, everywhere, 1e-10,
        note="relative defect of (c-u)^2 + v^2 = 1 / (h_q^2 + h_p^2)"))
    checks.append(_abs_bound(
        "pressure_gradient_dual", gf,
        (gf.P_x - gf.P_x_alt) / (np.abs(gf.P_x) + g), everywhere, 1e-9,
        note="momentum-balance route against u_q / D"))

    # Finite-difference witness for the analytic gradient, physical axes.
    q, p, n_excl = _fd_points(sol, cfg, count=100, seed=3)
    jet = eval_conformal_jet(sol, StripPoint(q, p))
    p_x, p_y = pressure_gradient(sol, StripPoint(q, p), cfg)
    lift = oracles.physical_lift(
        sol, lambda s_, pt: pressure(s_, pt, cfg), q, p)
    base = np.array([jet.x, jet.h])
    fx = oracles.fd_derivative(lift, base, np.array([1.0, 0.0]),
                               step=3e-4, richardson=True)
    fy = oracles.fd_derivative(lift, base, np.array([0.0, 1.0]),
                               step=3e-4, richardson=True)
    checks.append(_witness(
        "pressure_gradient_fd", q, p,
        np.maximum(np.abs(fx - p_x), np.abs(fy - p_y)), n_excl, 1e-5 * g,
        note="Richardson-extrapolated finite differences of P along x and y"))

    q, p, n_excl = _fd_points(sol, cfg, count=16, seed=5)
    jet = eval_conformal_jet(sol, StripPoint(q, p))
    u_x, u_y, _, _ = velocity_gradients(sol, StripPoint(q, p), cfg)
    lift = oracles.physical_lift(
        sol, lambda s_, pt: pressure(s_, pt, cfg), q, p)
    lap = oracles.fd_laplacian(lift, np.array([jet.x, jet.h]), step=1e-3)
    checks.append(_witness(
        "pressure_superharmonic", q, p,
        np.abs(lap + 2.0 * (u_x**2 + u_y**2)), n_excl, 1e-5 * g,
        note="FD Laplacian of P against -2 (u_x^2 + u_y^2)"))

    # Height-function harmonicity witnessed by finite differences in (q, p).
    q, p, n_excl = _fd_points(sol, cfg, count=8, seed=13)
    lap = oracles.fd_laplacian(
        lambda qp: eval_conformal_jet(
            sol, StripPoint(qp[0], np.minimum(qp[1], 0.0))).h,
        np.array([q, p]), step=1e-3)
    checks.append(_witness("height_harmonic_fd", q, p, np.abs(lap), n_excl,
                           1e-5))

    deep = eval_jet_grid(sol, gf.q, np.array([-10.0 * sol.c]))
    k = np.arange(1.0, sol.coeffs.size + 1.0)
    bound = math.exp(-10.0) * float((k * np.abs(sol.coeffs)).sum()) / sol.c
    err = max(float(np.abs(deep.h_q[0]).max()),
              float(np.abs(deep.h_p[0] - 1.0 / sol.c).max()))
    checks.append(CheckResult(
        "far_field_decay", bool(err <= bound + 1e-15), err,
        (float(gf.q[0]), -10.0 * sol.c), 2 * gf.q.size, 0, bound,
        note="mode-sum decay bound for h_q and h_p - 1/c at p = -10c"))

    deepv = grid_fields(sol, gf.q, np.array([-20.0 * sol.c]), cfg)
    speed = np.maximum(np.abs(deepv.u[0]), np.abs(deepv.v[0]))
    j = int(speed.argmax())
    checks.append(CheckResult(
        "velocity_far_field", bool(speed[j] <= 1e-8 * sol.c), float(speed[j]),
        (float(gf.q[j]), -20.0 * sol.c), 2 * gf.q.size, 0, 1e-8 * sol.c,
        note="moving-frame velocity at p = -20c"))
    return checks


def _surface_checks(sol: ConformalSolution, cfg: WaveConfig,
                    gf: FieldGrid) -> list[CheckResult]:
    g = sol.gravity
    checks = []
    surface_excl = gf.excluded[-1]
    slope = gf.h_q[-1] / gf.h_p[-1]
    sel = ~surface_excl
    sel_int = sel.copy()
    sel_int[0] = sel_int[-1] = False

    amax = float(np.abs(sol.coeffs).max())
    if not sel_int.any():
        checks.append(_empty_set("surface_monotone", int(surface_excl.sum()),
                                 0.0))
    elif amax <= _DEGENERATE_FLOOR:
        checks.append(CheckResult(
            "surface_monotone", True, 0.0, (0.0, 0.0), int(sel_int.sum()),
            int(surface_excl.sum()), 0.0, "degenerate pass: flat stream"))
    else:
        vals = np.where(sel_int, slope, -np.inf)
        j = int(vals.argmax())
        checks.append(CheckResult(
            "surface_monotone", bool(vals[j] < 0.0), float(vals[j]),
            (float(gf.q[j]), 0.0), int(sel_int.sum()),
            int(surface_excl.sum()), 0.0,
            note="margin is max d eta / dx strictly between crest and trough"))

    if not sel.any():
        checks.append(_empty_set("surface_slope_bound",
                                 int(surface_excl.sum()), 1.0))
    else:
        vals = np.where(sel, slope**2, -np.inf)
        j = int(vals.argmax())
        checks.append(CheckResult(
            "surface_slope_bound", bool(vals[j] < 1.0), float(vals[j]),
            (float(gf.q[j]), 0.0), int(sel.sum()), int(surface_excl.sum()),
            1.0, note="margin is max (d eta / dx)^2; must stay below 1"))

    xs, e2 = surface_curvature(sol, max(cfg.grid_nq, 64))
    tol = 1e-8 * max(float(np.abs(e2).max()), 1e-30)
    if amax <= _DEGENERATE_FLOOR:
        checks.append(CheckResult(
            "surface_convexity", True, 0.0, (0.0, 0.0), xs.size, 0, tol,
            "degenerate pass: flat stream"))
    else:
        nonneg = np.flatnonzero(e2 >= 0.0)
        if nonneg.size == 0:
            checks.append(CheckResult(
                "surface_convexity", False, float(e2.max()),
                (float(xs[int(e2.argmax())]), 0.0), xs.size, 0, tol,
                "curvature never becomes nonnegative"))
        else:
            x_star = float(xs[nonneg[0]])
            beyond = e2[nonneg[0]:]
            worst = float(beyond.min())
            j = int(beyond.argmin()) + nonneg[0]
            single = bool((beyond >= -tol).all())
            checks.append(CheckResult(
                "surface_convexity", single, worst, (float(xs[j]), 0.0),
                xs.size, 0, tol,
                note=(f"concave cap half-width x* = {x_star:.6f}; curvature "
                      f"changes sign once and stays nonnegative to the trough")))
    return checks


def verify_all(sol: ConformalSolution, cfg: WaveConfig | None = None) -> VerificationReport:
    """Run every check against a solved wave on the configured grid.

    Deterministic: repeated calls on the same solution produce identical
    reports. The grid, FD sampling sets and tolerances all come from cfg
    and module constants, never from global state.
    """
    cfg = cfg or _DEFAULT
    gf = _default_grid(sol, cfg)
    checks: list[CheckResult] = []
    checks.append(_series_reference_check(sol, cfg))
    checks.extend(_bernoulli_checks(sol, cfg))
    checks.extend(_identity_checks(sol, cfg, gf))
    checks.extend(verify_theorem_Px(sol, cfg, gf))
    checks.extend(verify_theorem_Py(sol, cfg, gf))
    checks.extend(verify_f_results(sol, cfg, gf))
    checks.extend(verify_velocity_results(sol, cfg, gf))
    checks.extend(_surface_checks(sol, cfg, gf))
    return VerificationReport(
        steepness=steepness(sol), c=sol.c, E=sol.E,
        mode_count=sol.mode_count, crest_indicator=crest_indicator(sol),
        grid_nq=cfg.grid_nq, grid_np=cfg.grid_np,
        grid_depth=cfg.resolved_depth(sol.c),
        checks=tuple(checks))
