"""Certification sweeps for solved waves.

Each check examines one claimed property of the reconstructed flow on a
deterministic sampling set and reports a `CheckResult` with the worst signed
margin, its location, and the sample counts, checked and excluded, over that
set. One builder, `_check`, turns a check's errors into its result. `verify_all` bundles every
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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import oracles
from .hodograph_fields import (
    FieldGrid,
    _exclusion_mask,
    _strip_grid,
    f_field,
    grid_fields,
    pressure,
    pressure_gradient,
    surface,
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
# Box of the finite-difference witness points, as q / (pi c) and p / c.
_FD_Q, _FD_P = (0.12, 0.88), (-3.0, -0.15)


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
        return asdict(self)

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
        return {**asdict(self), "passed": self.passed}

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


# Sampling sets of the grid checks, as index expressions into the arrays of a
# `FieldGrid`: rows run from the floor up to the surface p = 0, columns from
# the crest line q = 0 to the trough line q = pi c.
_GRID = np.s_[:, :]
_INTERIOR = np.s_[:, 1:-1]  # strictly between the crest and trough lines
_CREST = np.s_[:, :1]
_TROUGH = np.s_[:, -1:]
_LINES = np.s_[:, [0, -1]]
_SURFACE = np.s_[-1]
_SURFACE_INTERIOR = np.s_[-1, 1:-1]


def _check(name, err, keep, at, tol, strict=False, note="") -> CheckResult:
    """The result of one check from the errors of the samples it kept.

    ``keep`` marks, over the check's own sampling set, the samples checked;
    the rest are counted as excluded. ``err`` holds the error of each kept
    sample, in the set's flat order, and ``at`` the set's coordinates (q, p),
    arrays or floats that broadcast to ``keep``'s shape. The worst sample is
    the first largest error, or the first NaN; the check passes if it is
    below ``tol`` (``strict``) or at most ``tol``. A set with no sample kept
    fails with margin NaN.
    """
    n = int(np.count_nonzero(keep))
    n_excl = keep.size - n
    if n == 0:
        return CheckResult(name, False, math.nan, (math.nan, math.nan), 0,
                           n_excl, tol, "empty sampling set")
    j = int(np.argmax(err))
    worst = float(np.ravel(err)[j])
    i = int(np.flatnonzero(keep)[j])
    loc = tuple(float(np.broadcast_to(c, keep.shape).flat[i]) for c in at)
    return CheckResult(name, bool(worst < tol if strict else worst <= tol),
                       worst, loc, n, n_excl, tol, note)


def _grid_check(name, gf, values, where, tol, strict=False,
                note="") -> CheckResult:
    """`_check` of values (broadcast to the grid) on the grid sampling set
    ``where``, outside the excision disc."""
    shape = gf.excluded.shape
    keep = ~gf.excluded[where]
    err, q, p = (np.broadcast_to(v, shape)[where]
                 for v in (values, gf.q, gf.p[:, None]))
    return _check(name, err[keep], keep, (q, p), tol, strict, note)


def _degenerate(name, keep, tol, why) -> CheckResult:
    # Built by hand: a degenerate pass reports margin 0 at (0, 0), no sample.
    n = int(np.count_nonzero(keep))
    return CheckResult(name, True, 0.0, (0.0, 0.0), n, keep.size - n, tol,
                       "degenerate pass: " + why)


def _negative(name, gf, values, where, scale) -> CheckResult:
    """Strict sign check values < 0 on the grid sampling set ``where``; a
    field that vanishes there (to _DEGENERATE_FLOOR * scale) passes as
    degenerate."""
    keep = ~gf.excluded[where]
    if keep.any() and (np.abs(values[where][keep]).max()
                       <= _DEGENERATE_FLOOR * scale):
        return _degenerate(name, keep, 0.0,
                           "field vanishes identically on the sampling set")
    return _grid_check(name, gf, values, where, 0.0, strict=True)


def verify_theorem_Px(sol: ConformalSolution, cfg: WaveConfig | None = None,
                      fields: FieldGrid | None = None) -> list[CheckResult]:
    """Horizontal pressure-gradient structure on the half period.

    (a) P_x < 0 strictly at every unexcluded point strictly between the
    crest and trough lines, surface row included; (b, c) P_x vanishes on the
    crest and trough lines to 1e-10 * g.
    """
    cfg = cfg or _DEFAULT
    gf = fields if fields is not None else _strip_grid(sol, cfg)
    g = sol.gravity
    abs_px = np.abs(gf.P_x)
    return [
        _negative("pressure_x_negative", gf, gf.P_x, _INTERIOR, g),
        _grid_check("pressure_x_crest_line", gf, abs_px, _CREST, 1e-10 * g),
        _grid_check("pressure_x_trough_line", gf, abs_px, _TROUGH, 1e-10 * g),
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
    gf = fields if fields is not None else _strip_grid(sol, cfg)
    g = sol.gravity
    deep = grid_fields(sol, gf.q, np.array([-20.0 * sol.c]))
    err = np.abs(deep.P_y + g)
    ten = grid_fields(sol, gf.q, np.array([-10.0 * sol.c]))
    margin10 = float(np.abs(ten.P_y + g).max())
    bound10 = math.exp(-10.0) * float(
        np.abs(sol.coeffs).sum()) * (g + sol.c**2) / max(sol.c, 1.0)
    return [
        _negative("pressure_y_negative", gf, gf.P_y, _GRID, g),
        _check("pressure_y_far_field", err, np.ones(err.shape, bool),
               (deep.q, -20.0 * sol.c), 1e-8 * g,
               note=(f"at p=-10c: max |P_y + g| = {margin10:.3e} "
                     f"(decay-scaled bound {bound10:.3e})")),
    ]


def verify_f_results(sol: ConformalSolution, cfg: WaveConfig | None = None,
                     fields: FieldGrid | None = None) -> list[CheckResult]:
    """Surface and line structure of the comparison function f = (c-u)v - gx.

    (a) f <= 0 on the surface over the half period, (b) f decreases along
    the surface, (c) f = 0 on the crest line and f = -g pi on the trough
    line, (d) f is harmonic in the physical variables (finite-difference
    Laplacian at deterministic interior points).
    """
    cfg = cfg or _DEFAULT
    gf = fields if fields is not None else _strip_grid(sol, cfg)
    g = sol.gravity
    tol = 1e-10 * g
    # f on the crest line, f + g pi on the trough line.
    line_err = np.abs(gf.f + g * np.pi * (np.arange(gf.q.size) == gf.q.size - 1))
    q, p, keep, base, lift = _fd_lift(sol, f_field, count=12, seed=7)
    lap = oracles.fd_laplacian(lift, base, step=1e-3)
    return [
        _grid_check("surface_f_nonpositive", gf, np.maximum(gf.f, 0.0),
                    _SURFACE, tol,
                    note="margin is max(f, 0); f must not exceed 0"),
        # d/dx f(x, eta(x)) = f_q / h_p on p = 0.
        _grid_check("surface_f_decreasing", gf,
                    np.maximum(gf.f_q[-1] / gf.h_p[-1], 0.0), _SURFACE, tol,
                    note="margin is max(df/dx, 0) along the surface"),
        _grid_check("f_line_values", gf, line_err, _LINES, tol,
                    note="f on the crest line and f + g pi on the "
                         "trough line"),
        _check("f_harmonic_fd", np.abs(lap), keep, (q, p), 1e-5 * g),
    ]


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
    gf = fields if fields is not None else _strip_grid(sol, cfg)
    tol = 1e-12 * sol.c
    v_interior = _negative("velocity_v_positive", gf, -gf.v, _INTERIOR, sol.c)
    line_keep = ~gf.excluded[_LINES]
    line_v = np.abs(gf.v[_LINES][line_keep])
    if v_interior.samples_checked + line_v.size == 0:
        v_check = _grid_check("velocity_v_positive", gf, gf.v, _GRID, tol)
    else:
        # Built by hand: a strict sign off the lines joined to a bound on them.
        # With no line sample left, line_max is NaN and the check fails.
        line_max = float(line_v.max()) if line_v.size else math.nan
        v_pass = v_interior.passed and line_max <= tol
        v_check = CheckResult(
            "velocity_v_positive", v_pass,
            -v_interior.worst_margin if np.isfinite(v_interior.worst_margin)
            else math.nan,
            v_interior.worst_location,
            v_interior.samples_checked + line_v.size,
            v_interior.samples_excluded + line_keep.size - line_v.size, tol,
            note=(v_interior.note + ("; " if v_interior.note else "")
                  + "margin is min v off the lines; "
                  + f"max |v| on lines = {line_max:.3e}"))

    return [
        v_check,
        _negative("velocity_below_wave_speed", gf, gf.u - sol.c, _GRID, sol.c),
        _negative("velocity_uq_negative", gf, gf.u_q, _INTERIOR, sol.c),
    ]


def crest_angle(sol: ConformalSolution) -> float:
    """Interior crest angle estimate in degrees.

    Takes the three surface samples nearest the crest at the fixed angular
    resolution pi/256, forms the quadratic extrapolation of their |slope|
    to the crest, and converts the largest of extrapolation and samples to
    an interior angle. The flat stream gives 180; values fall monotonically
    with steepness toward the 120-degree corner of the limiting wave.
    Extrapolation alone would vanish for every smooth wave (the slope is odd
    in the crest distance), hence the max with the sampled slopes.
    """
    theta = np.pi / 256 * np.arange(1, 4, dtype=float)
    # Three angles off the half-period grid: `eval_jet_grid` sums them as
    # scattered points.
    jets = eval_jet_grid(sol, sol.c * theta, np.array([0.0]))
    s1, s2, s3 = (-(jets.h_q[0] / jets.h_p[0])).tolist()
    extrapolated = 3.0 * s1 - 3.0 * s2 + s3
    slope = max(extrapolated, s1, s2, s3, 0.0)
    return 180.0 - 2.0 * math.degrees(math.atan(slope))


def _fd_points(sol, count, seed):
    """Deterministic pseudo-random interior points clear of the boundaries:
    their q, p and the mask of those outside any active excision disc."""
    rng = np.random.default_rng(seed)
    q = np.pi * sol.c * rng.uniform(*_FD_Q, count)
    p = sol.c * rng.uniform(*_FD_P, count)
    return q, p, ~_exclusion_mask(sol, q, p)


def _fd_lift(sol, field, count, seed):
    """Set-up of a physical-space FD witness: the points of `_fd_points` and
    their keep mask, then at the kept points their physical positions (x, y)
    and the lift of the pointwise field function ``field`` to them."""
    q, p, keep = _fd_points(sol, count, seed)
    jet = eval_conformal_jet(sol, StripPoint(q[keep], p[keep]))
    lift = oracles.physical_lift(sol, field, q[keep], p[keep])
    return q, p, keep, np.array([jet.x, jet.h]), lift


def _series_reference_check(sol: ConformalSolution) -> CheckResult:
    """Vectorized jet against the extended-precision term-by-term oracle, at
    24 points with p in [-4c, 0], 8 of them on the surface row p = 0, where
    |z| = 1 and the rounding of the powers z^k is largest."""
    rng = np.random.default_rng(11)
    q = rng.uniform(-2.0 * np.pi * sol.c, 2.0 * np.pi * sol.c, 24)
    p = rng.uniform(-4.0 * sol.c, 0.0, 24)
    p[:8] = 0.0
    fast = eval_conformal_jet(sol, StripPoint(q, p))
    err = np.zeros_like(q)
    for i in range(q.size):
        slow = oracles.naive_eval(sol, StripPoint(float(q[i]), float(p[i])))
        err[i] = max(abs(getattr(fast, name)[i] - getattr(slow, name))
                     for name in ("h", "h_q", "h_p", "h_qq", "h_qp", "h_pp",
                                  "x", "x_q", "x_p"))
    return _check("series_reference", err, np.ones(q.size, bool), (q, p),
                  1e-12, note="includes conjugacy and harmonicity: the oracle "
                              "sums x_q, x_p, h_pp independently")


def _bernoulli_checks(sol: ConformalSolution, cfg: WaveConfig) -> list[CheckResult]:
    n = sol.mode_count
    # On the 2N-interval grid theta_m = m pi / (2N) the even points are the
    # collocation angles and the odd points the midpoints between them.
    defect = np.abs(_grid_defect(sol, 2 * n))
    r_c, r_m = defect[0::2], defect[1::2]
    return [
        _check("bernoulli_collocation", r_c, np.ones(r_c.size, bool),
               (sol.c * collocation_angles(n), 0.0), 10.0 * cfg.newton_tol),
        _check("bernoulli_midpoint", r_m, np.ones(r_m.size, bool),
               (sol.c * ((np.arange(n) + 0.5) * np.pi / n), 0.0),
               1e3 * cfg.newton_tol,
               note="aliasing probe between collocation angles"),
    ]


def _identity_checks(sol: ConformalSolution,
                     gf: FieldGrid) -> list[CheckResult]:
    g = sol.gravity
    checks = [
        _grid_check(
            "hodograph_consistency", gf,
            np.abs(((sol.c - gf.u) ** 2 + gf.v**2) * gf.D - 1.0), _GRID,
            1e-10,
            note="relative defect of (c-u)^2 + v^2 = 1 / (h_q^2 + h_p^2)"),
        _grid_check(
            "pressure_gradient_dual", gf,
            np.abs((gf.P_x - gf.P_x_alt) / (np.abs(gf.P_x) + g)), _GRID, 1e-9,
            note="momentum-balance route against u_q / D"),
    ]

    # Finite-difference witness for the analytic gradient, physical axes.
    q, p, keep, base, lift = _fd_lift(sol, pressure, count=100, seed=3)
    p_x, p_y = pressure_gradient(sol, StripPoint(q[keep], p[keep]))
    fx = oracles.fd_derivative(lift, base, np.array([1.0, 0.0]),
                               step=3e-4, richardson=True)
    fy = oracles.fd_derivative(lift, base, np.array([0.0, 1.0]),
                               step=3e-4, richardson=True)
    checks.append(_check(
        "pressure_gradient_fd", np.maximum(np.abs(fx - p_x), np.abs(fy - p_y)),
        keep, (q, p), 1e-5 * g,
        note="Richardson-extrapolated finite differences of P along x and y"))

    q, p, keep, base, lift = _fd_lift(sol, pressure, count=16, seed=5)
    u_x, u_y, _, _ = velocity_gradients(sol, StripPoint(q[keep], p[keep]))
    lap = oracles.fd_laplacian(lift, base, step=1e-3)
    checks.append(_check(
        "pressure_superharmonic", np.abs(lap + 2.0 * (u_x**2 + u_y**2)),
        keep, (q, p), 1e-5 * g,
        note="FD Laplacian of P against -2 (u_x^2 + u_y^2)"))

    # Height-function harmonicity witnessed by finite differences in (q, p).
    q, p, keep = _fd_points(sol, count=8, seed=13)
    lap = oracles.fd_laplacian(
        lambda qp: eval_conformal_jet(
            sol, StripPoint(qp[0], np.minimum(qp[1], 0.0))).h,
        np.array([q[keep], p[keep]]), step=1e-3)
    checks.append(_check("height_harmonic_fd", np.abs(lap), keep, (q, p),
                         1e-5))

    deep = eval_jet_grid(sol, gf.q, np.array([-10.0 * sol.c]))
    k = np.arange(1.0, sol.coeffs.size + 1.0)
    bound = math.exp(-10.0) * float((k * np.abs(sol.coeffs)).sum()) / sol.c
    # |h_q| and |h_p - 1/c| side by side at each q: two samples per point.
    err = np.abs(np.stack([deep.h_q[0], deep.h_p[0] - 1.0 / sol.c], axis=1))
    decay = _check(
        "far_field_decay", err, np.ones(err.shape, bool),
        (gf.q[:, None], -10.0 * sol.c), bound,
        note="mode-sum decay bound for h_q and h_p - 1/c at p = -10c")
    # The pass rule allows 1e-15 of slack over the bound.
    checks.append(replace(decay, passed=decay.worst_margin <= bound + 1e-15))

    deepv = grid_fields(sol, gf.q, np.array([-20.0 * sol.c]))
    # |u| and |v| side by side at each q: two samples per point.
    speed = np.abs(np.stack([deepv.u[0], deepv.v[0]], axis=1))
    checks.append(_check(
        "velocity_far_field", speed, np.ones(speed.shape, bool),
        (gf.q[:, None], -20.0 * sol.c), 1e-8 * sol.c,
        note="moving-frame velocity at p = -20c"))
    return checks


def _surface_checks(sol: ConformalSolution, cfg: WaveConfig,
                    gf: FieldGrid) -> list[CheckResult]:
    checks = []
    slope = gf.h_q[-1] / gf.h_p[-1]
    flat = float(np.abs(sol.coeffs).max()) <= _DEGENERATE_FLOOR
    keep = ~gf.excluded[_SURFACE_INTERIOR]
    if flat and keep.any():
        checks.append(_degenerate("surface_monotone", keep, 0.0, "flat stream"))
    else:
        checks.append(_grid_check(
            "surface_monotone", gf, slope, _SURFACE_INTERIOR, 0.0, strict=True,
            note="margin is max d eta / dx strictly between crest and trough"))
    checks.append(_grid_check(
        "surface_slope_bound", gf, slope**2, _SURFACE, 1.0, strict=True,
        note="margin is max (d eta / dx)^2; must stay below 1"))

    # Built by hand: the verdict reads the whole curvature profile, not one sample.
    prof = surface(sol, max(cfg.grid_nq, 64))
    xs, e2 = prof.x, prof.eta_xx
    tol = 1e-8 * max(float(np.abs(e2).max()), 1e-30)
    nonneg = np.flatnonzero(e2 >= 0.0)
    if flat:
        checks.append(_degenerate("surface_convexity",
                                  np.ones(xs.size, bool), tol, "flat stream"))
    elif nonneg.size == 0:
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
    and module constants, never from global state. A grid with fewer than 2
    samples on an axis raises InvalidConfig.
    """
    cfg = cfg or _DEFAULT
    gf = _strip_grid(sol, cfg)
    checks: list[CheckResult] = []
    checks.append(_series_reference_check(sol))
    checks.extend(_bernoulli_checks(sol, cfg))
    checks.extend(_identity_checks(sol, gf))
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
