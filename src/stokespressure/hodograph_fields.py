"""Physical-space flow fields reconstructed from the strip representation.

Everything downstream of the solver lives here: velocity, pressure, the
pressure gradient, the surface comparison function f = (c - u) v - g x, the
free-surface profile, and sampling grids. The bridge is the hodograph
dictionary: with D = h_q^2 + h_p^2,

    c - u = h_p / D,   v = -h_q / D,
    d/dx  = (c - u) d/dq + v d/dp,   d/dy = -v d/dq + (c - u) d/dp,

so every physical derivative reduces to strip derivatives of the series.
The pressure gradient is computed along the momentum-balance route
(P_x = (c-u) u_x - v u_y, P_y = -g + (c-u) v_x - v v_y) and cross-checked
against the algebraically equivalent shortcut P_x = u_q / D. These formulas
are written once, in `_fields`: pointwise functions apply it to the
scattered-point jet (at one point, or at every point of a StripPoint that
carries arrays), grids and exported records to the tensor-grid jet.

Near the limiting wave the crest approaches a stagnation point, D blows up
and pointwise values within a small disc around the crest stop being
certifiable; such points are excluded rather than reported. Exclusion is
active only when the crest indicator drops below the configured threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wave_model import (
    ConformalSolution,
    InvalidConfig,
    StripPoint,
    WaveConfig,
    _jet_points,
    crest_indicator,
    eval_conformal_jet,
    eval_jet_grid,
)

__all__ = [
    "StagnationProximity",
    "SurfaceProfile",
    "FieldGrid",
    "velocity",
    "velocity_gradients",
    "pressure",
    "pressure_gradient",
    "f_field",
    "field_sample",
    "surface",
    "surface_curvature",
    "grid_fields",
    "physical_grid",
    "invert_position",
]

_DEFAULT = WaveConfig()


class StagnationProximity(RuntimeError):
    """Point refused: inside the excision disc of a near-extreme crest."""


@dataclass(frozen=True)
class SurfaceProfile:
    """One half-period of the free surface, crest (x = 0) to trough (x = pi)."""

    q: np.ndarray
    x: np.ndarray
    eta: np.ndarray
    slope: np.ndarray  # d eta / dx at the samples


# Layout of a field record (`physical_grid` rows, `field_sample`).
_RECORD_FIELDS = ("q", "p", "x", "y", "u", "v", "P", "f", "P_x", "P_y",
                  "excluded")
_RECORD = np.dtype([(name, float) for name in _RECORD_FIELDS[:-1]]
                   + [("excluded", bool)])


def _wrap_to_crest(q: np.ndarray | float, period: float):
    """Signed distance in q to the nearest crest (q = 0 mod period)."""
    return q - period * np.round(np.asarray(q, dtype=float) / period)


def _exclusion_mask(sol, q, p, cfg):
    # The disc test comes first: the crest indicator costs a jet evaluation
    # and matters only for points inside the disc.
    inside = np.hypot(_wrap_to_crest(q, sol.period_q), p) < cfg.excision_radius
    if inside.any() and crest_indicator(sol) >= cfg.crest_indicator_threshold:
        return np.zeros_like(inside)
    return inside


def _fields(jet, sol: ConformalSolution) -> dict:
    """Every field derived from a `ConformalJet`, at one point or many alike.

    Returns x, y, D, u, v, P, f, f_q, the strip derivatives u_q .. v_p of the
    velocity, its physical derivatives u_x .. v_y, both P_x routes (P_x,
    P_x_alt) and P_y.
    """
    h_q, h_p, h_qq, h_qp, h_pp = jet.h_q, jet.h_p, jet.h_qq, jet.h_qp, jet.h_pp
    d = h_q * h_q + h_p * h_p
    cmu, v = h_p / d, -h_q / d  # c - u, v
    d_q = 2.0 * (h_q * h_qq + h_p * h_qp)
    d_p = 2.0 * (h_q * h_qp + h_p * h_pp)
    dd = d * d
    u_q = (h_p * d_q - h_qp * d) / dd
    u_p = (h_p * d_p - h_pp * d) / dd
    v_q = (h_q * d_q - h_qq * d) / dd
    v_p = (h_q * d_p - h_qp * d) / dd
    u_x = cmu * u_q + v * u_p
    u_y = -v * u_q + cmu * u_p
    v_x = cmu * v_q + v * v_p
    v_y = -v * v_q + cmu * v_p
    g = sol.gravity
    return {
        "x": jet.x, "y": jet.h, "D": d, "u": sol.c - cmu, "v": v,
        "P": sol.E + sol.surface_pressure - g * jet.h - 0.5 / d,
        "f": cmu * v - g * jet.x,
        "f_q": -u_q * v + cmu * v_q - g * h_p,  # x_q = h_p
        "u_q": u_q, "u_p": u_p, "v_q": v_q, "v_p": v_p,
        "u_x": u_x, "u_y": u_y, "v_x": v_x, "v_y": v_y,
        "P_x": cmu * u_x - v * u_y,
        "P_x_alt": u_q / d,
        "P_y": -g + cmu * v_x - v * v_y,
    }


def _at_first(mask, *values) -> list[float]:
    """The values, broadcast to the mask's shape, at its first set entry."""
    j = int(np.argmax(mask))
    return [float(np.broadcast_to(v, np.shape(mask)).flat[j]) for v in values]


def _point_fields(sol: ConformalSolution, pt: StripPoint,
                  cfg: WaveConfig | None) -> dict:
    """`_fields` at a strip point, or at every point of an array StripPoint,
    refused if any lies inside an active excision disc."""
    inside = _exclusion_mask(sol, pt.q, pt.p, cfg or _DEFAULT)
    if inside.any():
        qi, pi_ = _at_first(inside, pt.q, pt.p)
        raise StagnationProximity(
            f"point ({qi:.6g}, {pi_:.6g}) lies within the excision disc "
            f"of a near-stagnation crest")
    return _fields(eval_conformal_jet(sol, pt), sol)


# The pointwise functions below take one StripPoint; one that carries arrays
# of points gives arrays of values, elementwise, in one evaluation. Only
# `field_sample` takes a single point and raises ValueError for arrays.

def velocity(sol: ConformalSolution, pt: StripPoint,
             cfg: WaveConfig | None = None) -> tuple[float, float]:
    """Velocity (u, v) in the moving frame at a strip point."""
    fl = _point_fields(sol, pt, cfg)
    return (fl["u"], fl["v"])


def velocity_gradients(sol: ConformalSolution, pt: StripPoint,
                       cfg: WaveConfig | None = None):
    """Physical velocity gradients (u_x, u_y, v_x, v_y) at a strip point."""
    fl = _point_fields(sol, pt, cfg)
    return tuple(fl[key] for key in ("u_x", "u_y", "v_x", "v_y"))


def pressure(sol: ConformalSolution, pt: StripPoint,
             cfg: WaveConfig | None = None) -> float:
    """Fluid pressure at a strip point; equals surface_pressure on p = 0."""
    return _point_fields(sol, pt, cfg)["P"]


def pressure_gradient(sol: ConformalSolution, pt: StripPoint,
                      cfg: WaveConfig | None = None) -> tuple[float, float]:
    """Pressure gradient (P_x, P_y) at a strip point.

    Momentum-balance route, with the u_q / D shortcut for P_x evaluated as
    a consistency guard; the two are algebraically identical and must agree
    to rounding. ArithmeticError names the first point where they do not.
    """
    fl = _point_fields(sol, pt, cfg)
    p_x, p_alt = fl["P_x"], fl["P_x_alt"]
    bad = np.abs(p_x - p_alt) > 1e-9 * (np.abs(p_x) + sol.gravity)
    if bad.any():
        qi, pi_, a, b = _at_first(bad, pt.q, pt.p, p_x, p_alt)
        raise ArithmeticError(
            f"pressure-gradient routes disagree at ({qi:.6g}, {pi_:.6g}): "
            f"{a:.17g} vs {b:.17g}")
    return (p_x, fl["P_y"])


def f_field(sol: ConformalSolution, pt: StripPoint,
            cfg: WaveConfig | None = None) -> float:
    """Comparison function f = (c - u) v - g x.

    Harmonic in the physical variables; vanishes on the crest line and
    equals -g*pi on the trough line.
    """
    return _point_fields(sol, pt, cfg)["f"]


def field_sample(sol: ConformalSolution, pt: StripPoint,
                 cfg: WaveConfig | None = None) -> np.record:
    """Every exported quantity at one point, as one `physical_grid` record
    (fields q, p, x, y, u, v, P, f, P_x, P_y, excluded).

    Never raises on exclusion; the record is flagged instead. A StripPoint
    that carries arrays raises ValueError: records of many points come from
    `grid_fields` or `physical_grid`.
    """
    if np.ndim(pt.q) or np.ndim(pt.p):
        raise ValueError("field_sample takes one point; use grid_fields or "
                         "physical_grid for records of many")
    q, p = np.array([pt.q]), np.array([pt.p])
    jet = eval_conformal_jet(sol, StripPoint(q[None, :], p[:, None]))
    return _records(_field_grid(sol, jet, q, p, cfg or _DEFAULT))[0]


def surface(sol: ConformalSolution, m: int = 256,
            cfg: WaveConfig | None = None) -> SurfaceProfile:
    """Sample the free surface at m+1 equal strip angles over a half period.

    theta = q / c runs from 0 (crest) to pi (trough); x then runs over
    [0, pi] monotonically. The slope is d eta / dx = h_q / h_p evaluated on
    p = 0. When the near-stagnation exclusion is active, slopes of excluded
    samples are reported from the nearest included sample (the surface
    position itself stays finite and is always reported).
    """
    cfg = cfg or _DEFAULT
    if m < 16:
        raise ValueError("need at least 16 surface samples")
    theta = np.linspace(0.0, np.pi, m + 1)
    q = sol.c * theta
    jets = eval_jet_grid(sol, q, np.array([0.0]))
    eta = jets.h[0]
    slope = jets.h_q[0] / jets.h_p[0]
    excl = _exclusion_mask(sol, q, np.zeros_like(q), cfg)
    if excl.any() and not excl.all():
        inc = np.flatnonzero(~excl)
        for i in np.flatnonzero(excl):
            slope[i] = slope[inc[np.abs(inc - i).argmin()]]
    return SurfaceProfile(q=q, x=jets.x[0], eta=eta, slope=slope)


def surface_curvature(sol: ConformalSolution, m: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """(x, eta_xx) at m+1 equal strip angles over the half period.

    Second derivative of the profile via the chain rule:
    eta_xx = (h_qq h_p - h_q h_qp) / h_p^3 on p = 0.
    """
    if m < 16:
        raise ValueError("need at least 16 surface samples")
    theta = np.linspace(0.0, np.pi, m + 1)
    jets = eval_jet_grid(sol, sol.c * theta, np.array([0.0]))
    h_q, h_p, h_qq, h_qp = jets.h_q[0], jets.h_p[0], jets.h_qq[0], jets.h_qp[0]
    return jets.x[0], (h_qq * h_p - h_q * h_qp) / h_p**3


@dataclass(frozen=True)
class FieldGrid:
    """Vectorized field arrays on a strip grid, shape (len(p), len(q)).

    Every column of a `physical_grid` record plus the raw jet slopes, D,
    f_q, the second P_x route and the velocity gradients, for verification
    sweeps that need them wholesale.
    """

    q: np.ndarray
    p: np.ndarray
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    P: np.ndarray
    f: np.ndarray
    f_q: np.ndarray
    P_x: np.ndarray
    P_x_alt: np.ndarray
    P_y: np.ndarray
    u_q: np.ndarray
    u_p: np.ndarray
    v_q: np.ndarray
    v_p: np.ndarray
    u_x: np.ndarray
    u_y: np.ndarray
    v_x: np.ndarray
    v_y: np.ndarray
    h_q: np.ndarray
    h_p: np.ndarray
    D: np.ndarray
    excluded: np.ndarray


def _field_grid(sol, jet, q, p, cfg: WaveConfig) -> FieldGrid:
    """The `FieldGrid` of a jet on the tensor grid q x p."""
    excluded = _exclusion_mask(sol, q[None, :], p[:, None], cfg)
    return FieldGrid(q=q, p=p, h_q=jet.h_q, h_p=jet.h_p, excluded=excluded,
                     **_fields(jet, sol))


def grid_fields(sol: ConformalSolution, q: np.ndarray, p: np.ndarray,
                cfg: WaveConfig | None = None) -> FieldGrid:
    """Evaluate all fields on the tensor grid q x p (vectorized fast path)."""
    q, p = np.asarray(q, float), np.asarray(p, float)
    return _field_grid(sol, eval_jet_grid(sol, q, p), q, p, cfg or _DEFAULT)


def _records(gf: FieldGrid) -> np.recarray:
    """The grid as field records, row-major: q fastest, p rows in order."""
    rows = np.recarray(gf.x.shape, dtype=_RECORD)
    rows.q = gf.q
    rows.p = gf.p[:, None]
    for name in _RECORD_FIELDS[2:]:
        rows[name] = getattr(gf, name)
    return rows.reshape(-1)


def _strip_grid(sol: ConformalSolution, cfg: WaveConfig) -> FieldGrid:
    """`grid_fields` on the configured strip grid: grid_np rows from the
    floor p_min up to the surface p = 0, each of grid_nq columns from the
    crest line q = 0 to the trough line q = pi*c.

    Both ends of each axis are sampled, so fewer than 2 samples on an axis
    raise InvalidConfig: one row would put the surface on the floor, and one
    column the trough line on the crest line.
    """
    if cfg.grid_nq < 2 or cfg.grid_np < 2:
        raise InvalidConfig("field grid needs at least 2 samples per axis")
    q = np.linspace(0.0, np.pi * sol.c, cfg.grid_nq)
    p = np.linspace(cfg.resolved_depth(sol.c), 0.0, cfg.grid_np)
    return grid_fields(sol, q, p, cfg)


def physical_grid(sol: ConformalSolution,
                  cfg: WaveConfig | None = None) -> np.recarray:
    """Sample every field on the configured strip grid.

    Returns one record array of grid_nq * grid_np rows with fields q, p, x,
    y, u, v, P, f, P_x, P_y (float) and excluded (bool). Rows run from the
    floor p_min up to the surface p = 0, each sweeping q over [0, pi*c]
    (half period, crest column first); row-major with q fastest. Points
    inside an active excision disc are flagged, not omitted.
    """
    return _records(_strip_grid(sol, cfg or _DEFAULT))


def invert_position(sol: ConformalSolution, x_target, y_target, q0, p0,
                    tol: float = 1e-13, max_iter: int = 50):
    """Find the strip points mapping to the physical points (x, y).

    Two-dimensional Newton iteration on (x(q,p) - x, h(q,p) - y) with the
    exact Jacobian [[h_p, -h_q], [h_q, h_p]] (determinant D > 0, so the map
    is locally invertible away from stagnation). Needs a starting point on
    the correct period; converges quadratically from any reasonable one.

    Targets and starts are floats or arrays of shapes that broadcast; all
    points iterate at once and each stops when its own step falls to tol.
    Returns (q, p) of the broadcast shape (floats for scalar input); raises
    RuntimeError if any point takes more than max_iter steps.
    """
    x_t, y_t, q, p = (np.array(v, dtype=float) for v in np.broadcast_arrays(
        x_target, y_target, q0, p0))
    shape = q.shape
    x_t, y_t, q, p = x_t.ravel(), y_t.ravel(), q.ravel(), p.ravel()
    todo = np.arange(q.size)
    for _ in range(max_iter):
        jet = _jet_points(sol, q[todo], p[todo])
        rx = jet.x - x_t[todo]
        ry = jet.h - y_t[todo]
        d = jet.h_q**2 + jet.h_p**2
        dq = (jet.h_p * (-rx) + jet.h_q * (-ry)) / d
        dp = (-jet.h_q * (-rx) + jet.h_p * (-ry)) / d
        q[todo] += dq
        p[todo] += dp
        todo = todo[~(np.abs(dq) + np.abs(dp) <= tol)]
        if todo.size == 0:
            return (q.reshape(shape)[()], p.reshape(shape)[()])
    raise RuntimeError(
        f"position inversion did not converge for ({x_t[todo[0]]:.6g}, "
        f"{y_t[todo[0]]:.6g}) and {todo.size - 1} more points")
