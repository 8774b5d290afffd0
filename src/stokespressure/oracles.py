"""Slow, independent reference implementations used by the test suite.

Nothing here shares numerical code with the paths it checks: series values
are re-summed term by term in extended precision, derivatives are obtained
by finite differences instead of term-wise differentiation, the
small-amplitude wave is written down in closed form, and the limiting
steepness is re-bracketed by plain bisection with a finer solver budget than
the continuation it cross-validates.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .wave_model import (
    TAIL_DECAY_RATIO,
    ConformalJet,
    ConformalSolution,
    StripPoint,
    WaveConfig,
)

__all__ = [
    "naive_eval",
    "fd_derivative",
    "fd_laplacian",
    "physical_lift",
    "linear_airy",
    "weakly_nonlinear_speed",
    "limit_bracket",
]


def naive_eval(sol: ConformalSolution, pt: StripPoint) -> ConformalJet:
    """Term-by-term jet evaluation in extended precision.

    Plain Python loop over modes with np.longdouble accumulators. Every
    component (including x_q, x_p and h_pp) is summed from its own series
    rather than derived through the conjugacy relations, so comparing
    against `eval_conformal_jet` exercises those identities for real.
    """
    if pt.p > 0.0:
        raise ValueError("evaluation above the surface")
    one = np.longdouble(1.0)
    c = np.longdouble(sol.c)
    q = np.longdouble(pt.q)
    p = np.longdouble(pt.p)
    h = p / c
    h_q = np.longdouble(0.0)
    h_p = one / c
    h_qq = np.longdouble(0.0)
    h_qp = np.longdouble(0.0)
    h_pp = np.longdouble(0.0)
    x = q / c
    x_q = one / c
    x_p = np.longdouble(0.0)
    for i, a in enumerate(sol.coeffs):
        k = np.longdouble(i + 1)
        e = np.longdouble(a) * np.exp(k * p / c)
        cs = np.cos(k * q / c)
        sn = np.sin(k * q / c)
        h += e * cs
        h_q += -(k / c) * e * sn
        h_p += (k / c) * e * cs
        h_qq += -(k / c) ** 2 * e * cs
        h_qp += -(k / c) ** 2 * e * sn
        h_pp += (k / c) ** 2 * e * cs
        x += e * sn
        x_q += (k / c) * e * cs
        x_p += (k / c) * e * sn
    return ConformalJet(
        h=float(h), h_q=float(h_q), h_p=float(h_p),
        h_qq=float(h_qq), h_qp=float(h_qp), h_pp=float(h_pp),
        x=float(x), x_q=float(x_q), x_p=float(x_p),
    )


def fd_derivative(field, pt, direction=1.0, step=1e-5, richardson=False):
    """Fourth-order central difference of ``field`` along ``direction``.

    ``field`` is called as field(pt + t * direction); pt and direction may be
    scalars or same-shape arrays. With ``richardson=True`` the step and
    half-step estimates are combined, giving a sixth-order value.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    pt = np.asarray(pt, dtype=float)
    d = np.asarray(direction, dtype=float)

    def stencil(h):
        return (
            -field(pt + 2.0 * h * d)
            + 8.0 * field(pt + h * d)
            - 8.0 * field(pt - h * d)
            + field(pt - 2.0 * h * d)
        ) / (12.0 * h)

    if not richardson:
        return stencil(step)
    coarse = stencil(step)
    fine = stencil(0.5 * step)
    return (16.0 * fine - coarse) / 15.0


def fd_laplacian(field, pt, step=5e-4):
    """Five-point Laplacian of a scalar field of two variables at ``pt``."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    pt = np.asarray(pt, dtype=float)
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    return (
        field(pt + ex) + field(pt - ex) + field(pt + ey) + field(pt - ey)
        - 4.0 * field(pt)
    ) / step**2


def physical_lift(sol: ConformalSolution, fn, q0: float, p0: float):
    """Wrap a strip-coordinate field as a function of physical position.

    Returns callable(xy) evaluating ``fn(sol, StripPoint(q, p))`` at the
    strip point that maps to the physical point xy = (x, y). Successive
    calls warm-start the position inversion from the previous result, so
    finite-difference stencils around (q0, p0) stay cheap.
    """
    from .hodograph_fields import invert_position

    state = {"q": q0, "p": p0}

    def lifted(xy):
        q, p = invert_position(sol, float(xy[0]), float(xy[1]),
                               state["q"], state["p"])
        state["q"], state["p"] = q, p
        return fn(sol, StripPoint(q, min(p, 0.0)))

    return lifted


def linear_airy(s0: float, g: float = 1.0, n_modes: int = 8) -> ConformalSolution:
    """Closed-form first-order wave of steepness s0.

    Single cosine mode of amplitude pi*s0 riding the stream c = sqrt(g),
    E = g/2; exact solution of the linearized surface condition.
    """
    if s0 < 0.0:
        raise ValueError("steepness must be nonnegative")
    a = np.zeros(max(int(n_modes), 1))
    a[0] = math.pi * s0
    return ConformalSolution(c=math.sqrt(g), E=0.5 * g, coeffs=a, gravity=g)


def weakly_nonlinear_speed(s: float, g: float = 1.0) -> float:
    """Classical small-steepness speed trend c ~ sqrt(g) (1 + (pi s)^2 / 2).

    Amplitude correction of the weakly nonlinear expansion with first-order
    amplitude pi*s; accurate to O(s^4), useful as a direction-and-size check
    on solver output for s <~ 0.05, not as a tight reference.
    """
    return math.sqrt(g) * (1.0 + 0.5 * (math.pi * s) ** 2)


def _resolved_at_budget(sol: ConformalSolution, judge_index: int, limit: float) -> bool:
    a = np.abs(sol.coeffs)
    amax = float(a.max())
    if amax == 0.0:
        return True
    if judge_index > a.size:
        return False
    return float(a[judge_index - 1]) <= limit * amax


def limit_bracket(
    cfg: WaveConfig | None = None,
    *,
    est_mode_cap: int = 2048,
    target_width: float = 0.003,
    lo: float = 0.12,
    hi: float = 0.15,
    max_probes: int = 14,
    ministep: float = 0.002,
    time_budget: float | None = None,
) -> tuple[float, float]:
    """Bracket the largest resolvable steepness by plain bisection.

    Independent cross-check for the continuation-based limit estimate: each
    probe steepness is solved afresh at twice ``est_mode_cap`` modes with
    halved Newton tolerance, and counts as reachable only if the coefficient
    at index ``est_mode_cap`` of that finer solution still satisfies the
    (halved) tail-decay bound. Bisection stops once hi - lo <= target_width
    or the probe budget runs out; either way [lo, hi] is an honest bracket:
    lo was reached at the oracle budget and hi was refuted at it.
    """
    from . import spectral_solver as ss

    cfg = cfg or WaveConfig()
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    modes = 2 * int(est_mode_cap)
    tol = cfg.newton_tol / 2.0
    tail_limit = TAIL_DECAY_RATIO / 2.0
    walk_modes = min(max(256, modes // 4), modes)
    probe_cfg = replace(cfg, newton_tol=tol, mode_count=min(64, modes))
    t0 = time.monotonic()

    def out_of_budget():
        return time_budget is not None and time.monotonic() - t0 > time_budget

    # Anchor store: steepness -> solution at walk resolution.
    anchors: dict[float, ConformalSolution] = {}

    def nearest_anchor(s: float):
        below = [a for a in anchors if a <= s + 1e-12]
        if not below:
            return None
        key = max(below)
        return key, anchors[key]

    def walk_to(s: float) -> ConformalSolution | None:
        """Advance the anchor chain to steepness s at walk resolution."""
        found = nearest_anchor(s)
        if found is None:
            sol = ss.initial_guess(0.01, replace(probe_cfg, mode_count=64))
            sol = ss.newton_solve(sol, 0.01, probe_cfg, tail_limit=np.inf)
            anchors[0.01] = sol
            cur = 0.01
        else:
            cur, sol = found
        while cur < s - 1e-12:
            nxt = min(cur + ministep, s)
            guess = (sol if sol.coeffs.size >= walk_modes
                     else ss._pad_modes(sol, walk_modes))
            try:
                sol = ss.newton_solve(guess, nxt, probe_cfg, tail_limit=np.inf)
            except ss.SolverError:
                if guess.coeffs.size < walk_modes:
                    return None
                try:  # one retry at half the stride
                    sol = ss.newton_solve(guess, 0.5 * (cur + nxt), probe_cfg,
                                          tail_limit=np.inf)
                    cur = 0.5 * (cur + nxt)
                    anchors[cur] = sol
                    continue
                except ss.SolverError:
                    return None
            cur = nxt
            anchors[cur] = sol
        return sol

    def probe(s: float) -> bool:
        sol = walk_to(s)
        if sol is None:
            return False
        try:
            fine = ss.newton_solve(ss._pad_modes(sol, modes), s, probe_cfg,
                                   tail_limit=np.inf)
        except ss.SolverError:
            return False
        return _resolved_at_budget(fine, int(est_mode_cap), tail_limit)

    probes = 0

    def budgeted_probe(s: float) -> bool:
        nonlocal probes
        probes += 1
        return probe(s)

    # Establish the window: lo must be reachable, hi refuted.
    while not budgeted_probe(lo):
        hi = lo
        lo = max(lo - 0.015, 0.01)
        if probes >= max_probes or out_of_budget() or lo <= 0.011:
            return (lo, hi)
    while budgeted_probe(hi):
        lo = hi
        hi = min(hi + 0.015, 0.2)
        if probes >= max_probes or out_of_budget() or hi >= 0.2:
            return (lo, hi)
    while hi - lo > target_width and probes < max_probes and not out_of_budget():
        mid = 0.5 * (lo + hi)
        if budgeted_probe(mid):
            lo = mid
        else:
            hi = mid
    return (float(lo), float(hi))
