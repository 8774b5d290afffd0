"""Slow, independent reference implementations used by the test suite.

Series values are re-summed term by term in extended precision, the
Bernoulli surface defect is summed densely at arbitrary angles, derivatives
are obtained by finite differences instead of term-wise differentiation, and
the small-amplitude wave is written down in closed form; none of these
shares numerical code with the paths it checks. The limiting steepness is
re-bracketed by plain bisection inside one continuation walk, each probe
one Newton solve at twice the continuation's mode budget from its member or
the secant through its neighbours: there the independence is that budget,
halved Newton tolerance and tail bound, and the bisection.
"""

from __future__ import annotations

import bisect
import math
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
    "surface_residual",
    "fd_derivative",
    "fd_laplacian",
    "physical_lift",
    "linear_airy",
    "weakly_nonlinear_speed",
    "limit_bracket",
]


def naive_eval(sol: ConformalSolution, pt: StripPoint) -> ConformalJet:
    """Term-by-term jet evaluation in extended precision.

    Each series is summed over its mode array in np.longdouble. Every
    component (including x_q, x_p and h_pp) is summed from its own series
    rather than derived through the conjugacy relations, so comparing
    against `eval_conformal_jet` exercises those identities for real.
    """
    if pt.p > 0.0:
        raise ValueError("evaluation above the surface")
    c = np.longdouble(sol.c)
    q = np.longdouble(pt.q)
    p = np.longdouble(pt.p)
    k = np.arange(1, sol.coeffs.size + 1, dtype=np.longdouble)
    e = sol.coeffs.astype(np.longdouble) * np.exp(k * p / c)
    cs = np.cos(k * q / c)
    sn = np.sin(k * q / c)
    kc = k / c
    return ConformalJet(
        h=float(p / c + np.sum(e * cs)),
        h_q=float(np.sum(-kc * e * sn)),
        h_p=float(1 / c + np.sum(kc * e * cs)),
        h_qq=float(np.sum(-kc**2 * e * cs)),
        h_qp=float(np.sum(-kc**2 * e * sn)),
        h_pp=float(np.sum(kc**2 * e * cs)),
        x=float(q / c + np.sum(e * sn)),
        x_q=float(1 / c + np.sum(kc * e * cs)),
        x_p=float(np.sum(kc * e * sn)),
    )


def surface_residual(sol: ConformalSolution, theta: np.ndarray) -> np.ndarray:
    """Bernoulli surface defect 2 (E - g h) (h_q^2 + h_p^2) - 1 at angles theta.

    Dense sums at arbitrary angles: the reference the solver's FFT grid sums
    are checked against.
    """
    theta = np.asarray(theta, dtype=float)
    a = sol.coeffs
    k = np.arange(1.0, a.size + 1.0)
    ck, sk = np.cos(np.outer(theta, k)), np.sin(np.outer(theta, k))
    h, A, B = ck @ a, sk @ (k * a), ck @ (k * a)
    S = A * A + (1.0 + B) ** 2
    return 2.0 * (sol.E - sol.gravity * h) * S / sol.c**2 - 1.0


def fd_derivative(field, pt, direction=1.0, step=1e-5, richardson=False):
    """Fourth-order central difference of ``field`` along ``direction``.

    ``field`` is called as field(pt + t * direction); pt and direction may be
    scalars or same-shape arrays, or pt may carry trailing points axes
    beyond direction's shape (pt of shape (2, n) with direction (2,)), so
    that one call differentiates at every point. With ``richardson=True``
    the step and half-step estimates are combined, giving a sixth-order
    value.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    pt = np.asarray(pt, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d.reshape(d.shape + (1,) * (pt.ndim - d.ndim))

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
    """Five-point Laplacian of a scalar field of two variables at ``pt``.

    pt has shape (2,) or (2, *s) for points along trailing axes; the field
    is called on the same shape.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    pt = np.asarray(pt, dtype=float)
    axes = (1,) * (pt.ndim - 1)
    ex = np.array([step, 0.0]).reshape((2,) + axes)
    ey = np.array([0.0, step]).reshape((2,) + axes)
    return (
        field(pt + ex) + field(pt - ex) + field(pt + ey) + field(pt - ey)
        - 4.0 * field(pt)
    ) / step**2


def physical_lift(sol: ConformalSolution, fn, q0, p0):
    """Wrap a strip-coordinate field as a function of physical position.

    Returns callable(xy) evaluating ``fn(sol, StripPoint(q, p))`` at the
    strip points that map to the physical points xy = (x, y), with p
    clamped to the fluid side of the surface. q0 and p0 are the starting
    strip points, floats or arrays of one shape s; xy then has shape
    (2, *s), and ``fn`` receives one StripPoint carrying all the points.
    Every point is inverted at once, and each warm-starts from its own
    previous result, so finite-difference stencils around (q0, p0) stay
    cheap.
    """
    from .hodograph_fields import invert_position

    start = [q0, p0]

    def lifted(xy):
        q, p = invert_position(sol, xy[0], xy[1], *start)
        start[:] = q, p
        return fn(sol, StripPoint(q, np.minimum(p, 0.0)))

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


_WALK_START = 0.01  # first member of `limit_bracket`'s walk


def limit_bracket(
    cfg: WaveConfig | None = None,
    *,
    est_mode_cap: int = 2048,
    target_width: float = 0.003,
    lo: float = 0.12,
    max_probes: int = 14,
) -> tuple[float, float]:
    """Bracket the largest resolvable steepness by plain bisection.

    Cross-check for the continuation-based limit estimate. One
    `continue_family` run, with halved Newton tolerance and no tail test at
    half ``est_mode_cap`` modes (256 to twice the cap), walks from s = 0.01
    toward 0.2 at the continuation's own steps: 0.01 at first, halved on
    each failed solve down to the 1e-5 floor, where the walk ends. Every
    probe lies inside the walk: it pads the member at s (the first member
    below the walk), or else the secant through the members around s, to
    twice ``est_mode_cap`` modes and solves once. It is reached if the
    coefficient at index ``est_mode_cap`` still meets the halved tail-decay
    bound, and refuted otherwise. Bisection runs from lo up to the walk's
    last member, probed last and only if no probe below it was refuted, and
    stops at hi - lo <= target_width or when the probes run out; lo was
    probed and reached, hi probed and refuted. Raises RuntimeError, naming
    the probes made, if there is no such pair, if lo is not below the
    walk's last member, or if a guess or fine solve fails; ValueError,
    before the walk, unless lo > 0 and max_probes >= 1.
    """
    from . import spectral_solver as ss

    cfg = cfg or WaveConfig()
    if not lo > 0.0:
        raise ValueError("need lo > 0")
    if max_probes < 1:
        raise ValueError("need max_probes >= 1")
    modes = 2 * int(est_mode_cap)
    tol = cfg.newton_tol / 2.0
    tail_limit = TAIL_DECAY_RATIO / 2.0
    walk_modes = min(max(256, modes // 4), modes)
    walk_cfg = replace(cfg, newton_tol=tol, mode_count=walk_modes)
    walk = ss.continue_family(_WALK_START, ss._S_CEILING, walk_cfg,
                              max_modes=walk_modes, tail_limit=np.inf).members
    reach = [m.steepness for m in walk]
    log: dict[float, bool] = {}  # probed steepness -> reached

    def no_window(why: str) -> RuntimeError:
        made = ", ".join(f"{p!r} {'reached' if ok else 'refuted'}"
                         for p, ok in log.items()) or "none"
        return RuntimeError(f"no bracket: {why}; probes made: {made}")

    def reached(s: float) -> bool:
        i = bisect.bisect_left(reach, s - tol)
        guess = (walk[i].solution if i == 0 or reach[i] <= s + tol else
                 ss._secant_guess(walk[i - 1].solution, reach[i - 1],
                                  walk[i].solution, reach[i], s))
        try:
            if guess is None:
                raise ss.SolverError("the secant guess is not evaluable")
            fine = ss.newton_solve(ss._pad_modes(guess, modes), s, walk_cfg,
                                   tail_limit=np.inf)
        except ss.SolverError as exc:
            raise no_window(f"the probe at s = {s!r} failed: {exc}") from exc
        a = np.abs(fine.coeffs)
        return float(a[int(est_mode_cap) - 1]) <= tail_limit * float(a.max())

    def probe(s: float) -> bool:
        if s not in log:
            if len(log) >= max_probes:
                raise no_window(f"{max_probes} probes spent before a reached "
                                "lo and a refuted hi were both known")
            log[s] = reached(s)
        return log[s]

    hi = reach[-1]
    if lo >= hi:
        raise no_window(f"lo = {lo!r} is not below the walk's reach {hi!r}")
    # Establish a reached lo; a refuted lo becomes hi.
    while not probe(lo):
        if lo <= _WALK_START:
            raise no_window(f"not even s = {lo!r} was reached")
        lo, hi = max(lo - 0.015, _WALK_START), lo
    # Bisect, keeping a probe for the walk's last member while it is hi.
    while hi - lo > target_width and len(log) < max_probes - (hi not in log):
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    if probe(hi):
        raise no_window(f"the walk's last member s = {hi!r} was reached")
    return (float(lo), float(hi))
