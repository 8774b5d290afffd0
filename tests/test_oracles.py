import inspect
import math

import numpy as np
import pytest

from stokespressure import oracles, spectral_solver
from stokespressure.hodograph_fields import pressure
from stokespressure.spectral_solver import newton_solve, residual_vector
from stokespressure.wave_model import (
    ConformalJet,
    StripPoint,
    WaveConfig,
    eval_conformal_jet,
    steepness,
)


def test_naive_eval_matches_fast_path(sol_005, rng):
    # the reference evaluator sums x_q, x_p and h_pp independently instead
    # of reusing the conjugacy identities, so agreement is a real check
    for _ in range(25):
        q = float(rng.uniform(-8.0, 8.0))
        p = float(rng.uniform(-4.0, 0.0))
        ref = oracles.naive_eval(sol_005, StripPoint(q, p))
        jet = eval_conformal_jet(sol_005, StripPoint(q, p))
        for name in ("h", "h_q", "h_p", "h_qq", "h_qp", "h_pp",
                     "x", "x_q", "x_p"):
            a, b = getattr(jet, name), getattr(ref, name)
            assert abs(a - b) <= 1e-13 * (1.0 + abs(b)), \
                f"{name} drifted at ({q:.3f},{p:.3f}): {a} vs {b}"



def _naive_eval_loop(sol, pt):
    """The plain loop over modes that `naive_eval` vectorizes, kept as its
    reference."""
    one = np.longdouble(1.0)
    c = np.longdouble(sol.c)
    q = np.longdouble(pt.q)
    p = np.longdouble(pt.p)
    h, h_q, h_p = p / c, np.longdouble(0.0), one / c
    h_qq = h_qp = h_pp = np.longdouble(0.0)
    x, x_q, x_p = q / c, one / c, np.longdouble(0.0)
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
        h=float(h), h_q=float(h_q), h_p=float(h_p), h_qq=float(h_qq),
        h_qp=float(h_qp), h_pp=float(h_pp), x=float(x), x_q=float(x_q),
        x_p=float(x_p))


def test_naive_eval_matches_its_loop(sol_010, rng):
    # extended-precision sums in another order: equal after rounding to
    # double, up to a unit or so in the last place
    for _ in range(24):
        pt = StripPoint(float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi)),
                        float(rng.uniform(-4.0, 0.0)))
        vec, loop = oracles.naive_eval(sol_010, pt), _naive_eval_loop(sol_010, pt)
        for name in ("h", "h_q", "h_p", "h_qq", "h_qp", "h_pp",
                     "x", "x_q", "x_p"):
            a, b = getattr(vec, name), getattr(loop, name)
            assert abs(a - b) <= 2.0 * np.finfo(float).eps * (1.0 + abs(b)), \
                f"{name} at ({pt.q:.3f},{pt.p:.3f}): {a} vs {b}"

def test_fd_derivative_on_analytic_function():
    f = lambda x: math.sin(3.0 * x)
    d = oracles.fd_derivative(f, 0.4, step=1e-3)
    assert d == pytest.approx(3.0 * math.cos(1.2), abs=1e-9)
    d6 = oracles.fd_derivative(f, 0.4, step=1e-2, richardson=True)
    assert d6 == pytest.approx(3.0 * math.cos(1.2), abs=1e-10)


def test_fd_derivative_directional():
    f = lambda t: (t ** 2).sum() if isinstance(t, np.ndarray) else t ** 2
    g = lambda xy: float(xy[0] ** 2 + 3.0 * xy[1])
    pt = np.array([1.0, 2.0])
    dx = oracles.fd_derivative(g, pt, direction=np.array([1.0, 0.0]), step=1e-4)
    dy = oracles.fd_derivative(g, pt, direction=np.array([0.0, 1.0]), step=1e-4)
    assert dx == pytest.approx(2.0, abs=1e-8)
    assert dy == pytest.approx(3.0, abs=1e-8)


def test_fd_laplacian_on_harmonic_function():
    # e^{2y} cos(2x) is harmonic; the 5-point stencil must see ~0 and its
    # leak must shrink at the stencil's second order
    h = lambda xy: math.exp(2.0 * xy[1]) * math.cos(2.0 * xy[0])
    coarse = oracles.fd_laplacian(h, np.array([0.3, -0.5]), step=1e-3)
    fine = oracles.fd_laplacian(h, np.array([0.3, -0.5]), step=5e-4)
    assert abs(coarse) < 1e-5, f"laplacian leaked: {coarse}"
    assert abs(fine) < abs(coarse) / 2.5, f"not second order: {coarse} -> {fine}"
    bowl = lambda xy: float(xy[0] ** 2 + xy[1] ** 2)
    assert oracles.fd_laplacian(bowl, np.array([0.0, 0.0])) == pytest.approx(4.0, abs=1e-6)



def test_fd_stencils_broadcast_over_trailing_points():
    # one call on a (2, n) array of points equals n calls on single points
    harmonic = lambda xy: xy[0] * xy[0] * xy[0] - 3.0 * xy[0] * xy[1] * xy[1]
    pts = np.array([[0.3, -0.1, 1.2], [-0.5, -0.2, -1.0]])
    ex = np.array([1.0, 0.0])
    lap = oracles.fd_laplacian(harmonic, pts, step=1e-3)
    dx = oracles.fd_derivative(harmonic, pts, ex, step=1e-3, richardson=True)
    assert lap.shape == dx.shape == (3,)
    for j in range(3):
        assert lap[j] == oracles.fd_laplacian(harmonic, pts[:, j], step=1e-3)
        assert dx[j] == oracles.fd_derivative(harmonic, pts[:, j], ex,
                                              step=1e-3, richardson=True)
        assert dx[j] == pytest.approx(3.0 * (pts[0, j]**2 - pts[1, j]**2),
                                      abs=1e-9)


def test_physical_lift_of_an_array_of_points(sol_005):
    # lifting the jet itself returns the physical coordinates it was given
    q0, p0 = np.array([0.9, 1.7, 2.6]), np.array([-0.7, -0.2, -1.5])
    jet = eval_conformal_jet(sol_005, StripPoint(q0, p0))
    lifted = oracles.physical_lift(sol_005, eval_conformal_jet, q0, p0)
    for shift in (0.0, 1e-3, -2e-3):  # each call warm-starts from the last
        xy = np.array([jet.x + shift, jet.h - shift])
        back = lifted(xy)
        np.testing.assert_allclose(back.x, xy[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.h, xy[1], rtol=0, atol=1e-12)

def test_physical_lift_round_trips_the_map(sol_005):
    q0, p0 = 0.9, -0.7
    jet = eval_conformal_jet(sol_005, StripPoint(q0, p0))
    lifted = oracles.physical_lift(sol_005, pressure, q0, p0)
    direct = pressure(sol_005, StripPoint(q0, p0))
    assert lifted(np.array([jet.x, jet.h])) == pytest.approx(direct, rel=1e-12)
    # a nearby physical point must evaluate too (warm-started inversion)
    nearby = lifted(np.array([jet.x + 1e-3, jet.h - 1e-3]))
    assert np.isfinite(nearby) and abs(nearby - direct) < 0.1


def test_linear_airy_is_a_good_newton_seed(cfg64):
    guess = oracles.linear_airy(0.01, g=cfg64.gravity)
    res = residual_vector(guess, 0.01)
    # the dropped quadratic terms leave a residual of order (pi s)^2
    assert np.abs(res).max() < 5e-3
    diag = {}
    sol = newton_solve(guess, 0.01, cfg64, diagnostics=diag)
    assert diag["iterations"] <= 5, f"took {diag['iterations']} iterations"
    assert steepness(sol) == pytest.approx(0.01, abs=1e-13)


def test_weakly_nonlinear_speed_value():
    # frozen: sqrt(g) * (1 + (pi s)^2 / 2) at s = 0.05, g = 1
    assert oracles.weakly_nonlinear_speed(0.05) == pytest.approx(
        1.0123370055013617, rel=1e-12)
    assert oracles.weakly_nonlinear_speed(0.0) == 1.0
    assert oracles.weakly_nonlinear_speed(0.05, g=4.0) == pytest.approx(
        2.0 * 1.0123370055013617, rel=1e-12)


def test_weakly_nonlinear_speed_tracks_solver(sol_005):
    predicted = oracles.weakly_nonlinear_speed(0.05)
    assert abs(sol_005.c - predicted) <= 2e-3, \
        f"solver c={sol_005.c}, weakly nonlinear {predicted}"


@pytest.mark.slow
def test_limit_bracket_small_budget():
    # coarse, fast configuration: the bracket must still contain the
    # mode-capped continuation limit for the same budget
    cfg = WaveConfig(mode_count=64)
    lo, hi = oracles.limit_bracket(cfg, est_mode_cap=256, target_width=0.01,
                                   lo=0.10, max_probes=12)
    assert 0.10 <= lo < hi <= 0.15
    assert hi - lo <= 0.01 + 1e-12, f"bracket [{lo}, {hi}] too wide"
    from stokespressure.spectral_solver import estimate_limit
    est = estimate_limit(cfg, max_modes=256)
    assert lo <= est.s_max <= hi, \
        f"continuation limit {est.s_max} outside bracket [{lo}, {hi}]"


def _count_jacobians(monkeypatch):
    jacs = []
    real = spectral_solver.jacobian

    def counted(sol, s_target):
        jacs.append(sol.mode_count)
        return real(sol, s_target)

    monkeypatch.setattr(spectral_solver, "jacobian", counted)
    return jacs


def _count_solves(monkeypatch):
    solves = []
    real = spectral_solver.newton_solve

    def counted(guess, s_target, cfg, *args, **kwargs):
        solves.append(guess.mode_count)
        return real(guess, s_target, cfg, *args, **kwargs)

    monkeypatch.setattr(spectral_solver, "newton_solve", counted)
    return solves


def test_limit_bracket_jacobian_budget(monkeypatch):
    # Counts, not timings: the walk is one continuation at 256 modes, whose
    # solves share one holder of factors; it starts on the Fourier path and
    # builds a Jacobian only after a GMRES miss (a fresh holder per walk
    # solve built 20). The probes keep no factors, so their GMRES runs to
    # 60 iterations instead of 20 before a dense step: the 1024-mode fine
    # solves build none (with 20 iterations the bracket built 3, one of
    # them at 1024 modes).
    jacs = _count_jacobians(monkeypatch)
    assert oracles.limit_bracket(WaveConfig(), est_mode_cap=512) == (
        0.1338427734375, 0.13614990234375002)
    assert len(jacs) <= 1
    assert 1024 not in jacs


def test_limit_bracket_builds_one_jacobian_at_the_default_cap(monkeypatch):
    # The bracket of acceptance criterion 8: its 1024-mode walk builds one
    # Jacobian and its 4096-mode fine solves none (3 with 20 iterations for
    # the probes, one of them at 4096 modes). Its five probes, the walk's
    # last member among them, are one 4096-mode solve each.
    jacs = _count_jacobians(monkeypatch)
    solves = _count_solves(monkeypatch)
    assert oracles.limit_bracket(WaveConfig()) == (
        0.13751708984375, 0.14001953124999997)
    assert len(jacs) <= 1
    assert 4096 not in jacs
    assert solves.count(4096) == 5
    assert len(solves) <= 30


def test_limit_bracket_solves_no_walk_step_twice(monkeypatch):
    # The bracket walks with a single continuation at the continuation's own
    # steps; a probe reuses its members and never repeats a solve. Each
    # probe lies inside the walk and is one solve at twice the mode cap,
    # padded from its member or the secant through the members around it;
    # no solve at the walk's 256 modes runs outside the walk. Both returned
    # ends were probed. The walk solves each target once and a failed solve
    # halves the step, so the only failures are the walk's halvings from its
    # first step to the step floor, 10 from 0.01 to 1e-5, of 32 solves in
    # all.
    seen, families, outcomes = [], [], []
    walking = [False]
    real_solve = spectral_solver.newton_solve
    real_walk = spectral_solver.continue_family

    def logged(guess, s_target, cfg, *args, **kwargs):
        seen.append((guess.coeffs.tobytes(), guess.c, guess.E, s_target))
        failed = True
        try:
            out = real_solve(guess, s_target, cfg, *args, **kwargs)
            failed = False
            return out
        finally:
            outcomes.append((guess.mode_count, s_target, failed, walking[0]))

    def walk(*args, **kwargs):
        walking[0] = True
        try:
            families.append(real_walk(*args, **kwargs))
        finally:
            walking[0] = False
        return families[-1]

    monkeypatch.setattr(spectral_solver, "newton_solve", logged)
    monkeypatch.setattr(spectral_solver, "continue_family", walk)
    lo, hi = oracles.limit_bracket(WaveConfig(), est_mode_cap=512)
    assert (lo, hi) == (0.1338427734375, 0.13614990234375002)
    assert len(families) == 1
    assert len(seen) == len(set(seen))
    probes = [(n, s) for n, s, _, in_walk in outcomes if not in_walk]
    assert [n for n, _ in probes] == [1024] * len(probes)
    probed = [s for _, s in probes]
    assert len(probed) == len(set(probed))
    assert {lo, hi} <= set(probed)
    assert max(probed) <= families[0].members[-1].steepness
    assert [o for o in outcomes if o[0] == 256 and not o[3]] == []
    resolves = [a for a, b in zip(outcomes, outcomes[1:])
                if a[2] and b[:2] == a[:2]]
    assert resolves == []
    assert families[0].stop_reason == "step_floor"
    first_step = inspect.signature(real_walk).parameters["initial_step"]
    halvings = math.ceil(math.log2(first_step.default
                                   / spectral_solver._MIN_STEP))
    assert [in_walk for *_, failed, in_walk in outcomes if failed] == (
        [True] * halvings)
    assert len(outcomes) <= 32


def test_limit_bracket_raises_when_a_probe_fails(monkeypatch):
    # A failed fine solve refutes nothing: the oracle names that steepness
    # and the probes made, and returns no bracket.
    real = spectral_solver.newton_solve
    fine = []

    def failing(guess, s_target, cfg, *args, **kwargs):
        if guess.mode_count == 1024:
            fine.append(s_target)
            if len(fine) == 2:
                raise spectral_solver.NonConvergence("injected")
        return real(guess, s_target, cfg, *args, **kwargs)

    monkeypatch.setattr(spectral_solver, "newton_solve", failing)
    with pytest.raises(RuntimeError) as info:
        oracles.limit_bracket(WaveConfig(), est_mode_cap=512)
    assert len(fine) == 2
    assert str(info.value) == (
        f"no bracket: the probe at s = {fine[1]!r} failed: injected; "
        "probes made: 0.12 reached")


@pytest.mark.parametrize("lo, max_probes, why", [
    (0.0, 14, "lo > 0"),
    (0.12, 0, "max_probes >= 1"),
])
def test_limit_bracket_refuses_bad_arguments_before_the_walk(
        monkeypatch, lo, max_probes, why):
    def walk(*args, **kwargs):
        raise AssertionError("continue_family called")

    monkeypatch.setattr(spectral_solver, "continue_family", walk)
    with pytest.raises(ValueError, match=why):
        oracles.limit_bracket(WaveConfig(mode_count=64), est_mode_cap=256,
                              lo=lo, max_probes=max_probes)


@pytest.mark.parametrize("lo, max_probes, made", [
    (0.145, 1, "none"),
    (0.10, 1, "0.1 reached"),
])
def test_limit_bracket_returns_no_unprobed_end(lo, max_probes, made):
    # lo = 0.145 lies past the walk's last member (0.138457), so nothing is
    # probed; with one probe for lo = 0.1, that member is never probed.
    # Either way there is no bracket to return.
    with pytest.raises(RuntimeError, match=f"probes made: {made}$"):
        oracles.limit_bracket(WaveConfig(mode_count=64), est_mode_cap=256,
                              lo=lo, max_probes=max_probes)


def test_limit_bracket_probes_below_the_walk():
    # The walk's first member is at s = 0.01; a probe below it solves from
    # that member. With two probes the window is the bracket: lo, then the
    # walk's last member.
    assert oracles.limit_bracket(WaveConfig(mode_count=64), est_mode_cap=256,
                                 lo=0.005, max_probes=2) == (
        0.005, 0.13845703125)


def test_limit_bracket_descends_from_a_refuted_lo():
    # At a 64-mode cap s = 0.12 is refuted, so it becomes hi and lo steps
    # down by 0.015 to a reached 0.105; bisection then halves that window.
    assert oracles.limit_bracket(WaveConfig(mode_count=64), est_mode_cap=64,
                                 lo=0.12) == (0.105, 0.106875)


def test_limit_bracket_raises_when_nothing_is_reached(monkeypatch):
    # A tail bound of 0 refutes every probe: lo steps down by 0.015 until
    # the walk's first member, s = 0.01, is refuted too.
    monkeypatch.setattr(oracles, "TAIL_DECAY_RATIO", 0.0)
    with pytest.raises(RuntimeError,
                       match=r"not even s = 0\.01 was reached"):
        oracles.limit_bracket(WaveConfig(mode_count=64), est_mode_cap=64,
                              lo=0.05)


def test_limit_bracket_raises_when_the_walks_last_member_is_reached(
        monkeypatch):
    # A tail bound that every coefficient meets reaches every probe, the
    # walk's last member among them: no probe is refuted, so no hi exists.
    monkeypatch.setattr(oracles, "TAIL_DECAY_RATIO", 2.0)
    with pytest.raises(RuntimeError,
                       match=r"the walk's last member s = .* was reached"):
        oracles.limit_bracket(WaveConfig(mode_count=64), est_mode_cap=64,
                              lo=0.1)
