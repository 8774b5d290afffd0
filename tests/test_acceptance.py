"""Acceptance gate: one test per certification criterion, run in order.

Each test prints an "ACCEPTANCE n [pass/fail]" line (replayed after the
test table by the conftest summary hook) and then asserts. Criterion 5's
far-field leg is checked at its stated depth even though the measured
decay floor sits orders of magnitude above the stated tolerance there;
that test documents the floor rather than hiding it.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion

from stokespressure import oracles
from stokespressure.oracles import surface_residual
from stokespressure.cli_io import main as cli_main, save_solution, load_solution
from stokespressure.hodograph_fields import (
    field_sample,
    grid_fields,
    pressure,
    pressure_gradient,
    surface,
)
from stokespressure.spectral_solver import (
    collocation_angles,
    continue_family,
    estimate_limit,
    initial_guess,
    midpoint_residual,
    newton_solve,
)
from stokespressure.verifier import crest_angle
from stokespressure.wave_model import (
    StripPoint,
    WaveConfig,
    eval_conformal_jet,
)

_T0 = time.perf_counter()
_BUDGETS: dict[str, float] = {}


@pytest.fixture(scope="module")
def fam010_timed():
    t0 = time.perf_counter()
    fam = continue_family(0.01, 0.10, WaveConfig(mode_count=256))
    _BUDGETS["fam010"] = time.perf_counter() - t0
    return fam


@pytest.fixture(scope="module")
def suite_solutions(fam010_timed, sol_005, sol_013):
    members = {round(m.steepness, 6): m.solution
               for m in fam010_timed.members}
    return {0.05: sol_005, 0.10: members[0.10], 0.13: sol_013}


@pytest.fixture(scope="module")
def suite_grids(suite_solutions):
    # the stated certification grid: 256 x 128 over [0, c pi] x [-2 pi c, 0]
    t0 = time.perf_counter()
    grids = {}
    for s, sol in suite_solutions.items():
        q = np.linspace(0.0, math.pi * sol.c, 256)
        p = np.linspace(-2.0 * math.pi * sol.c, 0.0, 128)
        grids[s] = grid_fields(sol, q, p)
    _BUDGETS["grids"] = time.perf_counter() - t0
    return grids


@pytest.fixture(scope="module")
def limit_run():
    t0 = time.perf_counter()
    est = estimate_limit(WaveConfig())
    _BUDGETS["limit"] = time.perf_counter() - t0
    return est


@pytest.fixture(scope="module")
def limit_bracket_run():
    t0 = time.perf_counter()
    lo, hi = oracles.limit_bracket(WaveConfig())
    _BUDGETS["bracket"] = time.perf_counter() - t0
    return lo, hi


def test_criterion_01_hydrostatic_exactness(rng):
    t0 = time.perf_counter()
    cfg = WaveConfig(mode_count=64)
    flat = newton_solve(initial_guess(0.0, cfg), 0.0, cfg)
    g, P0 = flat.gravity, flat.surface_pressure
    worst_p = worst_uv = 0.0
    for _ in range(1000):
        pt = StripPoint(float(rng.uniform(-10, 10)),
                        float(rng.uniform(-6, 0)))
        s = field_sample(flat, pt)
        worst_p = max(worst_p, abs(s.P - (P0 - g * s.y)))
        worst_uv = max(worst_uv, abs(s.u), abs(s.v))
    elapsed = time.perf_counter() - t0
    ok = worst_p <= 1e-12 and worst_uv <= 1e-12 and elapsed < 1.0
    assert record_criterion(
        1, ok, f"flat stream at 1000 random points: max |P - (P0 - g y)| = "
               f"{worst_p:.2e}, max |(u,v)| = {worst_uv:.2e} "
               f"(tol 1e-12), {elapsed:.2f}s")


def test_criterion_02_linear_theory_anchor():
    t0 = time.perf_counter()
    cfg = WaveConfig(mode_count=64)
    sol = newton_solve(initial_guess(0.002, cfg), 0.002, cfg)
    elapsed = time.perf_counter() - t0
    g = cfg.gravity
    dc = abs(sol.c - math.sqrt(g))
    dE = abs(sol.E - g / 2.0)
    ok = dc <= 1e-4 * math.sqrt(g) and dE <= 1e-4 * g and elapsed < 5.0
    assert record_criterion(
        2, ok, f"s = 0.002: |c - sqrt(g)| = {dc:.3e} (tol 1e-4), "
               f"|E - g/2| = {dE:.3e} (tol 1e-4), {elapsed:.2f}s")


def test_criterion_03_bernoulli_residual(fam010_timed):
    member = fam010_timed.members[-1]
    sol = member.solution
    assert sol.mode_count == 256 and abs(member.steepness - 0.10) < 1e-12
    colloc = float(np.abs(
        surface_residual(sol, collocation_angles(256))).max())
    mid = midpoint_residual(sol)
    elapsed = _BUDGETS["fam010"]
    ok = colloc <= 1e-11 and mid <= 1e-7 and elapsed < 10.0
    assert record_criterion(
        3, ok, f"s = 0.10, N = 256: collocation residual {colloc:.2e} "
               f"(tol 1e-11), midpoint residual {mid:.2e} (tol 1e-7), "
               f"solve {elapsed:.2f}s")


def test_criterion_04_pressure_decreases_crest_to_trough(suite_grids,
                                                         suite_solutions):
    t0 = time.perf_counter()
    details = []
    ok = True
    for s, gf in sorted(suite_grids.items()):
        g = suite_solutions[s].gravity
        inner = ~gf.excluded.copy()
        inner[:, 0] = inner[:, -1] = False
        worst_inner = float(gf.P_x[inner].max())
        lines = float(max(np.abs(gf.P_x[:, 0]).max(),
                          np.abs(gf.P_x[:, -1]).max()))
        ok &= worst_inner < 0.0 and lines <= 1e-10 * g
        details.append(f"s={s}: max interior P_x = {worst_inner:.2e}, "
                       f"max |P_x| on lines = {lines:.2e}")
    elapsed = _BUDGETS["grids"] + (time.perf_counter() - t0)
    ok &= elapsed < 60.0
    assert record_criterion(
        4, ok, "; ".join(details) +
               f" (interior strict, lines tol 1e-10; grids {elapsed:.1f}s)")


def test_criterion_05_pressure_increases_with_depth(suite_grids,
                                                    suite_solutions):
    details = []
    ok = True
    for s, gf in sorted(suite_grids.items()):
        worst = float(gf.P_y.max())   # must stay strictly negative
        ok &= worst < 0.0
        details.append(f"s={s}: max P_y = {worst:.3e}")
    assert record_criterion(
        "5a", ok, "P_y < 0 at every grid point, surface row and lines "
                  "included: " + "; ".join(details))


def test_criterion_05_far_field_hydrostatic_at_stated_depth(suite_solutions):
    # stated: |P_y + g| <= 1e-8 g on p = -10c. The first Fourier mode decays
    # as e^{p/c}, so the perturbation floor at that depth is ~|a_1| e^{-10}
    # ~ 1e-5..1e-6 for these waves -- three orders above the stated
    # tolerance for every non-flat wave. Measured against the stated bound
    # anyway; the companion figure at p = -20c shows the same statistic
    # passing once the decay has room to act.
    details = []
    worst_overall = 0.0
    for s, sol in sorted(suite_solutions.items()):
        g = sol.gravity
        q = np.linspace(0.0, math.pi * sol.c, 256)
        ten = grid_fields(sol, q, np.array([-10.0 * sol.c]))
        twenty = grid_fields(sol, q, np.array([-20.0 * sol.c]))
        m10 = float(np.abs(ten.P_y + g).max())
        m20 = float(np.abs(twenty.P_y + g).max())
        worst_overall = max(worst_overall, m10)
        details.append(f"s={s}: |P_y + g| = {m10:.2e} at -10c "
                       f"({m20:.2e} at -20c)")
    ok = worst_overall <= 1e-8
    record_criterion(
        "5b", ok, "far field at stated depth p = -10c (tol 1e-8): "
                  + "; ".join(details)
                  + "; first-mode decay e^{-10} = 4.5e-5 puts the floor three "
                    "orders above the stated tolerance at this depth")
    assert ok, (
        f"|P_y + g| = {worst_overall:.2e} at p = -10c exceeds the stated "
        f"1e-8 g; the e^{{p/c}} mode decay makes this bound unattainable at "
        f"that depth for any nonflat wave (it passes at p = -20c)")


def test_criterion_06_surface_and_velocity_structure(suite_grids,
                                                     suite_solutions):
    ok = True
    details = []
    caps = []
    for s, gf in sorted(suite_grids.items()):
        sol = suite_solutions[s]
        g, c = sol.gravity, sol.c

        # f = (c-u)v - gx on the surface: nonpositive and falling
        f_surf = gf.f[-1]
        cmu = c - gf.u[-1]
        f_q = -gf.u_q[-1] * gf.v[-1] + cmu * gf.v_q[-1] - g * gf.h_p[-1]
        dfdx = f_q / gf.h_p[-1]
        ok &= float(f_surf.max()) <= 1e-10
        ok &= float(dfdx.max()) <= 1e-10

        # line values of f
        ok &= float(np.abs(gf.f[:, 0]).max()) <= 1e-10 * g
        ok &= float(np.abs(gf.f[:, -1] + g * math.pi).max()) <= 1e-10 * g

        # velocity structure
        inner = np.ones_like(gf.excluded)
        inner[:, 0] = inner[:, -1] = False
        ok &= float(gf.v[inner].min()) > 0.0
        ok &= float(max(np.abs(gf.v[:, 0]).max(),
                        np.abs(gf.v[:, -1]).max())) <= 1e-12 * c
        ok &= float((gf.u - c).max()) < 0.0

        # surface slope and convexity structure
        prof = surface(sol, m=256)
        slope_sq = float((prof.slope ** 2).max())
        ok &= slope_sq < 1.0
        x, eta_xx = prof.x, prof.eta_xx
        live = np.abs(eta_xx) > 1e-12 * np.abs(eta_xx).max()
        flips = int(np.count_nonzero(np.diff(np.sign(eta_xx[live]))))
        ok &= flips == 1
        cap = float(x[live][np.argmax(np.sign(eta_xx[live]) > 0)])
        caps.append(cap)
        details.append(f"s={s}: max f = {float(f_surf.max()):.1e}, "
                       f"max df/dx = {float(dfdx.max()):.2f}, "
                       f"min interior v = {float(gf.v[inner].min()):.1e}, "
                       f"max slope^2 = {slope_sq:.3f}, "
                       f"concave cap ends at x = {cap:.3f}")

    # steeper waves stay concave over a shrinking cap around the crest
    ok &= caps[0] > caps[1] > caps[2] > 0.0
    assert record_criterion(
        6, ok, "; ".join(details) + "; cap shrinks with steepness")


def test_criterion_07_identity_suite(suite_solutions, rng):
    sol = suite_solutions[0.10]
    g, c = sol.gravity, sol.c

    # dual horizontal pressure-gradient routes on a deterministic grid
    q = np.linspace(0.07, 0.93, 24) * math.pi * c
    p = np.linspace(-2.4, -0.12, 8)
    gf = grid_fields(sol, q, p)
    dual = float((np.abs(gf.P_x - gf.P_x_alt)
                  / (np.abs(gf.P_x) + g)).max())

    # superharmonicity: Delta P = -2 (u_x^2 + u_y^2) at lifted physical points
    worst_sup = 0.0
    for _ in range(16):
        q0 = float(rng.uniform(0.1, 0.9)) * math.pi * c
        p0 = float(rng.uniform(-2.0, -0.2))
        lift = oracles.physical_lift(sol, pressure, q0, p0)
        jet = eval_conformal_jet(sol, StripPoint(q0, p0))
        lap = oracles.fd_laplacian(lift, np.array([jet.x, jet.h]), step=1e-3)
        worst_sup = max(worst_sup,
                        abs(lap + 2.0 * _speed_grad_sq(sol, q0, p0)))

    # analytic gradient vs finite differences at 100 random points
    worst_fd = 0.0
    for _ in range(100):
        q0 = float(rng.uniform(0.08, 0.92)) * math.pi * c
        p0 = float(rng.uniform(-2.5, -0.15))
        jet = eval_conformal_jet(sol, StripPoint(q0, p0))
        px, py = pressure_gradient(sol, StripPoint(q0, p0))
        lift = oracles.physical_lift(sol, pressure, q0, p0)
        fx = oracles.fd_derivative(lift, np.array([jet.x, jet.h]),
                                   direction=np.array([1.0, 0.0]),
                                   step=3e-4, richardson=True)
        fy = oracles.fd_derivative(lift, np.array([jet.x, jet.h]),
                                   direction=np.array([0.0, 1.0]),
                                   step=3e-4, richardson=True)
        scale = abs(px) + abs(py) + g
        worst_fd = max(worst_fd, abs(px - fx) / scale, abs(py - fy) / scale)

    ok = dual <= 1e-9 and worst_sup <= 1e-5 and worst_fd <= 1e-5
    assert record_criterion(
        7, ok, f"dual P_x routes {dual:.1e} (tol 1e-9 rel); "
               f"superharmonic defect {worst_sup:.1e} (tol 1e-5); "
               f"FD-vs-analytic gradient {worst_fd:.1e} at 100 points "
               f"(tol 1e-5 rel)")


def _speed_grad_sq(sol, q0, p0):
    from stokespressure.hodograph_fields import velocity_gradients
    u_x, u_y, _, _ = velocity_gradients(sol, StripPoint(q0, p0))
    return u_x ** 2 + u_y ** 2


def test_criterion_08_limiting_wave(limit_run, limit_bracket_run):
    est = limit_run
    lo, hi = limit_bracket_run
    angles = [crest_angle(m.solution) for m in est.family.members]
    final_angle = angles[-1]
    decreasing = all(a > b for a, b in zip(angles, angles[1:]))
    elapsed = _BUDGETS["limit"] + _BUDGETS["bracket"]
    ok = (0.135 <= est.s_max <= 0.145
          and lo <= est.s_max <= hi
          and est.K_at_max <= 0.15
          and est.N_used <= 2048
          and decreasing
          and 115.0 <= final_angle <= 132.0
          and elapsed < 180.0)
    assert record_criterion(
        8, ok, f"s_max = {est.s_max:.6f} in [0.135, 0.145], bracket "
               f"[{lo:.6f}, {hi:.6f}] contains it, K = {est.K_at_max:.4f} "
               f"<= 0.15, N = {est.N_used}, crest angle strictly falling "
               f"{angles[0]:.1f} -> {final_angle:.2f} deg (target "
               f"[115, 132]), {elapsed:.0f}s")


def test_criterion_09_determinism_and_round_trip(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["solve", "--steepness", "0.05", "--modes", "64",
                         "--out", str(out)])
        assert code == 0
        code = cli_main(["verify", "--solution", str(out / "solution.json"),
                         "--out", str(out)])
        assert code == 0
        code = cli_main(["fields", "--solution", str(out / "solution.json"),
                         "--out", str(out), "--grid", "24x12"])
        assert code == 0
        outs.append(out)
    a, b = outs
    same = all((a / f).read_bytes() == (b / f).read_bytes()
               for f in ("solution.json", "report.json", "fields.csv"))

    # the CLI artifact carries solver diagnostics; the byte contract is on
    # the save(load(save(x))) chain, which drops them once
    sol = load_solution(a / "solution.json")
    save_solution(sol, tmp_path / "resaved.json")
    saved_back = load_solution(tmp_path / "resaved.json")
    save_solution(saved_back, tmp_path / "resaved2.json")
    round_trip = ((tmp_path / "resaved.json").read_bytes()
                  == (tmp_path / "resaved2.json").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = same and round_trip and elapsed < 5.0
    assert record_criterion(
        9, ok, f"repeat runs byte-identical across solution/report/fields; "
               f"save-load-save byte-identical; {elapsed:.2f}s")


def test_criterion_10_total_runtime():
    elapsed = time.perf_counter() - _T0
    ok = elapsed <= 300.0
    assert record_criterion(
        10, ok, f"acceptance suite wall clock {elapsed:.0f}s <= 300s")
