import gc
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stokespressure
from stokespressure import oracles, spectral_solver
from stokespressure.oracles import surface_residual
from stokespressure.spectral_solver import (
    NonConvergence,
    SingularJacobian,
    TailNotResolved,
    _pad_modes,
    collocation_angles,
    continue_family,
    estimate_limit,
    initial_guess,
    jacobian,
    midpoint_residual,
    newton_solve,
    residual_vector,
)
from stokespressure.wave_model import (
    ConformalSolution,
    InvalidConfig,
    WaveConfig,
    crest_indicator,
    steepness,
    tail_ratio,
)


def unknowns(sol):
    return np.concatenate([sol.coeffs, [sol.c, sol.E]])


def with_unknowns(sol, vec):
    return ConformalSolution(c=vec[-2], E=vec[-1], coeffs=vec[:-2],
                             gravity=sol.gravity,
                             surface_pressure=sol.surface_pressure)


# --- residual system ---------------------------------------------------------

def test_collocation_angles_span_half_period():
    th = collocation_angles(8)
    assert len(th) == 9
    assert th[0] == 0.0 and th[-1] == pytest.approx(math.pi)
    assert np.all(np.diff(th) > 0)


def test_initial_guess_hand_values(cfg64):
    g = initial_guess(0.01, cfg64)
    assert g.coeffs[0] == pytest.approx(math.pi / 100.0, rel=1e-15)
    assert np.all(g.coeffs[1:] == 0.0)
    assert g.c == 1.0 and g.E == 0.5


def test_initial_guess_rejects_large_targets(cfg64):
    with pytest.raises(ValueError):
        initial_guess(0.21, cfg64)
    with pytest.raises(ValueError):
        initial_guess(-0.01, cfg64)


def test_flat_solution_has_zero_residual(cfg64):
    flat = initial_guess(0.0, cfg64)
    res = residual_vector(flat, 0.0)
    assert res.shape == (cfg64.mode_count + 2,)
    assert np.abs(res).max() == 0.0


def test_converged_solution_residual_below_tolerance(sol_010):
    res = residual_vector(sol_010, steepness(sol_010))
    assert np.abs(res).max() <= 1e-12


def test_surface_residual_matches_residual_vector(sol_005):
    th = collocation_angles(sol_005.mode_count)
    res = residual_vector(sol_005, 0.05)
    srf = surface_residual(sol_005, th)
    assert np.allclose(res[:len(th)], srf, atol=1e-15)


def test_residual_vector_matches_dense_sums(family_n256):
    for m in family_n256.members:
        n = m.solution.mode_count
        res = residual_vector(m.solution, m.steepness)
        srf = surface_residual(m.solution, collocation_angles(n))
        assert np.abs(res[:-1] - srf).max() <= 1e-13


def test_residual_vector_matches_dense_sums_padded_to_2048(sol_010):
    wide = _pad_modes(sol_010, 2048)
    res = residual_vector(wide, steepness(wide))
    srf = surface_residual(wide, collocation_angles(2048))
    assert np.abs(res[:-1] - srf).max() <= 1e-13


def test_midpoint_residual_flat_is_zero(cfg64):
    assert midpoint_residual(initial_guess(0.0, cfg64)) == 0.0


def _dense_midpoint_residual(sol):
    n = sol.mode_count
    mid = (np.arange(n) + 0.5) * np.pi / n
    return float(np.abs(surface_residual(sol, mid)).max())


def test_midpoint_residual_matches_dense_sums(family_n256):
    for m in family_n256.members:
        assert abs(midpoint_residual(m.solution)
                   - _dense_midpoint_residual(m.solution)) <= 1e-13


def test_midpoint_residual_matches_dense_sums_padded_to_2048(sol_010):
    wide = _pad_modes(sol_010, 2048)
    assert abs(midpoint_residual(wide) - _dense_midpoint_residual(wide)) <= 1e-13


# --- jacobian ----------------------------------------------------------------

def test_jacobian_energy_column_flat_hand_value(cfg64):
    # at the flat stream the Bernoulli rows depend on E as 2 E D with D = 1/c^2,
    # so dR/dE = 2 / c^2 exactly
    flat = initial_guess(0.0, cfg64)
    J = jacobian(flat, 0.0)
    n = cfg64.mode_count
    assert np.allclose(J[:n + 1, -1], 2.0 / flat.c ** 2, atol=1e-15)


def test_jacobian_steepness_row(cfg64):
    flat = initial_guess(0.0, cfg64)
    J = jacobian(flat, 0.0)
    row = J[-1]
    n = cfg64.mode_count
    # odd-index modes (a_1, a_3, ...) carry 1/pi, even modes and c, E nothing
    assert np.allclose(row[0:n:2], 1.0 / math.pi, atol=1e-15)
    assert np.allclose(row[1:n:2], 0.0, atol=1e-15)
    assert row[-1] == 0.0 and row[-2] == 0.0


def _broadcast_jacobian(sol):
    # The trig formula for J, independent of `_weights` and of the FFT
    # assembly, from the same surface sums (checked against dense sums by
    # the residual tests above). The angles theta_j k = pi (j k mod 2N) / N
    # are reduced in integers: the float product theta_j * k is off by up to
    # ~1e-12 at N = 2048, more than the bound it serves as reference for.
    n = sol.mode_count
    k = np.arange(1.0, n + 1.0)
    jk = np.outer(np.arange(n + 1), np.arange(1, n + 1)) % (2 * n)
    ck, sk = np.cos(np.pi * jk / n), np.sin(np.pi * jk / n)
    a, c, E, g = sol.coeffs, sol.c, sol.E, sol.gravity
    h, A, B = spectral_solver._surface_sums(a, n)
    S = A * A + (1.0 + B) ** 2
    excess = E - g * h
    J = np.zeros((n + 2, n + 2))
    J[: n + 1, :n] = (
        (-2.0 * g * S / c**2)[:, None] * ck
        + (2.0 * excess / c**2)[:, None]
        * (2.0 * A[:, None] * (sk * k) + 2.0 * (1.0 + B)[:, None] * (ck * k))
    )
    J[: n + 1, n] = -4.0 * excess * S / c**3
    J[: n + 1, n + 1] = 2.0 * S / c**2
    J[n + 1, 0:n:2] = 1.0 / np.pi
    return J


@pytest.mark.parametrize("n", [64, 100, 2048])
def test_jacobian_is_the_matrix_of_the_matrix_free_product(sol_005, n):
    # N is not a multiple of the assembly's column block at N = 100.
    sol = _pad_modes(sol_005, n)
    J = jacobian(sol, 0.05)
    jv = spectral_solver._jvp_operator(sol)
    for k, e_k in enumerate(np.eye(n + 2)):
        assert np.array_equal(J[:, k], jv(e_k)), k
    assert np.abs(J - _broadcast_jacobian(sol)).max() <= 1e-12 * np.abs(J).max()


def test_surface_sums_of_a_batch_are_those_of_each_row(sol_005, rng):
    n = 100
    rows = np.vstack([_pad_modes(sol_005, n).coeffs, np.eye(3, n, 97),
                      rng.standard_normal((4, n))]).reshape(2, 4, n)
    batch = spectral_solver._surface_sums(rows, n)
    for i, j in np.ndindex(rows.shape[:2]):
        alone = spectral_solver._surface_sums(rows[i, j], n)
        for x, y in zip(batch, alone):
            assert np.array_equal(x[i, j], y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_jacobian_raises_singular(cfg64, monkeypatch, bad):
    exact = spectral_solver.jacobian

    def poisoned(sol, s_target):
        J = exact(sol, s_target)
        J[3, 5] = bad
        return J

    monkeypatch.setattr(spectral_solver, "jacobian", poisoned)
    with pytest.raises(SingularJacobian, match="non-finite"):
        newton_solve(initial_guess(0.01, cfg64), 0.01, cfg64)


def test_exactly_singular_jacobian_raises_quietly(cfg64, monkeypatch):
    # LU only warns on an exactly zero pivot; the rcond floor must raise,
    # and no warning may escape.
    exact = spectral_solver.jacobian

    def singular(sol, s_target):
        J = exact(sol, s_target)
        J[3, :] = 0.0
        return J

    monkeypatch.setattr(spectral_solver, "jacobian", singular)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularJacobian, match="condition"):
            newton_solve(initial_guess(0.01, cfg64), 0.01, cfg64)


def test_jacobian_matches_finite_differences(sol_005, rng):
    s0 = steepness(sol_005)
    J = jacobian(sol_005, s0)
    u0 = unknowns(sol_005)
    cols = list(rng.choice(len(u0), size=6, replace=False)) + [len(u0) - 2,
                                                               len(u0) - 1]
    for j in cols:
        def res_component(t, j=j):
            u = u0.copy()
            u[j] = t
            return residual_vector(with_unknowns(sol_005, u), s0)

        fd = oracles.fd_derivative(res_component, u0[j], step=1e-6)
        err = np.abs(J[:, j] - fd).max()
        scale = 1.0 + np.abs(J[:, j]).max()
        assert err <= 1e-6 * scale, f"column {j}: fd mismatch {err:.2e}"


# --- newton ------------------------------------------------------------------

def test_newton_small_wave_iteration_count(cfg64):
    diag = {}
    sol = newton_solve(initial_guess(0.01, cfg64), 0.01, cfg64,
                       diagnostics=diag)
    assert diag["iterations"] <= 5
    assert steepness(sol) == pytest.approx(0.01, abs=1e-14)
    assert sol.c == pytest.approx(1.0004936020412338, rel=1e-10)
    assert sol.E == pytest.approx(0.5009867165150099, rel=1e-10)


def test_newton_flat_converges_without_stepping(cfg64):
    # At 1024 modes too, where a step would try the Fourier preconditioner.
    for cfg in (cfg64, WaveConfig(mode_count=1024)):
        diag = {}
        sol = newton_solve(initial_guess(0.0, cfg), 0.0, cfg,
                           diagnostics=diag)
        assert diag["iterations"] == 0
        assert np.all(sol.coeffs == 0.0)


def test_newton_rejects_hopeless_jump(sol_005):
    cfg = WaveConfig(mode_count=64, newton_max_iter=12)
    with pytest.raises(NonConvergence) as info:
        newton_solve(sol_005, 0.20, cfg)
    assert info.value.iterations >= 1
    assert info.value.residual > 0.0


def test_newton_reports_unresolved_tail(sol_005):
    # a 16-mode truncation cannot hold the s = 0.10 spectrum: the solve
    # converges pointwise but the last coefficient stays fat
    cfg = WaveConfig(mode_count=16)
    guess = ConformalSolution(c=sol_005.c, E=sol_005.E,
                              coeffs=sol_005.coeffs[:16],
                              gravity=sol_005.gravity)
    with pytest.raises(TailNotResolved) as info:
        newton_solve(guess, 0.10, cfg)
    assert info.value.tail > 1e-8
    assert info.value.solution is not None
    assert steepness(info.value.solution) == pytest.approx(0.10, abs=1e-12)


def test_newton_diagnostics_dict(sol_tiny, cfg64):
    diag = {}
    newton_solve(sol_tiny, 0.003, cfg64, diagnostics=diag)
    assert {"iterations", "residual_norm", "tail_ratio"} <= set(diag)
    assert diag["residual_norm"] <= cfg64.newton_tol


@given(s=st.floats(0.0, 0.02))
@settings(max_examples=15, deadline=None)
def test_newton_lands_on_requested_steepness(s):
    cfg = WaveConfig(mode_count=32)
    sol = newton_solve(initial_guess(s, cfg), s, cfg)
    assert steepness(sol) == pytest.approx(s, abs=1e-12)
    assert sol.c > 0 and sol.E > 0


# --- continuation ------------------------------------------------------------

def test_family_walks_monotonically(family_n256):
    s = np.array(family_n256.steepnesses)
    assert s[0] == pytest.approx(0.01, abs=1e-12)
    assert s[-1] == pytest.approx(0.10, abs=1e-12)
    assert np.all(np.diff(s) > 0)
    assert family_n256.stop_reason == "reached_stop"


def test_family_speed_and_energy_increase(family_n256):
    c = np.array([m.solution.c for m in family_n256.members])
    E = np.array([m.solution.E for m in family_n256.members])
    assert np.all(np.diff(c) > 0), "wave speed should grow with steepness"
    assert np.all(np.diff(E) > 0)


def test_family_member_quality(family_n256):
    for m in family_n256.members:
        assert m.residual_norm <= 1e-12
        assert m.tail_ratio <= 1e-8
        assert 0.0 < m.crest_indicator < 1.0


def test_family_matches_direct_solve(family_n256, sol_005):
    m = family_n256.members[4]   # s = 0.05 at 256 modes
    assert m.steepness == pytest.approx(0.05, abs=1e-12)
    assert m.solution.c == pytest.approx(sol_005.c, rel=1e-11)
    assert m.solution.E == pytest.approx(sol_005.E, rel=1e-11)


def test_family_frozen_anchors(family_n256):
    by_s = {round(m.steepness, 6): m.solution for m in family_n256.members}
    assert by_s[0.05].c == pytest.approx(1.0124139175, rel=1e-9)
    assert by_s[0.05].E == pytest.approx(0.5245147746, rel=1e-9)
    assert by_s[0.10].c == pytest.approx(1.0505584734, rel=1e-9)
    assert by_s[0.10].E == pytest.approx(0.5955574263, rel=1e-9)
    assert crest_indicator(by_s[0.10]) == pytest.approx(0.571271, abs=2e-6)


def test_family_grows_modes_when_needed():
    # start far too coarse; the walk must double its way out instead of dying
    fam = continue_family(0.02, 0.10, WaveConfig(mode_count=16),
                          max_modes=512)
    last = fam.members[-1]
    assert last.steepness == pytest.approx(0.10, abs=1e-12)
    assert last.solution.mode_count > 16
    assert last.tail_ratio <= 1e-8


def test_family_respects_mode_cap():
    fam = continue_family(0.02, 0.16, WaveConfig(mode_count=32),
                          max_modes=64)
    assert fam.stop_reason == "mode_cap"
    assert fam.members[-1].steepness < 0.16
    assert fam.requested_stop == 0.16


def test_family_without_tail_test_passes_the_mode_cap():
    # The oracle's walk runs with tail_limit=inf: the same 64-mode family
    # that stops at its cap with the default bound reaches s_stop, at the
    # mode count it started with, on tails the default bound rejects.
    cfg, kw = WaveConfig(mode_count=64), dict(max_modes=64)
    capped = continue_family(0.01, 0.12, cfg, **kw)
    assert capped.stop_reason == "mode_cap"
    assert capped.last.steepness == 0.10597656249999998
    free = continue_family(0.01, 0.12, cfg, tail_limit=np.inf, **kw)
    assert free.stop_reason == "reached_stop"
    assert free.last.steepness == pytest.approx(0.12, abs=1e-12)
    assert free.last.solution.mode_count == 64
    assert free.last.tail_ratio > 1e-8


@pytest.mark.parametrize("s_start, s_stop", [(0.01, 0.0300004),
                                             (0.1, 0.12)])
def test_family_members_lie_at_least_the_step_floor_apart(s_start, s_stop):
    # A step that would end within the 1e-5 floor of the bound it lands on
    # goes to the bound: 0.02 + 0.01 falls 4e-7 short of s_stop = 0.0300004,
    # and eight steps of 0.01 from 0.02 fall 1.4e-17 short of s_start = 0.1.
    fam = continue_family(s_start, s_stop, WaveConfig(mode_count=64))
    s = np.array(fam.steepnesses)
    assert s[0] == pytest.approx(s_start, abs=1e-12)
    assert s[-1] == pytest.approx(s_stop, abs=1e-12)
    assert np.diff(s).min() >= 1e-5


def test_family_rejects_bad_range(cfg64, monkeypatch):
    # a zero step would append members at one steepness without end; the
    # solve count guard turns such a regression into a failure instead of a
    # hang (continue_family does not catch AssertionError); a step below the
    # 1e-5 floor would append members nearly as fast
    calls = []
    real = spectral_solver.newton_solve

    def guarded(*args, **kwargs):
        calls.append(None)
        if len(calls) > 200:
            raise AssertionError("more than 200 solves")
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral_solver, "newton_solve", guarded)
    for s_start, s_stop, step in [(0.05, 0.02, 0.01), (0.01, 0.02, 0.0),
                                  (0.01, 0.02, -0.01), (0.01, 0.02, 1e-9),
                                  (0.01, np.inf, 0.01)]:
        with pytest.raises(ValueError):
            continue_family(s_start, s_stop, cfg64, initial_step=step)


def test_estimate_limit_stops_in_bounded_time():
    t0 = time.perf_counter()
    est = estimate_limit(WaveConfig(mode_count=64))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert est.stop_reason in ("mode_cap", "step_floor")
    assert est.s_max > 0.02


def test_family_warm_starts_when_the_secant_declines(monkeypatch):
    # The walk lands on s_start = 0.0201 from its ramp at 0.02, a step of
    # 1e-4; the next step, 0.01, is more than 4 times that, so the secant
    # declines and the target is solved once, from the previous member.
    # The two steps after that are secant-predicted.
    secants, solves = [], []
    real_secant = spectral_solver._secant_guess
    real_solve = spectral_solver.newton_solve

    def counted(*args):
        secants.append(args[-1])
        return real_secant(*args)

    def logged(guess, s_target, cfg, *args, **kwargs):
        solves.append((s_target, guess))
        return real_solve(guess, s_target, cfg, *args, **kwargs)

    monkeypatch.setattr(spectral_solver, "_secant_guess", counted)
    monkeypatch.setattr(spectral_solver, "newton_solve", logged)
    fam = continue_family(0.0201, 0.05, WaveConfig(mode_count=64))
    assert fam.stop_reason == "reached_stop"
    np.testing.assert_allclose(fam.steepnesses, [0.0201, 0.0301, 0.0401, 0.05],
                               rtol=0.0, atol=1e-12)
    assert len(secants) == 2
    (guess,) = [g for s, g in solves if abs(s - 0.0301) < 1e-12]
    assert guess is fam.members[0].solution


def test_estimate_limit_raises_when_the_first_member_fails():
    # One Newton iteration cannot converge the ramp's first target, so there
    # is no best state to return: the first member's error propagates.
    with pytest.raises(NonConvergence):
        estimate_limit(WaveConfig(newton_max_iter=1))
    with pytest.raises(InvalidConfig):
        estimate_limit(WaveConfig(), s_start=0.0)


def test_estimate_limit_does_not_resolve_after_mode_cap_tail(monkeypatch):
    # A tail rejection at the mode cap is final for its target: the tail
    # belongs to the collocation solution at that target and N, so solving
    # the same target again from the plain warm start cannot give a member.
    calls = []
    real = spectral_solver.newton_solve

    def logged(guess, s_target, cfg, *args, **kwargs):
        tail_rejected = False
        try:
            return real(guess, s_target, cfg, *args, **kwargs)
        except TailNotResolved:
            tail_rejected = True
            raise
        finally:
            calls.append((guess.mode_count, s_target, tail_rejected))

    monkeypatch.setattr(spectral_solver, "newton_solve", logged)
    est = estimate_limit(WaveConfig(mode_count=64), max_modes=128)
    resolves = [a[1] for a, b in zip(calls, calls[1:])
                if a[0] == 128 and a[2] and b[1] == a[1]]
    assert resolves == []
    assert est.stop_reason == "mode_cap"
    assert est.s_max == 0.12203125000000001


_BENCHMARK_CAP = """
from stokespressure import WaveConfig, spectral_solver
jacs = []
real = spectral_solver.jacobian
spectral_solver.jacobian = lambda sol, s: jacs.append(sol) or real(sol, s)
est = spectral_solver.estimate_limit(WaveConfig(), max_modes=512)
print(repr(est.s_max), len(jacs))
"""


def test_estimate_limit_at_the_benchmark_cap():
    # The estimate of the `limit` benchmark, which runs one BLAS thread. A
    # fresh interpreter pins that thread count: the last bits of s_max
    # follow the order in which the LU is computed (two threads give
    # 0.13562499999999997).
    src = str(os.path.dirname(os.path.dirname(stokespressure.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _BENCHMARK_CAP], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    s_max, jacobians = proc.stdout.split()
    assert float(s_max) == 0.135625
    assert int(jacobians) <= 3


def _count_jacobians(monkeypatch):
    calls = []
    real = spectral_solver.jacobian

    def counted(sol, s_target):
        calls.append(sol.mode_count)
        return real(sol, s_target)

    monkeypatch.setattr(spectral_solver, "jacobian", counted)
    return calls


def _secant_directions(members, start):
    # Differences of consecutive waves: what Newton steps and the secant
    # predictor look like. White-noise directions are no test of J.v: the
    # dense product's own rounding grows like N eps for them (2e-13 relative
    # at N = 1024 against a long-double reference, where the FFT product
    # stays at 6e-16), while it stays at eps for smooth directions.
    prev = start
    for m in members:
        yield m, unknowns(m.solution) - unknowns(prev)
        prev = m.solution


def test_jvp_matches_dense_jacobian(family_n256, sol_010):
    # Against the trig formula: `jacobian` is built from the product itself.
    cfg = WaveConfig(mode_count=256)
    for m, d in _secant_directions(family_n256.members,
                                   initial_guess(0.01, cfg)):
        Jd = _broadcast_jacobian(m.solution) @ d
        err = np.abs(spectral_solver._jvp_operator(m.solution)(d) - Jd).max()
        assert err <= 1e-13 * np.abs(Jd).max(), m.steepness
    wide = newton_solve(_pad_modes(sol_010, 2048), 0.10,
                        WaveConfig(mode_count=2048))
    d = unknowns(wide) - unknowns(_pad_modes(family_n256.members[-2].solution,
                                             2048))
    Jd = _broadcast_jacobian(wide) @ d
    err = np.abs(spectral_solver._jvp_operator(wide)(d) - Jd).max()
    assert err <= 1e-13 * np.abs(Jd).max()


def test_krylov_steps_meet_the_forcing_test(monkeypatch):
    # Every step GMRES returns is checked against the dense Jacobian at the
    # iterate it was taken from, with LU factors at 64 and 128 modes and,
    # at 256 and 1024 modes, with the Fourier preconditioner.
    checked = []
    real = spectral_solver._gmres

    def audited(sol, r, *precond):
        delta = real(sol, r, *precond)
        if delta is not None:
            defect = np.linalg.norm(jacobian(sol, 0.0) @ delta + r)
            assert defect <= spectral_solver._FORCING * np.linalg.norm(r)
            checked.append(sol.mode_count)
        return delta

    monkeypatch.setattr(spectral_solver, "_gmres", audited)
    continue_family(0.01, 0.10, WaveConfig(mode_count=256))
    # The walk to the 128-mode cap ends in solves that contract poorly.
    continue_family(0.01, 0.2, WaveConfig(mode_count=64), max_modes=128)
    continue_family(0.01, 0.10, WaveConfig(mode_count=1024), max_modes=1024)
    assert len(checked) > 20 and set(checked) == {64, 128, 256, 1024}


def test_stale_factors_refresh_once(monkeypatch, family_n256, sol_013,
                                    sol_005):
    # Factors of a far wave (s = 0.13) and of another N (64 modes) each make
    # the solve build exactly one Jacobian, and it lands on the same wave as
    # a solve that starts with no factors.
    cfg = WaveConfig(mode_count=512)
    guess = _pad_modes(family_n256.members[0].solution, 512)
    fresh = newton_solve(guess, 0.02, cfg)
    for stale in (sol_013, sol_005):
        held = spectral_solver._Factors()
        held.lu = spectral_solver.lu_factor(jacobian(stale, steepness(stale)))
        jacs = _count_jacobians(monkeypatch)
        sol = newton_solve(guess, 0.02, cfg, factors=held)
        assert jacs == [512]
        assert held.lu[0].shape == (514, 514)
        assert np.abs(sol.coeffs - fresh.coeffs).max() <= 1e-12
        assert abs(sol.c - fresh.c) <= 1e-12 and abs(sol.E - fresh.E) <= 1e-12
        monkeypatch.undo()


def test_preconditioner_applied_once_per_product(monkeypatch):
    # Counts, not timings. Flexible GMRES keeps z_j = M^-1 v_j and returns
    # Z y, so M is applied once per J.v product and never once more per
    # linear solve; M is the float32 copy of LU factors of order N+2.
    applies, products, held = [], [], []
    real_lookup = spectral_solver.get_lapack_funcs
    real_operator = spectral_solver._jvp_operator
    real_gmres = spectral_solver._gmres

    def lookup(names, arrays=()):
        funcs = real_lookup(names, arrays)
        if names != ("getrs",):
            return funcs
        (getrs,) = funcs

        def counted(lu, *args, **kwargs):
            applies.append((getrs.typecode, lu.dtype.name, lu.shape))
            return getrs(lu, *args, **kwargs)

        return (counted,)

    def operator(sol, *weights):
        jv = real_operator(sol, *weights)

        def counted(d):
            products.append(sol.mode_count)
            return jv(d)

        return counted

    def gmres(sol, r, *precond):
        held.append(sol.mode_count + 2)
        return real_gmres(sol, r, *precond)

    monkeypatch.setattr(spectral_solver, "get_lapack_funcs", lookup)
    monkeypatch.setattr(spectral_solver, "_jvp_operator", operator)
    monkeypatch.setattr(spectral_solver, "_gmres", gmres)
    # Below _FOURIER_MIN_MODES, so every Krylov step runs on held LU factors.
    continue_family(0.01, 0.10, WaveConfig(mode_count=128), max_modes=128)
    assert len(held) > 20
    assert set(held) == {130}
    assert len(applies) == len(products) > len(held)
    assert set(applies) == {("s", "float32", (130, 130))}


def _reference_gmres(sol, r, precond, bases, weights=None):
    # `_gmres` with its Givens rotations on NumPy scalars, np.linalg.norm
    # and a fresh series buffer and k = 1..N in every J.v: the reference
    # that the leaner loop must match bit for bit, as `_broadcast_jacobian`
    # is the reference for J.v.
    n = sol.mode_count
    w_h, w_A, w_B, w_c, w_E = (spectral_solver._weights(sol)
                               if weights is None else weights)

    def jv(d):
        dh, dA, dB = spectral_solver._surface_sums(d[:n], n)
        out = np.empty(n + 2)
        out[: n + 1] = (w_h * dh + w_A * dA + w_B * dB
                        + w_c * d[n] + w_E * d[n + 1])
        out[n + 1] = d[0:n:2].sum() / np.pi
        return out

    beta = float(np.linalg.norm(r))
    V, Z = bases
    m = Z.shape[0]
    R = np.zeros((m, m))
    rot = np.zeros((m, 2))
    g = np.zeros(m + 1)
    g[0] = beta
    np.divide(r, -beta, out=V[0])
    for j in range(m):
        Z[j] = precond(V[j])
        w = jv(Z[j])
        col = R[: j + 1, j]
        for _ in range(2):
            hj = V[: j + 1] @ w
            w -= hj @ V[: j + 1]
            col += hj
        h_next = float(np.linalg.norm(w))
        if not np.isfinite(h_next):
            return None
        for i, (ci, si) in enumerate(rot[:j]):
            col[i], col[i + 1] = (ci * col[i] + si * col[i + 1],
                                  ci * col[i + 1] - si * col[i])
        rho = float(np.hypot(col[j], h_next))
        if rho == 0.0:
            return None
        rot[j] = col[j] / rho, h_next / rho
        col[j] = rho
        g[j + 1] = -rot[j, 1] * g[j]
        g[j] *= rot[j, 0]
        if abs(g[j + 1]) <= spectral_solver._FORCING * beta:
            y = spectral_solver._back_substitute(R[: j + 1, : j + 1],
                                                 g[: j + 1])
            return y @ Z[: j + 1]
        V[j + 1] = w / h_next
    return None


def test_gmres_matches_its_reference_bit_for_bit(monkeypatch, sol_013):
    # Every system GMRES meets in three runs is also solved by the
    # reference: LU-preconditioned at 128 and 256 modes (a walk that
    # doubles N), Fourier-preconditioned at 2048 modes and, near the limit,
    # at 1024 modes, where with a holder of factors it misses at 20
    # iterations and the solve goes on with LU factors.
    seen = set()
    real = spectral_solver._gmres

    def checked(sol, r, precond, bases, weights=None):
        want = _reference_gmres(sol, r, precond,
                                tuple(np.empty_like(b) for b in bases),
                                weights)
        got = real(sol, r, precond, bases, weights)
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want)
        kind = precond.__qualname__.split(".")[0]
        seen.add((sol.mode_count, kind, bases[1].shape[0], want is None))
        return got

    monkeypatch.setattr(spectral_solver, "_gmres", checked)
    continue_family(0.01, 0.2, WaveConfig(mode_count=128), max_modes=256)
    continue_family(0.01, 0.03, WaveConfig(mode_count=2048))
    newton_solve(_pad_modes(sol_013, 1024), 0.135, WaveConfig(mode_count=1024),
                 factors=spectral_solver._Factors())
    assert {(n, kind) for n, kind, _, _ in seen} == {
        (128, "_lu_preconditioner"), (256, "_lu_preconditioner"),
        (1024, "_lu_preconditioner"), (1024, "_fourier_preconditioner"),
        (2048, "_fourier_preconditioner")}
    assert (1024, "_fourier_preconditioner", 20, True) in seen


def test_back_substitution_matches_lapack_bit_for_bit():
    # GMRES's triangular solve must keep the bits of LAPACK's trtrs, which
    # it replaced: np.linalg.solve agreed on few such systems and moved
    # s_max. The systems are laid out as GMRES holds them, the leading
    # block of an m x m array with a positive diagonal, m up to the longest
    # GMRES run (60 iterations, in a solve that keeps no factors).
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(13)
    m = spectral_solver._KRYLOV_MAX_UNHELD
    for _ in range(2000):
        n = int(rng.integers(1, m + 1))
        R = np.triu(rng.standard_normal((m, m)))
        R[np.diag_indices(m)] = np.abs(np.diag(R)) + 1e-3
        g = rng.standard_normal(n)
        want = solve_triangular(R[:n, :n], g)
        got = spectral_solver._back_substitute(R[:n, :n], g.copy())
        assert np.array_equal(got, want)


def test_no_quadratic_state_outlives_its_results(sol_005, monkeypatch):
    # A 1024-mode Jacobian and a 512-mode continuation leave nothing of
    # size N^2 alive in the module once their results are dropped: no trig
    # tables, no LU factors. The bound is a tenth of the smallest such
    # array, the float32 factors of order 514. The continuation is kept on
    # the dense path, which a 512-mode solve otherwise takes only after a
    # GMRES miss, so that it does hold such factors while it runs.
    monkeypatch.setattr(spectral_solver, "_FOURIER_MIN_MODES", 1024)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        J = jacobian(_pad_modes(sol_005, 1024), 0.05)
        assert tracemalloc.get_traced_memory()[0] - base >= J.nbytes
        del J
        fam = continue_family(0.01, 0.05, WaveConfig(mode_count=512),
                              max_modes=512)
        assert fam.last.solution.mode_count == 512
        del fam
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert left < 514**2 * 4 // 10


def test_dense_newton_agrees_with_krylov_steps(family_n256, monkeypatch):
    # With a zero forcing term no Krylov step is ever accepted, so every
    # step is a fresh dense Newton step; both must land on the same waves.
    monkeypatch.setattr(spectral_solver, "_FORCING", 0.0)
    jacs = _count_jacobians(monkeypatch)
    plain = continue_family(0.01, 0.10, WaveConfig(mode_count=256))
    assert len(jacs) == sum(m.newton_iters for m in plain.members)
    assert len(plain.members) == len(family_n256.members)
    for p, m in zip(plain.members, family_n256.members):
        assert p.steepness == pytest.approx(m.steepness, abs=1e-14)
        assert np.abs(p.solution.coeffs - m.solution.coeffs).max() <= 1e-11
        assert abs(p.solution.c - m.solution.c) <= 1e-11
        assert abs(p.solution.E - m.solution.E) <= 1e-11


def test_continuation_jacobian_budget(monkeypatch):
    # Counts, not timings: the continuation carries one factorization from
    # member to member as GMRES preconditioner, so a 128-mode walk (below
    # _FOURIER_MIN_MODES) builds a few Jacobians for all of its Newton
    # iterations.
    jacs = _count_jacobians(monkeypatch)
    fam = continue_family(0.01, 0.10, WaveConfig(mode_count=128),
                          max_modes=128)
    assert len(jacs) <= 3
    assert sum(m.newton_iters for m in fam.members) > len(jacs)


def test_sweep_walk_budget(monkeypatch):
    # Counts, not timings: the walk of the 2,048-mode `sweep` benchmark,
    # s = 0.01 to 0.128 in steps of 0.01, stays on the Fourier path. It
    # builds no Jacobian and takes no more GMRES solves and J.v products
    # than the 54 and 409 it took when this guard was set.
    jacs = _count_jacobians(monkeypatch)
    solves, products = [], []
    real_operator = spectral_solver._jvp_operator
    real_gmres = spectral_solver._gmres

    def operator(sol, *weights):
        jv = real_operator(sol, *weights)

        def counted(d):
            products.append(sol.mode_count)
            return jv(d)

        return counted

    def gmres(sol, r, *precond):
        solves.append(sol.mode_count)
        return real_gmres(sol, r, *precond)

    monkeypatch.setattr(spectral_solver, "_jvp_operator", operator)
    monkeypatch.setattr(spectral_solver, "_gmres", gmres)
    fam = continue_family(0.01, 0.128, WaveConfig(mode_count=2048))
    assert fam.stop_reason == "reached_stop" and len(fam.members) == 13
    assert jacs == []
    assert set(solves) == {2048} and len(solves) <= 54
    assert len(products) <= 409


def _constant_coefficient_model(sol):
    # The dense matrix the Fourier preconditioner claims to invert: J with
    # w_h and w_B replaced by their trapezoid means on the mode columns and
    # w_A dropped; the c and E columns and the steepness row exact.
    n = sol.mode_count
    w_h, _, w_B, w_c, w_E = spectral_solver._weights(sol)
    theta, k = collocation_angles(n), np.arange(1.0, n + 1.0)

    def trapezoid_mean(w):
        return (w.sum() - 0.5 * (w[0] + w[-1])) / n

    M = np.zeros((n + 2, n + 2))
    M[: n + 1, :n] = ((trapezoid_mean(w_h) + k * trapezoid_mean(w_B))
                      * np.cos(np.outer(theta, k)))
    M[: n + 1, n] = w_c
    M[: n + 1, n + 1] = w_E
    M[n + 1, 0:n:2] = 1.0 / np.pi
    return M


@pytest.mark.parametrize("n", [64, 128])
def test_fourier_preconditioner_inverts_its_model(sol_013, rng, n):
    # The flat stream's linear guess at s = 0.01 has m_1 = 0 to within
    # O(s^2), which a 2x2 elimination through m_1 would divide by.
    cfg = WaveConfig(mode_count=n)
    steep = ConformalSolution(c=sol_013.c, E=sol_013.E,
                              coeffs=sol_013.coeffs[:n],
                              gravity=sol_013.gravity)
    for sol in (initial_guess(0.01, cfg), steep):
        M = _constant_coefficient_model(sol)
        apply = spectral_solver._fourier_preconditioner(
            spectral_solver._weights(sol))
        for _ in range(4):
            v = rng.standard_normal(n + 2)
            z = apply(v)
            assert np.linalg.norm(M @ z - v) <= 1e-12 * np.linalg.norm(v)
            x = np.linalg.solve(M, v)
            assert np.linalg.norm(z - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [256, 1024])
def test_fourier_path_builds_no_jacobian(monkeypatch, n):
    # Counts and bytes, not timings: from 256 modes a walk that holds no
    # factors preconditions GMRES with the Fourier model, so it builds no
    # Jacobian and never holds an N^2 array, not even the float32 factors.
    jacs = _count_jacobians(monkeypatch)
    gc.collect()
    tracemalloc.start()
    try:
        fam = continue_family(0.01, 0.10, WaveConfig(mode_count=n),
                              max_modes=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jacs == []
    assert fam.stop_reason == "reached_stop"
    assert fam.last.solution.mode_count == n
    assert all(m.residual_norm <= 1e-12 for m in fam.members)
    assert peak < (n + 2)**2 * 4


_UNHELD_SOLVE = """
import json, sys, tracemalloc
import numpy as np
from stokespressure import spectral_solver
from stokespressure.wave_model import ConformalSolution, WaveConfig, steepness

doc = json.load(sys.stdin)
guess = ConformalSolution(c=doc["c"], E=doc["E"], coeffs=np.array(doc["a"]))
cfg = WaveConfig(mode_count=guess.mode_count, newton_tol=doc["tol"])
jacs = []
real = spectral_solver.jacobian
spectral_solver.jacobian = lambda sol, s: jacs.append(sol) or real(sol, s)
tracemalloc.start()
sol = spectral_solver.newton_solve(guess, doc["s"], cfg, tail_limit=np.inf)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({"jacobians": len(jacs), "peak": peak,
                  "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules),
                  "steepness": steepness(sol)}))
"""


def test_a_solve_that_keeps_no_factors_runs_gmres_longer(monkeypatch):
    # Counts and bytes, not timings. Factors that no caller keeps die with
    # the solve, so its GMRES runs to 60 iterations, not 20, before it pays
    # for a dense step. The case is a fine solve as the 512-cap bracket
    # makes one, at s = 0.136875 inside its walk (its own probes at 0.13384
    # and 0.13615 build no Jacobian even at 20 iterations, so they cannot
    # show the rule): the secant guess through the 256-mode walk's members
    # around s, padded to 1024 modes. With no holder it builds no
    # Jacobian, loads no SciPy (a fresh interpreter) and peaks below one
    # float64 Jacobian of order 1026; with a holder its GMRES stops at 20
    # iterations and the dense step is paid.
    s = 0.136875
    cfg = WaveConfig(mode_count=256, newton_tol=WaveConfig().newton_tol / 2)
    walk = continue_family(0.01, spectral_solver._S_CEILING, cfg,
                           max_modes=256, tail_limit=np.inf).members
    i = next(i for i, m in enumerate(walk) if m.steepness > s)
    guess = _pad_modes(spectral_solver._secant_guess(
        walk[i - 1].solution, walk[i - 1].steepness, walk[i].solution,
        walk[i].steepness, s), 1024)
    doc = {"c": guess.c, "E": guess.E, "a": guess.coeffs.tolist(), "s": s,
           "tol": cfg.newton_tol}
    src = str(os.path.dirname(os.path.dirname(stokespressure.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _UNHELD_SOLVE], env=env,
                          input=json.dumps(doc), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["jacobians"] == 0
    assert seen["scipy"] is False
    assert seen["peak"] < 1026**2 * 8
    assert seen["steepness"] == pytest.approx(s, abs=1e-12)

    jacs = _count_jacobians(monkeypatch)
    newton_solve(guess, s, replace(cfg, mode_count=1024), tail_limit=np.inf,
                 factors=spectral_solver._Factors())
    assert jacs == [1024]


@pytest.mark.parametrize("poison", [
    lambda w: (np.full_like(w[0], np.nan),) + w[1:],  # not finite
    lambda w: tuple(0.0 * x for x in w),  # every multiplier m_k zero
    lambda w: w[:3] + (0.0 * w[3], 0.0 * w[4]),  # singular 3x3 system
])
def test_fourier_declines_to_the_dense_step(monkeypatch, poison):
    # A model system that cannot be solved gives no preconditioner, and the
    # solve takes the dense step at the same iterate.
    cfg = WaveConfig(mode_count=1024)
    guess = initial_guess(0.01, cfg)
    built = []
    real = spectral_solver._fourier_preconditioner

    def poisoned(weights):
        built.append(real(poison(weights)))
        return built[-1]

    monkeypatch.setattr(spectral_solver, "_fourier_preconditioner", poisoned)
    jacs = _count_jacobians(monkeypatch)
    sol = newton_solve(guess, 0.01, cfg)
    assert built == [None] and jacs == [1024]
    assert steepness(sol) == pytest.approx(0.01, abs=1e-14)

    exact = spectral_solver.jacobian

    def non_finite(sol, s_target):
        J = exact(sol, s_target)
        J[3, 5] = np.nan
        return J

    monkeypatch.setattr(spectral_solver, "jacobian", non_finite)
    with pytest.raises(SingularJacobian, match="non-finite"):
        newton_solve(guess, 0.01, cfg)


def test_tail_ratio_consistency(family_n256):
    m = family_n256.members[-1]
    assert m.tail_ratio == pytest.approx(tail_ratio(m.solution), rel=1e-12)
