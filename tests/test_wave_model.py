import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokespressure import oracles
from stokespressure.spectral_solver import _pad_modes, newton_solve
from stokespressure.wave_model import (
    ConformalJet,
    ConformalSolution,
    InvalidConfig,
    StripPoint,
    WaveConfig,
    _JET_BLOCK,
    _jet_points,
    crest_indicator,
    eval_conformal_jet,
    eval_jet_grid,
    steepness,
    tail_ratio,
)

_JET_FIELDS = ("h", "h_q", "h_p", "h_qq", "h_qp", "h_pp", "x", "x_q", "x_p")


def single_mode(a1=0.1, c=1.0, g=1.0, E=0.5):
    return ConformalSolution(c=c, E=E, coeffs=np.array([a1]), gravity=g)


def decaying_solution(draw_coeffs, c, E):
    return ConformalSolution(c=c, E=E, coeffs=np.asarray(draw_coeffs),
                             gravity=1.0)


coeff_lists = st.lists(
    st.floats(-0.05, 0.05, allow_nan=False), min_size=1, max_size=12,
).map(lambda raw: [a * 0.5 ** k for k, a in enumerate(raw)])

strip_points = st.tuples(
    st.floats(-20.0, 20.0, allow_nan=False),
    st.floats(-8.0, 0.0, allow_nan=False),
)


# --- configuration -----------------------------------------------------------

def test_config_defaults():
    cfg = WaveConfig()
    assert cfg.gravity == 1.0
    assert cfg.surface_pressure == 0.0
    assert cfg.mode_count == 128
    assert cfg.grid_nq == 256 and cfg.grid_np == 128
    assert cfg.resolved_depth(2.0) == pytest.approx(-4.0 * math.pi)


def test_config_explicit_depth_wins():
    cfg = WaveConfig(grid_depth=-3.0)
    assert cfg.resolved_depth(1.7) == -3.0


@pytest.mark.parametrize("kwargs", [
    {"gravity": 0.0},
    {"gravity": -1.0},
    {"mode_count": 0},
    {"newton_tol": 0.0},
    {"newton_max_iter": 0},
    {"mode_count": 3},
    {"grid_nq": 0},
    {"grid_np": 0},
    {"grid_depth": 0.5},
    {"excision_radius": -0.1},
    {"crest_indicator_threshold": -0.2},
    {"crest_indicator_threshold": 1.5},
    # counts must be integers, and no numeric field takes a bool
    {"mode_count": 64.5},
    {"mode_count": 64.0},
    {"newton_max_iter": 2.5},
    {"grid_nq": 16.5},
    {"grid_np": 8.0},
    {"gravity": True},
    {"newton_max_iter": True},
    {"surface_pressure": False},
    {"excision_radius": np.False_},
    # every value must be finite
    {"gravity": math.inf},
    {"surface_pressure": math.nan},
    {"surface_pressure": -math.inf},
    {"newton_tol": math.inf},
    {"grid_depth": -math.inf},
    {"excision_radius": math.inf},
    {"crest_indicator_threshold": math.nan},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidConfig):
        WaveConfig(**kwargs)


def test_config_is_frozen():
    cfg = WaveConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.gravity = 2.0


# --- solution container ------------------------------------------------------

def test_solution_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        ConformalSolution(c=0.0, E=0.5, coeffs=np.zeros(4), gravity=1.0)
    with pytest.raises(ValueError):
        ConformalSolution(c=-1.0, E=0.5, coeffs=np.zeros(4), gravity=1.0)


def test_solution_rejects_nonfinite():
    with pytest.raises(ValueError):
        ConformalSolution(c=1.0, E=math.nan, coeffs=np.zeros(2), gravity=1.0)
    with pytest.raises(ValueError):
        ConformalSolution(c=1.0, E=0.5, coeffs=np.array([1.0, math.inf]),
                          gravity=1.0)


def test_solution_coeffs_are_read_only():
    sol = single_mode()
    with pytest.raises(ValueError):
        sol.coeffs[0] = 2.0


def test_solution_period():
    sol = single_mode(c=1.25)
    assert sol.period_q == pytest.approx(2.0 * math.pi * 1.25)
    assert sol.mode_count == 1


def test_strip_point_rejects_air_side():
    with pytest.raises(ValueError):
        StripPoint(0.0, 1e-9)
    with pytest.raises(ValueError):
        StripPoint(math.nan, -1.0)
    StripPoint(0.3, 0.0)  # boundary itself is fine


# --- series evaluation -------------------------------------------------------

def test_single_mode_jet_hand_values():
    # a1 = 0.1, c = 1 at the crest: h = 0.1, h_q = 0, h_p = 1 + 0.1
    jet = eval_conformal_jet(single_mode(), StripPoint(0.0, 0.0))
    assert jet.h == pytest.approx(0.1, abs=1e-15)
    assert jet.h_q == 0.0
    assert jet.h_p == pytest.approx(1.1, abs=1e-15)
    assert jet.x == 0.0
    assert jet.x_q == jet.h_p


def test_single_mode_jet_at_depth():
    a1, p = 0.1, -2.0
    jet = eval_conformal_jet(single_mode(a1), StripPoint(0.0, p))
    assert jet.h == pytest.approx(p + a1 * math.exp(p), rel=1e-14)
    assert jet.h_p == pytest.approx(1.0 + a1 * math.exp(p), rel=1e-14)
    assert jet.h_qq == pytest.approx(-a1 * math.exp(p), rel=1e-13)


def test_eval_rejects_air_side():
    sol = single_mode()
    pt = StripPoint(0.0, 0.0)
    object.__setattr__(pt, "p", 0.5)  # sneak past the StripPoint guard
    with pytest.raises(ValueError):
        eval_conformal_jet(sol, pt)


def test_jet_identities_exact_by_construction():
    sol = single_mode(0.08, c=1.1)
    jet = eval_conformal_jet(sol, StripPoint(0.7, -0.4))
    assert jet.x_q == jet.h_p
    assert jet.x_p == -jet.h_q
    assert jet.h_pp == -jet.h_qq


def test_grid_matches_scalar_eval(sol_005):
    q = np.linspace(0.0, math.pi * sol_005.c, 7)
    p = np.array([-1.5, -0.25, 0.0])
    grid = eval_jet_grid(sol_005, q, p)
    assert grid.h.shape == (3, 7)
    for i, pp in enumerate(p):
        for j, qq in enumerate(q):
            jet = eval_conformal_jet(sol_005, StripPoint(qq, pp))
            assert grid.h[i, j] == pytest.approx(jet.h, abs=1e-15)
            assert grid.h_q[i, j] == pytest.approx(jet.h_q, abs=1e-15)
            assert grid.x[i, j] == pytest.approx(jet.x, abs=1e-15)
            assert grid.h_qp[i, j] == pytest.approx(jet.h_qp, abs=1e-15)



# --- scattered-point jet -----------------------------------------------------

@pytest.fixture(scope="module")
def sol_1024(sol_013):
    # one Newton solve from the 512-mode s = 0.13 wave, padded to 1024 modes
    return newton_solve(_pad_modes(sol_013, 1024), 0.135,
                        WaveConfig(mode_count=1024))


@pytest.mark.parametrize("wave", ["sol_013", "sol_1024"])
def test_point_jet_matches_extended_precision_sums(wave, request):
    # every mode counts on the surface row, where |z| = 1 and the running
    # product z^k carries its rounding furthest
    sol = request.getfixturevalue(wave)
    assert sol.mode_count >= 512 and steepness(sol) > 0.129
    rng = np.random.default_rng(17)
    q = rng.uniform(-sol.period_q, sol.period_q, 240)
    p = rng.uniform(-4.0 * sol.c, 0.0, 240)
    p[:40] = 0.0
    jet = eval_conformal_jet(sol, StripPoint(q, p))
    _assert_matches_naive_sums(jet, sol, q, p)


def _series(n):
    """A synthetic n-mode solution whose coefficients decay like k^-3."""
    k = np.arange(1.0, n + 1.0)
    rng = np.random.default_rng(n)
    return ConformalSolution(c=1.07, E=0.5, gravity=1.0,
                             coeffs=0.05 * rng.uniform(-1.0, 1.0, n) * k**-3.0)


def _assert_matches_naive_sums(jet, sol, q, p, refs=None):
    if refs is None:
        refs = [oracles.naive_eval(sol, StripPoint(qi, pi))
                for qi, pi in zip(q, p)]
    for name in _JET_FIELDS:
        fast = getattr(jet, name)
        ref = np.array([getattr(r, name) for r in refs])
        assert fast.shape == q.shape
        assert np.isfinite(fast).all(), f"{name} is not finite"
        # relative to the component's largest magnitude over the points
        err = float(np.abs(fast - ref).max() / np.abs(ref).max())
        assert err <= 1e-13, f"{name}: relative error {err:.2e}"


@pytest.mark.parametrize("n", [1, 3, 5, 100, 4096])
def test_point_jet_of_any_length_matches_extended_precision_sums(n):
    # the powers split as z^(jb + r) = (z^b)^j z^r with b = 1, 2, 4, 16, 64;
    # at N = 3, 5 and 100, b ceil(N/b) > N and the padded weights take part
    sol = _series(n)
    rng = np.random.default_rng(n)
    q = rng.uniform(-sol.period_q, sol.period_q, 120)
    p = rng.uniform(-3.0 * sol.c, 0.0, 120)
    p[:40] = 0.0
    _assert_matches_naive_sums(eval_conformal_jet(sol, StripPoint(q, p)),
                               sol, q, p)


def test_point_jet_deep_where_giant_powers_underflow():
    # at p = -40c, (z^b)^j = e^{-2560 j} is 0 for j >= 1 (b = 64), as are the
    # baby powers from r = 19 on: the zeros give no NaN
    sol = _series(4096)
    q = np.linspace(-sol.period_q, sol.period_q, 41)
    p = np.full(q.shape, -40.0 * sol.c)
    _assert_matches_naive_sums(eval_conformal_jet(sol, StripPoint(q, p)),
                               sol, q, p)


def test_point_jet_just_above_the_surface():
    # the position inverter's iterates may step above p = 0, where the
    # series is the surface series of a_k e^{k p / c}, with h shifted by p/c;
    # up to p = 1e-4 c the top mode grows by no more than e^0.4
    sol = _series(4096)
    rng = np.random.default_rng(5)
    q = rng.uniform(-sol.period_q, sol.period_q, 40)
    p = sol.c * 10.0 ** rng.uniform(-12.0, -4.0, 40)
    k = np.arange(1.0, sol.mode_count + 1.0)
    refs = []
    for qi, pi in zip(q, p):
        lifted = dataclasses.replace(
            sol, coeffs=sol.coeffs * np.exp(k * pi / sol.c))
        ref = oracles.naive_eval(lifted, StripPoint(qi, 0.0))
        refs.append(dataclasses.replace(ref, h=ref.h + pi / sol.c))
    _assert_matches_naive_sums(_jet_points(sol, q, p), sol, q, p, refs)


@pytest.mark.parametrize("n", [1, 5, 4096])
def test_point_jet_of_no_points(n):
    sol = _series(n)
    for q, p in ((np.empty(0), np.empty(0)), (np.empty((2, 0)), 0.0)):
        jet = eval_conformal_jet(sol, StripPoint(q, p))
        for name in _JET_FIELDS:
            assert getattr(jet, name).shape == q.shape


def test_point_jet_temporaries_grow_with_sqrt_n():
    # 1,600 points at N = 4096 peak near 9 MB: baby powers and inner sums
    # are (block, 64) and (block, 192). Powers of all 4096 modes, even 256
    # points at a time, peak at 50 MB. A shifted 256 x 128 grid is 32,768
    # scattered points: in blocks it peaks near 14 MB, 3.5 MB of it the jet
    # returned; in one piece its temporaries would grow with the points.
    sol = _series(4096)
    rng = np.random.default_rng(11)
    q = rng.uniform(-6.0, 6.0, 1600)
    p = rng.uniform(-3.0, 0.0, 1600)
    qg = np.linspace(0.0, math.pi * sol.c, 256) + 1e-3
    pg = np.linspace(-3.0 * sol.c, 0.0, 128)
    for run in (lambda: eval_conformal_jet(sol, StripPoint(q, p)),
                lambda: eval_jet_grid(sol, qg, pg)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6, f"peak {peak / 1e6:.1f} MB"


def test_point_jet_shapes_blocks_and_one_point_case(sol_005):
    # 2 _JET_BLOCK + 5 points span three blocks; broadcasting q against p
    # gives the grid
    m = 2 * _JET_BLOCK + 5
    rng = np.random.default_rng(3)
    q = rng.uniform(-6.0, 6.0, m)
    p = rng.uniform(-3.0, 0.0, m)
    jet = eval_conformal_jet(sol_005, StripPoint(q, p))
    for i in (0, _JET_BLOCK - 1, _JET_BLOCK, 2 * _JET_BLOCK, m - 1):
        one = eval_conformal_jet(sol_005, StripPoint(q[i], p[i]))
        for name in _JET_FIELDS:
            assert getattr(jet, name)[i] == pytest.approx(
                getattr(one, name), rel=1e-14, abs=1e-15)
    qg = np.linspace(0.0, math.pi * sol_005.c, 7)
    pg = np.array([-1.5, -0.25, 0.0])
    grid = eval_jet_grid(sol_005, qg, pg)
    pts = eval_conformal_jet(sol_005, StripPoint(qg[None, :], pg[:, None]))
    for name in _JET_FIELDS:
        assert getattr(pts, name).shape == (3, 7)
        np.testing.assert_allclose(getattr(pts, name), getattr(grid, name),
                                   rtol=0, atol=1e-14)
    assert eval_conformal_jet(
        sol_005, StripPoint(np.empty(0), np.empty(0))).h.shape == (0,)
    with pytest.raises(ValueError):
        StripPoint(np.array([0.1, 0.2]), np.array([-0.5, 1e-9]))
    assert isinstance(eval_conformal_jet(sol_005, StripPoint(0.4, -0.3)).h,
                      float)


# --- half-period grid jet ----------------------------------------------------

@pytest.mark.parametrize("wave, nq", [("sol_013", 256), ("sol_013", 513),
                                      ("sol_1024", 256), ("sol_1024", 9)])
def test_half_period_grid_matches_extended_precision_sums(wave, nq, request,
                                                          no_trig):
    # nq = 256 folds 2 (nq - 1) = 510 < N wavenumbers; the columns include
    # the crest and trough lines and the last row is the surface
    sol = request.getfixturevalue(wave)
    assert sol.mode_count >= 512 and steepness(sol) > 0.129
    q = np.linspace(0.0, math.pi * sol.c, nq)
    p = np.array([-4.0 * sol.c, -1.0, -0.1, 0.0])
    with no_trig():
        grid = eval_jet_grid(sol, q, p)
    refs = [[oracles.naive_eval(sol, StripPoint(qj, pi)) for qj in q]
            for pi in p]
    for name in _JET_FIELDS:
        fast = getattr(grid, name)
        ref = np.array([[getattr(r, name) for r in row] for row in refs])
        assert fast.shape == (p.size, nq)
        err = float(np.abs(fast - ref).max() / np.abs(ref).max())
        assert err <= 1e-13, f"{name}: relative error {err:.2e}"


@pytest.mark.parametrize("wave", ["sol_005", "sol_013"])
def test_half_period_grid_slopes_vanish_exactly_on_lines(wave, request):
    sol = request.getfixturevalue(wave)
    q = np.linspace(0.0, math.pi * sol.c, 256)
    p = np.linspace(-2.0 * math.pi * sol.c, 0.0, 16)
    grid = eval_jet_grid(sol, q, p)
    for name in ("h_q", "h_qp", "x_p"):
        lines = getattr(grid, name)[:, [0, -1]]
        assert (lines == 0.0).all(), f"{name} on the lines: {lines}"
    assert (grid.x[:, 0] == 0.0).all()


def test_grid_off_the_half_period_takes_the_scattered_jet(sol_005):
    # a full period, a shifted half period and one column: none is the
    # half-period grid, so each equals the scattered-point jet bit for bit
    p = np.array([-1.5, -0.25, 0.0])
    for q in (np.linspace(0.0, sol_005.period_q, 7),
              np.linspace(0.0, math.pi * sol_005.c, 7) + 1e-3,
              np.array([math.pi * sol_005.c])):
        grid = eval_jet_grid(sol_005, q, p)
        pts = eval_conformal_jet(sol_005, StripPoint(q[None, :], p[:, None]))
        for name in _JET_FIELDS:
            np.testing.assert_array_equal(getattr(grid, name),
                                          getattr(pts, name))


@given(coeffs=coeff_lists, point=strip_points,
       c=st.floats(0.8, 1.3), E=st.floats(0.3, 0.8))
@settings(max_examples=40, deadline=None)
def test_periodicity_and_evenness(coeffs, point, c, E):
    sol = decaying_solution(coeffs, c, E)
    q, p = point
    a = eval_conformal_jet(sol, StripPoint(q, p))
    b = eval_conformal_jet(sol, StripPoint(q + sol.period_q, p))
    assert abs(a.h - b.h) < 1e-9, f"h not periodic at {q}, {p}"
    assert abs(a.h_q - b.h_q) < 1e-9

    m = eval_conformal_jet(sol, StripPoint(-q, p))
    assert m.h == pytest.approx(a.h, abs=1e-12)    # even elevation
    assert m.h_q == pytest.approx(-a.h_q, abs=1e-12)
    assert m.x == pytest.approx(-a.x, abs=1e-12)   # odd displacement


@given(coeffs=coeff_lists, point=strip_points, c=st.floats(0.8, 1.3))
@settings(max_examples=40, deadline=None)
def test_conjugacy_holds_for_any_coefficients(coeffs, point, c):
    sol = decaying_solution(coeffs, c, 0.5)
    jet = eval_conformal_jet(sol, StripPoint(*point))
    assert jet.x_q == jet.h_p
    assert jet.x_p == -jet.h_q
    assert jet.h_pp == -jet.h_qq


# --- scalar diagnostics ------------------------------------------------------

def test_steepness_counts_odd_modes_only():
    sol = ConformalSolution(c=1.0, E=0.5,
                            coeffs=np.array([0.3, 0.07, 0.011, 0.002]),
                            gravity=1.0)
    assert steepness(sol) == pytest.approx((0.3 + 0.011) / math.pi, rel=1e-15)


def test_steepness_of_flat_is_zero():
    sol = ConformalSolution(c=1.0, E=0.5, coeffs=np.zeros(6), gravity=1.0)
    assert steepness(sol) == 0.0


def test_crest_indicator_flat_is_inverse_speed_scaled():
    sol = ConformalSolution(c=1.0, E=0.5, coeffs=np.zeros(4), gravity=1.0)
    assert crest_indicator(sol) == pytest.approx(1.0)


def test_crest_indicator_decreases_with_steepness(sol_005, sol_010):
    k5, k10 = crest_indicator(sol_005), crest_indicator(sol_010)
    assert 0.0 < k10 < k5 < 1.0, f"K(0.05)={k5}, K(0.10)={k10}"


def test_tail_ratio():
    sol = ConformalSolution(c=1.0, E=0.5,
                            coeffs=np.array([0.2, 0.05, 1e-9]), gravity=1.0)
    assert tail_ratio(sol) == pytest.approx(1e-9 / 0.2, rel=1e-12)
    flat = ConformalSolution(c=1.0, E=0.5, coeffs=np.zeros(3), gravity=1.0)
    assert tail_ratio(flat) == 0.0


def test_jet_is_frozen():
    jet = eval_conformal_jet(single_mode(), StripPoint(0.1, -0.1))
    assert isinstance(jet, ConformalJet)
    with pytest.raises(dataclasses.FrozenInstanceError):
        jet.h = 0.0
