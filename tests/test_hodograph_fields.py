import math

import numpy as np
import pytest

from stokespressure import hodograph_fields, oracles
from stokespressure.hodograph_fields import (
    StagnationProximity,
    f_field,
    field_sample,
    grid_fields,
    invert_position,
    physical_grid,
    pressure,
    pressure_gradient,
    surface,
    velocity,
    velocity_gradients,
)
from stokespressure.spectral_solver import initial_guess, newton_solve
from stokespressure.wave_model import (
    InvalidConfig,
    StripPoint,
    WaveConfig,
    crest_indicator,
    eval_conformal_jet,
)


# --- hydrostatic stream ------------------------------------------------------

def test_flat_stream_is_hydrostatic(sol_flat, rng):
    g, P0 = sol_flat.gravity, sol_flat.surface_pressure
    for _ in range(50):
        pt = StripPoint(float(rng.uniform(-7, 7)), float(rng.uniform(-5, 0)))
        u, v = velocity(sol_flat, pt)
        assert u == 0.0 and v == 0.0
        jet = eval_conformal_jet(sol_flat, pt)
        assert pressure(sol_flat, pt) == pytest.approx(
            P0 - g * jet.h, abs=1e-14)
        px, py = pressure_gradient(sol_flat, pt)
        assert px == 0.0
        assert py == pytest.approx(-g, abs=1e-14)


def test_flat_stream_f_is_minus_gx(sol_flat):
    pt = StripPoint(1.3, -0.6)
    jet = eval_conformal_jet(sol_flat, pt)
    assert f_field(sol_flat, pt) == pytest.approx(
        -sol_flat.gravity * jet.x, abs=1e-14)


# --- pointwise fields --------------------------------------------------------

def test_surface_pressure_is_ambient(sol_010):
    for theta in (0.0, 0.3, 1.1, 2.2, math.pi):
        pt = StripPoint(sol_010.c * theta, 0.0)
        assert pressure(sol_010, pt) == pytest.approx(
            sol_010.surface_pressure, abs=1e-11)


def test_f_vanishes_on_crest_line_and_is_minus_gpi_on_trough(sol_010):
    g = sol_010.gravity
    for p in (-0.1, -1.0, -3.0, -6.0):
        assert abs(f_field(sol_010, StripPoint(0.0, p))) <= 1e-12 * g
        trough = f_field(sol_010, StripPoint(math.pi * sol_010.c, p))
        assert trough == pytest.approx(-g * math.pi, abs=1e-12)


def test_velocity_signs_in_quarter_strip(sol_010):
    for theta, p in ((0.4, -0.2), (1.0, -1.0), (2.0, -0.5), (3.0, -2.0)):
        u, v = velocity(sol_010, StripPoint(sol_010.c * theta, p))
        assert v > 0.0, f"v must rise toward the crest at theta={theta}"
        assert u < sol_010.c


def test_pressure_gradient_matches_finite_differences(sol_005, rng):
    for _ in range(10):
        q = float(rng.uniform(0.3, 2.8)) * sol_005.c
        p = float(rng.uniform(-2.5, -0.2))
        jet = eval_conformal_jet(sol_005, StripPoint(q, p))
        px, py = pressure_gradient(sol_005, StripPoint(q, p))
        lift = oracles.physical_lift(sol_005, pressure, q, p)
        fx = oracles.fd_derivative(lift, np.array([jet.x, jet.h]),
                                   direction=np.array([1.0, 0.0]),
                                   step=3e-4, richardson=True)
        fy = oracles.fd_derivative(lift, np.array([jet.x, jet.h]),
                                   direction=np.array([0.0, 1.0]),
                                   step=3e-4, richardson=True)
        assert px == pytest.approx(fx, abs=2e-9)
        assert py == pytest.approx(fy, abs=2e-9)


def test_f_q_matches_finite_differences(sol_005):
    q = np.linspace(0.3, 2.8, 6) * sol_005.c
    p = np.array([-1.5, -0.4, 0.0])
    gf = grid_fields(sol_005, q, p)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            fd = oracles.fd_derivative(
                lambda t: f_field(sol_005, StripPoint(float(t), pi)), qj,
                step=1e-3, richardson=True)
            assert gf.f_q[i, j] == pytest.approx(fd, abs=1e-10)


def test_velocity_gradients_are_a_conformal_pair(sol_005):
    # irrotational + incompressible: u_x = -v_y and u_y = v_x pointwise
    for theta, p in ((0.5, -0.3), (1.7, -1.2), (2.9, -0.7)):
        u_x, u_y, v_x, v_y = velocity_gradients(
            sol_005, StripPoint(sol_005.c * theta, p))
        assert u_x == pytest.approx(-v_y, abs=1e-12)
        assert u_y == pytest.approx(v_x, abs=1e-12)


def test_field_sample_bundles_everything(sol_005):
    pt = StripPoint(0.8, -0.5)
    s = field_sample(sol_005, pt)
    assert (s.u, s.v) == velocity(sol_005, pt)
    assert s.P == pytest.approx(pressure(sol_005, pt), abs=1e-15)
    assert s.f == pytest.approx(f_field(sol_005, pt), abs=1e-15)
    px, py = pressure_gradient(sol_005, pt)
    assert s.P_x == px and s.P_y == py
    assert not s.excluded


def test_field_sample_refuses_arrays_of_points(sol_005):
    # It returns one record; given three points it must not return the
    # first alone. `pressure` on the same StripPoint gives all three.
    pts = StripPoint(q=np.array([0.3, 0.6, 0.9]), p=np.array([-0.1, -0.2, -0.3]))
    assert np.shape(pressure(sol_005, pts)) == (3,)
    for pt in (pts, StripPoint(q=np.array([0.3]), p=-0.1),
               StripPoint(q=0.3, p=np.array([-0.1, -0.2]))):
        with pytest.raises(ValueError, match="grid_fields"):
            field_sample(sol_005, pt)


# --- exclusion near stagnation -----------------------------------------------

def test_exclusion_activates_below_indicator_threshold(sol_013, excision):
    k = crest_indicator(sol_013)
    assert 0.3 < k < 0.4  # fixture sanity: steep but not near-limiting
    assert hodograph_fields._EXCISION_K == 0.1

    crest_pt = StripPoint(0.0, -1e-3)
    assert not field_sample(sol_013, crest_pt).excluded
    velocity(sol_013, crest_pt)  # the fixed threshold is not tripped

    excision(0.5)
    assert field_sample(sol_013, crest_pt).excluded
    with pytest.raises(StagnationProximity):
        velocity(sol_013, crest_pt)
    with pytest.raises(StagnationProximity):
        pressure_gradient(sol_013, crest_pt)


def test_exclusion_radius_is_a_disc_around_the_crest(sol_013, excision):
    assert hodograph_fields._EXCISION_RADIUS == 0.05
    excision(0.5)
    period = sol_013.period_q
    assert field_sample(sol_013, StripPoint(0.02, -0.02)).excluded
    # wrapped copy of the crest one period over
    assert field_sample(sol_013, StripPoint(period + 0.02, -0.02)).excluded
    assert not field_sample(sol_013, StripPoint(0.2, -0.02)).excluded
    assert not field_sample(sol_013, StripPoint(0.0, -0.2)).excluded


def test_crest_indicator_only_for_points_inside_the_disc(
        sol_013, excision, monkeypatch):
    excision(0.5)

    def refuse(sol):
        raise AssertionError("crest indicator evaluated outside the disc")

    with monkeypatch.context() as m:
        m.setattr(hodograph_fields, "crest_indicator", refuse)
        outside = StripPoint(1.0, -0.5)
        pressure(sol_013, outside)
        pressure_gradient(sol_013, outside)
    with pytest.raises(StagnationProximity):
        pressure(sol_013, StripPoint(0.0, -1e-3))


def test_exclusion_disabled_with_zero_radius(sol_013, excision):
    excision(0.5, radius=0.0)
    assert not field_sample(sol_013, StripPoint(0.0, -1e-4)).excluded


# --- grids -------------------------------------------------------------------

def test_grid_matches_scalar_samples(sol_005):
    q = np.linspace(0.0, math.pi * sol_005.c, 9)
    p = np.linspace(-2.0, 0.0, 5)
    gf = grid_fields(sol_005, q, p)
    assert gf.u.shape == (5, 9)
    for i in (0, 2, 4):
        for j in (0, 4, 8):
            s = field_sample(sol_005, StripPoint(q[j], p[i]))
            assert gf.u[i, j] == pytest.approx(s.u, abs=1e-14)
            assert gf.P[i, j] == pytest.approx(s.P, abs=1e-14)
            assert gf.P_x[i, j] == pytest.approx(s.P_x, abs=1e-13)
            assert gf.f[i, j] == pytest.approx(s.f, abs=1e-14)


def test_physical_grid_ordering(sol_005):
    cfg = WaveConfig(mode_count=64, grid_nq=6, grid_np=4, grid_depth=-1.5)
    rows = physical_grid(sol_005, cfg)
    assert len(rows) == 24
    # q fastest, p rising from the floor to the surface
    assert rows[0].p == -1.5 and rows[-1].p == 0.0
    q_first = [r.q for r in rows[:6]]
    assert q_first == sorted(q_first)
    assert all(r.p == -1.5 for r in rows[:6])
    assert all(r.p == 0.0 for r in rows[-6:])


def test_physical_grid_needs_two_by_two(sol_005):
    with pytest.raises(InvalidConfig):
        physical_grid(sol_005, WaveConfig(mode_count=64, grid_nq=1,
                                          grid_np=4))


def test_grid_excluded_flags_match_pointwise(sol_013, excision):
    excision(0.5)
    q = np.linspace(0.0, math.pi * sol_013.c, 32)
    p = np.linspace(-0.5, 0.0, 8)
    gf = grid_fields(sol_013, q, p)
    assert gf.excluded.any(), "crest disc should intersect this grid"
    for i in (0, 7):
        for j in (0, 1, 5, 31):
            s = field_sample(sol_013, StripPoint(q[j], p[i]))
            assert bool(gf.excluded[i, j]) == s.excluded


def test_strip_grid_deep_rows_and_surface_build_no_trig_tables(
        sol_013, no_trig):
    # The strip grid, a deep row on its columns and the surface profile sum
    # on the half-period grid by real FFT, and P_x and v vanish exactly on
    # the crest and trough lines, v as +0 (fields.csv prints 0, not -0).
    cfg = WaveConfig(mode_count=512)
    with no_trig():
        rows = physical_grid(sol_013, cfg).reshape(cfg.grid_np, cfg.grid_nq)
        deep = grid_fields(sol_013, rows.q[0], np.array([-20.0 * sol_013.c]))
        prof = surface(sol_013, m=256)
    for name in ("P_x", "v"):
        assert (rows[name][:, [0, -1]] == 0.0).all(), name
        assert (getattr(deep, name)[:, [0, -1]] == 0.0).all(), name
    assert not np.signbit(rows["v"][:, [0, -1]]).any()
    assert prof.slope[0] == 0.0 and prof.slope[-1] == 0.0


# --- surface and curvature ---------------------------------------------------

def test_surface_profile_shape(sol_010):
    prof = surface(sol_010, m=128)
    assert len(prof.x) == 129
    assert prof.x[0] == 0.0 and prof.x[-1] == pytest.approx(math.pi)
    assert np.all(np.diff(prof.x) > 0), "x must grow monotonically"
    assert prof.eta[0] > prof.eta[-1], "crest above trough"
    assert prof.slope[0] == pytest.approx(0.0, abs=1e-13)
    assert prof.slope[-1] == pytest.approx(0.0, abs=1e-13)
    assert np.all(prof.slope[1:-1] < 0.0)


def test_surface_slope_matches_eta_derivative(sol_010):
    prof = surface(sol_010, m=256)
    # centred differences of eta(x) against the analytic slope
    dq = np.gradient(prof.eta, prof.x)
    err = np.abs(dq[8:-8] - prof.slope[8:-8]).max()
    assert err < 5e-3, f"slope inconsistent with profile: {err}"


def test_surface_fills_excluded_slopes_from_nearest_included(
        sol_013, excision):
    assert hodograph_fields._EXCISION_K <= crest_indicator(sol_013) < 0.99
    base = surface(sol_013, m=256)
    excision(0.99)
    prof = surface(sol_013, m=256)
    # On p = 0 the crest disc holds the first samples from q = 0; the
    # nearest included sample of each is the first one outside the disc.
    excl = prof.q < hodograph_fields._EXCISION_RADIUS
    first = int(np.count_nonzero(excl))
    assert 1 < first < 16 and not excl[first:].any()
    assert np.all(prof.slope[:first] == prof.slope[first])
    assert base.slope[0] == 0.0 != prof.slope[0]
    assert np.array_equal(prof.slope[first:], base.slope[first:])
    for name in ("q", "x", "eta", "eta_xx"):
        assert np.array_equal(getattr(prof, name), getattr(base, name)), name


def test_surface_rejects_tiny_sampling(sol_005):
    with pytest.raises(ValueError):
        surface(sol_005, m=8)


def test_surface_mean_levels(sol_010):
    # the strip-angle mean of the elevation vanishes by construction; the
    # x-weighted mean picks up a positive O(s^2) set-up instead
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    from stokespressure.wave_model import eval_jet_grid
    jets = eval_jet_grid(sol_010, sol_010.c * theta, np.array([0.0]))
    assert abs(jets.h.mean()) < 1e-13
    prof = surface(sol_010, m=512)
    xmean = np.trapezoid(prof.eta, prof.x) / math.pi
    assert 0.0 < xmean < 0.1, f"x-mean set-up out of range: {xmean}"


def test_curvature_has_single_inflection(sol_010):
    eta_xx = surface(sol_010, m=256).eta_xx
    signs = np.sign(eta_xx[np.abs(eta_xx) > 1e-12])
    flips = np.count_nonzero(np.diff(signs))
    assert flips == 1, f"expected one inflection, saw {flips}"
    assert eta_xx[1] < 0.0   # concave at the crest
    assert eta_xx[-2] > 0.0  # convex at the trough


# --- inversion ---------------------------------------------------------------

def test_invert_position_round_trip(sol_010, rng):
    for _ in range(20):
        q = float(rng.uniform(0.0, math.pi * sol_010.c))
        p = float(rng.uniform(-3.0, 0.0))
        jet = eval_conformal_jet(sol_010, StripPoint(q, p))
        qr, pr = invert_position(sol_010, jet.x, jet.h, q0=q + 0.05,
                                 p0=min(p + 0.05, 0.0))
        assert qr == pytest.approx(q, abs=1e-9)
        assert pr == pytest.approx(p, abs=1e-9)


def test_invert_position_from_far_guess(sol_005):
    jet = eval_conformal_jet(sol_005, StripPoint(1.0, -0.5))
    qr, pr = invert_position(sol_005, jet.x, jet.h, q0=0.0, p0=-1.5)
    assert qr == pytest.approx(1.0, abs=1e-8)
    assert pr == pytest.approx(-0.5, abs=1e-8)


def test_invert_position_array_round_trip(sol_005, rng):
    q = rng.uniform(0.0, math.pi * sol_005.c, 127)
    p = rng.uniform(-3.0, 0.0, 127)
    jet = eval_conformal_jet(sol_005, StripPoint(q, p))
    # the far-guess case above rides along as the last point
    far = eval_conformal_jet(sol_005, StripPoint(1.0, -0.5))
    qr, pr = invert_position(
        sol_005, np.append(jet.x, far.x), np.append(jet.h, far.h),
        q0=np.append(q + 0.05, 0.0), p0=np.append(np.minimum(p + 0.05, 0.0),
                                                  -1.5))
    assert qr.shape == pr.shape == (128,)
    np.testing.assert_allclose(qr, np.append(q, 1.0), rtol=0, atol=1e-9)
    np.testing.assert_allclose(pr, np.append(p, -0.5), rtol=0, atol=1e-9)
    # one point still gives floats, and the same point
    qs, ps = invert_position(sol_005, far.x, far.h, q0=0.0, p0=-1.5)
    assert isinstance(qs, float) and isinstance(ps, float)
    assert qs == pytest.approx(qr[-1], abs=1e-12)
    assert ps == pytest.approx(pr[-1], abs=1e-12)


def test_invert_position_array_names_a_point_that_does_not_converge(sol_005):
    jet = eval_conformal_jet(sol_005, StripPoint(np.array([1.0, 2.0]),
                                                 np.array([-0.5, -1.0])))
    with pytest.raises(RuntimeError, match="did not converge"):
        invert_position(sol_005, jet.x, jet.h, q0=np.array([1.0, 0.0]),
                        p0=np.array([-0.5, -2.0]), max_iter=2)


def test_array_stencil_into_active_excision_disc_raises(sol_013, excision):
    # the second base point sits just outside the disc below the crest; the
    # upward arm of its stencil reaches inside, the first point's does not
    assert hodograph_fields._EXCISION_RADIUS == 0.05
    q0, p0 = np.array([1.5, 0.0]), np.array([-1.0, -0.0502])
    jet = eval_conformal_jet(sol_013, StripPoint(q0, p0))
    base = np.array([jet.x, jet.h])

    def pressure_lift():
        return oracles.physical_lift(sol_013, pressure, q0, p0)

    assert np.isfinite(oracles.fd_laplacian(pressure_lift(), base,
                                            step=1e-3)).all()
    excision(0.5)
    with pytest.raises(StagnationProximity):
        oracles.fd_laplacian(pressure_lift(), base, step=1e-3)


def test_pointwise_functions_take_arrays_of_points(sol_005):
    # one StripPoint carrying arrays gives, elementwise, the one-point values
    q = np.array([0.4, 1.3, 2.2])
    p = np.array([-0.1, -0.9, -2.0])
    many = StripPoint(q, p)
    u, v = velocity(sol_005, many)
    grads = velocity_gradients(sol_005, many)
    P = pressure(sol_005, many)
    P_x, P_y = pressure_gradient(sol_005, many)
    f = f_field(sol_005, many)
    for i in range(q.size):
        one = StripPoint(q[i], p[i])
        for got, want in zip((u[i], v[i], P[i], P_x[i], P_y[i], f[i],
                              *(g[i] for g in grads)),
                             (*velocity(sol_005, one),
                              pressure(sol_005, one),
                              *pressure_gradient(sol_005, one),
                              f_field(sol_005, one),
                              *velocity_gradients(sol_005, one))):
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
