import json
import math

import numpy as np
import pytest

from stokespressure import hodograph_fields
from stokespressure.cli_io import load_report, save_report
from stokespressure.verifier import (
    CheckResult,
    VerificationReport,
    crest_angle,
    verify_all,
    verify_f_results,
    verify_theorem_Px,
    verify_theorem_Py,
    verify_velocity_results,
)
from stokespressure.wave_model import ConformalSolution, WaveConfig, steepness

EXPECTED_CHECKS = [
    "series_reference",
    "bernoulli_collocation",
    "bernoulli_midpoint",
    "hodograph_consistency",
    "pressure_gradient_dual",
    "pressure_gradient_fd",
    "pressure_superharmonic",
    "height_harmonic_fd",
    "far_field_decay",
    "velocity_far_field",
    "pressure_x_negative",
    "pressure_x_crest_line",
    "pressure_x_trough_line",
    "pressure_y_negative",
    "pressure_y_far_field",
    "surface_f_nonpositive",
    "surface_f_decreasing",
    "f_line_values",
    "f_harmonic_fd",
    "velocity_v_positive",
    "velocity_below_wave_speed",
    "velocity_uq_negative",
    "surface_monotone",
    "surface_slope_bound",
    "surface_convexity",
]


@pytest.fixture(scope="module")
def report_005(sol_005):
    return verify_all(sol_005, WaveConfig(mode_count=64))


def test_verify_all_passes_on_moderate_wave(report_005):
    failed = [c.name for c in report_005.checks if not c.passed]
    assert report_005.passed, f"failing checks: {failed}"


def test_report_covers_every_check_once(report_005):
    names = [c.name for c in report_005.checks]
    assert names == EXPECTED_CHECKS
    assert len(set(names)) == len(names)



def test_verify_all_inverts_positions_in_array_calls(sol_005, monkeypatch):
    # the finite-difference witnesses invert each stencil point of all their
    # sample points in one call: 26 calls here, 1,740 point by point
    calls = []
    original = hodograph_fields.invert_position

    def counting(*args, **kwargs):
        calls.append(np.size(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(hodograph_fields, "invert_position", counting)
    verify_all(sol_005, WaveConfig(mode_count=64))
    assert 0 < len(calls) <= 32, len(calls)
    assert max(calls) == 100


def test_empty_sampling_sets_fail(sol_005, tmp_path):
    # an excision disc that swallows every grid and witness point leaves
    # these checks nothing to certify; none of them may pass vacuously
    cfg = WaveConfig(mode_count=64, excision_radius=100.0,
                     crest_indicator_threshold=0.99)
    report = verify_all(sol_005, cfg)
    empty = [c for c in report.checks if c.samples_checked == 0]
    assert {c.name for c in empty} >= {
        "pressure_x_crest_line", "pressure_x_trough_line",
        "surface_f_nonpositive", "surface_f_decreasing", "f_line_values",
        "surface_monotone", "surface_slope_bound", "hodograph_consistency",
        "pressure_gradient_dual", "pressure_gradient_fd",
        "pressure_superharmonic", "height_harmonic_fd", "f_harmonic_fd",
        "pressure_x_negative", "pressure_y_negative"}
    for c in empty:
        assert not c.passed, c.name
        assert math.isnan(c.worst_margin), c.name
        assert c.note == "empty sampling set", c.name
    save_report(report, tmp_path / "report.json")

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
    back = load_report(tmp_path / "report.json")
    for c in empty:
        assert math.isnan(back.check(c.name).worst_margin), c.name


def test_velocity_lines_skip_excluded_points(sol_005):
    # the crest and trough line samples obey the exclusion mask like every
    # other sample: with all of them excluded nothing is left to check
    cfg = WaveConfig(mode_count=64, excision_radius=100.0,
                     crest_indicator_threshold=0.99)
    check = verify_all(sol_005, cfg).check("velocity_v_positive")
    assert check.samples_checked == 0
    assert check.samples_excluded == cfg.grid_nq * cfg.grid_np
    assert not check.passed
    assert math.isnan(check.worst_margin)
    assert check.note == "empty sampling set"


def test_counts_cover_each_sampling_set_on_an_active_disc(sol_005):
    # every sample of a check's own set is either checked or excluded, once
    nq, np_ = 64, 32
    cfg = WaveConfig(mode_count=64, grid_nq=nq, grid_np=np_,
                     excision_radius=0.6, crest_indicator_threshold=0.99)
    report = verify_all(sol_005, cfg)
    sizes = {
        "hodograph_consistency": nq * np_, "pressure_gradient_dual": nq * np_,
        "pressure_y_negative": nq * np_, "velocity_v_positive": nq * np_,
        "velocity_below_wave_speed": nq * np_,
        "pressure_x_negative": (nq - 2) * np_,
        "velocity_uq_negative": (nq - 2) * np_,
        "pressure_x_crest_line": np_, "pressure_x_trough_line": np_,
        "f_line_values": 2 * np_,
        "surface_f_nonpositive": nq, "surface_f_decreasing": nq,
        "surface_slope_bound": nq, "surface_monotone": nq - 2,
        "pressure_gradient_fd": 100, "pressure_superharmonic": 16,
        "height_harmonic_fd": 8, "f_harmonic_fd": 12,
    }
    for name, size in sizes.items():
        c = report.check(name)
        assert c.samples_checked + c.samples_excluded == size, name
    assert report.check("surface_monotone").samples_excluded > 0
    assert report.check("pressure_gradient_fd").samples_excluded > 0


def test_report_metadata(report_005, sol_005):
    assert report_005.steepness == pytest.approx(steepness(sol_005))
    assert report_005.c == sol_005.c
    assert report_005.E == sol_005.E
    assert report_005.mode_count == 64
    assert report_005.grid_nq == 256 and report_005.grid_np == 128


def test_report_lookup_and_errors(report_005):
    ch = report_005.check("bernoulli_collocation")
    assert ch.passed and ch.samples_checked >= 65
    with pytest.raises(KeyError):
        report_005.check("no_such_check")


def test_flat_stream_verifies(sol_flat):
    report = verify_all(sol_flat, WaveConfig(mode_count=64))
    assert report.passed
    # strict sign checks have nothing to bite on a flat stream; they must
    # degrade to counted-but-degenerate passes, not failures
    assert report.check("pressure_x_negative").passed
    assert report.check("velocity_v_positive").passed


def test_verify_all_catches_corrupted_solution(sol_005):
    bad = ConformalSolution(
        c=sol_005.c, E=sol_005.E,
        coeffs=sol_005.coeffs * np.where(
            np.arange(sol_005.mode_count) == 0, -1.0, 1.0),
        gravity=sol_005.gravity)
    report = verify_all(bad, WaveConfig(mode_count=64))
    assert not report.passed
    assert not report.check("bernoulli_collocation").passed


def test_verify_all_catches_small_perturbation(sol_005):
    coeffs = sol_005.coeffs.copy()
    coeffs[0] *= 1.0 + 1e-6
    bumped = ConformalSolution(c=sol_005.c, E=sol_005.E, coeffs=coeffs,
                               gravity=sol_005.gravity)
    report = verify_all(bumped, WaveConfig(mode_count=64))
    assert not report.check("bernoulli_collocation").passed


def test_report_round_trip(report_005):
    doc = report_005.to_dict()
    back = VerificationReport.from_dict(doc)
    assert back.to_dict() == doc
    assert back.passed == report_005.passed
    assert [c.name for c in back.checks] == [c.name for c in report_005.checks]


def test_check_result_round_trip():
    ch = CheckResult("demo", True, 1.5e-12, (0.1, -0.2), 100, 3, 1e-10,
                     note="hello")
    assert CheckResult.from_dict(ch.to_dict()) == ch


def test_theorem_suites_return_expected_shapes(sol_005):
    cfg = WaveConfig(mode_count=64)
    assert len(verify_theorem_Px(sol_005, cfg)) == 3
    assert len(verify_theorem_Py(sol_005, cfg)) == 2
    assert len(verify_f_results(sol_005, cfg)) == 4
    assert len(verify_velocity_results(sol_005, cfg)) == 3


def test_pressure_core_signs(sol_010):
    cfg = WaveConfig(mode_count=256)
    px = {c.name: c for c in verify_theorem_Px(sol_010, cfg)}
    assert px["pressure_x_negative"].passed
    assert px["pressure_x_negative"].worst_margin < 0.0
    assert px["pressure_x_crest_line"].worst_margin <= 1e-10
    py = {c.name: c for c in verify_theorem_Py(sol_010, cfg)}
    assert py["pressure_y_negative"].passed
    assert "p=-10c" in py["pressure_y_far_field"].note


def test_crest_angle_flat_is_straight(sol_flat):
    assert crest_angle(sol_flat) == pytest.approx(180.0, abs=1e-10)


def test_crest_angle_frozen_values(sol_005, sol_010):
    assert crest_angle(sol_005) == pytest.approx(178.845, abs=5e-3)
    assert crest_angle(sol_010) == pytest.approx(174.11, abs=5e-2)


def test_crest_angle_monotone_in_steepness(family_n256):
    angles = [crest_angle(m.solution) for m in family_n256.members]
    assert all(a > b for a, b in zip(angles, angles[1:])), angles
