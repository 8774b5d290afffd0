import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stokespressure
from stokespressure import cli_io
from stokespressure.cli_io import (
    FIELDS_CSV_HEADER,
    OUTPUT_DIR_ENV,
    CliInputError,
    load_config,
    load_report,
    load_solution,
    main,
    save_report,
    save_solution,
    write_fields_csv,
)
from stokespressure.hodograph_fields import grid_fields, physical_grid
from stokespressure.spectral_solver import (
    continue_family,
    initial_guess,
    newton_solve,
)
from stokespressure.verifier import CheckResult, VerificationReport, verify_all
from stokespressure.wave_model import (
    ConformalSolution,
    InvalidConfig,
    WaveConfig,
    steepness,
)


def run(*argv):
    return main([str(a) for a in argv])


# --- config loading ----------------------------------------------------------

def test_load_config_defaults_without_file():
    cfg = load_config(None)
    assert cfg == WaveConfig()


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode_count": 48, "gravity": 2.0}))
    cfg = load_config(path, {"gravity": 3.0, "newton_tol": None})
    assert cfg.mode_count == 48
    assert cfg.gravity == 3.0          # flag wins
    assert cfg.newton_tol == 1e-12     # None override is ignored


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode_count": 48, "typo_key": 1}))
    with pytest.raises(CliInputError, match="typo_key"):
        load_config(path)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(CliInputError):
        load_config(path)


def test_load_config_rejects_bad_values(tmp_path):
    path = tmp_path / "cfg.json"
    # JSON has no infinities or NaN, but Python's parser takes these tokens
    for text in ['{"gravity": -9.8}', '{"newton_tol": Infinity}',
                 '{"surface_pressure": NaN}', '{"surface_pressure": -Infinity}',
                 '{"excision_radius": Infinity}', '{"grid_depth": -Infinity}']:
        path.write_text(text)
        with pytest.raises(CliInputError):
            load_config(path)


# --- persistence -------------------------------------------------------------

def test_solution_round_trip_is_bit_exact(sol_005, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_solution(sol_005, a)
    back = load_solution(a)
    assert back.c == sol_005.c
    assert back.E == sol_005.E
    assert np.array_equal(back.coeffs, sol_005.coeffs)
    save_solution(back, b)
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def member_2048():
    # a member of a 2,048-mode sweep, with the diagnostics `solve` stores
    m = continue_family(0.01, 0.03, WaveConfig(mode_count=2048)).last
    return m.solution, {"iterations": m.newton_iters,
                        "residual_norm": m.residual_norm,
                        "tail_ratio": m.tail_ratio}


@pytest.mark.parametrize("wave", ["edges", "member_2048"])
@pytest.mark.parametrize("diagnostics", ["none", "finite", "nan_tail"])
def test_save_solution_writes_the_bytes_of_dump_json(wave, diagnostics,
                                                     request, tmp_path):
    # The coefficients are printed apart from the rest of the document, and
    # the file must still be `_dump_json` of the whole, which is json.dumps
    # with sorted keys and indent 1; a NaN tail ratio prints as null.
    if wave == "edges":
        sol = ConformalSolution(c=1.0, E=0.5, coeffs=[
            -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.0, 0.1])
        diag = {"iterations": 3, "residual_norm": 2.5e-13, "tail_ratio": 0.0}
    else:
        sol, diag = request.getfixturevalue(wave)
    diag = {"none": None, "finite": diag,
            "nan_tail": dict(diag, tail_ratio=math.nan)}[diagnostics]
    doc = {"format": "stokespressure.solution/1", "c": sol.c, "E": sol.E,
           "gravity": sol.gravity, "surface_pressure": sol.surface_pressure,
           "mode_count": sol.mode_count, "coefficients": sol.coeffs.tolist()}
    if diag:
        doc["diagnostics"] = diag
    path = tmp_path / "s.json"
    digest = save_solution(sol, path, diagnostics=diag)
    data = path.read_bytes()
    assert data == cli_io._dump_json(doc).encode()
    assert digest == hashlib.sha256(data).hexdigest()
    assert (b'"tail_ratio": null' in data) == (diagnostics == "nan_tail")
    back = load_solution(path)
    assert back.coeffs.view(np.uint64).tolist() == \
        sol.coeffs.view(np.uint64).tolist()
    assert (back.c, back.E) == (sol.c, sol.E)


def test_load_solution_rejects_truncation(sol_005, tmp_path):
    path = tmp_path / "s.json"
    save_solution(sol_005, path)
    doc = json.loads(path.read_text())
    doc["coefficients"] = doc["coefficients"][:7]
    path.write_text(json.dumps(doc))
    with pytest.raises(CliInputError, match="does not match"):
        load_solution(path)


@pytest.mark.parametrize("edit", [
    lambda doc: "{not json",
    lambda doc: {"format": "something/else"},
    # what WaveConfig refuses: a count that is not an integer, and a bool or
    # a string where a number belongs
    lambda doc: dict(doc, mode_count=doc["mode_count"] + 0.9),
    lambda doc: dict(doc, mode_count=str(doc["mode_count"])),
    lambda doc: dict(doc, mode_count=True),
    lambda doc: dict(doc, c=True),
    lambda doc: dict(doc, E=str(doc["E"])),
    lambda doc: dict(doc, gravity="1.0"),
    lambda doc: dict(doc, surface_pressure=False),
    lambda doc: dict(doc, coefficients=[True] + doc["coefficients"][1:]),
    lambda doc: dict(doc, coefficients=["0.1"] + doc["coefficients"][1:]),
    lambda doc: dict(doc, coefficients=json.dumps(doc["coefficients"])),
    # and, as WaveConfig does, a non-finite value; an integer beyond the
    # float range must not escape as OverflowError
    lambda doc: dict(doc, gravity=math.inf),
    lambda doc: dict(doc, surface_pressure=math.inf),
    lambda doc: dict(doc, c=10**400),
], ids=["not-json", "format", "fractional-mode-count", "string-mode-count",
        "bool-mode-count", "bool-c", "string-E", "string-gravity",
        "bool-surface-pressure", "bool-coefficient", "string-coefficient",
        "string-coefficients", "infinite-gravity", "infinite-surface-pressure",
        "huge-integer-c"])
def test_load_solution_rejects_garbage(edit, sol_005, tmp_path):
    path = tmp_path / "s.json"
    save_solution(sol_005, path)
    doc = edit(json.loads(path.read_text()))
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(CliInputError):
        load_solution(path)
    out = tmp_path / "out"
    assert run("verify", "--solution", path, "--out", out) == 2
    assert not out.exists()


def test_fields_csv_header_and_shape(sol_005, tmp_path):
    cfg = WaveConfig(mode_count=64, grid_nq=5, grid_np=3, grid_depth=-2.0)
    path = tmp_path / "f.csv"
    write_fields_csv(physical_grid(sol_005, cfg), path)
    lines = path.read_text().splitlines()
    assert lines[0] == FIELDS_CSV_HEADER
    assert lines[0] == "q,p,x,y,u,v,P,f,Px,Py,excluded"
    assert len(lines) == 1 + 15
    assert all(len(line.split(",")) == 11 for line in lines[1:])


def test_fields_export_bytes_follow_grid_arrays(sol_005, tmp_path):
    # Reference built from grid_fields arrays alone: row-major with q
    # fastest, floats as format(v, ".17g"), excluded as 0/1 in the CSV and
    # records keyed by the 11 column names in the JSON export.
    q = np.linspace(0.0, np.pi * sol_005.c, 5)
    p = np.linspace(-2.0, 0.0, 3)
    gf = grid_fields(sol_005, q, p, WaveConfig(mode_count=64))
    floats = ("x", "y", "u", "v", "P", "f", "P_x", "P_y")
    records = [{"q": float(q[j]), "p": float(p[i]),
                **{name: float(getattr(gf, name)[i, j]) for name in floats},
                "excluded": bool(gf.excluded[i, j])}
               for i in range(p.size) for j in range(q.size)]
    lines = [FIELDS_CSV_HEADER] + [
        ",".join([format(r[name], ".17g") for name in ("q", "p") + floats]
                 + ["1" if r["excluded"] else "0"])
        for r in records]

    cfg = WaveConfig(mode_count=64, grid_nq=5, grid_np=3, grid_depth=-2.0)
    path = tmp_path / "f.csv"
    write_fields_csv(physical_grid(sol_005, cfg), path)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    save_solution(sol_005, tmp_path / "solution.json")
    assert run("fields", "--solution", tmp_path / "solution.json",
               "--out", tmp_path, "--format", "json", "--grid", "5x3",
               "--depth=-2.0") == 0
    assert json.loads((tmp_path / "fields.json").read_text()) == records


# --- fields.csv export -------------------------------------------------------

B = cli_io._FIELDS_CSV_BLOCK


def _per_row_fields_csv(samples) -> bytes:
    """The per-row writer the export must match byte for byte: one `%` per
    row over `tolist()` blocks of 1,024 rows."""
    row = ",".join(["%.17g"] * 10 + ["%d"])
    lines = [FIELDS_CSV_HEADER]
    for start in range(0, len(samples), 1024):
        lines += [row % r for r in samples[start:start + 1024].tolist()]
    return ("\n".join(lines) + "\n").encode()


def _printed_17g(values) -> bytes:
    """`_cells_17g` of values with the NULs dropped, one value per line."""
    cells = cli_io._cells_17g(np.asarray(values, dtype=np.float64))
    lines = np.concatenate([cells.reshape(-1, cli_io._CELL),
                            np.full((cells.size // cli_io._CELL, 1), ord("\n"),
                                    np.uint8)], axis=1)
    return lines[lines != 0].tobytes()


def _percent_17g(values) -> bytes:
    return b"".join(b"%.17g\n" % v for v in
                    np.asarray(values, dtype=np.float64).ravel().tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=64))
def test_cells_17g_print_floats_as_percent_17g(values):
    assert _printed_17g(values) == _percent_17g(values)


def test_cells_17g_print_random_doubles_as_percent_17g():
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    # Random bit patterns reach every exponent; the scaled normals fill the
    # fixed-notation range k = -4..16 that the fields mostly take.
    scaled = (rng.standard_normal(100_000)
              * 10.0 ** rng.uniform(-7, 19, 100_000))
    for values in (bits.view(np.float64), scaled, scaled.reshape(-1, 8)):
        assert _printed_17g(values) == _percent_17g(values)


# Exact ties y = |x|·10**(16-k) = N + 1/2 with 10**(16-k) not a double:
# M·2**(-1-e) for e = 16 - k in {23, 24} and odd M.
_EXACT_TIES = [m * 2.0 ** (-1 - e)
               for e, ms in ((23, range(3, 17, 2)), (24, (1, 3))) for m in ms]


@pytest.mark.parametrize("value, text", [
    (0.0, "0"), (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (1e16, "10000000000000000"), (1e17, "1e+17"),
    (9.9999999999999995e-05, "9.9999999999999991e-05"), (1e-4, "0.0001"),
    (1e-5, "1.0000000000000001e-05"),
    (1e15 + 0.25, "1000000000000000.2"), (1e15 + 0.75, "1000000000000000.8"),
    (-123.5, "-123.5"), (100.0, "100"), (1e23, "9.9999999999999992e+22"),
    (1e-6, "9.9999999999999995e-07"),
    (3 * 2.0 ** -24, "1.7881393432617188e-07"),
])
def test_cells_17g_edge_values(value, text):
    assert format(value, ".17g") == text
    assert _printed_17g([value, -value]) == _percent_17g([value, -value])


def test_cells_17g_send_only_unprovable_values_to_fmt(monkeypatch):
    # The fast path ends where a Veltkamp split overflows: 10**(16-k) above
    # 1.3e300 (k < -284) or |x| above 1.3e300. Exact ties go to `_fmt` too,
    # and so does 1e-6, whose log10 comes out one too large.
    printed, fmt = [], cli_io._fmt
    monkeypatch.setattr(cli_io, "_fmt", lambda x: printed.append(x) or fmt(x))
    inside = [1e-284, 1.3e300, 1e299, 1e16, 0.0, -0.0]
    outside = [1e-285, 1.4e300, 1e-300, 5e-324, math.nan, -math.inf, 1e-6,
               *_EXACT_TIES]
    assert _printed_17g(inside + outside) == _percent_17g(inside + outside)
    assert _percent_17g(printed) == _percent_17g(outside)


@pytest.mark.parametrize("sign", [-1, 1])
def test_cells_17g_stay_exact_within_their_error_bound(sign, monkeypatch):
    # Shift each table entry 10**(16-k) by 1e-31 of itself, which moves the
    # estimate of y = |x|·10**(16-k) by under 1e-14, the stated error bound:
    # the tie margin must still send exact ties to `_fmt`.
    tables = dict(cli_io._g17_tables())
    hi, hi_hi, hi_lo, lo = tables["scale"]
    tables["scale"] = np.stack([hi, hi_hi, hi_lo, lo + sign * 1e-31 * hi])
    monkeypatch.setattr(cli_io, "_g17_tables", lambda: tables)
    values = _EXACT_TIES + [0.1, 1 / 3, 2.0 ** -30, 1e-7 / 3]
    assert _printed_17g(values) == _percent_17g(values)


@pytest.mark.parametrize("towards", [-math.inf, math.inf])
def test_cells_17g_survive_a_log10_one_ulp_off(towards, monkeypatch):
    # Another libm may round log10 differently next to a power of ten; k is
    # then one off either way, and the checks on D must send the value to
    # `_fmt`.
    log10 = np.log10
    monkeypatch.setattr(np, "log10",
                        lambda x: np.nextafter(log10(x), towards))
    powers = [10.0 ** n for n in range(-30, 31)]
    values = [math.nextafter(p, to) for p in powers for to in (0, math.inf)]
    assert _printed_17g(powers + values) == _percent_17g(powers + values)


def test_doubles_keep_clear_of_powers_of_ten():
    # `_cells_17g` reads log10 one too large from the sign of its estimate
    # of |x|·10**(16-k) - 10**16, which errs by under 1e-14.
    for k in range(-284, 301):
        ten_k = Fraction(10) ** k
        nearest = float(ten_k)
        for x in (math.nextafter(nearest, 0), nearest,
                  math.nextafter(nearest, math.inf)):
            if Fraction(x) != ten_k:
                assert abs(Fraction(x) / ten_k - 1) * 10**16 > 1.6e-3, x


def _special_records(dtype, n=2500):
    # q and p hold values whose printing a float-keyed cache would get wrong
    # (0.0 == -0.0) or that take all 17 digits; the float fields hold the
    # non-finite values and the negative zero.
    specials = np.array([0.0, -0.0, 0.1, 1e-5, 1e16, 1e17, 5e-324])
    fills = np.array([np.nan, np.inf, -np.inf, -0.0, 1.0 / 3.0])
    i = np.arange(n)
    rec = np.recarray(n, dtype=dtype)
    rec.q = specials[i % 7]
    rec.p = specials[(i // 7) % 7]
    for k, name in enumerate(("x", "y", "u", "v", "P", "f", "P_x", "P_y")):
        rec[name] = fills[(i + k) % 5]
    rec.excluded = i % 3 == 0
    return rec


@pytest.fixture(scope="module")
def grid_013(sol_013):
    cfg = WaveConfig(mode_count=512, grid_nq=256, grid_np=128)
    return physical_grid(sol_013, cfg)


@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 3 * B + 1])
def test_fields_csv_bytes_match_the_per_row_writer(grid_013, rows, tmp_path):
    for samples in (grid_013[:rows], _special_records(grid_013.dtype, rows)):
        path = tmp_path / "fields.csv"
        write_fields_csv(samples, path)
        assert path.read_bytes() == _per_row_fields_csv(samples)


def test_fields_csv_export_needs_no_fork(grid_013, monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("the fields.csv export forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    path = tmp_path / "fields.csv"
    write_fields_csv(grid_013[:3 * B + 1], path)
    assert path.read_bytes() == _per_row_fields_csv(grid_013[:3 * B + 1])


def test_fields_csv_failure_mid_stream_leaves_no_file(grid_013, monkeypatch,
                                                      tmp_path):
    cells, calls = cli_io._cells_17g, []

    def second_block_fails(values):
        calls.append(values.shape)
        if len(calls) == 4:  # q's and p's distinct values, then two blocks
            assert [p.name for p in tmp_path.iterdir()] != []
            raise RuntimeError("formatting failed")
        return cells(values)

    monkeypatch.setattr(cli_io, "_cells_17g", second_block_fails)
    with pytest.raises(RuntimeError):
        write_fields_csv(grid_013[:3 * B + 1], tmp_path / "fields.csv")
    assert list(tmp_path.iterdir()) == []


def test_fields_csv_prints_q_p_once_and_floats_without_fmt(grid_013,
                                                          monkeypatch,
                                                          tmp_path):
    # A count guard, not a time guard: each distinct q and p value is
    # formatted once, the floats a block at a time, and on a real grid no
    # value takes the scalar `_fmt`.
    sizes, printed = [], []
    cells, fmt = cli_io._cells_17g, cli_io._fmt
    monkeypatch.setattr(cli_io, "_cells_17g",
                        lambda v: sizes.append(v.size) or cells(v))
    monkeypatch.setattr(cli_io, "_fmt", lambda x: printed.append(x) or fmt(x))
    path = tmp_path / "fields.csv"
    write_fields_csv(grid_013, path)
    assert sizes == [256, 128] + [8 * B] * (len(grid_013) // B)
    assert printed == []
    assert path.read_bytes() == _per_row_fields_csv(grid_013)

    # 5e-324 is the one distinct q and p value outside the fast path.
    special = _special_records(grid_013.dtype)
    write_fields_csv(special, path)
    floats = np.stack([special[name] for name in cli_io._FIELDS_CSV_FLOATS])
    assert len(printed) == np.count_nonzero(~np.isfinite(floats)) + 2
    assert path.read_bytes() == _per_row_fields_csv(special)


# --- subcommands -------------------------------------------------------------

def test_solve_verify_fields_pipeline(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--steepness", 0.05, "--modes", 64,
               "--out", out) == 0
    sol = load_solution(out / "solution.json")
    assert steepness(sol) == pytest.approx(0.05, abs=1e-12)

    assert run("verify", "--solution", out / "solution.json",
               "--out", out) == 0
    report = load_report(out / "report.json")
    assert report.passed

    assert run("fields", "--solution", out / "solution.json", "--out", out,
               "--grid", "12x6") == 0
    lines = (out / "fields.csv").read_text().splitlines()
    assert lines[0] == FIELDS_CSV_HEADER and len(lines) == 1 + 72

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert "fields.csv" in manifest["outputs"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_artifacts_take_the_mode_open_would_give(tmp_path, umask):
    # Every artifact is created 0o666 less the process umask, as a plain
    # open(path, "w") creates a file, and no temp file is left behind.
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert run("solve", "--steepness", 0.02, "--modes", 32,
                   "--out", out) == 0
        assert run("verify", "--solution", out / "solution.json",
                   "--out", out) == 0
        assert run("fields", "--solution", out / "solution.json",
                   "--grid", "8x4", "--out", out) == 0
        assert run("sweep", "--s-start", 0.01, "--s-stop", 0.02,
                   "--modes", 32, "--out", out / "sweep") == 0
    finally:
        os.umask(old)
    written = sorted(p for p in out.rglob("*") if p.is_file())
    names = {p.name for p in written}
    assert {"solution.json", "report.json", "fields.csv", "summary.csv",
            "manifest.json", "solution_s0.020000.json"} <= names
    assert all(p.suffix in (".json", ".csv") for p in written)
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


def test_solve_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("solve", "--steepness", 0.03, "--modes", 32,
                   "--out", out) == 0
    assert (a / "solution.json").read_bytes() == (b / "solution.json").read_bytes()


def test_solve_doubles_modes_at_small_steepness(tmp_path):
    # --max-modes holds on both sides of s = 0.02: four modes cannot resolve
    # either wave, so both solves double N within the cap.
    for s in (0.02, 0.0201):
        out = tmp_path / str(s)
        assert run("solve", "--steepness", s, "--modes", 4,
                   "--max-modes", 64, "--out", out) == 0
        sol = load_solution(out / "solution.json")
        assert steepness(sol) == pytest.approx(s, abs=1e-12)
        assert 4 < sol.mode_count <= 64


@pytest.mark.parametrize("s", [0.0, 0.001, 0.015, 0.02])
def test_solve_up_to_002_is_one_solve_from_the_linear_guess(tmp_path, s):
    # A wave the starting N resolves keeps the bytes of a plain Newton solve
    # from the linear guess, diagnostics included, even under a cap below
    # that N.
    cfg = WaveConfig(mode_count=32)
    diag = {}
    sol = newton_solve(initial_guess(s, cfg), s, cfg, diagnostics=diag)
    save_solution(sol, tmp_path / "direct.json", diagnostics=diag)
    out = tmp_path / "cli"
    assert run("solve", "--steepness", s, "--modes", 32, "--max-modes", 16,
               "--out", out) == 0
    assert ((out / "solution.json").read_bytes()
            == (tmp_path / "direct.json").read_bytes())


def test_fields_json_format(tmp_path):
    out = tmp_path / "r"
    assert run("solve", "--steepness", 0.02, "--modes", 32, "--out", out) == 0
    assert run("fields", "--solution", out / "solution.json", "--out", out,
               "--format", "json", "--grid", "4x3") == 0
    doc = json.loads((out / "fields.json").read_text())
    assert len(doc) == 12
    assert set(doc[0]) == {"q", "p", "x", "y", "u", "v", "P", "f",
                           "P_x", "P_y", "excluded"}


def test_sweep_writes_family(tmp_path):
    out = tmp_path / "sweep"
    assert run("sweep", "--s-start", 0.01, "--s-stop", 0.04,
               "--s-step", 0.01, "--modes", 32, "--out", out) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("s,c,E,K,N,")
    assert len(summary) == 1 + 4
    assert (out / "solution_s0.010000.json").exists()
    assert (out / "solution_s0.040000.json").exists()


def test_sweep_writes_one_file_per_member(tmp_path):
    # 0.02 + 0.01 falls 4e-7 short of s_stop: a member there would share
    # the name solution_s0.030000.json with the member at s_stop.
    out = tmp_path / "sweep"
    assert run("sweep", "--s-start", 0.01, "--s-stop", 0.0300004,
               "--s-step", 0.01, "--modes", 32, "--out", out) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    names = {f"solution_s{float(row.split(',')[0]):.6f}.json" for row in rows}
    assert len(names) == len(rows) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == names | {"summary.csv"}
    assert all((out / name).exists() for name in names)


def test_exit_2_when_two_sweep_members_share_a_file_name(tmp_path, capsys):
    # The walk lands on both bounds, 1e-7 apart here: both members would be
    # named solution_s0.030000.json, so the sweep writes nothing.
    out = tmp_path / "sweep"
    assert run("sweep", "--s-start", 0.03, "--s-stop", 0.0300001,
               "--modes", 32, "--out", out) == 2
    assert "solution_s0.030000.json" in capsys.readouterr().err
    assert not out.exists()


def test_limit_subcommand_small(tmp_path):
    out = tmp_path / "lim"
    assert run("limit", "--modes", 32, "--max-modes", 64, "--out", out) == 0
    doc = json.loads((out / "limit.json").read_text())
    assert 0.10 < doc["s_max"] < 0.145
    assert doc["N_used"] <= 64
    assert doc["stop_reason"] == "mode_cap"


# --- cold start --------------------------------------------------------------

_COLD_START = """
import json, sys
from stokespressure import WaveConfig, cli_io
from stokespressure.spectral_solver import (
    continue_family,
    initial_guess,
    newton_solve,
)

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

wave, out = sys.argv[1:]
seen = {"import": scipy_loaded()}
seen["verify_code"] = cli_io.main(["verify", "--solution", wave,
                                   "--out", out + "/verify"])
seen["verify"] = scipy_loaded()
seen["fields_code"] = cli_io.main(["fields", "--solution", wave,
                                   "--grid", "16x8", "--out", out + "/fields"])
seen["fields"] = scipy_loaded()
for n in (1024, 256, 64):  # the Fourier path twice, then the dense step
    cfg = WaveConfig(mode_count=n)
    newton_solve(initial_guess(0.01, cfg), 0.01, cfg)
    seen[f"solve_{n}"] = scipy_loaded()
print(json.dumps(seen))
"""


def test_cold_start_loads_scipy_only_for_a_dense_step(sol_005, tmp_path):
    # In a fresh interpreter, importing the package, verify, fields and
    # 1024- and 256-mode solves on the Fourier path leave SciPy unloaded; a
    # 64-mode solve, which takes the dense step, loads it.
    wave = tmp_path / "solution.json"
    save_solution(sol_005, wave)
    src = str(Path(stokespressure.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(wave),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": False, "verify_code": 0, "verify": False,
                    "fields_code": 0, "fields": False, "solve_1024": False,
                    "solve_256": False, "solve_64": True}


# --- exit codes --------------------------------------------------------------

def test_exit_2_on_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"nonsense": True}))
    assert run("solve", "--steepness", 0.01, "--config", cfg,
               "--out", tmp_path) == 2
    assert "nonsense" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"mode_count": 64.5},
                                 {"newton_max_iter": 2.5},
                                 {"gravity": True},
                                 {"newton_tol": math.inf},
                                 {"surface_pressure": math.nan},
                                 {"excision_radius": math.inf}])
def test_exit_2_on_bad_config_value(tmp_path, doc):
    # A fractional count, a bool where a number belongs or a non-finite
    # value is refused before any solve: no traceback, no "no convergence in
    # 2.5 iterations", no "continuation stalled" and no null in solution.json.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("solve", "--steepness", 0.01, "--config", cfg,
               "--out", out) == 2
    assert not out.exists()


def test_exit_2_on_corrupt_solution(tmp_path):
    out = tmp_path / "r"
    assert run("solve", "--steepness", 0.02, "--modes", 32, "--out", out) == 0
    doc = json.loads((out / "solution.json").read_text())
    doc["coefficients"] = doc["coefficients"][:3]
    (out / "solution.json").write_text(json.dumps(doc))
    assert run("verify", "--solution", out / "solution.json",
               "--out", out) == 2


def test_exit_2_on_negative_steepness(tmp_path):
    # a non-finite target is rejected before any solve, like a negative one
    for s in (-0.1, "nan", "inf"):
        assert run("solve", "--steepness", s, "--out", tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


def test_exit_2_on_malformed_grid(sol_005, tmp_path):
    sol = tmp_path / "solution.json"
    save_solution(sol_005, sol)
    for command in ("verify", "fields"):
        out = tmp_path / command
        assert run(command, "--solution", sol, "--grid", "banana",
                   "--out", out) == 2
        assert not out.exists()


# The arguments each subcommand needs; verify and fields take a stored
# solution's path after them.
_ARGV = {"solve": ["--steepness", 0.01, "--modes", 32],
         "sweep": ["--s-start", 0.01, "--s-stop", 0.02, "--modes", 32],
         "limit": ["--modes", 32, "--max-modes", 64],
         "verify": ["--solution"], "fields": ["--solution"]}


@pytest.mark.parametrize("command, flag", [
    *[(c, f) for c in ("solve", "sweep", "limit")
      for f in ("--grid=8x4", "--depth=-1")],
    *[(c, f) for c in ("verify", "fields")
      for f in ("--modes=64", "--gravity=7")],
    ("fields", "--tol=1e-3"),
])
def test_exit_2_on_a_flag_the_subcommand_does_not_read(command, flag, sol_005,
                                                       tmp_path, capsys):
    # A subcommand takes only the flags whose values reach its result, so
    # its manifest records no setting that did not shape it.
    argv = [command, *_ARGV[command]]
    if argv[-1] == "--solution":
        argv.append(tmp_path / "solution.json")
        save_solution(sol_005, argv[-1])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(*argv, flag, "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["16x1", "1x16"])
def test_exit_2_on_grid_with_one_sample_on_an_axis(sol_005, grid, tmp_path):
    # One row would put the surface checks on the floor, one column the
    # trough line on the crest line.
    nq, np_ = (int(n) for n in grid.split("x"))
    with pytest.raises(InvalidConfig):
        verify_all(sol_005, WaveConfig(mode_count=64, grid_nq=nq,
                                       grid_np=np_))
    sol = tmp_path / "solution.json"
    save_solution(sol_005, sol)
    for command in ("verify", "fields"):
        out = tmp_path / command
        assert run(command, "--solution", sol, "--grid", grid,
                   "--out", out) == 2
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--s-start", 0.01, "--s-stop", 0.02, "--modes", 128,
     "--max-modes", 64],
    ["limit", "--modes", 128, "--max-modes", 64],
    ["sweep", "--s-start", 0.03, "--s-stop", 0.02],
    ["sweep", "--s-start", 0.01, "--s-stop", 0.02, "--s-step", -1],
    ["sweep", "--s-start", 0.01, "--s-stop", 0.02, "--s-step", 1e-9],
])
def test_exit_2_on_bad_sweep_or_limit_range(argv, tmp_path, capsys):
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_exit_3_on_unreachable_steepness(tmp_path, capsys):
    out = tmp_path / "fail"
    assert run("solve", "--steepness", 0.18, "--modes", 32,
               "--max-modes", 64, "--out", out) == 3
    err = capsys.readouterr().err
    assert "FAILED" in err
    doc = json.loads((out / "solve_failure.json").read_text())
    assert doc["error"] == "NonConvergence"
    assert (out / "manifest.json").exists()


def test_exit_3_on_sweep_failure(tmp_path, capsys):
    out = tmp_path / "fail"
    assert run("sweep", "--s-start", 0.18, "--s-stop", 0.19, "--modes", 32,
               "--max-modes", 64, "--out", out) == 3
    assert "sweep: FAILED" in capsys.readouterr().err
    doc = json.loads((out / "sweep_failure.json").read_text())
    assert doc["error"] == "TailNotResolved"
    assert set(doc) == {"error", "message", "mode_count"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["outputs"]) == ["sweep_failure.json"]


def test_exit_1_on_failed_verification(sol_005, tmp_path):
    # sabotage one coefficient so the physics checks trip
    bad = tmp_path / "bad.json"
    save_solution(sol_005, bad)
    doc = json.loads(bad.read_text())
    doc["coefficients"][0] *= 1.001
    bad.write_text(json.dumps(doc))
    assert run("verify", "--solution", bad, "--out", tmp_path) == 1
    report = load_report(tmp_path / "report.json")
    assert not report.passed


def _report_of(int_, float_, bool_):
    check = CheckResult("pressure_x_negative", bool_(False),
                        float_(math.nan), (float_(0.25), float_(-1.5)),
                        int_(31), int_(2), float_(0.0), "a note")
    return VerificationReport(
        steepness=float_(0.1), c=float_(1.05), E=float_(0.5),
        mode_count=int_(256), crest_indicator=float_(0.6), grid_nq=int_(32),
        grid_np=int_(8), grid_depth=float_(-6.5), checks=(check,))


def test_report_with_numpy_scalars_writes_python_scalar_bytes(tmp_path):
    save_report(_report_of(np.int64, np.float64, np.bool_),
                tmp_path / "numpy.json")
    save_report(_report_of(int, float, bool), tmp_path / "python.json")
    written = (tmp_path / "numpy.json").read_bytes()
    assert written == (tmp_path / "python.json").read_bytes()
    assert b'"worst_margin": null' in written


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "from_env"))
    assert run("solve", "--steepness", 0.01, "--modes", 32) == 0
    assert (tmp_path / "from_env" / "solution.json").exists()


def test_out_flag_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ignored"))
    out = tmp_path / "explicit"
    assert run("solve", "--steepness", 0.01, "--modes", 32,
               "--out", out) == 0
    assert (out / "solution.json").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--steepness", 0.02, "--modes", 32],
    ["sweep", "--s-start", 0.01, "--s-stop", 0.03, "--modes", 32],
    ["verify", "--solution"],
    ["fields", "--solution"],
    ["fields", "--format", "json", "--solution"],
    ["limit", "--modes", 32, "--max-modes", 64],
], ids=["solve", "sweep", "verify", "fields-csv", "fields-json", "limit"])
def test_manifest_hashes_outputs(argv, sol_005, tmp_path):
    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_nq": 12, "grid_np": 6}))
    inputs = [config]
    if argv[-1] == "--solution":
        inputs.append(tmp_path / "solution.json")
        save_solution(sol_005, inputs[-1])
        argv = argv + [inputs[-1]]
    out = tmp_path / "m"
    assert run(*argv, "--config", config, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    written = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == {p.name: sha256(p) for p in written}
    assert manifest["input_hashes"] == {str(p): sha256(p) for p in inputs}
    assert manifest["timestamps"]["finished"] >= manifest["timestamps"]["started"]
