"""Tests of the benchmark's tracer and seeded inputs.

Run from the repository root with `python3 -m pytest perfbench`. The traced
runs use small inputs (64 to 128 modes, one wave), which reach the same
bindings as the full workloads in a few seconds.
"""

import json

import pytest

import run
import tracer as tracing
from layers import SPEC, layer_metrics
from tracer import END, PARENT, START, TARGETS, Tracer, package_modules
from workloads import WORKLOADS

SMALL = {
    "sweep": {"modes": 64, "s_start": 0.01, "s_step": 0.01, "s_stop": 0.03,
              "members": 3},
    "limit": {"s_start": 0.012, "max_modes": 128, "est_mode_cap": 64,
              "check_start": 0.015},
    "certify": {"waves": [{"steepness": 0.05, "modes": 64}]},
}

# Wrapped functions each workload must reach.
REACHED = {
    "sweep": ["spectral_solver.newton_solve", "spectral_solver.residual_vector",
              "spectral_solver.jacobian", "spectral_solver.lu_factor",
              "spectral_solver.continue_family", "cli_io.save_solution",
              "cli_io.write_manifest", "verifier.crest_angle",
              "wave_model.eval_conformal_jet", "wave_model.eval_jet_grid"],
    "limit": ["spectral_solver.estimate_limit", "spectral_solver.newton_solve",
              "spectral_solver.continue_family", "spectral_solver.lu_factor",
              "oracles.limit_bracket"],
    "certify": ["cli_io.load_solution", "cli_io.save_report",
                "cli_io.write_fields_csv", "cli_io.write_manifest",
                "verifier.verify_all", "verifier.verify_theorem_Px",
                "verifier.verify_theorem_Py", "verifier.verify_f_results",
                "verifier.verify_velocity_results",
                "hodograph_fields.grid_fields", "hodograph_fields.physical_grid",
                "hodograph_fields.invert_position", "hodograph_fields.pressure",
                "hodograph_fields.pressure_gradient",
                "hodograph_fields.velocity_gradients", "hodograph_fields.f_field",
                "wave_model.eval_conformal_jet", "wave_model.eval_jet_grid",
                "oracles.naive_eval", "oracles.fd_derivative",
                "oracles.fd_laplacian"],
}

# The solver is idle while certifying.
IDLE = {"certify": ["spectral_solver.newton_solve", "spectral_solver.lu_factor"]}


def _snapshot():
    return {mod.__name__: dict(vars(mod)) for mod in package_modules()}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    before = _snapshot()
    runs = {}
    for name, inputs in SMALL.items():
        tr = Tracer()
        raw = run.run(WORKLOADS[name], inputs, 0.0, tr,
                      tmp_path_factory.mktemp(name))
        runs[name] = (tr, raw)
    return before, runs


def test_every_target_is_reached(traced_runs):
    _, runs = traced_runs
    for name, (tr, _) in runs.items():
        called = {rec[0] for rec in tr.spans}
        missing = [t for t in REACHED[name] if t not in called]
        assert not missing, f"{name} never reached {missing}"
        assert not called & set(IDLE.get(name, ())), name
    every = {f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns}
    assert every == set().union(*map(set, REACHED.values()))


def test_module_attributes_restored(traced_runs):
    before, _ = traced_runs
    after = _snapshot()
    for mod, attrs in before.items():
        changed = [k for k, v in attrs.items() if after[mod].get(k) is not v]
        assert not changed, f"{mod} attributes not restored: {changed}"


def test_children_fit_inside_parents(traced_runs):
    _, runs = traced_runs
    for name, (tr, _) in runs.items():
        child_total = [0.0] * len(tr.spans)
        for rec in tr.spans:
            if rec[PARENT] >= 0:
                child_total[rec[PARENT]] += rec[END] - rec[START]
        for rec, inner in zip(tr.spans, child_total):
            assert inner <= rec[END] - rec[START] + 1e-9, (name, rec)
        assert min(tr.self_times()) >= -1e-9, name


def test_layer_metrics_cover_spec(traced_runs):
    _, runs = traced_runs
    tr, raw = runs["certify"]
    metrics = layer_metrics(tr, len(raw["passes"]), 1.0)
    assert list(metrics) == [name for name, _ in SPEC]
    assert metrics["hodograph_fields.physical_grid.samples"]["value"] == 256 * 128
    assert metrics["verifier.verify_all.self_s"]["value"] > 0.0
    assert metrics["spectral_solver.newton_solve.calls"]["value"] == 0


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed a wrapper")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    before = _snapshot()
    raw = run.run(WORKLOADS["sweep"], SMALL["sweep"], 0.0, None, tmp_path)
    assert raw["passes"][0].attempted > 0
    assert not raw["passes"][0].failures
    after = _snapshot()
    assert all(after[m][k] is v for m, attrs in before.items()
               for k, v in attrs.items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name):
    wl = WORKLOADS[name]
    first = json.dumps(wl.inputs(7), sort_keys=True).encode()
    again = json.dumps(wl.inputs(7), sort_keys=True).encode()
    other = json.dumps(wl.inputs(8), sort_keys=True).encode()
    assert first == again
    assert first != other


def test_probes(traced_runs):
    _, runs = traced_runs
    assert runs["limit"][1]["probe"].attempted == 2
    defects = runs["certify"][1]["probe"].defects
    assert len(defects) == 1 and "bernoulli_midpoint" in defects[0]
