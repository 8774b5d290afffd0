"""The benchmark's workloads: seeded inputs, set-up, one timed pass, checks.

Each workload is one closed-loop caller in one process: the next command is
issued only after the previous one returns. The seed chooses the inputs and
the program only receives them, through the CLI (`cli_io.main`) or the public
functions a CLI user's script would call. Every program entry point is looked
up on its module at call time, so a traced run reaches it through the
tracer's wrapper.

A workload has four steps. `prepare` is one set-up; it runs in a fresh
interpreter and does what a fresh process pays before the workload's first
command (import, solver tables, and for `certify` the waves on disk).
`state` readies the timing process, untimed. `run_pass` is the whole input
set run once, timed. `probe` runs untimed after the timed phase. Each pass and
probe checks every output it produced and counts the checks it attempted and
those that failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stokespressure import cli_io, oracles, spectral_solver
from stokespressure.wave_model import TAIL_DECAY_RATIO, WaveConfig

FIELDS_GRID = (256, 128)


class SetupFailed(RuntimeError):
    """A set-up step the timed phase depends on did not succeed."""


@dataclass
class PassResult:
    """Stage timings, correctness tally and output count of one pass."""

    stages: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: int = 0
    # Known program defects seen on the way; reported, not counted as failed.
    defects: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def timed(self, stage: str, seconds: float) -> None:
        self.stages.setdefault(stage, []).append(seconds)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    tag = sum(ord(ch) << (8 * i) for i, ch in enumerate(workload))
    return np.random.default_rng([tag, seed])


def run_cli(argv: list[str]) -> int:
    """One in-process CLI command; its report lines are not echoed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli_io.main(argv)


def warm_tables(modes) -> None:
    """Build the solver's collocation tables at each mode count, as the
    first solve at that count does."""
    for n in modes:
        spectral_solver.collocation_angles(n)


class Sweep:
    """CLI sweep at 2048 modes from s = 0.01 to about 0.13 in 0.01 steps:
    dense residual, Jacobian and LU on the success path only."""

    name = "sweep"
    output_name = "members"
    modes = 2048
    members = 13

    def inputs(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        step = 0.01 * (1.0 + float(rng.uniform(-0.015, 0.015)))
        # The last step is shortened by up to 30 %, so every seed gives
        # exactly twelve steps after s = 0.01.
        stop = 0.01 + (self.members - 1 - float(rng.uniform(0.0, 0.3))) * step
        return {"modes": self.modes, "s_start": 0.01, "s_step": step,
                "s_stop": stop, "members": self.members}

    def prepare(self, inputs: dict, workdir: Path) -> None:
        warm_tables([inputs["modes"]])

    def state(self, inputs: dict, workdir: Path) -> dict:
        warm_tables([inputs["modes"]])
        return dict(inputs, workdir=workdir)

    def run_pass(self, state: dict, index: int, span) -> PassResult:
        res = PassResult()
        out = state["workdir"] / f"sweep{index}"
        argv = ["sweep", "--modes", str(state["modes"]),
                "--s-start", repr(state["s_start"]),
                "--s-stop", repr(state["s_stop"]),
                "--s-step", repr(state["s_step"]), "--out", str(out)]
        with span("bench.sweep"):
            t0 = time.perf_counter()
            code = run_cli(argv)
            res.timed("sweep_s", time.perf_counter() - t0)
        rows = []
        summary = out / "summary.csv"
        if code == 0 and summary.exists():
            lines = summary.read_text().splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        tol = WaveConfig().newton_tol
        for i in range(state["members"]):
            if i >= len(rows):
                res.check(False, f"sweep member {i} missing (exit code {code})")
                continue
            row = rows[i]
            ok = res.check(
                float(row["residual_norm"]) <= tol
                and float(row["tail_ratio"]) <= TAIL_DECAY_RATIO
                and (out / f"solution_s{float(row['s']):.6f}.json").exists(),
                f"sweep member s={row['s']}: residual {row['residual_norm']}, "
                f"tail {row['tail_ratio']}")
            res.outputs += ok
        res.check(len(rows) == state["members"],
                  f"sweep wrote {len(rows)} members, expected {state['members']}")
        shutil.rmtree(out, ignore_errors=True)
        return res

    def probe(self, state: dict) -> PassResult:
        return PassResult()


class Limit:
    """estimate_limit to the 512-mode cap, then the bisection oracle: mostly
    failed Newton solves, and the bracket cross-check of s_max."""

    name = "limit"
    output_name = "members"
    # The estimate walks at 128 to 512 modes; the oracle probes at 64 to
    # twice its cap.
    table_modes = (64, 128, 256, 512, 1024)

    def inputs(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        # The timed estimate starts at 0.01 on every seed: where the start
        # lies decides how many solves fail at the mode cap, so its cost
        # jumps with the start. The seed draws the start of the untimed
        # containment check instead.
        return {"s_start": 0.01, "max_modes": 512, "est_mode_cap": 512,
                "check_start": float(rng.uniform(0.01, 0.02))}

    def prepare(self, inputs: dict, workdir: Path) -> None:
        warm_tables(self.table_modes)

    def state(self, inputs: dict, workdir: Path) -> dict:
        warm_tables(self.table_modes)
        return dict(inputs)

    def run_pass(self, state: dict, index: int, span) -> PassResult:
        res = PassResult()
        cfg = WaveConfig()
        with span("bench.limit"):
            t0 = time.perf_counter()
            est = spectral_solver.estimate_limit(
                cfg, s_start=state["s_start"], max_modes=state["max_modes"])
            t1 = time.perf_counter()
            lo, hi = oracles.limit_bracket(cfg,
                                           est_mode_cap=state["est_mode_cap"])
            t2 = time.perf_counter()
        res.timed("limit_s", t1 - t0)
        res.timed("bracket_s", t2 - t1)
        _check_limit(res, est, lo, hi)
        state["bracket"] = (lo, hi)
        res.outputs = len(est.family.members)
        return res

    def probe(self, state: dict) -> PassResult:
        """The estimate from the seed's start must also lie in the bracket."""
        res = PassResult()
        est = spectral_solver.estimate_limit(
            WaveConfig(), s_start=state["check_start"],
            max_modes=state["max_modes"])
        _check_limit(res, est, *state["bracket"])
        return res


def _check_limit(res: PassResult, est, lo: float, hi: float) -> None:
    res.check(0.135 <= est.s_max <= 0.145,
              f"s_max = {est.s_max!r} from s = {est.family.members[0].steepness!r}"
              f" outside [0.135, 0.145] ({est.stop_reason}, N = {est.N_used})")
    res.check(lo < hi and lo <= est.s_max <= hi,
              f"bracket [{lo!r}, {hi!r}] does not contain s_max = "
              f"{est.s_max!r} from s = {est.family.members[0].steepness!r}")


class Certify:
    """CLI verify, then fields --grid 256x128, on six stored waves at N = 256
    and 512: verifier, field reconstruction and CSV export; the solver is
    idle."""

    name = "certify"
    output_name = "waves"
    # `solve` accepts an N = 256 wave up to s ~ 0.13 (its tail test passes),
    # but from s ~ 0.125 `verify`'s aliasing probe bernoulli_midpoint rejects
    # it (defect 3.3e-8 at s = 0.1274, tolerance 1e-9). The timed waves stay
    # where their N certifies them; this wave shows the defect on every run.
    defect_wave = {"steepness": 0.1274, "modes": 256}

    def inputs(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        # Each N gets one wave in each third of its steepness range, so seeds
        # differ in where their waves lie within each third, not in how many
        # shallow or steep waves they have.
        waves = []
        for n, top in ((256, 0.12), (512, 0.13)):
            edges = np.linspace(0.03, top, 4)
            waves += [{"steepness": float(rng.uniform(lo, hi)), "modes": n}
                      for lo, hi in zip(edges[:-1], edges[1:])]
        return {"waves": [waves[i] for i in rng.permutation(len(waves))]}

    def prepare(self, inputs: dict, workdir: Path) -> None:
        for i, wave in enumerate(inputs["waves"]):
            code = _solve(wave, workdir / f"wave{i}")
            if code != 0:
                raise SetupFailed(f"solve of wave {wave} exited {code}")
        _solve(self.defect_wave, workdir / "defect")

    def state(self, inputs: dict, workdir: Path) -> dict:
        return {"waves": [workdir / f"wave{i}"
                          for i in range(len(inputs["waves"]))],
                "defect": workdir / "defect"}

    def run_pass(self, state: dict, index: int, span) -> PassResult:
        res = PassResult()
        nq, np_ = FIELDS_GRID
        for wave in state["waves"]:
            sol = str(wave / "solution.json")
            vdir, fdir = wave / "verify", wave / "fields"
            with span("bench.verify"):
                t0 = time.perf_counter()
                code_v = run_cli(["verify", "--solution", sol,
                                  "--out", str(vdir)])
                res.timed("verify_s", time.perf_counter() - t0)
            with span("bench.fields"):
                t0 = time.perf_counter()
                code_f = run_cli(["fields", "--solution", sol,
                                  "--grid", f"{nq}x{np_}", "--out", str(fdir)])
                res.timed("fields_s", time.perf_counter() - t0)
            passed, failing = _report(vdir)
            ok_v = res.check(code_v == 0 and passed == 25 and not failing,
                             f"verify {wave.name}: exit {code_v}, "
                             f"{passed}/{passed + len(failing)} checks passed, "
                             f"failing {failing}")
            ok_f = res.check(code_f == 0 and _fields_ok(fdir / "fields.csv",
                                                        nq * np_),
                             f"fields {wave.name}: exit {code_f} or bad "
                             f"fields.csv")
            res.outputs += ok_v and ok_f
            shutil.rmtree(vdir, ignore_errors=True)
            shutil.rmtree(fdir, ignore_errors=True)
        return res

    def probe(self, state: dict) -> PassResult:
        """Verify the defect wave, if `solve` returned it as solved."""
        res = PassResult()
        wave = self.defect_wave
        sol = state["defect"] / "solution.json"
        if not sol.exists():
            return res
        vdir = state["defect"] / "verify"
        code = run_cli(["verify", "--solution", str(sol), "--out", str(vdir)])
        passed, failing = _report(vdir)
        if code != 0:
            res.defects.append(
                f"solve returned the N = {wave['modes']} wave at s = "
                f"{wave['steepness']} as solved; verify rejects it "
                f"({passed}/{passed + len(failing)} checks, failing {failing})")
        return res


def _solve(wave: dict, out: Path) -> int:
    return run_cli(["solve", "--steepness", repr(wave["steepness"]),
                    "--modes", str(wave["modes"]),
                    "--max-modes", str(wave["modes"]), "--out", str(out)])


def _report(vdir: Path) -> tuple[int, list[str]]:
    """Passed count and failing check names of a verify report."""
    report = vdir / "report.json"
    checks = (json.loads(report.read_text())["checks"]
              if report.exists() else [])
    return (sum(ch["passed"] for ch in checks),
            [ch["name"] for ch in checks if not ch["passed"]])


def _fields_ok(path: Path, rows: int) -> bool:
    if not path.exists():
        return False
    lines = path.read_text().splitlines()
    return (lines[0] == cli_io.FIELDS_CSV_HEADER and len(lines) == rows + 1
            and all(line.count(",") == 10 for line in lines[1:]))


WORKLOADS = {w.name: w for w in (Sweep(), Limit(), Certify())}
