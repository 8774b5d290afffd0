import contextlib

import numpy as np
import pytest

from stokespressure import (
    WaveConfig,
    continue_family,
    hodograph_fields,
    initial_guess,
    newton_solve,
)

# Acceptance tests append "ACCEPTANCE n [pass/fail]: ..." lines here; the
# terminal-summary hook below replays them after the test table so the
# per-criterion verdicts are visible even when stdout capture is on.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(n, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {n} [{'pass' if ok else 'fail'}]: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cfg64():
    return WaveConfig(mode_count=64)


@pytest.fixture(scope="session")
def sol_flat(cfg64):
    return newton_solve(initial_guess(0.0, cfg64), 0.0, cfg64)


@pytest.fixture(scope="session")
def sol_tiny(cfg64):
    # small enough for the one-mode linear guess to land in 2 iterations
    return newton_solve(initial_guess(0.002, cfg64), 0.002, cfg64)


@pytest.fixture(scope="session")
def sol_005(cfg64):
    fam = continue_family(0.02, 0.05, cfg64)
    return fam.members[-1].solution


@pytest.fixture(scope="session")
def family_n256():
    return continue_family(0.01, 0.10, WaveConfig(mode_count=256))


@pytest.fixture(scope="session")
def sol_010(family_n256):
    return family_n256.members[-1].solution


@pytest.fixture(scope="session")
def sol_013():
    # 256 modes resolve the tail at s = 0.13 but leave an aliasing floor
    # ~1e-6 between collocation points; 512 pushes it below 1e-11.
    fam = continue_family(0.02, 0.13, WaveConfig(mode_count=512))
    return fam.members[-1].solution


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture()
def no_trig(monkeypatch):
    """A context manager inside which np.cos and np.sin raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.cos or np.sin called")

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as m:
            m.setattr(np, "cos", refuse)
            m.setattr(np, "sin", refuse)
            yield

    return patched


@pytest.fixture()
def excision(monkeypatch):
    """Sets the excision disc's constants for one test: ``excision(k)``
    makes the disc active on waves whose crest indicator is below k, and
    ``excision(k, radius)`` also resizes it. No resolvable wave turns the
    fixed disc on, so the tests of its behaviour raise k."""
    def set_disc(k, radius=None):
        monkeypatch.setattr(hodograph_fields, "_EXCISION_K", k)
        if radius is not None:
            monkeypatch.setattr(hodograph_fields, "_EXCISION_RADIUS", radius)

    return set_disc
