"""Smoke run of the scripts in `demos/`: each exits 0 and prints its
closing line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One closing line of each demo, as a regular expression.
CLOSING = {
    "family_sweep.py": r"wave speed grew \d+\.\d+% over the sweep; every "
                       r"member kept its spectral tail below \S+\.",
    "limiting_wave.py": r"  bracket \[0\.\d+, 0\.\d+\]  width 0\.\d+  "
                        r"contains the continuation estimate",
    "pressure_structure.py": r"  max surface slope\^2     0\.\d{4}  "
                             r"\(stays below 1\)",
    "solve_single_wave.py": r"all checks passed \(25/25\)",
}


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(re.fullmatch(CLOSING[demo], line) for line in lines), \
        proc.stdout[-2000:]
