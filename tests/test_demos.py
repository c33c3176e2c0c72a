"""The quick demos run clean: each exits 0 with every warning raised as an
error.  Demo 05 trains for 1500 steps and writes ``demos/demo_out/``, so it
stays out of the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_theory_frontier.py",
        "02_bayes_risk_closed_forms.py",
        "03_task_entropy_coding.py",
        "04_redundancy_discriminator.py",
    ],
)
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
