"""Every demo script runs to completion against the library."""

import os
import pathlib
import subprocess
import sys

import pytest

import patgraphs

DEMOS = pathlib.Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(patgraphs.__file__).parent.parent))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
