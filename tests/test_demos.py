"""Each demo script runs to completion as a standalone program."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgeqet

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    src = str(Path(edgeqet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
