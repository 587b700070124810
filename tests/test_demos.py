"""Each demo runs to the end as a user runs it: a fresh interpreter, exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import etoforge

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # demos write under the working directory or a mkdtemp workspace; both land in tmp_path
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": str(Path(etoforge.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
