"""Smoke tests of the example scripts: each runs with its default arguments,
exits 0 and prints something."""

import os
import pathlib
import subprocess
import sys

import pytest

import sphkern

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    # the child interpreter imports the same package this test run does;
    # tmp_path takes whatever files a script writes to its working directory
    src = os.path.dirname(os.path.dirname(sphkern.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
