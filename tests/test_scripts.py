"""Smoke tests of the example scripts: each runs with its default arguments,
exits 0 and prints something; and the benchmark's self-test passes on the
package as it stands."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import sphkern

REPO = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


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


def test_perfbench_selftest_passes(tmp_path):
    # perfbench/selftest.py runs from a root that holds perfbench/ and src/:
    # a copy of the harness beside a link to the package under test, so a
    # renamed name that the tracer or the workloads read fails here
    (tmp_path / "perfbench").mkdir()
    for path in (REPO / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    (tmp_path / "src").symlink_to(os.path.dirname(os.path.dirname(sphkern.__file__)))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
