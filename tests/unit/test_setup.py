"""``setup.py`` declares the ``src/`` package tree and its numpy dependency."""

import json
import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]

# Runs setup.py with ``setuptools.setup`` replaced by a recorder, so the
# declared arguments can be inspected without building or installing.
_CAPTURE = """
import json, runpy, sys, setuptools
captured = {}
setuptools.setup = lambda **kwargs: captured.update(kwargs)
runpy.run_path("setup.py")
json.dump(captured, sys.stdout)
"""


def _run(*args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout


def test_name_and_version():
    name, version = _run("setup.py", "--name", "--version").split()
    assert name == "repro"
    assert version == repro.__version__


def test_packages_and_requirements():
    kwargs = json.loads(_run("-c", _CAPTURE))
    assert kwargs["package_dir"] == {"": "src"}
    assert {"repro", "repro.engine", "repro.sim"} <= set(kwargs["packages"])
    assert kwargs["install_requires"] == ["numpy"]
