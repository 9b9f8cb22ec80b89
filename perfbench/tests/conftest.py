"""Import paths and environment hygiene for the benchmark's own tests.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))


@pytest.fixture(autouse=True)
def _restore_environment():
    """The harness rewrites ``REPRO_*`` variables; undo that per test."""
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


@pytest.fixture
def state(tmp_path, monkeypatch):
    """Point the harness's run-time state at a throwaway directory."""
    import harness

    monkeypatch.setattr(harness, "STATE", tmp_path / "state")
    return tmp_path / "state"
