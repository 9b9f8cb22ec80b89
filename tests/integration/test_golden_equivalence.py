"""Optimized simulator == seed simulator, byte for byte — per backend.

The golden file (tests/golden/simulation_results.json) was captured
from the pre-optimization simulator.  Every hot-path change — the
zero-alloc event loop, the memoized schedulers, the array-backed
sketches, the turbo backend's fused drain — must leave each shipped
scheme's `SimulationResult` exactly identical on every workload here:
the comparison happens on canonical JSON, so even a float that differs
in its last bit fails.  Every record runs under **both** simulation
backends (``turbo`` skips when numpy is absent — there it falls back
to scalar anyway).

If a change is *meant* to alter results, regenerate via
``PYTHONPATH=src python tests/golden/generate_golden.py`` and say so in
the commit message.
"""

import json
from pathlib import Path

import pytest

from repro.engine.cache import result_to_dict
from repro.engine.executor import execute_job
from repro.engine.job import SimJob
from repro.sim.backend import BACKEND_ENV

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "golden" / "simulation_results.json"
)


def _golden_records():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


RECORDS = _golden_records()


def _ids():
    return [
        f"{r['job']['workload']['kind']}-{r['job']['scheme']}"
        for r in RECORDS
    ]


@pytest.fixture(params=["scalar", "turbo"])
def backend(request, monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, request.param)
    return request.param


@pytest.mark.parametrize("record", RECORDS, ids=_ids())
def test_result_matches_golden(record, backend):
    job = SimJob.from_canonical(record["job"])
    result = execute_job(job)
    assert _canonical_json(result_to_dict(result)) == _canonical_json(
        record["result"]
    )


def test_golden_covers_every_required_scheme():
    """The acceptance floor: 5 scheme families x >= 3 workloads."""
    schemes = {r["job"]["scheme"] for r in RECORDS}
    workloads = {r["job"]["workload"]["kind"] for r in RECORDS}
    assert {"none", "graphene", "mithril", "mithril+", "blockhammer"} <= schemes
    assert len(workloads) >= 3
