import json

import pytest

import harness
from harness import Workload


def _span(span_id, parent, name, start, end, **attrs):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "run": "r", "pid": 1, "attrs": attrs}


def test_useful_ratio_is_distinct_over_calls(monkeypatch):
    monkeypatch.setattr(harness.os, "getpid", lambda: 1)
    spans = [_span("root", None, "campaigns.run_campaign", 0.0, 10.0)]
    for i, key in enumerate("aaba"):
        spans.append(_span(f"b{i}", "root", "engine.catalog.build_workload",
                           i, i + 0.5, key=key))
    m = harness.layer_metrics(spans, wall=10.0, retried=0)
    assert m["engine.catalog.build_workload.calls"] == 4
    assert m["engine.catalog.build_workload.distinct"] == 2
    assert m["engine.catalog.build_workload.useful_ratio"] == 0.5
    assert m["trace.outer_self_share"] == pytest.approx(0.8)


@pytest.mark.parametrize("campaign, scale", [
    ("paper-scale", 0.25), ("stress-panel", 1.0), ("smoke", 0.1),
])
def test_default_seed_reproduces_builtin_job_hashes(tmp_path, campaign, scale):
    from repro.campaigns import get_campaign, plan_campaign

    def hashes(seed):
        path = tmp_path / f"{seed}.json"
        path.write_text(json.dumps(harness.generated_spec(campaign, seed)))
        return set(plan_campaign(get_campaign(str(path)), scale=scale).jobs)

    builtin = set(plan_campaign(get_campaign(campaign), scale=scale).jobs)
    assert hashes(harness.DEFAULT_SEED) == builtin
    other = hashes(7)
    assert len(other) == len(builtin) and other != builtin
    assert hashes(7) == other


def _smoke_store(tmp_path):
    from repro.campaigns import get_campaign, plan_campaign, run_campaign

    spec = get_campaign("smoke")
    store = tmp_path / "store"
    result = run_campaign(spec, directory=tmp_path / "camp", scale=0.1,
                          cache_dir=store)
    assert result.complete
    return plan_campaign(spec, scale=0.1), store


def test_perturbed_result_fails_the_digest_check(tmp_path, state):
    import dataclasses

    from repro.engine.cache import ResultCache

    harness.isolate_environment()
    plan, store = _smoke_store(tmp_path)
    digest, accesses = harness.store_digest(plan, store)
    assert digest is not None and accesses > 0
    wl = Workload("smoke-cold", "smoke", 0.1, 1, False)
    book = harness.DigestBook(seed=3)
    assert book.check(wl, "store", digest)           # first run records
    assert harness.DigestBook(seed=3).check(wl, "store", digest)

    cache = ResultCache(store)
    job = plan.jobs[sorted(plan.jobs)[0]]
    result = cache.get(job)
    cache.put(job, dataclasses.replace(result, acts=result.acts + 1))
    perturbed, _ = harness.store_digest(plan, store)
    assert perturbed != digest
    assert not harness.DigestBook(seed=3).check(wl, "store", perturbed)


def test_pinned_digest_is_used_for_the_default_seed(tmp_path, state,
                                                    monkeypatch):
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"smoke@0.1": {"store": "aa", "report": "bb"}}))
    monkeypatch.setattr(harness, "PINNED_DIGESTS", pinned)
    wl = Workload("smoke-cold", "smoke", 0.1, 1, False)
    book = harness.DigestBook(seed=harness.DEFAULT_SEED)
    assert book.check(wl, "store", "aa")
    assert not book.check(wl, "report", "cc")
    assert not (state / "digests.json").exists()


@pytest.mark.parametrize("warm", [False, True])
def test_harness_end_to_end_on_smoke(state, monkeypatch, warm):
    smoke = Workload("smoke-warm" if warm else "smoke-cold", "smoke", 0.1,
                     1, warm)
    monkeypatch.setitem(harness.WORKLOADS, smoke.name, smoke)
    monkeypatch.setattr(harness, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(harness, "MIN_REPLAYS", 2)

    plain = harness.run_workload(smoke, seed=5, seconds=0.0, trace=False)
    result = plain["result"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == (54 if warm else 27)
    metrics = result["metrics"]
    assert set(metrics) == {"setup_s", "wall_s", "sim_accesses_per_s",
                            "peak_rss_mb", "ok_share"}
    assert all(set(body) == {"value", "unit"} for body in metrics.values())
    assert all(body["value"] > 0 for body in metrics.values())
    assert metrics["ok_share"]["value"] == 1.0
    record = plain["record"]
    assert {"commit", "code_version", "backend", "python", "nproc"} <= set(record)
    assert record["backend"] == "scalar"

    traced = harness.run_workload(smoke, seed=5, seconds=0.0, trace=True)
    result = traced["result"]
    assert result["correct"] is True
    # A cold traced run reuses the recorded untraced wall time, so it
    # runs only the traced campaign.
    assert result["attempted"] == (54 if warm else 27)
    metrics = result["metrics"]
    assert metrics["engine.catalog.build_workload.calls"]["value"] == (
        0 if warm else 27)
    assert metrics["engine.cache.hit_ratio"]["value"] == (
        1.0 if warm else 0.0)
    assert metrics["trace.outer_self_share"]["value"] < 0.1
    assert not list((state / "runs").iterdir())
