"""Integration: the telemetry fabric against real runs.

The ISSUE's acceptance criteria, at CI scale: telemetry never perturbs
results (byte-identical output with the fabric on), a chaos run's
merged timeline shows the injected worker crash / respawn / retry
backoff as distinct records whose Perfetto export validates, and a
quarantined campaign is visible through the live progress view.
"""

import json

from repro.engine import (
    SimJob,
    normal_workload_specs,
    result_to_dict,
    run_jobs,
)
from repro.engine.supervisor import RetryPolicy
from repro.faults import FAULT_PLAN_ENV
from repro.telemetry import merge_events, summarize_events, validate_perfetto
from repro.telemetry.perfetto import export_perfetto

TINY = 0.1


def _tiny_jobs(count=3):
    specs = normal_workload_specs(scale=TINY, num_cores=2)
    jobs = [
        SimJob(workload=specs["fft"]),
        SimJob(workload=specs["radix"]),
        SimJob(workload=specs["fft"], scheme="mithril", flip_th=6_250),
    ]
    return jobs[:count]


def _fast_policy(max_retries=2):
    return RetryPolicy(max_retries=max_retries, backoff_base_s=0.05,
                       backoff_cap_s=0.05, jitter=0.0)


def _dumps(results):
    return json.dumps(
        [result_to_dict(r) for r in results], sort_keys=True
    )


class TestNonPerturbation:
    def test_serial_results_identical_with_telemetry_on(
        self, monkeypatch, tmp_path
    ):
        jobs = _tiny_jobs(2)
        dark = run_jobs(jobs, use_cache=False)
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "tel"))
        lit = run_jobs(jobs, use_cache=False)
        assert _dumps(dark) == _dumps(lit)
        summary = summarize_events(merge_events(tmp_path / "tel"))
        assert summary["kinds"].get("run_jobs.done") == 1
        assert summary["kinds"].get("job.ok") == 2
        assert "job.execute" in summary["span_seconds"]

    def test_supervised_results_identical_with_telemetry_on(
        self, monkeypatch, tmp_path
    ):
        jobs = _tiny_jobs(3)
        dark = run_jobs(jobs, n_jobs=2, use_cache=False)
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "tel"))
        lit = run_jobs(jobs, n_jobs=2, use_cache=False)
        assert _dumps(dark) == _dumps(lit)
        # supervisor + at least one worker wrote their own streams
        summary = summarize_events(merge_events(tmp_path / "tel"))
        assert len(summary["processes"]) >= 2


class TestSpanParents:
    def test_job_spans_name_their_batch_across_pool_reuse(
        self, monkeypatch, tmp_path
    ):
        """Workers outlive batches: every worker ``job.execute`` span
        carries the id of the ``supervisor.batch`` that leased it, even
        in a later batch on the same pool, and each job's workload
        materialization is its own ``job.materialize`` span."""
        from repro.engine.supervisor import SupervisedPool

        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "tel"))
        jobs = _tiny_jobs(3)
        with SupervisedPool(2) as pool:
            run_jobs(jobs[:2], use_cache=False, pool=pool)
            run_jobs(jobs[2:], use_cache=False, pool=pool)
        spans = [
            event for event in merge_events(tmp_path / "tel")
            if event.get("kind") == "span"
        ]
        batches = [s["attrs"]["batch"] for s in spans
                   if s["name"] == "supervisor.batch"]
        assert len(batches) == 2 and len(set(batches)) == 2
        executed = [s["attrs"]["batch"] for s in spans
                    if s["name"] == "job.execute"]
        assert sorted(executed) == sorted(
            [batches[0]] * 2 + [batches[1]]
        )
        assert sum(s["name"] == "job.materialize" for s in spans) == 3


class TestChaosTimeline:
    def test_crash_respawn_and_backoff_are_distinct_records(
        self, monkeypatch, tmp_path
    ):
        """An injected worker crash must be legible from the merged
        timeline alone: the crash, the replacement spawn, the retry
        with its backoff window, and the lease history of the dead
        worker (on the dead worker's own track).  Two jobs, so the
        supervised pool actually engages (one job collapses to the
        serial path)."""
        jobs = _tiny_jobs(2)
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
            "state_dir": str(tmp_path / "fault-state"),
            "faults": [
                {"site": "worker.execute", "kind": "crash", "times": 1},
            ],
        }))
        tel_dir = tmp_path / "tel"
        monkeypatch.setenv("REPRO_TELEMETRY", str(tel_dir))
        results = run_jobs(jobs, n_jobs=2, use_cache=False,
                           retry_policy=_fast_policy())
        assert all(r is not None for r in results)
        assert run_jobs.last_stats.retried == 1

        merged = merge_events(tel_dir)
        kinds = summarize_events(merged)["kinds"]
        assert kinds.get("worker.crash") == 1
        assert kinds.get("job.retry") == 1
        assert kinds.get("worker.spawn", 0) >= 3  # 2 initial + respawn

        crash = next(r for r in merged if r["kind"] == "worker.crash")
        respawn = next(
            r for r in merged
            if r["kind"] == "worker.spawn" and "replaces" in r
        )
        assert respawn["replaces"] == crash["tid"]

        spans = [r for r in merged if r["kind"] == "span"]
        names = {s["name"] for s in spans}
        assert {"lease", "retry.backoff", "job.execute"} <= names
        # the crashed lease rides the dead worker's track
        crashed_lease = next(
            s for s in spans
            if s["name"] == "lease"
            and s.get("attrs", {}).get("result") == "crash"
        )
        assert crashed_lease["tid"] == crash["tid"]
        assert crashed_lease["pid"] != crash["tid"]  # supervisor wrote it

        payload = export_perfetto(tel_dir)
        assert validate_perfetto(payload) == []
        exported = {e["name"] for e in payload["traceEvents"]}
        assert {"worker.crash", "retry.backoff", "lease"} <= exported
        lease_tracks = {
            e["tid"] for e in payload["traceEvents"]
            if e["name"] == "lease"
        }
        assert crash["tid"] in lease_tracks


class TestCampaignProgress:
    def test_quarantine_visible_through_follow(
        self, monkeypatch, tmp_path
    ):
        """A poisoned campaign point surfaces everywhere the operator
        looks: the job.quarantine / campaign.done events, the progress
        snapshot, and the formatted --follow line."""
        import io

        from repro.campaigns import (
            CampaignSpec,
            ExperimentSpec,
            plan_campaign,
            run_campaign,
        )
        from repro.telemetry.progress import (
            campaign_progress,
            follow_campaign,
        )

        spec = CampaignSpec(
            name="telemetry-chaos",
            experiments=[
                ExperimentSpec(
                    name="f11",
                    kind="fig11",
                    params=dict(
                        scale=0.05, flip_thresholds=[6_250],
                        schemes=["mithril"], attack_seeds=[31],
                    ),
                )
            ],
        )
        poison = sorted(plan_campaign(spec).jobs)[0]
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
            "faults": [{"site": "worker.execute", "kind": "error",
                        "match": poison, "times": None}],
        }))
        tel_dir = tmp_path / "tel"
        monkeypatch.setenv("REPRO_TELEMETRY", str(tel_dir))
        result = run_campaign(spec, max_retries=1)
        assert set(result.quarantined) == {poison}

        kinds = summarize_events(merge_events(tel_dir))["kinds"]
        assert kinds.get("job.quarantine") == 1
        assert kinds.get("campaign.start") == 1
        done = next(
            r for r in merge_events(tel_dir)
            if r["kind"] == "campaign.done"
        )
        assert done["quarantined"] == 1

        snap = campaign_progress(spec.name, telemetry_dir=tel_dir)
        assert snap["quarantined"] == 1
        assert snap["remaining"] == 0
        assert snap["status"] == "quarantined"

        out = io.StringIO()
        final = follow_campaign(
            spec.name, telemetry_dir=tel_dir, interval=0.0,
            out=out, sleep=lambda _s: None,
        )
        assert final["quarantined"] == 1
        assert "quarantined 1" in out.getvalue()
