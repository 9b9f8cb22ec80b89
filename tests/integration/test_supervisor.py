"""Integration: the supervised worker pool and the retrying executor.

Every failure mode the supervisor exists for is provoked here through
the deterministic fault harness (docs/FAULTS.md): ordinary exceptions
retry with backoff, killed workers are detected and replaced, hung
workers are killed at their lease deadline, and poison jobs end up as
structured :class:`JobFailure` records — never as an aborted batch or
an opaque pool error.
"""

import json
import logging
import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.engine import (
    JobExecutionError,
    SimJob,
    execute_job,
    normal_workload_specs,
    result_to_dict,
    run_jobs,
)
from repro.engine.supervisor import RetryPolicy, SupervisedPool
from repro.faults import FAULT_PLAN_ENV

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
    return RetryPolicy(max_retries=max_retries, backoff_base_s=0.0,
                       backoff_cap_s=0.0, jitter=0.0)


def _activate(monkeypatch, tmp_path, rules):
    monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps({
        "state_dir": str(tmp_path / "fault-state"),
        "faults": rules,
    }))


def _dumps(results):
    return json.dumps(
        [result_to_dict(r) for r in results], sort_keys=True
    )


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.3,
                             jitter=0.0)
        delays = [policy.delay("ab12cd", n) for n in (1, 2, 3, 4)]
        assert delays == [
            pytest.approx(0.1), pytest.approx(0.2),
            pytest.approx(0.3), pytest.approx(0.3),
        ]

    def test_jitter_is_deterministic_per_hash(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.5)
        a1 = policy.delay("aaaa1111", 1)
        a2 = policy.delay("aaaa1111", 1)
        b = policy.delay("bbbb2222", 1)
        assert a1 == a2
        assert a1 != b


class TestRetries:
    def test_transient_error_retries_to_success(
        self, monkeypatch, tmp_path
    ):
        job = _tiny_jobs(1)[0]
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "error", "times": 1},
        ])
        results = run_jobs([job], use_cache=False,
                           retry_policy=_fast_policy())
        stats = run_jobs.last_stats
        assert results[0] is not None
        assert stats.retried == 1
        assert stats.failed == 0
        assert stats.simulated == 1

    def test_worker_crash_retries_to_success(
        self, monkeypatch, tmp_path
    ):
        """A killed worker (os._exit inside the child) is detected,
        the worker replaced, and the job retried — the pool survives
        what broke ProcessPoolExecutor."""
        job = _tiny_jobs(1)[0]
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "crash", "times": 1},
        ])
        results = run_jobs([job], n_jobs=2, use_cache=False,
                           retry_policy=_fast_policy())
        assert results[0] is not None
        assert run_jobs.last_stats.retried == 1

    def test_hung_worker_is_killed_at_the_lease_deadline(
        self, monkeypatch, tmp_path
    ):
        job = _tiny_jobs(1)[0]
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "hang",
             "seconds": 600, "times": 1},
        ])
        results = run_jobs([job], use_cache=False, job_timeout=1.5,
                           retry_policy=_fast_policy())
        assert results[0] is not None
        stats = run_jobs.last_stats
        assert stats.retried == 1
        assert any(
            "timeout" not in (f.reason or "") for f in stats.failures
        ) or not stats.failures


class TestQuarantine:
    def test_poison_job_raises_structured_error(
        self, monkeypatch, tmp_path
    ):
        jobs = _tiny_jobs(2)
        poison = jobs[0].job_hash()
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "crash",
             "match": poison, "times": None},
        ])
        with pytest.raises(JobExecutionError) as excinfo:
            run_jobs(jobs, n_jobs=2, use_cache=False,
                     retry_policy=_fast_policy(max_retries=1))
        failures = excinfo.value.failures
        assert [f.job_hash for f in failures] == [poison]
        failure = failures[0]
        assert failure.reason == "worker-crash"
        assert failure.attempts == 2
        assert failure.scheme == jobs[0].scheme
        assert failure.workload == jobs[0].workload.kind
        assert len(failure.events) == 2
        # structured stats survive the raise
        assert run_jobs.last_stats.failed == 1

    def test_on_failure_skip_returns_none_slots(
        self, monkeypatch, tmp_path
    ):
        jobs = _tiny_jobs(2)
        poison = jobs[0].job_hash()
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "error",
             "match": poison, "times": None},
        ])
        results = run_jobs(jobs, use_cache=False, on_failure="skip",
                           retry_policy=_fast_policy(max_retries=1))
        assert results[0] is None
        assert results[1] is not None
        assert run_jobs.last_stats.failed == 1

    def test_healthy_jobs_complete_and_cache_despite_poison(
        self, monkeypatch, tmp_path
    ):
        """The batch's survivors are cached even when a sibling job
        is quarantined — a retry run only pays for the poison job."""
        jobs = _tiny_jobs(3)
        poison = jobs[0].job_hash()
        cache_dir = tmp_path / "cache"
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "error",
             "match": poison, "times": None},
        ])
        run_jobs(jobs, n_jobs=2, cache_dir=cache_dir, on_failure="skip",
                 retry_policy=_fast_policy(max_retries=0))
        monkeypatch.delenv(FAULT_PLAN_ENV)
        results = run_jobs(jobs, cache_dir=cache_dir)
        stats = run_jobs.last_stats
        assert all(r is not None for r in results)
        assert stats.cache_hits == 2
        assert stats.simulated == 1

    def test_invalid_on_failure_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([], on_failure="explode")

    def test_invalid_run_limits_rejected(self):
        """A non-positive lease or a negative retry budget would kill
        every worker and quarantine every job; refuse it up front."""
        for kwargs in ({"job_timeout": 0}, {"job_timeout": -1.0},
                       {"max_retries": -1}):
            with pytest.raises(ValueError):
                run_jobs([], **kwargs)


class TestDeterminism:
    def test_supervised_results_byte_identical_to_serial(self):
        jobs = _tiny_jobs(3)
        serial = run_jobs(jobs, n_jobs=1, use_cache=False)
        supervised = run_jobs(jobs, n_jobs=3, use_cache=False)
        assert _dumps(serial) == _dumps(supervised)

    def test_results_identical_through_crash_retries(
        self, monkeypatch, tmp_path
    ):
        """Faulted-then-retried execution must produce byte-identical
        results to an undisturbed run: retries re-enter the same
        deterministic simulate path."""
        jobs = _tiny_jobs(3)
        clean = run_jobs(jobs, use_cache=False)
        _activate(monkeypatch, tmp_path, [
            {"site": "worker.execute", "kind": "crash", "times": 2},
        ])
        faulted = run_jobs(jobs, n_jobs=2, use_cache=False,
                           retry_policy=_fast_policy())
        assert run_jobs.last_stats.retried == 2
        assert _dumps(clean) == _dumps(faulted)


def _items(jobs):
    return [(job.job_hash(), job) for job in jobs]


class TestPoolReuse:
    """One pool serves many ``run()`` calls (a campaign's batches)."""

    def test_workers_outlive_a_run(self):
        items = _items(_tiny_jobs(3))
        with SupervisedPool(2, policy=_fast_policy()) as pool:
            first = pool.run(items[:2])
            pids = [w.proc.pid for w in pool._workers]
            second = pool.run(items[2:])
            assert [w.proc.pid for w in pool._workers] == pids
            assert first.retried == second.retried == 0
        assert pool._workers == []
        assert {**first.results, **second.results} == {
            job_hash: execute_job(job) for job_hash, job in items
        }

    def test_stale_results_are_ignored(self, caplog):
        """Late answers from leases the supervisor gave up on — a dead
        worker's, or a live worker's earlier attempt — neither finish
        nor fail the job now leased under the same hash."""
        (h0, j0), (h1, j1) = _items(_tiny_jobs(2))
        with SupervisedPool(1, policy=_fast_policy()) as pool:
            pool.run([(h0, j0)])
            live = pool._workers[0].proc.pid
            dead = os.getpid()  # never a worker
            pool._result_queue.put(("ok", dead, 1, h1, "bogus", None))
            pool._result_queue.put(("err", live, 0, h1, "boom", "tb"))
            deadline = time.monotonic() + 5.0
            while pool._result_queue.empty():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with caplog.at_level(logging.INFO, "repro.engine.supervisor"):
                outcome = pool.run([(h1, j1)])
            assert pool._result_queue.empty()
        assert outcome.results == {h1: execute_job(j1)}
        assert outcome.retried == 0
        assert outcome.failures == {}
        stale = [r for r in caplog.records if "stale" in r.getMessage()]
        assert len(stale) == 2

    def test_dead_idle_worker_is_replaced_without_a_retry(self):
        (h0, j0), (h1, j1) = _items(_tiny_jobs(2))
        with SupervisedPool(1, policy=_fast_policy()) as pool:
            pool.run([(h0, j0)])
            victim = pool._workers[0].proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            outcome = pool.run([(h1, j1)])
            assert pool._workers[0].proc.pid != victim.pid
        assert outcome.retried == 0
        assert outcome.failures == {}
        assert set(outcome.results) == {h1}

    def test_affinity_prefers_own_then_unheld_then_earliest(self):
        jobs = {
            job_hash: SimpleNamespace(workload=workload)
            for job_hash, workload in (
                ("a1", "A"), ("b1", "B"), ("c1", "C"), ("a2", "A"),
            )
        }
        me = SimpleNamespace(workload="A")
        other = SimpleNamespace(workload="B")
        pool = SupervisedPool(2)
        pool._workers = [me, other]
        ready = [(0.0, 0, "b1"), (0.0, 1, "c1"), (0.0, 2, "a2")]
        assert pool._pick(me, ready, 1.0, jobs)[2] == "a2"
        me.workload = "D"
        assert pool._pick(me, ready, 1.0, jobs)[2] == "c1"
        other.workload = "A"
        held_only = [(0.5, 4, "a1"), (0.0, 5, "a2")]
        assert pool._pick(me, held_only, 1.0, jobs)[2] == "a2"
        assert pool._pick(me, [(2.0, 3, "a1")], 1.0, jobs) is None
