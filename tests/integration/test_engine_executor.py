"""Integration: the sweep executor (dedup, cache, parallel determinism).

Pins down the engine's contract: a job batch yields the same
byte-identical results whether it runs serially, across worker
processes, or from a warm cache — and the stats counter proves the
warm path never calls ``simulate()``.
"""

import json
from collections import OrderedDict

import pytest

from repro.engine import (
    SimJob,
    WorkloadSpec,
    attack_workload_spec,
    build_workload,
    execute_job,
    normal_workload_specs,
    result_to_dict,
    run_jobs,
    workload_kinds,
)

TINY = 0.1


def _tiny_jobs():
    specs = normal_workload_specs(scale=TINY, num_cores=2)
    return [
        SimJob(workload=specs["fft"]),
        SimJob(workload=specs["radix"]),
        SimJob(workload=specs["fft"], scheme="mithril", flip_th=6_250),
        SimJob(workload=specs["fft"], scheme="graphene", flip_th=6_250),
    ]


def _dumps(results):
    return json.dumps([result_to_dict(r) for r in results], sort_keys=True)


class TestCatalog:
    def test_registered_kinds(self):
        kinds = workload_kinds()
        for kind in ("mix-high", "mix-blend", "fft", "radix", "pagerank",
                     "attack"):
            assert kind in kinds

    def test_build_workload_is_deterministic(self):
        spec = WorkloadSpec.make("fft", scale=TINY, num_cores=2, seed=21)
        a = build_workload(spec)
        b = build_workload(spec)
        assert [t.entries for t in a] == [t.entries for t in b]

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            build_workload(WorkloadSpec.make("no-such-kind"))

    def test_attack_spec_builds_attacker_plus_benign(self):
        spec = attack_workload_spec(
            "multi-sided", scale=TINY, num_cores=4, flip_th=6_250, seed=31
        )
        traces = build_workload(spec)
        assert len(traces) == 4


class TestExecutor:
    def test_results_align_with_input_order(self):
        jobs = _tiny_jobs()
        results = run_jobs(jobs, use_cache=False)
        assert len(results) == len(jobs)
        assert results[0] == execute_job(jobs[0])
        assert results[2].scheme_name == "MithrilScheme"

    def test_duplicates_simulate_once(self):
        jobs = _tiny_jobs()
        results = run_jobs([jobs[0], jobs[0], jobs[1]], use_cache=False)
        stats = run_jobs.last_stats
        assert stats.total == 3
        assert stats.unique == 2
        assert stats.simulated == 2
        assert results[0] == results[1]

    def test_parallel_results_are_byte_identical_to_serial(self):
        jobs = _tiny_jobs()
        serial = run_jobs(jobs, n_jobs=1, use_cache=False)
        parallel = run_jobs(jobs, n_jobs=4, use_cache=False)
        assert run_jobs.last_stats.n_jobs == 4
        assert _dumps(serial) == _dumps(parallel)

    def test_cache_hits_skip_simulation_and_match(self, tmp_path):
        jobs = _tiny_jobs()
        cold = run_jobs(jobs, n_jobs=1, cache_dir=tmp_path)
        stats = run_jobs.last_stats
        assert stats.simulated == len(jobs)
        assert stats.cache_hits == 0
        assert stats.cache_misses == len(jobs)
        assert stats.cache_quarantined == 0
        warm = run_jobs(jobs, n_jobs=4, cache_dir=tmp_path)
        stats = run_jobs.last_stats
        assert stats.simulated == 0
        assert stats.cache_hits == len(jobs)
        assert stats.cache_misses == 0
        assert stats.cache_quarantined == 0
        assert _dumps(cold) == _dumps(warm)

    def test_stats_carry_timing_breakdown(self, tmp_path):
        jobs = _tiny_jobs()[:1]
        run_jobs(jobs, cache_dir=tmp_path)
        timing = run_jobs.last_stats.timing_breakdown
        assert set(timing) >= {"cache_lookup", "execute", "cache_put"}
        assert all(v >= 0.0 for v in timing.values())
        run_jobs(jobs, cache_dir=tmp_path)
        warm_timing = run_jobs.last_stats.timing_breakdown
        assert "execute" not in warm_timing  # nothing simulated

    def test_corrupt_entry_counts_as_quarantined(self, tmp_path):
        from repro.engine.cache import ResultCache

        jobs = _tiny_jobs()[:1]
        run_jobs(jobs, cache_dir=tmp_path)
        entry = ResultCache(tmp_path).path_for(jobs[0])
        entry.write_text(entry.read_text()[: entry.stat().st_size // 2])
        run_jobs(jobs, cache_dir=tmp_path)
        stats = run_jobs.last_stats
        assert stats.cache_quarantined == 1
        assert stats.cache_hits == 0
        assert stats.simulated == 1

    def test_no_cache_ignores_existing_entries(self, tmp_path):
        jobs = _tiny_jobs()[:1]
        run_jobs(jobs, cache_dir=tmp_path)
        run_jobs(jobs, use_cache=False, cache_dir=tmp_path)
        assert run_jobs.last_stats.simulated == 1


class TestWorkloadMemo:
    """``execute_job`` builds a workload once per process while it is
    memoized; the paths that time or profile ``simulate()`` still get
    freshly built traces."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import repro.engine.executor as executor

        calls = []

        def counting_build(spec):
            calls.append(spec)
            return build_workload(spec)

        monkeypatch.setattr(executor, "build_workload", counting_build)
        monkeypatch.setattr(executor, "_workload_memo", OrderedDict())
        return calls

    def test_jobs_sharing_a_spec_build_once(self, builds):
        jobs = _tiny_jobs()
        fft_jobs = [jobs[0], jobs[2]]
        assert fft_jobs[0].workload == fft_jobs[1].workload
        results = [execute_job(job) for job in fft_jobs]
        assert builds == [fft_jobs[0].workload]
        assert results[0] == run_jobs(fft_jobs[:1], use_cache=False)[0]

    def test_third_spec_evicts_the_oldest(self, builds):
        import repro.engine.executor as executor

        specs = [
            WorkloadSpec.make("fft", scale=TINY, num_cores=2, seed=seed)
            for seed in (21, 22, 23)
        ]
        for spec in specs:
            execute_job(SimJob(workload=spec, max_cycles=2_000))
        assert executor.WORKLOAD_MEMO_SIZE == 2
        assert list(executor._workload_memo) == specs[1:]
        execute_job(SimJob(workload=specs[0], max_cycles=2_000))
        assert builds == specs + specs[:1]
        execute_job(SimJob(workload=specs[2], max_cycles=2_000))
        assert len(builds) == 4

    def test_materialize_job_builds_fresh_traces(self, builds):
        from repro.engine.executor import materialize_job

        job = _tiny_jobs()[0]
        execute_job(job)
        first, *_ = materialize_job(job)
        second, *_ = materialize_job(job)
        assert len(builds) == 3
        assert first is not second
        assert [t.entries for t in first] == [t.entries for t in second]

    def test_speed_bench_and_profile_build_every_job(self, builds, capsys):
        from repro import cli, speed

        speed.run_preset("tiny")
        assert len(builds) == len(speed._bench_jobs("tiny"))
        assert len(set(builds)) < len(builds)  # a repeated workload
        del builds[:]
        args = ["profile", "--workload", "fft", "--scale", str(TINY),
                "--scheme", "none", "--top", "1"]
        cli.main(args)
        cli.main(args)
        assert len(builds) == 2


class TestDriverDeterminism:
    """The ISSUE acceptance check, at CI-friendly scale."""

    def test_fig10_parallel_equals_serial_with_cache_reuse(
        self, monkeypatch, tmp_path
    ):
        from repro.experiments import fig10

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(
            flip_thresholds=(6_250,), schemes=("mithril",), scale=TINY,
            attack_seeds=(31,),
        )
        serial = fig10.run(n_jobs=1, use_cache=False, **kwargs)
        parallel = fig10.run(n_jobs=4, use_cache=True, **kwargs)
        assert json.dumps(serial) == json.dumps(parallel)
        warm = fig10.run(n_jobs=4, use_cache=True, **kwargs)
        assert run_jobs.last_stats.simulated == 0
        assert json.dumps(serial) == json.dumps(warm)

    def test_fig6_accepts_engine_kwargs(self):
        from repro.experiments import fig6

        rows_serial = fig6.run(
            flip_thresholds=(6_250,), rfm_th_values=(64,), n_jobs=1
        )
        rows_parallel = fig6.run(
            flip_thresholds=(6_250,), rfm_th_values=(64,), n_jobs=4
        )
        assert rows_serial == rows_parallel
