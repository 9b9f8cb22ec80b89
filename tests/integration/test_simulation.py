"""Integration: end-to-end system simulation sanity and shape checks."""

import dataclasses

import pytest

from repro.core.mithril import MithrilScheme
from repro.mitigations.blockhammer import BlockHammerScheme
from repro.mitigations.graphene import GrapheneScheme
from repro.mitigations.parfm import ParfmScheme
from repro.params import DEFAULT_CONFIG
from repro.sim.system import SimulatedSystem, simulate
from repro.workloads.spec_like import mix_blend, mix_high
from repro.workloads.synthetic import streaming_sweep_trace
from repro.workloads.attacks import double_sided_trace


NUM_CORES = 4
REQUESTS = 1200
BANKS = 16


@pytest.fixture(scope="module")
def traces():
    return mix_high(num_cores=NUM_CORES, num_requests=REQUESTS,
                    num_banks=BANKS, seed=17)


@pytest.fixture(scope="module")
def baseline(traces):
    return simulate(traces, flip_th=6_250)


class TestBaselineRun:
    def test_all_requests_complete(self, traces, baseline):
        total = sum(len(t) for t in traces)
        assert baseline.row_hits + baseline.row_misses == total

    def test_positive_ipc(self, baseline):
        assert baseline.aggregate_ipc > 0

    def test_acts_at_most_accesses(self, baseline):
        assert baseline.acts <= baseline.row_hits + baseline.row_misses

    def test_refresh_happened(self, baseline):
        assert baseline.energy.auto_refreshes > 0

    def test_system_runs_once(self, traces):
        system = SimulatedSystem(traces)
        system.run()
        with pytest.raises(RuntimeError):
            system.run()

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            simulate([])


class TestMithrilOverhead:
    def test_small_perf_overhead(self, traces, baseline):
        result = simulate(
            traces,
            scheme_factory=lambda: MithrilScheme(
                n_entries=256, rfm_th=128, adaptive_th=200
            ),
            rfm_th=128,
            flip_th=6_250,
        )
        rel = result.relative_performance(baseline)
        assert 95.0 < rel <= 101.0  # paper: <2% loss at FlipTH=6.25K

    def test_mithril_plus_lower_overhead_than_mithril(self, traces, baseline):
        mithril = simulate(
            traces,
            scheme_factory=lambda: MithrilScheme(
                n_entries=1130, rfm_th=32, adaptive_th=200
            ),
            rfm_th=32,
            flip_th=1_500,
        )
        plus = simulate(
            traces,
            scheme_factory=lambda: MithrilScheme(
                n_entries=1130, rfm_th=32, adaptive_th=200, plus=True
            ),
            rfm_th=32,
            flip_th=1_500,
        )
        assert plus.rfm_elided > 0
        assert plus.rfm_commands < mithril.rfm_commands
        # Mithril+ removes almost all RFM bank stalls.
        assert plus.rfm_stall_cycles < mithril.rfm_stall_cycles * 0.2

    def test_adaptive_skips_on_benign(self, traces):
        result = simulate(
            traces,
            scheme_factory=lambda: MithrilScheme(
                n_entries=256, rfm_th=128, adaptive_th=200
            ),
            rfm_th=128,
            flip_th=6_250,
        )
        assert result.rfms_skipped >= result.rfm_commands * 0.9

    def test_no_flips_with_protection(self, traces):
        result = simulate(
            traces,
            scheme_factory=lambda: MithrilScheme(n_entries=256, rfm_th=128),
            rfm_th=128,
            flip_th=6_250,
        )
        assert result.flips == 0


class TestSchedulerAndPolicyVariants:
    def test_frfcfs_runs(self, traces):
        config = DEFAULT_CONFIG.__class__(scheduler="frfcfs")
        result = simulate(traces, config=config)
        assert result.aggregate_ipc > 0

    def test_closed_page_policy_more_acts(self, traces):
        open_result = simulate(
            traces, config=DEFAULT_CONFIG.__class__(page_policy="open")
        )
        closed_result = simulate(
            traces, config=DEFAULT_CONFIG.__class__(page_policy="closed")
        )
        assert closed_result.acts >= open_result.acts


class TestAttackScenarios:
    def test_attacker_with_benign_cores(self):
        benign = mix_blend(num_cores=3, num_requests=REQUESTS,
                           num_banks=BANKS, seed=3)
        attacker = double_sided_trace(victim_row=5_000, bank_index=0,
                                      total_requests=REQUESTS * 2)
        result = simulate(
            benign + [attacker],
            scheme_factory=lambda: MithrilScheme(n_entries=525, rfm_th=64),
            rfm_th=64,
            flip_th=3_125,
        )
        assert result.flips == 0
        assert result.preventive_refresh_rows > 0

    def test_unprotected_attack_flips(self):
        attacker = double_sided_trace(victim_row=5_000, bank_index=0,
                                      total_requests=30_000)
        result = simulate([attacker], flip_th=1_500, mlp=8)
        assert result.flips > 0


class TestBlockHammerBehaviour:
    def test_throttles_attacker(self):
        attacker = double_sided_trace(victim_row=5_000, bank_index=0,
                                      total_requests=3_000)
        result = simulate(
            [attacker],
            scheme_factory=lambda: BlockHammerScheme(flip_th=1_500),
            flip_th=1_500,
        )
        assert result.throttle_events > 0
        assert result.flips == 0

    def test_throttling_slows_attacker(self):
        attacker = double_sided_trace(victim_row=5_000, bank_index=0,
                                      total_requests=3_000)
        base = simulate([attacker], flip_th=1_500)
        throttled = simulate(
            [attacker],
            scheme_factory=lambda: BlockHammerScheme(flip_th=1_500),
            flip_th=1_500,
        )
        assert throttled.total_cycles > base.total_cycles * 2


class TestArrSchemesInSimulation:
    def test_graphene_overhead_small_on_benign(self, traces, baseline):
        result = simulate(
            traces,
            scheme_factory=lambda: GrapheneScheme(flip_th=6_250),
            flip_th=6_250,
        )
        assert result.relative_performance(baseline) > 97.0

    def test_parfm_refreshes_every_rfm(self, traces):
        result = simulate(
            traces,
            scheme_factory=lambda: ParfmScheme(),
            rfm_th=68,
            flip_th=6_250,
        )
        assert result.rfm_commands > 0
        # PARFM refreshes victims on (almost) every RFM command
        assert result.preventive_refresh_rows >= result.rfm_commands


class TestInputTracesUnchanged:
    """``simulate()`` leaves its input traces exactly as it found them
    — same entry objects, same length, same order — on every backend,
    including turbo's streamed decode and recycled request pool, for
    every catalog scheme.  The executor's workload memo hands one
    build to many jobs on the strength of this."""

    @pytest.mark.parametrize(
        "backend, chunk",
        [("scalar", None), ("turbo", None), ("turbo", "64")],
    )
    @pytest.mark.parametrize("scheme", [
        "none", "mithril", "mithril+", "parfm", "blockhammer", "para",
        "cbt", "twice", "graphene",
    ])
    def test_traces_unchanged_after_run(
        self, scheme, backend, chunk, monkeypatch
    ):
        if chunk is not None:
            monkeypatch.setenv("REPRO_SOA_CHUNK", chunk)
        from repro.engine.executor import materialize_job
        from repro.engine.job import SimJob, WorkloadSpec

        spec = WorkloadSpec.make("mix-high", scale=0.2, seed=11)
        job = SimJob(workload=spec, scheme=scheme, flip_th=2500, scale=0.2)
        traces, factory, config, rfm_th = materialize_job(job)

        def snapshot():
            return [
                (trace.name, trace.entries, list(trace.entries),
                 [dataclasses.astuple(entry) for entry in trace.entries])
                for trace in traces
            ]

        before = snapshot()
        simulate(
            traces, scheme_factory=factory, config=config, rfm_th=rfm_th,
            flip_th=job.flip_th, mlp=job.mlp, backend=backend,
        )
        for (name, entries, objects, fields), now in zip(before, snapshot()):
            assert now[0] == name
            assert now[1] is entries
            assert len(now[2]) == len(objects)
            assert all(a is b for a, b in zip(now[2], objects))
            assert now[3] == fields
