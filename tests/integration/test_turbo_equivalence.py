"""Scalar and turbo backends agree beyond the golden matrix.

The golden suite pins the default configuration (BLISS scheduler,
minimalist-open pages).  This battery drives the *other* fused-path
branches — FR-FCFS scheduling, open/closed page policies, ARR schemes
through the generic tracker call, RFM issue, non-default hammer blast
ranges (which drop the hammer fast path), and non-fusable component
subclasses (which drop the whole fused drain) — asserting exact
``SimulationResult`` equality between backends every time.
"""

import dataclasses

import pytest

from repro.engine.executor import materialize_job
from repro.engine.job import SimJob, WorkloadSpec
from repro.mc.scheduler import BlissScheduler
from repro.sim.system import SimulatedSystem, make_system
from repro.sim.turbo import TurboSimulatedSystem


def _run_both(job, expect_fused=True):
    traces, factory, config, rfm_th = materialize_job(job)
    results = {}
    for backend in ("scalar", "turbo"):
        system = make_system(
            traces,
            scheme_factory=factory,
            config=config,
            rfm_th=rfm_th,
            flip_th=job.flip_th,
            mlp=job.mlp,
            track_hammer=job.track_hammer,
            backend=backend,
        )
        if backend == "turbo":
            assert isinstance(system, TurboSimulatedSystem)
            assert system._fused is expect_fused
        results[backend] = system.run(max_cycles=job.max_cycles)
    assert results["scalar"] == results["turbo"]
    return results["scalar"]


def _job(scheme, workload="mix-high", seed=11, **kwargs):
    spec = WorkloadSpec.make(workload, scale=0.2, seed=seed)
    return SimJob(workload=spec, scheme=scheme, flip_th=2500,
                  scale=0.2, **kwargs)


class TestConfigMatrix:
    @pytest.mark.parametrize("scheduler", ["bliss", "frfcfs"])
    @pytest.mark.parametrize(
        "page_policy", ["open", "closed", "minimalist-open"]
    )
    def test_scheduler_page_policy_grid(self, scheduler, page_policy):
        _run_both(
            _job(
                "mithril",
                config_overrides=(
                    ("scheduler", scheduler),
                    ("page_policy", page_policy),
                ),
            )
        )

    @pytest.mark.parametrize(
        "scheme", ["none", "mithril", "mithril+", "graphene",
                   "blockhammer", "twice", "para", "cbt"]
    )
    def test_all_schemes_frfcfs(self, scheme):
        """FR-FCFS exercises the non-BLISS fused branch per scheme."""
        _run_both(
            _job(scheme, config_overrides=(("scheduler", "frfcfs"),))
        )

    @pytest.mark.parametrize(
        "scheme", ["twice", "para", "cbt"]
    )
    def test_arr_schemes_generic_tracker_path(self, scheme):
        """Schemes without an inline specialization use the real call."""
        spec = WorkloadSpec.make(
            "attack", scale=0.2, pattern="multi-sided", seed=31
        )
        _run_both(
            SimJob(workload=spec, scheme=scheme, flip_th=2500, scale=0.2)
        )

    def test_track_hammer_off(self):
        _run_both(_job("mithril", track_hammer=False))

    def test_max_cycles_cutoff(self):
        _run_both(_job("mithril", max_cycles=20_000))


class TestFusabilityFallback:
    def test_subclassed_scheduler_disables_fusion(self):
        class PatchedBliss(BlissScheduler):
            pass

        job = _job("mithril")
        traces, factory, config, rfm_th = materialize_job(job)
        scalar = SimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo._schedulers = [
            PatchedBliss() for _ in turbo._schedulers
        ]
        scalar._schedulers = [
            PatchedBliss() for _ in scalar._schedulers
        ]
        turbo._fused = turbo._snapshot_fusability()
        assert turbo._fused is False  # falls back to scalar handlers
        assert scalar.run() == turbo.run()

    def test_nondefault_blast_weights_drop_hammer_fast_path(self):
        job = _job("mithril")
        traces, factory, config, rfm_th = materialize_job(job)

        def build(cls):
            system = cls(
                traces, scheme_factory=factory, config=config,
                rfm_th=rfm_th, flip_th=job.flip_th,
            )
            for controller in system.banks:
                controller.hammer.blast_weights = (1.0, 0.25)
            return system

        turbo = build(TurboSimulatedSystem)
        turbo._fused = turbo._snapshot_fusability()
        assert turbo._fused is True
        assert not any(turbo._fast_hammer)  # falls back to the call
        assert build(SimulatedSystem).run() == turbo.run()

    def test_instance_patched_scheme_uses_generic_call(self):
        job = _job("mithril")
        traces, factory, config, rfm_th = materialize_job(job)
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        calls = []
        target = turbo.banks[0].scheme
        original = type(target).on_activate

        def spy(row, cycle):
            calls.append(row)
            return original(target, row, cycle)

        target.on_activate = spy
        turbo._fused = turbo._snapshot_fusability()
        assert turbo._fused is True
        from repro.sim.turbo import _ACT_GENERIC, _ACT_MITHRIL

        assert turbo._act_mode[0] == _ACT_GENERIC
        assert all(
            mode == _ACT_MITHRIL for mode in turbo._act_mode[1:]
        )
        scalar = SimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        assert scalar.run() == turbo.run()
        assert calls  # the patched hook really ran

    def test_rerun_refused(self):
        job = _job("none")
        traces, factory, config, rfm_th = materialize_job(job)
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo.run()
        with pytest.raises(RuntimeError, match="only run once"):
            turbo.run()


class TestArenas:
    """Uniform stock schemes (the configurations the deleted cross-bank
    tracker arenas used to cover) and mixed ones run the per-bank
    inline handlers, byte-identical to the scalar backend, and leave
    the same post-run state on the per-bank objects."""

    @pytest.mark.parametrize(
        "scheme", ["none", "mithril", "mithril+", "graphene",
                   "blockhammer", "twice"]
    )
    def test_arena_engagement_and_equality(self, scheme):
        _run_both(_job(scheme))

    def test_mixed_schemes_fused_without_arena(self):
        """Alternating stock schemes: each bank still gets its inline
        specialization (fused), and the result stays exact."""
        from repro.core.mithril import MithrilScheme
        from repro.mitigations.graphene import GrapheneScheme

        job = _job("mithril")
        traces, _factory, config, rfm_th = materialize_job(job)

        def alternating_factory():
            state = {"count": 0}

            def factory():
                state["count"] += 1
                if state["count"] % 2:
                    return MithrilScheme()
                return GrapheneScheme(flip_th=job.flip_th)

            return factory

        scalar = SimulatedSystem(
            traces, scheme_factory=alternating_factory(), config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=alternating_factory(), config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        assert turbo._fused is True
        assert scalar.run() == turbo.run()

    def test_raa_write_back_matches_scalar(self):
        """Each bank's post-run RAA count equals the scalar backend's."""
        job = _job("mithril+")
        traces, factory, config, rfm_th = materialize_job(job)
        systems = {}
        for cls in (SimulatedSystem, TurboSimulatedSystem):
            system = cls(
                traces, scheme_factory=factory, config=config,
                rfm_th=rfm_th, flip_th=job.flip_th,
            )
            system.run()
            systems[cls] = system
        scalar, turbo = systems[SimulatedSystem], systems[TurboSimulatedSystem]
        assert turbo._fused is True and all(turbo._fast_rfm)
        assert [
            controller.rfm_logic.raa.value for controller in turbo.banks
        ] == [
            controller.rfm_logic.raa.value for controller in scalar.banks
        ]

    def test_blockhammer_write_back_matches_scalar(self):
        """Post-run CBF counters, rotation phase, and blacklists on the
        scheme objects equal the scalar backend's."""
        spec = WorkloadSpec.make(
            "attack", scale=0.2, pattern="multi-sided", seed=31
        )
        job = SimJob(workload=spec, scheme="blockhammer",
                     flip_th=2500, scale=0.2)
        traces, factory, config, rfm_th = materialize_job(job)
        schemes = {}
        for cls in (SimulatedSystem, TurboSimulatedSystem):
            system = cls(
                traces, scheme_factory=factory, config=config,
                rfm_th=rfm_th, flip_th=job.flip_th,
            )
            system.run()
            schemes[cls] = [controller.scheme for controller in system.banks]
        for scalar, turbo in zip(
            schemes[SimulatedSystem], schemes[TurboSimulatedSystem]
        ):
            assert scalar._release == turbo._release
            assert scalar.blacklisted_rows_seen == turbo.blacklisted_rows_seen
            assert scalar.cbf._active == turbo.cbf._active
            assert scalar.cbf._since_swap == turbo.cbf._since_swap
            for scalar_filter, turbo_filter in zip(
                scalar.cbf._filters, turbo.cbf._filters
            ):
                assert list(scalar_filter._counters) == list(
                    turbo_filter._counters
                )


class TestSharedIndexCache:
    """BlockHammer banks of one turbo system hash each row once: their
    filters share one bounded, pre-hashed probe-index dict per filter
    seed, owned by that system alone."""

    @staticmethod
    def _caches(system):
        by_seed = {}
        for controller in system.banks:
            for cbf_filter in controller.scheme.cbf._filters:
                by_seed.setdefault(cbf_filter._seed, []).append(
                    cbf_filter._index_cache
                )
        return by_seed

    def test_one_bounded_dict_per_seed_per_system(self, monkeypatch):
        from repro.streaming import counting_bloom

        limit = 64
        monkeypatch.setattr(counting_bloom, "_INDEX_CACHE_LIMIT", limit)
        job = _job("blockhammer")
        traces, factory, config, rfm_th = materialize_job(job)

        def build(cls):
            return cls(
                traces, scheme_factory=factory, config=config,
                rfm_th=rfm_th, flip_th=job.flip_th,
            )

        first = build(TurboSimulatedSystem)
        first_caches = self._caches(first)
        assert len(first_caches) == 2  # the dual filter's two seeds
        shared = {}
        for seed, caches in first_caches.items():
            assert all(cache is caches[0] for cache in caches)
            shared[seed] = caches[0]
        for cbf_filter in first.banks[0].scheme.cbf._filters:
            # pre-hashed entries equal the lazy scalar probe indices
            fresh = counting_bloom.CountingBloomFilter(
                cbf_filter.size, cbf_filter.num_hashes, cbf_filter._seed
            )
            assert cbf_filter._index_cache
            for row, indices in cbf_filter._index_cache.items():
                assert indices == fresh._indices(row)
        assert build(SimulatedSystem).run() == first.run()
        for cache in shared.values():
            assert len(cache) == limit  # filled, never past the bound
        second = build(TurboSimulatedSystem)
        for seed, caches in self._caches(second).items():
            assert caches[0] is not shared[seed]
        second.run()
        for caches in self._caches(second).values():
            assert len(caches[0]) <= limit


class TestChunkedDecode:
    """Streamed chunked SoA decode is byte-identical to the full
    decode — against both the unchunked turbo run and the scalar
    backend."""

    @pytest.mark.parametrize(
        "scheme", ["none", "mithril", "graphene", "blockhammer"]
    )
    def test_chunked_vs_scalar(self, scheme, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_CHUNK", "64")
        _run_both(_job(scheme))

    def test_chunked_equals_unchunked_turbo(self, monkeypatch):
        from repro.sim.soa import StreamedTraceSoA

        job = _job("mithril")
        traces, factory, config, rfm_th = materialize_job(job)

        def build():
            return TurboSimulatedSystem(
                traces, scheme_factory=factory, config=config,
                rfm_th=rfm_th, flip_th=job.flip_th,
            )

        full = build().run()
        monkeypatch.setenv("REPRO_SOA_CHUNK", "64")
        chunked_system = build()
        assert all(
            isinstance(soa, StreamedTraceSoA)
            for soa in chunked_system._soa
        )
        assert chunked_system.run() == full
        # The windows really streamed (several loads per trace).
        assert all(soa.loads > 1 for soa in chunked_system._soa)


class TestScaleInvariants:
    def test_config_replace_timings_still_identical(self):
        from repro.params import DEFAULT_CONFIG

        config = dataclasses.replace(DEFAULT_CONFIG)
        job = _job("blockhammer")
        traces, factory, _config, rfm_th = materialize_job(job)
        scalar = SimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        turbo = TurboSimulatedSystem(
            traces, scheme_factory=factory, config=config,
            rfm_th=rfm_th, flip_th=job.flip_th,
        )
        assert scalar.run() == turbo.run()
