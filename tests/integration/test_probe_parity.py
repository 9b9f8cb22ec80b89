"""Probe streams are byte-identical across backends and perturb nothing.

The probe layer (:mod:`repro.sim.probes`) samples scheme internals at
fixed cycle intervals.  Its exactness contract — both backends sample
at the same logical point in the event stream — is gated here: for
every scheme family the scalar and turbo backends must emit probe
streams whose file contents are *equal bytes*, while the
``SimulationResult`` stays identical to a probes-off run.  The battery
also covers the chunked SoA decode path, seal verification, the
probes-off zero-file guarantee, and the report/Perfetto renderers.
"""

import json

import pytest

from repro.engine.executor import materialize_job
from repro.engine.job import SimJob, WorkloadSpec
from repro.sim.probes import probe_files, read_probe_stream
from repro.sim.system import make_system


def _job(scheme, workload="mix-high", seed=11, **kwargs):
    spec = WorkloadSpec.make(workload, scale=0.2, seed=seed)
    return SimJob(workload=spec, scheme=scheme, flip_th=2500,
                  scale=0.2, **kwargs)


def _run_probed(job, backend, directory, monkeypatch, interval="5000"):
    """Run ``job`` on ``backend`` with probes into ``directory``."""
    monkeypatch.setenv("REPRO_PROBES", str(directory))
    monkeypatch.setenv("REPRO_PROBE_INTERVAL", interval)
    traces, factory, config, rfm_th = materialize_job(job)
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
    return system.run(max_cycles=job.max_cycles)


def _run_plain(job, backend, monkeypatch):
    monkeypatch.delenv("REPRO_PROBES", raising=False)
    traces, factory, config, rfm_th = materialize_job(job)
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
    return system.run(max_cycles=job.max_cycles)


def _single_stream(directory):
    [path] = probe_files(directory)
    return path


class TestCrossBackendParity:
    """Scalar vs turbo probe streams, byte for byte, per scheme."""

    @pytest.mark.parametrize(
        "scheme",
        ["none", "mithril", "mithril+", "graphene", "blockhammer",
         "twice"],
    )
    def test_streams_byte_identical(self, scheme, tmp_path, monkeypatch):
        job = _job(scheme)
        results = {}
        texts = {}
        for backend in ("scalar", "turbo"):
            directory = tmp_path / backend
            results[backend] = _run_probed(
                job, backend, directory, monkeypatch
            )
            path = _single_stream(directory)
            texts[backend] = path.read_text()
            records, sealed = read_probe_stream(path)
            assert sealed, f"{backend} stream not sealed"
            assert any(r["k"] == "sample" for r in records)
        assert results["scalar"] == results["turbo"]
        assert texts["scalar"] == texts["turbo"]

    def test_parity_through_chunked_decode(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_CHUNK", "64")
        job = _job("mithril")
        texts = {}
        for backend in ("scalar", "turbo"):
            directory = tmp_path / backend
            _run_probed(job, backend, directory, monkeypatch)
            texts[backend] = _single_stream(directory).read_text()
        assert texts["scalar"] == texts["turbo"]


class TestNonPerturbation:
    """Probing must never change what the simulation computes."""

    @pytest.mark.parametrize("backend", ["scalar", "turbo"])
    @pytest.mark.parametrize("scheme", ["mithril", "blockhammer"])
    def test_results_match_probes_off(self, backend, scheme, tmp_path,
                                      monkeypatch):
        job = _job(scheme)
        plain = _run_plain(job, backend, monkeypatch)
        probed = _run_probed(job, backend, tmp_path / "p", monkeypatch)
        assert plain == probed

    def test_probes_off_writes_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROBES", raising=False)
        _run_plain(_job("mithril"), "scalar", monkeypatch)
        assert probe_files(tmp_path) == []
        assert not list(tmp_path.glob("probes-*"))


class TestStreamContents:
    def test_records_are_canonical_and_sealed(self, tmp_path,
                                              monkeypatch):
        _run_probed(_job("mithril"), "scalar", tmp_path, monkeypatch)
        path = _single_stream(tmp_path)
        lines = path.read_text().splitlines()
        for line in lines:
            record = json.loads(line)
            # canonical encoding round-trips exactly
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )
        kinds = [json.loads(line)["k"] for line in lines]
        assert kinds[0] == "header"
        assert kinds[-1] == "seal"
        assert kinds[-2] == "final"
        assert kinds.count("sample") >= 2

    def test_sample_schedule_and_monotone_counters(self, tmp_path,
                                                   monkeypatch):
        _run_probed(_job("mithril"), "scalar", tmp_path, monkeypatch,
                    interval="5000")
        records, sealed = read_probe_stream(_single_stream(tmp_path))
        assert sealed
        samples = [r for r in records if r["k"] == "sample"]
        cycles = [s["cycle"] for s in samples]
        assert cycles == sorted(set(cycles))
        assert all(c >= 5000 for c in cycles)
        acts = [sum(s["acts"]) for s in samples]
        assert acts == sorted(acts)
        raa_caps = [max(s["raa"]) for s in samples]
        assert all(cap >= 0 for cap in raa_caps)

    def test_torn_stream_reads_unsealed(self, tmp_path, monkeypatch):
        _run_probed(_job("mithril"), "scalar", tmp_path, monkeypatch)
        path = _single_stream(tmp_path)
        text = path.read_text()
        # chop the seal line in half: a crash mid-append
        path.write_text(text[: len(text) - 20])
        records, sealed = read_probe_stream(path)
        assert not sealed
        assert any(r["k"] == "sample" for r in records)


class TestProbeReport:
    def test_report_renders_percentile_panels(self, tmp_path,
                                              monkeypatch):
        from repro.analysis.probe_report import (
            build_probe_report,
            format_probe_report,
        )

        for scheme in ("mithril", "blockhammer"):
            _run_probed(_job(scheme), "scalar", tmp_path, monkeypatch)
        report = build_probe_report(tmp_path)
        assert report["streams"] == 2
        schemes = {run["scheme"] for run in report["runs"]}
        assert schemes == {"MithrilScheme", "BlockHammerScheme"}
        for run in report["runs"]:
            assert run["sealed"]
            summary = run["acts_per_interval"]
            for key in ("p50", "p95", "p99"):
                assert key in summary
        text = format_probe_report(report)
        assert "p50" in text and "p95" in text and "p99" in text
        assert "CbS" in text
        assert "throttle latency" in text

    def test_perfetto_probe_tracks_validate(self, tmp_path,
                                            monkeypatch):
        from repro.telemetry.perfetto import (
            probe_counter_events,
            validate_perfetto,
        )

        _run_probed(_job("mithril"), "scalar", tmp_path, monkeypatch)
        events = probe_counter_events(tmp_path)
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert {"probe.acts", "probe.raa", "probe.cbs_entries"} <= names
        assert validate_perfetto({"traceEvents": events}) == []
