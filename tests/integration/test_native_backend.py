"""Build and delegation contracts of the native backend.

* the extension is built once per source digest and ABI, atomically,
  and a second process loads it without compiling;
* a missing compiler is a clear error naming the scalar escape hatch,
  never a silent fallback;
* a zero-simulation campaign replay never builds or loads it;
* probes and non-stock components run the scalar drain, count the
  delegation, and produce the scalar result.
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

from repro import telemetry
from repro.engine.executor import materialize_job
from repro.engine.job import SimJob, WorkloadSpec
from repro.mc.scheduler import BlissScheduler
from repro.sim.native import NativeSimulatedSystem, build
from repro.sim.system import SimulatedSystem

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _python(code: str, env=None) -> subprocess.CompletedProcess:
    full_env = dict(os.environ, PYTHONPATH=SRC)
    full_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=full_env, timeout=300,
    )


def _artifacts(root: Path):
    return sorted(p.name for p in root.rglob("*") if p.is_file()
                  and p.name != ".lock")


class TestBuild:
    def test_missing_compiler_raises_with_hint(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        with pytest.raises(build.NativeBuildError,
                           match="REPRO_SIM_BACKEND=scalar"):
            build.build(root=tmp_path / "cache")
        assert _artifacts(tmp_path / "cache") == []

    def test_compile_error_carries_compiler_stderr(self, tmp_path,
                                                   monkeypatch):
        broken = tmp_path / "drain.c"
        broken.write_text("this is not C;\n")
        monkeypatch.setattr(build, "SOURCE", broken)
        with pytest.raises(build.NativeBuildError) as error:
            build.build(root=tmp_path / "cache")
        assert "error" in str(error.value)
        assert "REPRO_SIM_BACKEND=scalar" in str(error.value)
        assert _artifacts(tmp_path / "cache") == []  # temp file removed

    def test_concurrent_first_builds_leave_one_artifact(self, tmp_path):
        root = tmp_path / "cache"
        code = f"""
            from repro.sim.native import build
            build.build(root={str(root)!r})
        """
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", textwrap.dedent(code)],
                env=dict(os.environ, PYTHONPATH=SRC),
            )
            for _ in range(2)
        ]
        assert [proc.wait(timeout=300) for proc in procs] == [0, 0]
        assert _artifacts(root) == [build.artifact_path(root).name]

    def test_second_process_loads_without_compiling(self, tmp_path):
        root = tmp_path / "cache"
        target = build.build(root=root)
        stamp = target.stat().st_mtime_ns
        result = _python(f"""
            from repro.sim.native import build
            module = build.load(root={str(root)!r})
            assert build.last_compile_s is None, build.last_compile_s
            assert callable(module.run)
        """)
        assert result.returncode == 0, result.stderr
        assert target.stat().st_mtime_ns == stamp

    def test_artifact_is_keyed_by_digest_and_abi(self, tmp_path):
        import sysconfig

        path = build.artifact_path(tmp_path)
        assert path.parent.name == build.source_digest()
        assert path.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))


def test_zero_simulation_replay_never_builds(tmp_path):
    """Fill a store on the scalar backend, then replay the campaign on
    the default (native) backend with an empty build cache."""
    store = tmp_path / "store"
    fill = _python("""
        from repro.campaigns import get_campaign, run_campaign
        run_campaign(get_campaign("smoke"), scale=0.05)
    """, env={"REPRO_CACHE_DIR": str(store),
              "REPRO_CAMPAIGN_DIR": str(tmp_path / "fill"),
              "REPRO_SIM_BACKEND": "scalar"})
    assert fill.returncode == 0, fill.stderr
    xdg = tmp_path / "xdg"
    replay = _python("""
        import json, sys
        from repro.campaigns import get_campaign, run_campaign
        from repro.sim.backend import resolve_backend
        from repro.sim.native import build
        outcome = run_campaign(get_campaign("smoke"), scale=0.05)
        print(json.dumps({
            "backend": resolve_backend(),
            "simulated": outcome.stats.simulated,
            "loaded": build.loaded(),
            "module": "repro.sim.native._drain" in sys.modules,
        }))
    """, env={"REPRO_CACHE_DIR": str(store),
              "REPRO_CAMPAIGN_DIR": str(tmp_path / "replay"),
              "REPRO_SIM_BACKEND": "", "XDG_CACHE_HOME": str(xdg)})
    assert replay.returncode == 0, replay.stderr
    report = json.loads(replay.stdout.strip().splitlines()[-1])
    assert report == {"backend": "native", "simulated": 0,
                      "loaded": False, "module": False}
    assert not (xdg / "repro" / "native").exists()


def _job():
    spec = WorkloadSpec.make("mix-high", scale=0.1, seed=11)
    return SimJob(workload=spec, scheme="mithril", flip_th=2500, scale=0.1)


def _systems(job):
    traces, factory, config, rfm_th = materialize_job(job)
    return [
        cls(traces, scheme_factory=factory, config=config, rfm_th=rfm_th,
            flip_th=job.flip_th)
        for cls in (SimulatedSystem, NativeSimulatedSystem)
    ]


@pytest.fixture
def counters(tmp_path, monkeypatch):
    """The process telemetry registry's counters, telemetry on."""
    monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "telemetry"))
    telemetry.reset()
    yield lambda: dict(telemetry.get().registry.counters)
    telemetry.reset()


class TestDelegation:
    def test_stock_system_runs_native(self, counters):
        scalar, native = _systems(_job())
        assert native.delegation_reason() is None
        assert scalar.run() == native.run()
        assert not any(name.startswith("sim.native.delegated")
                       for name in counters())

    def test_probes_delegate_and_count(self, counters, tmp_path,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_PROBES", str(tmp_path / "probes"))
        scalar, native = _systems(_job())
        assert native.delegation_reason() == "probes"
        assert scalar.run() == native.run()
        assert counters()["sim.native.delegated.probes"] == 1

    def test_subclassed_scheduler_delegates(self, counters):
        class PatchedBliss(BlissScheduler):
            pass

        scalar, native = _systems(_job())
        for system in (scalar, native):
            system._schedulers = [PatchedBliss()
                                  for _ in system._schedulers]
        assert native.delegation_reason() == "component"
        assert scalar.run() == native.run()
        assert counters()["sim.native.delegated.component"] == 1

    def test_class_level_patch_delegates(self, monkeypatch):
        from repro.dram.bank import BankTimingModel

        calls = []
        original = BankTimingModel.serve_access

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BankTimingModel, "serve_access", spy)
        scalar, native = _systems(_job())
        assert native.delegation_reason() == "component"
        assert scalar.run() == native.run()
        assert calls  # the patched method really ran under native

    def test_instance_patched_controller_delegates(self):
        scalar, native = _systems(_job())
        controller = native.banks[3]
        controller.serve = controller.serve  # instance-level override
        assert native.delegation_reason() == "component"
        assert scalar.run() == native.run()

    def test_patched_scheme_runs_native(self):
        """Schemes are always called through Python: a patched hook is
        honoured without delegating."""
        scalar, native = _systems(_job())
        calls = []
        for system in (scalar, native):
            scheme = system.banks[0].scheme
            original = type(scheme).on_activate

            def spy(row, cycle, _scheme=scheme, _original=original):
                calls.append(row)
                return _original(_scheme, row, cycle)

            scheme.on_activate = spy
        assert native.delegation_reason() is None
        assert scalar.run() == native.run()
        assert calls and len(calls) % 2 == 0

    def test_rerun_refused(self):
        _scalar, native = _systems(_job())
        native.run()
        with pytest.raises(RuntimeError, match="only run once"):
            native.run()

    def test_write_back_matches_scalar(self):
        """Post-run component state equals the scalar backend's."""
        job = SimJob(workload=WorkloadSpec.make("mix-high", scale=0.1,
                                                seed=11),
                     scheme="mithril+", flip_th=2500, scale=0.1,
                     max_cycles=30_000)
        scalar, native = _systems(job)
        assert scalar.run(max_cycles=job.max_cycles) == native.run(
            max_cycles=job.max_cycles)

        def state(system):
            return (
                [(c.index, c.outstanding_reads, c.next_issue_cycle,
                  c.stalled_on_mlp, c.reads_issued, c.writes_issued)
                 for c in system.cores],
                [(b.bank.open_row, b.bank.ready_cycle, b.bank.act_count,
                  b.bank.pre_count, b.bank.access_count,
                  b._consecutive_hits, b.energy, b.rfm_logic.raa.value,
                  b.rfm_logic.rfm_issued, b.rfm_logic.mrr_reads,
                  b.channel_state.bus_free_cycle, list(b.bank.faw._recent))
                 for b in system.banks],
                [(s._last_core, s._streak, s._blacklist_until)
                 for s in system._schedulers],
                system.row_hits, system.row_misses, system._seq,
            )

        assert state(scalar) == state(native)


def _unwritable_home(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    return temp


def test_unwritable_cache_home_builds_under_private_temp(tmp_path,
                                                         monkeypatch):
    temp = _unwritable_home(tmp_path, monkeypatch)
    root = build.cache_root()
    assert root == temp / f"repro-native-{os.getuid()}"
    info = os.lstat(root)
    assert stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid()
    assert info.st_mode & 0o077 == 0
    assert build.cache_root() == root  # an existing private dir is reused


@pytest.mark.parametrize("planted", ["other-owner", "shared", "symlink"])
def test_temp_build_dir_of_someone_else_is_refused(tmp_path, monkeypatch,
                                                   planted):
    """Another local user can create ``<tmp>/repro-native-<uid>`` first
    and plant a shared object in it; such a directory is never used."""
    temp = _unwritable_home(tmp_path, monkeypatch)
    uid = os.getuid()
    if planted == "other-owner":
        # The directory exists, owned by this process's real uid, while
        # the cache is asked for on behalf of another uid.
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        (temp / f"repro-native-{uid + 1}").mkdir(mode=0o700)
    elif planted == "shared":
        shared = temp / f"repro-native-{uid}"
        shared.mkdir()
        shared.chmod(0o777)
    else:
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        (temp / f"repro-native-{uid}").symlink_to(target)
    with pytest.raises(build.NativeBuildError, match="XDG_CACHE_HOME"):
        build.cache_root()
