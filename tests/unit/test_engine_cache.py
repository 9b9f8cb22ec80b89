"""Unit tests for the on-disk result cache."""

from repro.engine import (
    ResultCache,
    SimJob,
    WorkloadSpec,
    code_version,
    default_cache_dir,
    result_from_dict,
    result_to_dict,
)
from repro.sim.metrics import SimulationResult
from repro.types import EnergyCounts


def _job():
    return SimJob(workload=WorkloadSpec.make("fft", seed=21, scale=0.1))


def _result():
    return SimulationResult(
        scheme_name="none",
        total_cycles=1234,
        per_core_instructions=[10, 20],
        per_core_finish_cycles=[1000, 1234],
        energy=EnergyCounts(acts=5, reads=7),
        acts=5,
        row_hits=3,
        row_misses=2,
    )


class TestSerialization:
    def test_round_trip(self):
        result = _result()
        assert result_from_dict(result_to_dict(result)) == result


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        assert cache.get(job) is None
        cache.put(job, _result())
        assert cache.get(job) == _result()
        assert cache.entry_count() == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        cache.path_for(job).write_text("{not json")
        assert cache.get(job) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())
        assert cache.clear() == 1
        assert cache.entry_count() == 0
        assert cache.get(_job()) is None

    def test_entries_record_the_job(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        record = json.loads(cache.path_for(job).read_text())
        assert record["job"] == job.canonical()

    def test_unwritable_cache_degrades_to_noop(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "cache")  # parent is a file
        cache.put(_job(), _result())  # must not raise
        assert cache.get(_job()) is None

    def test_distinct_jobs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        other = SimJob(workload=_job().workload, flip_th=42)
        cache.put(job, _result())
        assert cache.get(other) is None


class TestGenerationGc:
    def _seed_generations(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())  # live generation
        dead = tmp_path / "00000000deadbeef"
        dead.mkdir()
        (dead / "a.json").write_text("{}")
        (dead / "b.json").write_text("{}")
        return cache, dead

    def test_versions_inventory(self, tmp_path):
        cache, _dead = self._seed_generations(tmp_path)
        versions = cache.versions()
        assert versions[code_version()] == 1
        assert versions["00000000deadbeef"] == 2

    def test_gc_removes_only_the_named_generation(self, tmp_path):
        cache, dead = self._seed_generations(tmp_path)
        assert cache.gc("00000000deadbeef") == 2
        assert not dead.exists()
        assert cache.entry_count() == 1  # live entry untouched
        assert cache.get(_job()) == _result()

    def test_gc_refuses_the_live_generation(self, tmp_path):
        cache, _dead = self._seed_generations(tmp_path)
        import pytest

        with pytest.raises(ValueError, match="live generation"):
            cache.gc(code_version())

    def test_gc_unknown_generation_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.gc("not-a-generation") == 0

    def test_gc_rejects_path_escapes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        precious = tmp_path / "precious.json"
        precious.write_text("{}")
        nested = tmp_path / "nested" / "deep"
        nested.mkdir(parents=True)
        (nested / "x.json").write_text("{}")
        cache = ResultCache(cache_dir)
        assert cache.gc("..") == 0
        assert cache.gc(str(tmp_path / "nested")) == 0
        assert cache.gc("../nested/deep") == 0
        assert precious.exists()
        assert (nested / "x.json").exists()
        assert tmp_path.is_dir()

    def test_gc_stale_sweeps_everything_dead(self, tmp_path):
        cache, dead = self._seed_generations(tmp_path)
        other = tmp_path / "1111111111111111"
        other.mkdir()
        (other / "c.json").write_text("{}")
        assert cache.gc_stale() == 3
        assert not dead.exists() and not other.exists()
        assert cache.entry_count() == 1


class TestCacheLocation:
    def test_env_var_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert "repro" in str(default_cache_dir())

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestSourceVersion:
    """The store key covers every file a result depends on."""

    @staticmethod
    def _package_copy(tmp_path):
        import shutil
        from pathlib import Path

        import repro

        root = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).resolve().parent, root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return root

    def test_installed_tree_matches_code_version(self):
        from pathlib import Path

        import repro
        from repro.engine.cache import source_version

        root = Path(repro.__file__).resolve().parent
        assert source_version(root) == code_version()

    def test_edited_c_source_changes_digest(self, tmp_path):
        from repro.engine.cache import source_version

        root = self._package_copy(tmp_path)
        drain = root / "sim" / "native" / "drain.c"
        before = source_version(root)
        drain.write_bytes(drain.read_bytes() + b"\n/* edit */\n")
        assert source_version(root) != before

    def test_new_header_changes_digest(self, tmp_path):
        from repro.engine.cache import source_version

        root = self._package_copy(tmp_path)
        before = source_version(root)
        (root / "sim" / "native" / "extra.h").write_text("#define X 1\n")
        assert source_version(root) != before

    def test_numpy_version_changes_digest(self, tmp_path, monkeypatch):
        import numpy

        from repro.engine.cache import source_version

        root = self._package_copy(tmp_path)
        before = source_version(root)
        monkeypatch.setattr(numpy, "__version__", numpy.__version__ + ".1")
        assert source_version(root) != before
