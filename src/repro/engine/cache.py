"""On-disk result cache keyed by job hash + code-version salt.

Completed simulation points are stored as JSON under::

    <cache dir>/<code version>/<hh>/<job hash>.json

where ``hh`` is the two-hex-character shard prefix of the job hash
(:mod:`repro.engine.store`); entries written by pre-sharding versions
of this module sit flat in the generation directory and are still
found, counted, and garbage-collected — :meth:`ResultCache.migrate`
moves them into shards without changing their hashes, so nothing is
invalidated.  Each generation also carries an ``index.jsonl``
(:class:`~repro.engine.store.CacheIndex`) answering count/size/query
by scheme, workload, FlipTH, or campaign experiment without opening
entry files.

The *code version* is a hash over every ``*.py`` file of the ``repro``
package plus an explicit schema salt, so any change to the simulator,
the schemes, or the workload generators silently invalidates old
entries — a stale cache can never masquerade as a fresh result.  The
salt (:data:`CACHE_SCHEMA_SALT`) exists for deliberate bumps: the
hot-path overhaul bumped it to retire every warm cache written by the
pre-optimization simulator, even for users running an identical source
tree from a different install path.  The cache directory defaults to
``~/.cache/repro/sim`` and is overridden by the ``REPRO_CACHE_DIR``
environment variable (tests point it at a tmpdir).

Entries store both the canonical job description and the result, so a
cache directory doubles as a browsable record of completed sweeps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro.engine.durable import (
    QUARANTINE_DIR,
    CorruptEntryError,
    atomic_write_json,
    quarantine_file,
    quarantine_log,
    read_json_verified,
    seal,
)
from repro.engine.job import SimJob
from repro.engine.store import (
    INDEX_NAME,
    CacheIndex,
    GenerationStats,
    count_entries,
    is_shard_dir,
    iter_entry_paths,
    record_for_put,
    shard_name,
)
from repro.sim.metrics import SimulationResult
from repro.types import EnergyCounts

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Deliberate cache-generation bump, folded into :func:`code_version`.
#: v2: simulator hot-path overhaul (zero-alloc event loop, incremental
#: schedulers, array-backed sketches) — results are byte-identical,
#: but pre-overhaul entries must not satisfy post-overhaul jobs.
#: v3: vectorized turbo backend + numpy-optional workload generation.
#: Results are byte-identical across backends (the golden suite pins
#: both), but the salt retires caches written before the equivalence
#: machinery existed.
CACHE_SCHEMA_SALT = "v3-turbo"

_code_version: Optional[str] = None


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sim"


def code_version() -> str:
    """Hash of the installed ``repro`` sources (the cache salt).

    The scalar/turbo simulation *backend* is deliberately **not**
    folded in — backends are byte-identical (golden-pinned)
    implementation details and share cache entries.
    """
    global _code_version
    if _code_version is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        digest.update(CACHE_SCHEMA_SALT.encode())
        digest.update(b"\0")
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    return dataclasses.asdict(result)


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    payload = dict(data)
    payload["energy"] = EnergyCounts(**payload["energy"])
    return SimulationResult(**payload)


class ResultCache:
    """Get/put completed :class:`SimulationResult`s by job.

    Each instance keeps running ``hits`` / ``misses`` / ``quarantined``
    counts across its :meth:`get` calls — the executor surfaces them
    on ``run_jobs.last_stats`` and the telemetry layer mirrors them as
    ``cache.hit`` / ``cache.miss`` / ``cache.quarantine`` counters.
    """

    def __init__(self, directory=None):
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def version_dir(self, version: Optional[str] = None) -> Path:
        return self.directory / (version or code_version())

    def path_for(self, job: SimJob) -> Path:
        """The sharded entry path (where new writes go)."""
        job_hash = job.job_hash()
        return (
            self.version_dir() / shard_name(job_hash) / f"{job_hash}.json"
        )

    def flat_path_for(self, job: SimJob) -> Path:
        """The pre-sharding flat path (legacy caches, read-only)."""
        return self.version_dir() / f"{job.job_hash()}.json"

    def get(self, job: SimJob) -> Optional[SimulationResult]:
        """The cached result for ``job``, or None.

        Looks in the sharded location first, then falls back to the
        flat legacy layout, so caches written before sharding keep
        serving hits without migration.  A truncated, unparsable, or
        seal-failing entry (:mod:`repro.engine.durable`) is moved into
        the generation's ``quarantine/`` directory and reported as a
        miss — the point re-simulates instead of raising (or serving
        garbage) mid-campaign.
        """
        from repro import telemetry

        for path in (self.path_for(job), self.flat_path_for(job)):
            try:
                record = self._read_entry(path)
            except FileNotFoundError:
                continue
            if record is None:
                continue
            try:
                result = result_from_dict(record["result"])
            except (KeyError, TypeError, ValueError) as error:
                quarantine_file(
                    path, f"undecodable result payload: {error}",
                    root=self.version_dir(),
                )
                self.quarantined += 1
                telemetry.counter("cache.quarantine")
                continue
            self.hits += 1
            telemetry.counter("cache.hit")
            return result
        self.misses += 1
        telemetry.counter("cache.miss")
        return None

    def _read_entry(self, path: Path) -> Optional[Dict[str, Any]]:
        """Verified entry record at ``path``; corrupt ⇒ quarantine + None.

        ``FileNotFoundError`` propagates (a missing entry is a miss at
        a different layout, not corruption).
        """
        try:
            return read_json_verified(path)
        except FileNotFoundError:
            raise
        except CorruptEntryError as error:
            from repro import telemetry

            quarantine_file(path, str(error), root=self.version_dir())
            self.quarantined += 1
            telemetry.counter("cache.quarantine")
            telemetry.event(
                "cache.quarantine", path=str(path), reason=str(error)
            )
            return None

    def put(self, job: SimJob, result: SimulationResult) -> None:
        """Store a result; an unwritable cache degrades to a no-op.

        The entry is sealed (payload sha256) and written via atomic
        temp-file rename, so a process killed mid-``put`` leaves
        either the previous entry or no entry — never a torn one.
        """
        try:
            path = self.path_for(job)
            record = {
                "job": job.canonical(), "result": result_to_dict(result)
            }
            atomic_write_json(
                path, seal(record),
                fault_site="cache.entry.write", fault_key=job.job_hash(),
            )
        except OSError:
            return
        self.index_for_version().append(record_for_put(job, path))

    def verify(self, job: SimJob) -> str:
        """Integrity state of one job's entry without deserializing it.

        Returns ``"ok"``, ``"missing"``, or ``"corrupt"`` (the corrupt
        file is quarantined as a side effect, same as :meth:`get`).
        Used by ``repro campaign verify`` and the campaign audit.
        """
        state = "missing"
        for path in (self.path_for(job), self.flat_path_for(job)):
            try:
                record = self._read_entry(path)
            except FileNotFoundError:
                continue
            if record is None:
                state = "corrupt"
                continue
            if "result" in record:
                return "ok"
            state = "corrupt"
        return state

    def duplicate_hashes(self, version: Optional[str] = None) -> list:
        """Job hashes present in both the flat and sharded layouts.

        A hash must resolve to exactly one entry; duplicates can only
        come from a legacy migration interrupted halfway and are worth
        surfacing (``campaign verify`` gates on zero).
        """
        version_dir = self.version_dir(version)
        seen: Dict[str, int] = {}
        for path in iter_entry_paths(version_dir):
            seen[path.stem] = seen.get(path.stem, 0) + 1
        return sorted(h for h, count in seen.items() if count > 1)

    def quarantine_records(self, version: Optional[str] = None) -> list:
        """Quarantine-log records of one generation (default live)."""
        return quarantine_log(self.version_dir(version))

    def entry_count(self, version: Optional[str] = None) -> int:
        """Number of cached results for one generation (default live)."""
        return count_entries(self.version_dir(version))

    def versions(self) -> Dict[str, int]:
        """Entry counts per code-version generation present on disk.

        Every source change mints a new generation
        (:func:`code_version`), so long-lived cache directories
        accumulate dead generations; this is the inventory behind
        ``repro cache --gc``.
        """
        if not self.directory.is_dir():
            return {}
        return {
            child.name: count_entries(child)
            for child in sorted(self.directory.iterdir())
            if child.is_dir()
        }

    # -- index, stats, migration --------------------------------------

    def index_for_version(self, version: Optional[str] = None) -> CacheIndex:
        """The raw (possibly stale) index of one generation."""
        return CacheIndex(self.version_dir(version))

    def index(self, version: Optional[str] = None) -> CacheIndex:
        """A fresh index for one generation, rebuilt if it disagrees
        with the entry files on disk (lost index, manual deletions,
        flat legacy layouts that never had one)."""
        index = self.index_for_version(version)
        if not index.is_fresh():
            index.rebuild()
        return index

    def stats(self) -> Dict[str, GenerationStats]:
        """Per-generation entry count / bytes / oldest & newest mtime.

        Served from each generation's index (rebuilt when stale), so
        repeated stats calls on a large cache never rescan entries.
        """
        if not self.directory.is_dir():
            return {}
        return {
            child.name: self.index(child.name).stats()
            for child in sorted(self.directory.iterdir())
            if child.is_dir()
        }

    def annotate(
        self,
        job_hashes: Iterable[str],
        experiment: str,
        version: Optional[str] = None,
    ) -> None:
        """Tag entries with a campaign-experiment attribution.

        Appends annotation records that merge into the index (the
        ``experiments`` field unions), enabling
        ``query(experiment=...)``.  Annotations are advisory — an index
        rebuild drops them until the next campaign run re-appends.
        """
        self.index_for_version(version).append_many(
            {"hash": job_hash, "experiments": [experiment]}
            for job_hash in job_hashes
        )

    def migrate(self, version: Optional[str] = None) -> int:
        """Move one generation's flat legacy entries into shards.

        Hashes (and therefore keys) are untouched — nothing is
        invalidated; the index is rebuilt afterwards.  Returns the
        number of entries moved.
        """
        version_dir = self.version_dir(version)
        if not version_dir.is_dir():
            return 0
        moved = 0
        for path in sorted(version_dir.glob("*.json")):
            if not path.is_file():
                continue
            target = version_dir / shard_name(path.stem) / path.name
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, target)
                moved += 1
            except OSError:
                pass
        if moved:
            self.index_for_version(version).rebuild()
        return moved

    def gc(self, version: str) -> int:
        """Delete one dead generation's entries; returns the count.

        ``version`` must be a generation directory name from
        :meth:`versions` — the current :func:`code_version` is refused
        (it is live, not dead; use :meth:`clear` to drop everything).
        """
        if version == code_version():
            raise ValueError(
                f"refusing to gc the live generation {version}; "
                "use clear() to drop the whole cache"
            )
        version_dir = self.directory / version
        # Containment must hold on the *resolved* path: "..", "a/b" or
        # absolute names would otherwise escape the cache directory.
        try:
            resolved = version_dir.resolve()
            contained = resolved.parent == self.directory.resolve()
        except OSError:
            return 0
        if not contained or resolved.name != version:
            return 0
        if not version_dir.is_dir():
            return 0
        removed = 0
        for path in list(iter_entry_paths(version_dir)):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._remove_generation_scaffolding(version_dir)
        return removed

    def gc_stale(self) -> int:
        """Delete every generation except the live one."""
        live = code_version()
        return sum(
            self.gc(version) for version in self.versions()
            if version != live
        )

    def clear(self) -> int:
        """Delete every entry (all code versions); returns the count."""
        removed = 0
        if not self.directory.is_dir():
            return 0
        for path in self.directory.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for child in self.directory.iterdir():
            if child.is_dir():
                self._remove_generation_scaffolding(child)
        return removed

    def _remove_generation_scaffolding(self, version_dir: Path) -> None:
        """Drop a generation's index, quarantine, and emptied dirs."""
        try:
            (version_dir / INDEX_NAME).unlink()
        except OSError:
            pass
        quarantine = version_dir / QUARANTINE_DIR
        if quarantine.is_dir():
            for stale in list(quarantine.iterdir()):
                try:
                    stale.unlink()
                except OSError:
                    pass
            try:
                quarantine.rmdir()
            except OSError:
                pass
        for child in list(version_dir.iterdir()) if (
            version_dir.is_dir()
        ) else []:
            if is_shard_dir(child):
                try:
                    child.rmdir()
                except OSError:
                    pass
        try:
            version_dir.rmdir()
        except OSError:
            pass
