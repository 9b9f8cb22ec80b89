"""Campaign benchmark: workloads, timed campaigns, output checks, metrics.

Every workload drives the public campaign API in-process
(``plan_campaign`` -> ``run_campaign`` -> ``build_report``) with the
program's defaults: scalar backend, telemetry, probes and fault plan
off.  The executor is a closed loop: it submits the next 16-point batch
only after the previous batch completes.  Simulated statistics are
deterministic, so every timing here is host time; the model's fidelity
to the paper lives in docs/EXPERIMENTS.md and no error figure is
claimed.

Nothing from ``repro`` is imported at module level, so a fresh
interpreter importing this module still times the program's imports
from cold.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import hostspeed
from tracing import Tracer, layer_totals, self_times, tail_percentile

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
#: Run-time state inside the checkout (git-ignored): per-run work
#: directories, store snapshots, recorded digests, traces, records.
STATE = ROOT / ".perfbench"
PINNED_DIGESTS = HERE / "digests.json"

#: The seed whose generated specs equal the built-in campaigns exactly;
#: its digests are pinned in digests.json.
DEFAULT_SEED = 0
#: Set-up samples per run, each in a fresh interpreter (a sample is
#: ~0.3 s and single samples swing by a third on a shared host).
SETUP_SAMPLES = 7
#: Minimum replays per warm run, whatever ``--seconds`` says.
MIN_REPLAYS = 6
#: Store snapshots kept for warm replays (newest first).
KEEP_SNAPSHOTS = 12

SCHEMES = ("none", "mithril", "mithril+", "parfm", "blockhammer",
           "para", "cbt", "twice", "graphene")


@dataclass(frozen=True)
class Workload:
    name: str
    campaign: str       #: built-in campaign the generated spec copies
    scale: float        #: trace-length scale override
    n_jobs: int         #: supervised workers (1 = serial, no pool)
    warm: bool          #: replay against a complete store snapshot

    @property
    def key(self) -> str:
        return f"{self.campaign}@{self.scale}"

    @property
    def kernel(self) -> str:
        """The host-speed kernel whose slowdowns the timed work follows
        (see hostspeed.py): cold campaigns spend their time in the
        simulator, warm replays in JSON, hashing and file reads."""
        return "interp" if self.warm else "memory"


#: Two workloads keep every run long enough to average over the host's
#: speed swings within the benchmark's time budget; the simulator-bound
#: stress-panel campaign is left out because paper-cold measures every
#: layer it would (simulate, materialization, trackers of all 9
#: schemes).  Replay cost does not depend on the scale (same 810
#: points, same result sizes), so paper-warm's store is filled at 0.1 to
#: keep its untimed fill short.
WORKLOADS = {w.name: w for w in (
    Workload("paper-cold", "paper-scale", 0.25, 2, False),
    Workload("paper-warm", "paper-scale", 0.1, 2, True),
)}


# ----------------------------------------------------------------------
# isolation, inputs and provenance
# ----------------------------------------------------------------------

def isolate_environment() -> None:
    """Drop every inherited ``REPRO_*`` knob (backend, telemetry,
    probes, fault plan, SoA cache/chunk, cache and campaign dirs, log)
    so the program runs with its defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def generated_spec(campaign: str, seed: int) -> Dict[str, Any]:
    """The campaign-spec JSON the program sees for ``seed``.

    The default seed returns the built-in spec unchanged.  Any other
    seed substitutes every attack seed through one seeded map, so
    experiments that shared an attack workload still share it and the
    point count and dedup structure stay those of the built-in.
    """
    from repro.campaigns import builtin_campaigns

    data = builtin_campaigns()[campaign].to_dict()
    if seed == DEFAULT_SEED:
        return data
    originals = sorted({
        s for exp in data["experiments"]
        for s in exp["params"].get("attack_seeds") or ()
    })
    drawn = random.Random(seed).sample(range(1, 100_000), len(originals))
    substitute = dict(zip(originals, drawn))
    for exp in data["experiments"]:
        if "attack_seeds" in exp["params"]:
            exp["params"]["attack_seeds"] = [
                substitute[s] for s in exp["params"]["attack_seeds"]
            ]
    return data


def current_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def provenance() -> Dict[str, Any]:
    from repro.engine.cache import code_version
    from repro.sim.backend import resolve_backend

    return {
        "commit": current_commit(),
        "code_version": code_version(),
        "backend": resolve_backend(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _write_json_atomic(path: Path, data: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def measure_setup(spec_path: Path, scale: float) -> Dict[str, float]:
    """Time imports, ``code_version()`` and ``plan_campaign`` once.

    Meaningful only as the first ``repro`` import of the process.
    """
    t0 = time.perf_counter()
    import repro.campaigns as campaigns
    from repro.engine.cache import code_version
    t1 = time.perf_counter()
    code_version()
    t2 = time.perf_counter()
    campaigns.plan_campaign(campaigns.get_campaign(str(spec_path)), scale=scale)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "code_version_s": t2 - t1,
            "plan_s": t3 - t2}


def setup_samples(spec_path: Path, scale: float) -> List[Dict[str, float]]:
    """:func:`measure_setup` in fresh interpreters, so every sample
    pays the imports the way a user's process does.  Each sample also
    holds its interpreter's ``window`` (perf_counter start and end)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup",
             str(spec_path), repr(scale)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        sample = json.loads(out.stdout.strip().splitlines()[-1])
        sample["window"] = (start, time.perf_counter())
        samples.append(sample)
    return samples


# ----------------------------------------------------------------------
# tracing probes
# ----------------------------------------------------------------------

def _workload_key(args, _kwargs, _result) -> Dict[str, Any]:
    return {"key": hashlib.sha1(repr(args[0]).encode()).hexdigest()[:16]}


def _sim_counts(_args, _kwargs, result) -> Dict[str, Any]:
    return {
        "accesses": result.row_hits + result.row_misses,
        "acts": result.acts,
        "rfm_commands": result.rfm_commands,
        "throttle_events": result.throttle_events,
    }


def install_probes(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans."""
    import repro.campaigns.executor as cx
    import repro.campaigns.planner as cp
    import repro.campaigns.report as cr
    import repro.engine.cache as cache
    import repro.engine.catalog as catalog
    import repro.engine.executor as ex
    import repro.engine.supervisor as sup
    import repro.sim.system as system

    def queue_wait(_args, _kwargs, _result):
        stats = ex.run_jobs.last_stats
        return {"queue_wait": stats.timing_breakdown.get("queue_wait", 0.0)}

    tracer.wrap_function(cx, "run_campaign", "campaigns.run_campaign")
    tracer.wrap_function(cp, "plan_campaign", "campaigns.plan")
    tracer.wrap_function(cr, "build_report", "campaigns.report")
    tracer.wrap_method(cx.CampaignManifest, "save", "campaigns.manifest_save")
    tracer.wrap_function(ex, "run_jobs", "engine.executor.run_jobs",
                         queue_wait)
    tracer.wrap_function(ex, "execute_job", "engine.executor.execute_job",
                         lambda a, _k, _r: {"scheme": a[0].scheme})
    tracer.wrap_function(catalog, "build_workload",
                         "engine.catalog.build_workload", _workload_key)
    tracer.wrap_function(system, "simulate", "sim.simulate", _sim_counts)
    tracer.wrap_method(
        sup.SupervisedPool, "run", "engine.supervisor.run",
        lambda a, _k, _r: {"workers": min(a[0].n_workers, len(a[1]))},
    )
    tracer.wrap_method(cache.ResultCache, "get", "engine.cache.get",
                       lambda _a, _k, r: {"hit": r is not None})
    tracer.wrap_method(cache.ResultCache, "put", "engine.cache.put")
    tracer.wrap_method(cache.ResultCache, "verify", "engine.cache.verify")
    tracer.wrap_method(cache.ResultCache, "annotate", "engine.cache.annotate")


@contextlib.contextmanager
def probed(tracer: Optional[Tracer]):
    """Layer spans on for the block when ``tracer`` is given."""
    if tracer is None:
        yield
        return
    install_probes(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


def layer_metrics(spans: List[Dict[str, Any]], wall: float,
                  retried: int) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign (one run id)."""
    main_pid = os.getpid()
    totals = layer_totals(spans)
    by_id = {s["id"]: s for s in spans}

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def named(name: str) -> List[Dict[str, Any]]:
        return [s for s in spans if s["name"] == name]

    m: Dict[str, float] = {}
    builds = named("engine.catalog.build_workload")
    distinct = len({s["attrs"]["key"] for s in builds})
    m["engine.catalog.build_workload_s"] = total("engine.catalog.build_workload")
    m["engine.catalog.build_workload.calls"] = len(builds)
    m["engine.catalog.build_workload.distinct"] = distinct
    m["engine.catalog.build_workload.useful_ratio"] = (
        distinct / len(builds) if builds else 0.0
    )

    sims = named("sim.simulate")
    durations = [s["end"] - s["start"] for s in sims]
    tail = tail_percentile(durations)
    m["sim.simulate_s"] = sum(durations)
    m["sim.simulate.p50_s"] = statistics.median(durations) if sims else 0.0
    m["sim.simulate.tail_s"] = tail[1] if tail else 0.0
    m["sim.simulate.tail_pct"] = tail[0] if tail else 0.0
    m["sim.simulate.samples"] = len(sims)
    for counter in ("accesses", "acts", "rfm_commands", "throttle_events"):
        m[f"sim.{counter}"] = sum(s["attrs"][counter] for s in sims)
    per_scheme: Dict[str, list] = {}  # scheme -> [seconds, accesses]
    for span in sims:
        scheme = by_id[span["parent"]]["attrs"]["scheme"]
        acc = per_scheme.setdefault(scheme, [0.0, 0])
        acc[0] += span["end"] - span["start"]
        acc[1] += span["attrs"]["accesses"]
    for scheme in SCHEMES:
        seconds, accesses = per_scheme.get(scheme, (0.0, 0))
        m[f"sim.ns_per_access.{scheme.replace('+', '_plus')}"] = (
            1e9 * seconds / accesses if accesses else 0.0
        )

    gets = named("engine.cache.get")
    m["engine.cache.get_s"] = total("engine.cache.get")
    m["engine.cache.get.calls"] = len(gets)
    m["engine.cache.hit_ratio"] = (
        sum(1 for s in gets if s["attrs"]["hit"]) / len(gets) if gets else 0.0
    )
    m["engine.cache.put_s"] = total("engine.cache.put")
    m["engine.cache.put.calls"] = len(named("engine.cache.put"))
    m["engine.cache.verify_s"] = total("engine.cache.verify")
    m["engine.cache.verify.calls"] = len(named("engine.cache.verify"))
    m["engine.cache.annotate_s"] = total("engine.cache.annotate")
    m["campaigns.manifest_save_s"] = total("campaigns.manifest_save")
    m["campaigns.manifest_save.calls"] = len(named("campaigns.manifest_save"))
    m["campaigns.report_s"] = total("campaigns.report")

    m["engine.executor.run_jobs_s"] = total("engine.executor.run_jobs")
    m["engine.executor.self_s"] = totals.get(
        "engine.executor.run_jobs", {}).get("self_s", 0.0)

    pools = named("engine.supervisor.run")
    capacity = sum((s["end"] - s["start"]) * s["attrs"]["workers"]
                   for s in pools)
    busy = sum(s["end"] - s["start"]
               for s in named("engine.executor.execute_job")
               if s["pid"] != main_pid)
    m["engine.supervisor.queue_wait_s"] = sum(
        s["attrs"]["queue_wait"] for s in named("engine.executor.run_jobs"))
    m["engine.supervisor.worker_busy_s"] = busy
    m["engine.supervisor.worker_util"] = busy / capacity if capacity else 0.0
    m["engine.supervisor.self_s"] = totals.get(
        "engine.supervisor.run", {}).get("self_s", 0.0)
    m["engine.supervisor.retried"] = retried

    selfs = self_times(spans)
    outer = sum(selfs[s["id"]] for s in spans if s["parent"] is None)
    m["trace.outer_self_share"] = outer / wall if wall else 0.0
    return m


# ----------------------------------------------------------------------
# digests and checks
# ----------------------------------------------------------------------

def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def store_digest(plan, cache_dir: Path) -> Tuple[Optional[str], int]:
    """(digest of every planned hash's stored result, accesses).

    The digest is over canonical JSON sorted by job hash; None when a
    planned result is missing or unreadable.
    """
    from repro.engine.cache import ResultCache, result_to_dict

    cache = ResultCache(cache_dir)
    entries = []
    accesses = 0
    for job_hash in sorted(plan.jobs):
        result = cache.get(plan.jobs[job_hash])
        if result is None:
            return None, 0
        entries.append([job_hash, result_to_dict(result)])
        accesses += result.row_hits + result.row_misses
    return _sha(entries), accesses


def report_digest(report: Dict[str, Any]) -> str:
    """Digest of a campaign report minus its run history (timestamps)
    and the code version (which any source edit changes)."""
    return _sha({k: v for k, v in report.items()
                 if k not in ("runs", "code_version")})


class DigestBook:
    """Expected digests: pinned for the default seed, otherwise the
    first value recorded in the checkout for that seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.pinned = json.loads(PINNED_DIGESTS.read_text()) \
            if PINNED_DIGESTS.exists() else {}
        self.path = STATE / "digests.json"

    def check(self, workload: Workload, kind: str, value: Optional[str]) -> bool:
        if value is None:
            return False
        if self.seed == DEFAULT_SEED and workload.key in self.pinned:
            return self.pinned[workload.key][kind] == value
        recorded = json.loads(self.path.read_text()) \
            if self.path.exists() else {}
        slot = recorded.setdefault(f"{workload.key}#{self.seed}", {})
        if kind not in slot:
            slot[kind] = value
            _write_json_atomic(self.path, recorded)
        return slot[kind] == value


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    wall: float         #: raw seconds of the timed window
    submitted: int
    failed: int
    ok: bool
    accesses: int = 0
    retried: int = 0
    start: float = 0.0  #: perf_counter at the window's start

    def scaled(self, samples, kernel: str) -> float:
        """``wall`` at the reference host speed (see hostspeed.py)."""
        return self.wall * hostspeed.factor(
            samples, self.start, self.start + self.wall, kernel)


class Run:
    """One benchmark invocation: a workload, a seed, a work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.book = DigestBook(seed)
        self.spec_path = work / "campaign.json"
        self._instances = 0

    def fresh_dirs(self, store: Optional[Path] = None) -> Tuple[Path, Path]:
        """A new campaign directory, and a new store unless one is given."""
        self._instances += 1
        base = self.work / f"c{self._instances}"
        store = store or base / "store"
        camp = base / "campaigns"
        camp.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(store)
        os.environ["REPRO_CAMPAIGN_DIR"] = str(camp)
        return store, camp

    def cold(self, spec, plan, tracer: Optional[Tracer] = None) -> Outcome:
        """Run the campaign on a fresh store, then check its outputs."""
        import repro.campaigns as campaigns

        wl = self.workload
        store, camp = self.fresh_dirs()
        settle()
        with probed(tracer):
            t0 = time.perf_counter()
            result = campaigns.run_campaign(
                spec, directory=camp, scale=wl.scale, n_jobs=wl.n_jobs,
                cache_dir=store,
            )
            wall = time.perf_counter() - t0
        verified = campaigns.verify_campaign(
            spec, directory=camp, scale=wl.scale, cache_dir=store)
        digest, accesses = store_digest(plan, store)
        report = campaigns.build_report(spec, directory=camp)
        ok = (
            result.complete and verified["ok"]
            and self.book.check(wl, "store", digest)
            and self.book.check(wl, "report", report_digest(report))
        )
        shutil.rmtree(store.parent, ignore_errors=True)
        stats = result.stats
        return Outcome(wall, stats.submitted,
                       stats.submitted if not ok else stats.quarantined,
                       ok, accesses, stats.retried, t0)

    # -- warm ----------------------------------------------------------

    def snapshot_dir(self) -> Path:
        from repro.engine.cache import code_version

        name = f"{code_version()}-{self.workload.key}-{self.seed}"
        return STATE / "snapshots" / name

    def ensure_snapshot(self, plan) -> Tuple[Path, int, bool]:
        """A complete, checked store for the warm replays.

        Filling it is untimed preparation, done in a child process so
        its memory does not count as the replays' peak.  Snapshots are
        kept per code version and seed, and later warm runs reuse them.
        """
        snap = self.snapshot_dir()
        if not (snap / "store").is_dir():
            tmp = self.work / "fill"
            subprocess.run(
                [sys.executable, str(HERE / "child.py"), "fill",
                 str(self.spec_path), repr(self.workload.scale),
                 str(self.workload.n_jobs), str(tmp)],
                check=True, timeout=900, stdout=subprocess.DEVNULL,
            )
            keep_snapshot(tmp / "store", snap)
        digest, accesses = store_digest(plan, snap / "store")
        return snap / "store", accesses, self.book.check(
            self.workload, "store", digest)

    def replay(self, spec, snapshot: Path, store: Path, verify: bool,
               tracer: Optional[Tracer] = None) -> Outcome:
        """``run_campaign`` with a fresh manifest, then ``build_report``,
        on ``store``, a copy of ``snapshot`` taken once per run.

        A replay that simulates nothing writes to the store only by
        appending annotations to its index, so restoring the index
        files returns the copy to the snapshot's state; the check
        below rejects a replay that simulated anything.  The campaign's
        own audit seal-checks every entry, so ``verify_campaign`` runs
        only when ``verify`` is set (once per benchmark run).
        """
        import repro.campaigns as campaigns
        from repro.engine.store import INDEX_NAME

        wl = self.workload
        for index in snapshot.rglob(INDEX_NAME):
            shutil.copyfile(index, store / index.relative_to(snapshot))
        store, camp = self.fresh_dirs(store)
        span = tracer.span("bench.replay") if tracer else contextlib.nullcontext()
        settle()
        with probed(tracer):
            t0 = time.perf_counter()
            with span:
                result = campaigns.run_campaign(
                    spec, directory=camp, scale=wl.scale, n_jobs=1,
                    cache_dir=store,
                )
                report = campaigns.build_report(spec, directory=camp)
            wall = time.perf_counter() - t0
        verified = not verify or campaigns.verify_campaign(
            spec, directory=camp, scale=wl.scale, cache_dir=store)["ok"]
        ok = (
            result.complete and result.stats.simulated == 0 and verified
            and self.book.check(wl, "report", report_digest(report))
        )
        shutil.rmtree(camp.parent, ignore_errors=True)
        stats = result.stats
        return Outcome(wall, stats.submitted,
                       stats.submitted if not ok else stats.quarantined,
                       ok, 0, stats.retried, t0)


def settle() -> None:
    """Start a timed campaign without the previous one's garbage or
    dirty pages: unflushed writes (the store copy, the last replay's
    manifests) otherwise reach the disk during the next timed window."""
    gc.collect()
    os.sync()


def keep_snapshot(store: Path, snap: Path) -> None:
    """Move a filled store to ``snap``; keep the newest snapshots only."""
    snap.mkdir(parents=True)
    os.rename(store, snap / "store")
    others = sorted(snap.parent.iterdir(), key=lambda p: p.stat().st_mtime,
                    reverse=True)
    for stale in others[KEEP_SNAPSHOTS:]:
        shutil.rmtree(stale, ignore_errors=True)


def fill(spec_path: Path, scale: float, n_jobs: int, out: Path) -> None:
    """Run a campaign cold into ``out/store`` (warm-replay preparation)."""
    import repro.campaigns as campaigns

    os.environ["REPRO_CACHE_DIR"] = str(out / "store")
    os.environ["REPRO_CAMPAIGN_DIR"] = str(out / "campaigns")
    spec = campaigns.get_campaign(str(spec_path))
    result = campaigns.run_campaign(
        spec, directory=out / "campaigns", scale=scale, n_jobs=n_jobs,
        cache_dir=out / "store",
    )
    if not result.complete:
        raise SystemExit("fill: campaign did not complete")


# ----------------------------------------------------------------------
# one benchmark invocation
# ----------------------------------------------------------------------

def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Measure one workload; returns the result object to print."""
    isolate_environment()
    STATE.mkdir(exist_ok=True)
    work = STATE / "runs" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool,
         work: Path) -> Dict[str, Any]:
    run = Run(workload, seed, work)
    import repro.campaigns as campaigns

    if ROOT / "src" not in Path(campaigns.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {campaigns.__file__}, "
                         f"not from {ROOT / 'src'}")

    run.spec_path.write_text(json.dumps(
        generated_spec(workload.campaign, seed), indent=1))
    spec = campaigns.get_campaign(str(run.spec_path))
    plan = campaigns.plan_campaign(spec, scale=workload.scale)

    untraced: List[Outcome] = []
    traced: List[Tuple[Outcome, str]] = []
    tracer = Tracer(work / "spans") if trace else None
    recorded: List[float] = []
    accesses = 0
    snapshot_ok = True
    if workload.warm:
        snapshot, accesses, snapshot_ok = run.ensure_snapshot(plan)
        store = work / "warm-store"
        shutil.copytree(snapshot, store)
    elif tracer is not None:
        recorded = recorded_walls(workload)
    # Every timed window (set-up included) runs under the pacer, and is
    # scaled to the reference host speed once the pacer has stopped.
    with hostspeed.Pacer() as pacer:
        samples = setup_samples(run.spec_path, workload.scale)
        if workload.warm:
            start = time.perf_counter()
            index = 0
            while index < MIN_REPLAYS or time.perf_counter() - start < seconds:
                if tracer is not None and index % 2:
                    tracer.run_id = f"replay-{index}"
                    outcome = run.replay(spec, snapshot, store, False, tracer)
                    traced.append((outcome, tracer.run_id))
                else:
                    untraced.append(
                        run.replay(spec, snapshot, store, index == 0))
                index += 1
        else:
            if not recorded:
                untraced.append(run.cold(spec, plan))
            if tracer is not None:
                tracer.run_id = "cold"
                traced.append((run.cold(spec, plan, tracer), tracer.run_id))
            accesses = (untraced or [o for o, _ in traced])[0].accesses
        # Before the pacer is reaped, so its memory does not count.
        peak_rss = _peak_rss_mb(not workload.warm)
    speed = pacer.samples
    host_speed = hostspeed.factor(speed, speed[0][0], speed[-1][0],
                                  workload.kernel)

    outcomes = untraced + [o for o, _ in traced]
    attempted = sum(o.submitted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = snapshot_ok and all(o.ok for o in outcomes)
    wall = statistics.median(
        [o.scaled(speed, workload.kernel) for o in untraced] or recorded)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(
                (s["import_s"] + s["code_version_s"] + s["plan_s"])
                * hostspeed.factor(speed, *s["window"], "interp")
                for s in samples),
            "wall_s": wall,
            "sim_accesses_per_s": accesses / wall,
            "peak_rss_mb": peak_rss,
            "ok_share": 1.0 - failed / attempted,
        }
    else:
        spans = tracer.collect()
        per_run = []
        for outcome, run_id in traced:
            mine = [s for s in spans if s["run"] == run_id]
            per_run.append(layer_metrics(mine, outcome.wall, outcome.retried))
        metrics = {name: statistics.median(m[name] for m in per_run)
                   for name in per_run[0]}
        metrics["setup.import_s"] = statistics.median(
            s["import_s"] for s in samples)
        metrics["setup.code_version_s"] = statistics.median(
            s["code_version_s"] for s in samples)
        metrics["campaigns.plan_s"] = statistics.median(
            s["plan_s"] for s in samples)
        metrics["trace.overhead_s"] = statistics.median(
            o.scaled(speed, workload.kernel) for o, _ in traced) - wall
        metrics["host.speed"] = host_speed
        save_trace(workload, seed, spans)
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    record = {
        "workload": workload.name, "key": workload.key, "seed": seed,
        "trace": int(trace),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **provenance(),
        "runs": len(outcomes),
        "raw_wall_s": statistics.median(o.wall for o in outcomes),
        "host_speed": host_speed,
        "host_steal_share": hostspeed.window_steal_share(
            speed, speed[0][0], speed[-1][0]),
        "host_kernel_s": {
            name: hostspeed.window_kernel_s(
                speed, speed[0][0], speed[-1][0], name)
            for name in hostspeed.KERNELS
        },
        "correct": correct,
        "metrics": metrics,
    }
    with open(STATE / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return {
        "record": record,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        },
    }


def recorded_walls(workload: Workload) -> List[float]:
    """``wall_s`` of this checkout's earlier correct untraced runs of
    this workload, campaign and scale on the current code: the median
    a traced cold run is compared with, so it need not run the campaign
    twice."""
    from repro.engine.cache import code_version

    path = STATE / "records.jsonl"
    if not path.exists():
        return []
    walls = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if (record["workload"] == workload.name
                    and record.get("key") == workload.key
                    and not record["trace"]
                    and record["correct"]
                    and record["code_version"] == code_version()):
                walls.append(record["metrics"]["wall_s"])
    return walls


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def save_trace(workload: Workload, seed: int, spans) -> None:
    """Write the traced run's spans out once, at the end."""
    path = STATE / "traces" / f"{workload.name}-{seed}-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
