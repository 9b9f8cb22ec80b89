"""Supervised pull-model worker pool: leases, retries, quarantine.

``ProcessPoolExecutor.map`` — the engine's original fan-out — has
exactly the failure modes a long campaign cannot afford: a worker
killed mid-job poisons the whole pool (``BrokenProcessPool`` aborts
every in-flight result), a hung worker stalls the map forever, and a
raising job surfaces as an opaque error with no record of *which* job
died.  This module replaces it with a supervisor that treats worker
death as an expected event:

* **pull model** — each worker owns a dedicated task queue and is
  handed one job at a time, so the supervisor always knows which job a
  worker holds (the *lease*) and since when; results come back tagged
  with their lease, and a result for a lease already given up on is
  dropped;
* **long-lived, workload-affine workers** — one pool serves any number
  of :meth:`SupervisedPool.run` batches (a whole campaign), and an idle
  worker prefers jobs on the workload it last built;
* **timeouts** — a lease older than ``job_timeout`` gets its worker
  killed (``SIGKILL``) and replaced; the job counts a failed attempt;
* **retry with backoff** — failed attempts (exception, crash,
  timeout) are re-queued after an exponential backoff with
  deterministic per-job jitter, up to ``max_retries`` retries;
* **quarantine** — a job that exhausts its budget becomes a
  :class:`JobFailure` with full diagnostics (per-attempt events,
  traceback or exit code, scheme/workload identity) instead of
  aborting the batch.  Poison jobs that repeatedly kill their worker
  are the canonical case.

Workers run :func:`repro.engine.executor.execute_job` behind the
``worker.execute`` fault-injection site (:mod:`repro.faults`), which
is how the tests provoke every path above deterministically.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.job import SimJob

#: Poll ceiling of the supervisor loop (also the detection latency for
#: a worker that died without posting a result).
_POLL_S = 0.25

#: Interval between supervisor heartbeat events (telemetry on only).
_HEARTBEAT_S = 1.0

log = logging.getLogger("repro.engine.supervisor")


@dataclass
class RetryPolicy:
    """How failed attempts are retried.

    ``max_retries`` bounds *re*-tries: a job runs at most
    ``max_retries + 1`` times.  The backoff for retry ``n`` (1-based)
    is ``min(cap, base * 2**(n-1))`` scaled by a deterministic jitter
    in ``[1, 1 + jitter]`` derived from the job hash — reproducible
    schedules, but simultaneous failures do not retry in lockstep.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 5.0
    jitter: float = 0.25

    def delay(self, job_hash: str, retry: int) -> float:
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, retry - 1)),
        )
        if base <= 0.0:
            return 0.0
        seed = int(job_hash[:8] or "0", 16) * 2654435761 % (1 << 32)
        frac = ((seed >> 8) & 0xFFFF) / 0xFFFF
        return base * (1.0 + self.jitter * frac)


@dataclass
class JobFailure:
    """One job's terminal failure, with enough context to act on it."""

    job_hash: str
    scheme: str
    workload: str
    attempts: int
    reason: str                     #: last failure kind
    message: str                    #: one-line last-failure summary
    traceback: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job_hash": self.job_hash,
            "scheme": self.scheme,
            "workload": self.workload,
            "attempts": self.attempts,
            "reason": self.reason,
            "message": self.message,
            "traceback": self.traceback,
            "events": list(self.events),
        }

    def describe(self) -> str:
        return (
            f"{self.job_hash[:12]} {self.scheme}/{self.workload}: "
            f"{self.reason} after {self.attempts} attempt(s) — "
            f"{self.message}"
        )


def _worker_main(task_queue, result_queue) -> None:
    """Worker loop: one job per lease, structured error capture.

    Every result message carries its lease — ``(tag, pid, attempt,
    job_hash, payload, traceback)`` — so the supervisor can tell a
    live lease's answer from a late one sent by a worker it already
    gave up on.
    """
    from repro import faults, telemetry
    from repro.engine.executor import execute_job

    faults.IN_WORKER = True
    pid = os.getpid()
    # telemetry.get() re-checks the pid, so the forked child opens its
    # own events-<pid>.jsonl instead of appending to the parent's.
    tel = telemetry.get()
    if tel is not None:
        tel.set_role("worker")
    while True:
        item = task_queue.get()
        if item is None:
            return
        job_hash, attempt, job, batch = item
        try:
            faults.maybe_fail("worker.execute", job_hash)
            # ``batch`` names the supervisor batch that leased this job
            # (the ``supervisor.batch`` span with the same id): workers
            # outlive batches, so the lease, not the fork, is the parent.
            span = (
                tel.span("job.execute", job=job_hash, scheme=job.scheme,
                         batch=batch)
                if tel is not None else telemetry.NOOP_SPAN
            )
            with span:
                result = execute_job(job)
        except BaseException as error:  # noqa: BLE001 — reported, not hidden
            if tel is not None:
                tel.event(
                    "job.error", job=job_hash,
                    message=f"{type(error).__name__}: {error}",
                )
            result_queue.put((
                "err", pid, attempt, job_hash,
                f"{type(error).__name__}: {error}",
                traceback.format_exc(),
            ))
        else:
            if tel is not None:
                tel.event("job.ok", job=job_hash)
            result_queue.put(("ok", pid, attempt, job_hash, result, None))


class _Worker:
    """One supervised worker process and its lease state."""

    __slots__ = ("proc", "task_queue", "current", "attempt", "workload",
                 "deadline", "lease_wall")

    def __init__(self, ctx, result_queue):
        self.task_queue = ctx.SimpleQueue()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(self.task_queue, result_queue),
            daemon=True,
        )
        self.proc.start()
        self.current: Optional[str] = None
        self.attempt = 0
        #: Workload of the last job leased here: the one the worker's
        #: workload memo is sure to hold.
        self.workload = None
        self.deadline: Optional[float] = None
        self.lease_wall: Optional[float] = None

    def assign(self, job_hash: str, attempt: int, job: SimJob,
               timeout: Optional[float], batch: str) -> None:
        self.task_queue.put((job_hash, attempt, job, batch))
        self.current = job_hash
        self.attempt = attempt
        self.workload = job.workload
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        self.lease_wall = time.time()

    def holds(self, pid: int, attempt: int, job_hash: str) -> bool:
        """Is (pid, attempt, job_hash) this worker's live lease?"""
        return (
            self.current == job_hash
            and self.attempt == attempt
            and self.proc.pid == pid
        )

    def release(self) -> None:
        self.current = None
        self.deadline = None
        self.lease_wall = None

    def close(self, kill: bool = False) -> None:
        try:
            if kill:
                self.proc.kill()
            elif self.proc.is_alive():
                self.task_queue.put(None)
            self.proc.join(timeout=2.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=2.0)
        except (OSError, ValueError):
            pass
        try:
            self.task_queue.close()
        except (OSError, AttributeError):
            pass


@dataclass
class PoolOutcome:
    """What one :meth:`SupervisedPool.run` call produced."""

    results: Dict[str, Any]
    failures: Dict[str, JobFailure]
    retried: int = 0
    #: Summed seconds jobs spent eligible-but-unassigned (worker
    #: contention, not backoff) — the executor folds this into
    #: ``RunStats.timing_breakdown["queue_wait"]``.
    queue_wait_s: float = 0.0


class SupervisedPool:
    """Run batches of unique jobs under supervision.

    A pool is opened once and :meth:`run` as often as the caller has
    batches; the campaign executor keeps one for the whole campaign,
    so workers — and the workload memo each keeps
    (:func:`repro.engine.executor.execute_job`) — outlive a checkpoint
    batch.  Workers are forked on demand, up to ``n_workers``, by the
    first :meth:`run` that has jobs for them; :meth:`close` (or leaving
    a ``with`` block) stops them.  ``job_timeout`` (seconds, None =
    unbounded) bounds each lease.

    Scheduling is workload-affine: an idle worker takes an eligible
    job on the workload it last ran, else one on a workload no other
    worker holds, else the earliest eligible job.  Result messages
    that do not match a live lease (pid, attempt and job) are dropped,
    and an idle worker found dead at the start of a run is replaced
    without charging any job an attempt.
    """

    def __init__(
        self,
        n_workers: int,
        job_timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
    ):
        self.n_workers = max(1, int(n_workers))
        self.job_timeout = job_timeout
        self.policy = policy or RetryPolicy()
        self.ctx = multiprocessing.get_context()
        self._workers: List[_Worker] = []
        self._result_queue = None
        #: id of the current :meth:`run` batch (``<pid>:<n>``), sent
        #: with every lease so worker spans name the batch they serve.
        self._batch = ""
        self._batches = 0

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker; a later :meth:`run` forks new ones."""
        for worker in self._workers:
            worker.close()
        self._workers = []
        if self._result_queue is not None:
            try:
                self._result_queue.close()
                self._result_queue.join_thread()
            except (OSError, AttributeError):
                pass
            self._result_queue = None

    def _spawn(self, tel, replaces: Optional[int] = None) -> _Worker:
        worker = _Worker(self.ctx, self._result_queue)
        if tel is not None:
            extra = {} if replaces is None else {"replaces": replaces}
            tel.event("worker.spawn", worker=worker.proc.pid, **extra)
        return worker

    def _pick(self, worker: _Worker, ready, now: float, jobs):
        """The ready entry ``worker`` leases next (None: none eligible)."""
        held = {w.workload for w in self._workers if w is not worker}
        best, best_key = None, None
        for entry in ready:
            if entry[0] > now:
                continue
            spec = jobs[entry[2]].workload
            rank = 0 if spec == worker.workload else (
                1 if spec not in held else 2
            )
            key = (rank, entry[0], entry[1])
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def run(self, items: List[Tuple[str, SimJob]]) -> PoolOutcome:
        """Run ``items`` (``(job_hash, job)`` pairs) to completion or
        quarantine.  An exception (including ``KeyboardInterrupt``)
        closes the pool before it propagates."""
        from repro import telemetry

        self._batches += 1
        self._batch = f"{os.getpid()}:{self._batches}"
        try:
            with telemetry.span("supervisor.batch", batch=self._batch,
                                jobs=len(items)):
                return self._run(items)
        except BaseException:
            self.close()
            raise

    def _run(self, items: List[Tuple[str, SimJob]]) -> PoolOutcome:
        from repro import telemetry

        jobs = dict(items)
        outcome = PoolOutcome(results={}, failures={})
        if not jobs:
            return outcome
        tel = telemetry.get()
        if tel is not None:
            tel.set_role("supervisor")
        if self._result_queue is None:
            self._result_queue = self.ctx.Queue()
        result_queue = self._result_queue
        workers = self._workers
        for index, worker in enumerate(workers):
            if not worker.proc.is_alive():
                log.warning(
                    "idle worker %s died between runs (exit %s); "
                    "replacing it", worker.proc.pid, worker.proc.exitcode,
                )
                worker.close(kill=True)
                workers[index] = self._spawn(tel, replaces=worker.proc.pid)
        while len(workers) < min(self.n_workers, len(jobs)):
            workers.append(self._spawn(tel))
        log.info(
            "pool: %d worker(s) over %d job(s), timeout=%s",
            len(workers), len(jobs), self.job_timeout,
        )
        attempts: Dict[str, int] = {h: 0 for h in jobs}
        events: Dict[str, List[Dict[str, Any]]] = {h: [] for h in jobs}
        start_mono = time.monotonic()
        # (eligible since, seq, hash): every job neither leased nor
        # finished; seq keeps ties in submission order.
        ready: List[Tuple[float, int, str]] = [
            (start_mono, seq, job_hash)
            for seq, (job_hash, _job) in enumerate(items)
        ]
        seq_counter = len(ready)
        remaining = set(jobs)
        last_heartbeat = start_mono

        def lease_closed(worker: "_Worker", result: str) -> None:
            """Stamp the supervisor-side lease span for a finished (or
            killed) lease, on the *worker's* track (tid=worker pid) so
            even a worker that died without writing a byte shows its
            lease history."""
            if tel is None or worker.lease_wall is None:
                return
            tel.synthetic_span(
                "lease", worker.lease_wall,
                time.time() - worker.lease_wall,
                tid=worker.proc.pid, job=worker.current, result=result,
                batch=self._batch,
            )

        def attempt_failed(job_hash: str, reason: str, message: str,
                           trace: Optional[str] = None) -> None:
            nonlocal seq_counter
            events[job_hash].append({
                "attempt": attempts[job_hash],
                "reason": reason,
                "message": message,
            })
            job = jobs[job_hash]
            if attempts[job_hash] > self.policy.max_retries:
                log.info(
                    "quarantine %s after %d attempt(s): %s",
                    job_hash[:12], attempts[job_hash], reason,
                )
                if tel is not None:
                    tel.event(
                        "job.quarantine", job=job_hash,
                        attempts=attempts[job_hash], reason=reason,
                    )
                outcome.failures[job_hash] = JobFailure(
                    job_hash=job_hash,
                    scheme=job.scheme,
                    workload=job.workload.kind,
                    attempts=attempts[job_hash],
                    reason=reason,
                    message=message,
                    traceback=trace,
                    events=events[job_hash],
                )
                remaining.discard(job_hash)
                return
            outcome.retried += 1
            delay = self.policy.delay(job_hash, attempts[job_hash])
            log.debug(
                "retry %s attempt=%d reason=%s backoff=%.3fs",
                job_hash[:12], attempts[job_hash], reason, delay,
            )
            if tel is not None:
                tel.event(
                    "job.retry", job=job_hash,
                    attempt=attempts[job_hash], reason=reason,
                    delay=round(delay, 6),
                )
                if delay > 0.0:
                    # The backoff window as a span: visible dead-time
                    # between the failed attempt and the re-lease.
                    tel.synthetic_span(
                        "retry.backoff", time.time(), delay,
                        job=job_hash, attempt=attempts[job_hash],
                        reason=reason,
                    )
            seq_counter += 1
            ready.append((time.monotonic() + delay, seq_counter, job_hash))

        def replace(index: int, worker: "_Worker", result: str) -> None:
            """Kill a worker whose lease failed and fork its successor."""
            lease_closed(worker, result)
            worker.release()
            worker.close(kill=True)
            workers[index] = self._spawn(tel, replaces=worker.proc.pid)

        while remaining:
            now = time.monotonic()
            # -- hand eligible jobs to idle workers --------------------
            for worker in workers:
                if worker.current is not None:
                    continue
                entry = self._pick(worker, ready, now, jobs)
                if entry is None:
                    break
                ready.remove(entry)
                eligible_since, _, job_hash = entry
                attempts[job_hash] += 1
                outcome.queue_wait_s += max(0.0, now - eligible_since)
                worker.assign(
                    job_hash, attempts[job_hash], jobs[job_hash],
                    self.job_timeout, self._batch,
                )
                if tel is not None:
                    tel.event(
                        "lease.assign", job=job_hash,
                        tid=worker.proc.pid, attempt=attempts[job_hash],
                    )
            # -- wait for a result (bounded poll) ----------------------
            wait = _POLL_S
            deadlines = [
                w.deadline for w in workers if w.deadline is not None
            ]
            if deadlines:
                wait = min(wait, max(0.01, min(deadlines) - now))
            if ready and any(w.current is None for w in workers):
                # only backoff-delayed jobs can be waiting here
                wait = min(wait, max(0.01, min(ready)[0] - now))
            try:
                tag, pid, attempt, job_hash, payload, trace = (
                    result_queue.get(timeout=wait)
                )
            except queue_mod.Empty:
                tag = None
            if tag is not None:
                owner = next(
                    (w for w in workers if w.holds(pid, attempt, job_hash)),
                    None,
                )
                if owner is None:
                    log.info(
                        "dropping stale %r result for %s (worker %s, "
                        "attempt %s)", tag, job_hash[:12], pid, attempt,
                    )
                    if tel is not None:
                        tel.event(
                            "result.stale", job=job_hash, tid=pid,
                            attempt=attempt,
                        )
                else:
                    lease_closed(owner, tag)
                    owner.release()
                    if tag == "ok":
                        outcome.results[job_hash] = payload
                        remaining.discard(job_hash)
                    else:
                        attempt_failed(
                            job_hash, "exception", payload, trace
                        )
            # -- heartbeat (telemetry only) ----------------------------
            now = time.monotonic()
            if tel is not None and now - last_heartbeat >= _HEARTBEAT_S:
                last_heartbeat = now
                tel.event(
                    "heartbeat",
                    remaining=len(remaining),
                    inflight=sum(
                        1 for w in workers if w.current is not None
                    ),
                    queued=len(ready),
                )
            # -- reap dead and expired workers -------------------------
            for index, worker in enumerate(workers):
                if worker.current is None:
                    continue
                job_hash = worker.current
                if not worker.proc.is_alive():
                    exit_code = worker.proc.exitcode
                    log.warning(
                        "worker %s died mid-job (exit %s), job %s",
                        worker.proc.pid, exit_code, job_hash[:12],
                    )
                    if tel is not None:
                        tel.event(
                            "worker.crash", tid=worker.proc.pid,
                            job=job_hash, exit_code=exit_code,
                        )
                    replace(index, worker, "crash")
                    attempt_failed(
                        job_hash, "worker-crash",
                        "worker process died mid-job "
                        f"(exit code {exit_code})",
                    )
                elif worker.deadline is not None and now >= worker.deadline:
                    log.warning(
                        "lease expired after %ss: killing worker %s "
                        "(job %s)", self.job_timeout,
                        worker.proc.pid, job_hash[:12],
                    )
                    if tel is not None:
                        tel.event(
                            "timeout.kill", tid=worker.proc.pid,
                            job=job_hash, timeout=self.job_timeout,
                        )
                    replace(index, worker, "timeout")
                    attempt_failed(
                        job_hash, "timeout",
                        f"lease exceeded {self.job_timeout}s; "
                        "worker killed",
                    )
        return outcome
