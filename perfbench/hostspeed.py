"""Host-speed reference for the campaign benchmark.

The benchmark runs on a few vCPUs of a shared host whose speed swings
in two ways.  The vCPUs run slower: fixed pure-Python work takes from
1x to 2x its best time, in phases lasting from seconds to minutes, and
a process's CPU time swings with it.  And the hypervisor takes the
vCPUs away now and then (steal time, 1% to 6% of a campaign).  A
campaign's raw wall time therefore moves by a quarter between runs of
the same code, and medians over a run do not help against the slow
phases.

A :class:`Pacer` measures both while a run is timed.  It is a separate
process that runs each of :data:`KERNELS` every ``PERIOD_S`` seconds,
records each kernel's own thread CPU time (which excludes steal), and
reads the host's steal counters.  A timed window's raw wall time is
then scaled by :func:`factor`: a kernel's reference time over its
median time inside the window, times the share of the window the vCPUs
were not stolen.  The result is the window's wall time on a host
running at the reference speed with nothing stolen.  A change to the
program moves it as it moves the raw wall time; a change in the host's
speed cancels out.

Kinds of work slow down by different amounts in a slow phase, so each
window is scaled by the kernel that slows like it.  Measured on the
host the bounds were set on, over phases that moved each by 1.5x: the
time of a fixed batch of paper-scale jobs (materialize + ``simulate``,
both vCPUs busy) over ``memory``'s time varied by 3% (coefficient of
variation over 30 s buckets), over ``interp``'s by 8%; a warm replay's
time (JSON, hashing, file reads) over ``interp``'s by 4%, over
``memory``'s by 5%.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Pause between kernel runs.
PERIOD_S = 0.05
#: Fewest samples a window is scaled by; a shorter window borrows the
#: samples nearest its middle.
MIN_SAMPLES = 5

#: Entries of the ``memory`` kernel's table: tens of megabytes, well
#: past the per-core caches, like the simulator's per-row state over a
#: campaign's workloads.
TABLE_ENTRIES = 400_000
_table: Dict[int, list] = {}


def kernel_interp() -> int:
    """A few milliseconds of interpreter work over a small working set:
    dicts and lists, JSON, hashing, integer loops."""
    rng = random.Random(1234)
    rows = [{"row": rng.randrange(1 << 16), "bank": i % 16,
             "acts": [rng.random() for _ in range(4)]} for i in range(300)]
    text = json.dumps(rows, sort_keys=True)
    counts: dict = {}
    for row in json.loads(text):
        key = (row["bank"], row["row"] & 0xFF)
        counts[key] = counts.get(key, 0) + 1
    x = 0
    for i in range(10_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    digest = hashlib.sha256(text.encode()).digest()
    return x ^ len(counts) ^ digest[0]


def kernel_memory() -> int:
    """A few milliseconds of random lookups in a table far larger than
    the per-core caches."""
    if not _table:
        _table.update((i * 7919, [i]) for i in range(TABLE_ENTRIES))
    rng = random.Random(99)
    total = 0
    for _ in range(5000):
        total += _table[rng.randrange(TABLE_ENTRIES) * 7919][0]
    return total


#: name -> (kernel, its thread CPU time at the reference speed: about
#: its time on the 2-vCPU Xeon (Sapphire Rapids, KVM) guest the
#: benchmark's bounds were set on, in a fast phase)
KERNELS: Dict[str, Tuple[Callable[[], int], float]] = {
    "interp": (kernel_interp, 0.004),
    "memory": (kernel_memory, 0.006),
}

#: (perf_counter at the kernels' start, host steal ticks, host total
#: ticks, then each kernel's CPU seconds in KERNELS order)
Sample = Tuple[float, ...]
_FIRST_KERNEL = 3


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) ticks of all CPUs since boot, from /proc/stat;
    (0, 0) where it cannot be read."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def pace(period: float = PERIOD_S) -> None:
    """Sampler loop (the pacer process): print ``ready``, time every
    kernel every ``period`` until standard input closes, then print the
    samples as one JSON list.  ``perf_counter`` is CLOCK_MONOTONIC on
    Linux, so the timestamps compare with the parent's."""
    kernel_memory()  # builds the table before the first sample
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    print("ready", flush=True)
    samples: List[Sample] = []
    while not stop.is_set():
        sample = [time.perf_counter(), *cpu_ticks()]
        for kernel, _ in KERNELS.values():
            cpu = time.thread_time()
            kernel()
            sample.append(time.thread_time() - cpu)
        samples.append(tuple(sample))
        stop.wait(period)
    sys.stdout.write(json.dumps(samples) + "\n")
    sys.stdout.flush()


class Pacer:
    """Runs the pacer process for the length of a ``with`` block; its
    samples are in :attr:`samples` afterwards.  The process is stopped
    and waited for on every way out of the block."""

    def __init__(self):
        self.samples: List[Sample] = []
        self._proc = None

    def __enter__(self) -> "Pacer":
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "pace"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._stop(kill=True)
            raise RuntimeError("pacer did not start")
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None:
            self._stop(kill=True)
            return
        out = self._stop(kill=False)
        if self._proc.returncode != 0:
            raise RuntimeError(f"pacer exited with {self._proc.returncode}")
        self.samples = [tuple(s) for s in json.loads(out)]
        if not self.samples:
            raise RuntimeError("pacer recorded no samples")

    def _stop(self, kill: bool) -> str:
        proc = self._proc
        if not kill:
            try:
                return proc.communicate("", timeout=60)[0]
            except subprocess.TimeoutExpired:
                pass
        proc.kill()
        proc.communicate()
        return ""


def window_kernel_s(samples: Sequence[Sample], start: float, end: float,
                    kernel: str) -> float:
    """Median time of ``kernel`` in the samples taken in ``[start,
    end]``, or in the ``MIN_SAMPLES`` nearest its middle when it holds
    fewer."""
    column = _FIRST_KERNEL + list(KERNELS).index(kernel)
    inside = [s[column] for s in samples if start <= s[0] <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
        inside = [s[column] for s in nearest[:MIN_SAMPLES]]
    return statistics.median(inside)


def window_steal_share(samples: Sequence[Sample], start: float,
                       end: float) -> float:
    """Share of the host's CPU ticks stolen between the samples nearest
    ``start`` and ``end`` (0 when they are the same sample)."""
    first = min(samples, key=lambda s: abs(s[0] - start))
    last = min(samples, key=lambda s: abs(s[0] - end))
    total = last[2] - first[2]
    return (last[1] - first[1]) / total if total > 0 else 0.0


def factor(samples: Sequence[Sample], start: float, end: float,
           kernel: str) -> float:
    """Scale from a window's raw seconds to seconds at the reference
    speed with nothing stolen (below 1 when the host ran slower), by
    the speed ``kernel`` saw."""
    return (KERNELS[kernel][1] / window_kernel_s(samples, start, end, kernel)
            * (1.0 - window_steal_share(samples, start, end)))
