"""In-memory span tracer for the campaign benchmark.

Spans are recorded by wrapping the program's public entry points from
outside (no program file knows about this module).  A span has a name,
start and end (``time.perf_counter``, which is CLOCK_MONOTONIC on Linux
and therefore comparable across forked processes), the id of the span
that caused it, a run id shared by every span of one campaign, the pid
that recorded it, and a small attribute dict.

Forked ``SupervisedPool`` workers inherit the installed wrappers and
the parent's open-span stack, so a worker's first span is parented on
the supervisor span that forked it.  A worker cannot hand its spans
back through memory; it appends them to ``spans-<pid>.jsonl`` in the
tracer's spill directory each time its outermost span closes, and
:meth:`Tracer.collect` merges those files into the parent's list.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Tracer:
    """Collects spans in memory; one instance per traced benchmark run."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.run_id = ""
        self._pid = os.getpid()
        self._spans: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._base_depth = 0
        self._child = False
        self._next = 0
        self._patches: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    def _forked(self) -> None:
        """First span in a forked child: drop the parent's spans (the
        parent reports them) and keep its open stack as context."""
        self._pid = os.getpid()
        self._spans = []
        self._base_depth = len(self._stack)
        self._child = True
        self._next = 0

    def _open(self) -> Tuple[str, Optional[str]]:
        if os.getpid() != self._pid:
            self._forked()
        self._next += 1
        span_id = f"{self._pid}:{self._next}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, attrs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._spans.append({
            "name": name, "start": start, "end": end, "id": span_id,
            "parent": parent, "run": self.run_id, "pid": self._pid,
            "attrs": attrs,
        })
        if self._child and len(self._stack) == self._base_depth:
            self._spill()

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as handle:
            for span in self._spans:
                handle.write(json.dumps(span) + "\n")
        self._spans = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; yields its (mutable) attribute dict."""
        span_id, parent = self._open()
        start = time.perf_counter()
        attrs: Dict[str, Any] = {}
        try:
            yield attrs
        finally:
            self._close(span_id, parent, name, start, attrs)

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``;
        ``attrs(args, kwargs, result)`` adds attributes."""
        with self.span(name) as extra:
            result = fn(*args, **kwargs)
            if attrs is not None:
                extra.update(attrs(args, kwargs, result))
        return result

    def collect(self) -> List[Dict[str, Any]]:
        """Every span recorded so far, the workers' spill files included."""
        spans = list(self._spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
        return spans

    # -- wrapping the program's entry points ---------------------------

    def wrap_function(self, module, attr: str, name: str,
                      attrs: Optional[Callable] = None) -> None:
        """Replace ``module.attr`` everywhere it is bound by name.

        Modules that did ``from x import f`` hold their own reference,
        so every module attribute that *is* the original object is
        rebound.  The wrapper shares the original's ``__dict__``, so
        function attributes such as ``run_jobs.last_stats`` read and
        write the same storage through either name.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, attrs)

        wrapper.__dict__ = original.__dict__
        _rebind(original, wrapper)
        self._patches.append(lambda: _rebind(wrapper, original))

    def wrap_method(self, cls, attr: str, name: str,
                    attrs: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, attrs)

        setattr(cls, attr, wrapper)
        self._patches.append(lambda: setattr(cls, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            self._patches.pop()()


def _rebind(old: Any, new: Any) -> None:
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if value is old:
                namespace[key] = new


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (overlapping children, e.g. two workers, are counted once)."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"]) - covered(
            span["start"], span["end"], children.get(span["id"], ())
        )
        for span in spans
    }


def layer_totals(spans: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += selfs[span["id"]]
    return totals


#: Percentiles tried for the tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def nearest_rank(ordered: Sequence[float], pct: float) -> Tuple[int, float]:
    """(rank, value) of the nearest-rank percentile of sorted data."""
    # round() keeps float error (99.9% of 10000 = 9990.000000000002)
    # from bumping the rank past an exact boundary.
    rank = max(1, math.ceil(round(pct * len(ordered) / 100.0, 9)))
    return rank, ordered[rank - 1]


def tail_percentile(values: Sequence[float],
                    min_beyond: int = 10) -> Optional[Tuple[float, float]]:
    """The highest ladder percentile with at least ``min_beyond``
    samples above its rank, as ``(percentile, value)``; None when even
    the median has fewer than ``min_beyond`` samples beyond it."""
    ordered = sorted(values)
    best = None
    for pct in TAIL_LADDER:
        if not ordered:
            break
        rank, value = nearest_rank(ordered, pct)
        if len(ordered) - rank >= min_beyond:
            best = (pct, value)
    return best
