"""Streamed chunked SoA decode and the bounded decode cache.

The turbo drain reads trace fields through a window protocol
(``chunk_start`` / ``chunk_end`` / ``ensure``); these tests pin the
two invariants the protocol rests on: every window of a streamed
decode is field-identical to the same span of the full decode
(including the cross-chunk ``steps`` lookahead), and the full-decode
cache is bounded (LRU eviction) and weakly tied to its trace objects.
"""

import gc

import pytest

from repro.sim import soa as soa_module
from repro.sim.soa import (
    CACHE_ENV,
    CHUNK_ENV,
    StreamedTraceSoA,
    TraceDecodeCache,
    TraceSoA,
    decode_cache,
    decode_trace,
)
from repro.workloads.trace import CoreTrace, TraceEntry


def _trace(n, name="t", gap_pattern=(0, 0, 3, 1)):
    """A trace with runs of gap-0 entries (same-epoch bursts) so chunk
    edges land mid-epoch for most chunk sizes."""
    entries = [
        TraceEntry(
            gap_cycles=gap_pattern[i % len(gap_pattern)],
            bank_index=i * 7,
            row=(i * 13) % 64,
            column=i % 8,
            is_write=(i % 5 == 0),
        )
        for i in range(n)
    ]
    return CoreTrace(name=name, entries=entries, memory_intensive=True)


@pytest.fixture(autouse=True)
def _fresh_cache(monkeypatch):
    """Isolate the module-level cache from other tests."""
    monkeypatch.delenv(CHUNK_ENV, raising=False)
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.setattr(soa_module, "_cache", None)


class TestStreamedDecodeEquality:
    @pytest.mark.parametrize("chunk", [1, 3, 7, 16, 37])
    def test_windows_match_full_decode(self, chunk):
        """Walking every window reproduces the full decode field-for-
        field — including ``steps`` at chunk boundaries, which needs
        the one-entry lookahead into the next chunk."""
        trace = _trace(97)
        full = TraceSoA(trace, num_banks=8)
        streamed = StreamedTraceSoA(trace, num_banks=8, chunk=chunk)
        seen = {f: [] for f in ("flats", "rows", "columns", "writes", "steps")}
        index = 0
        while index < streamed.length:
            streamed.ensure(index)
            assert streamed.chunk_start <= index < streamed.chunk_end
            for field in seen:
                seen[field].extend(getattr(streamed, field))
            index = streamed.chunk_end
        for field, values in seen.items():
            assert values == getattr(full, field), field

    def test_chunk_boundary_mid_epoch(self):
        """A gap-0 burst straddling the chunk edge: the step *after*
        the last entry of the window comes from the next chunk's first
        gap, so it must be right without loading that chunk."""
        entries = [
            TraceEntry(gap_cycles=g, bank_index=i, row=i)
            for i, g in enumerate([5, 0, 0, 0, 0, 9, 2])
        ]
        trace = CoreTrace(name="burst", entries=entries,
                          memory_intensive=True)
        streamed = StreamedTraceSoA(trace, num_banks=4, chunk=3)
        # Window [0, 3): steps peek gaps of entries 1..3 = 0,0,0 -> 1,1,1
        assert streamed.steps == [1, 1, 1]
        streamed.ensure(3)
        # Window [3, 6): gaps of entries 4..6 = 0,9,2 -> 1,9,2
        assert streamed.steps == [1, 9, 2]
        streamed.ensure(6)
        # Final window: last entry of the trace steps 1.
        assert streamed.steps == [1]

    def test_random_access_is_chunk_aligned(self):
        streamed = StreamedTraceSoA(_trace(50), num_banks=4, chunk=8)
        streamed.ensure(29)
        assert (streamed.chunk_start, streamed.chunk_end) == (24, 32)
        loads = streamed.loads
        streamed.ensure(24)
        streamed.ensure(31)
        assert streamed.loads == loads  # in-window: no reload
        with pytest.raises(IndexError):
            streamed.ensure(50)
        with pytest.raises(IndexError):
            streamed.ensure(-1)

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(ValueError, match="chunk"):
            StreamedTraceSoA(_trace(4), num_banks=4, chunk=0)


class TestDecodeTraceDispatch:
    def test_small_trace_decodes_fully_and_caches(self):
        trace = _trace(20)
        first = decode_trace(trace, 8)
        assert isinstance(first, TraceSoA)
        assert decode_trace(trace, 8) is first
        # Different geometry is a different decode.
        assert decode_trace(trace, 4) is not first

    def test_env_chunk_forces_streaming(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "8")
        trace = _trace(20)
        streamed = decode_trace(trace, 8)
        assert isinstance(streamed, StreamedTraceSoA)
        assert streamed.chunk == 8
        # Stateful windows are never shared.
        assert decode_trace(trace, 8) is not streamed
        assert len(decode_cache()) == 0

    def test_trace_shorter_than_one_chunk_stays_full(self, monkeypatch):
        """A forced chunk larger than the trace is a full decode — it
        takes the cached single-window shape, not a streamed one."""
        monkeypatch.setenv(CHUNK_ENV, "1024")
        trace = _trace(20)
        decoded = decode_trace(trace, 8)
        assert isinstance(decoded, TraceSoA)
        assert (decoded.chunk_start, decoded.chunk_end) == (0, 20)

    def test_garbage_chunk_env_ignored(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "not-a-number")
        assert isinstance(decode_trace(_trace(20), 8), TraceSoA)


class TestDecodeCache:
    def test_lru_eviction_is_bounded(self):
        cache = TraceDecodeCache(capacity=2)
        traces = [_trace(10, name=f"t{i}") for i in range(3)]
        decoded = [TraceSoA(t, 4) for t in traces]
        for trace, soa in zip(traces, decoded):
            cache.store(trace, 4, soa)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup(traces[0], 4) is None  # oldest evicted
        assert cache.lookup(traces[2], 4) is decoded[2]

    def test_lookup_refreshes_lru_order(self):
        cache = TraceDecodeCache(capacity=2)
        traces = [_trace(10, name=f"t{i}") for i in range(3)]
        cache.store(traces[0], 4, TraceSoA(traces[0], 4))
        cache.store(traces[1], 4, TraceSoA(traces[1], 4))
        cache.lookup(traces[0], 4)  # touch: t1 becomes LRU
        cache.store(traces[2], 4, TraceSoA(traces[2], 4))
        assert cache.lookup(traces[0], 4) is not None
        assert cache.lookup(traces[1], 4) is None

    def test_dead_trace_drops_its_decode(self):
        cache = TraceDecodeCache(capacity=8)
        trace = _trace(10)
        cache.store(trace, 4, TraceSoA(trace, 4))
        assert len(cache) == 1
        del trace
        gc.collect()
        assert len(cache) == 0

    def test_stale_length_misses(self):
        cache = TraceDecodeCache(capacity=8)
        trace = _trace(10)
        cache.store(trace, 4, TraceSoA(trace, 4))
        trace.entries.append(TraceEntry(gap_cycles=1, bank_index=0, row=0))
        assert cache.lookup(trace, 4) is None
        assert len(cache) == 0

    def test_zero_capacity_stores_nothing(self):
        cache = TraceDecodeCache(capacity=0)
        trace = _trace(10)
        cache.store(trace, 4, TraceSoA(trace, 4))
        assert len(cache) == 0

    def test_cache_env_rebuilds_module_cache(self, monkeypatch):
        first = decode_cache()
        assert first.capacity == soa_module.DEFAULT_CACHE_SIZE
        monkeypatch.setenv(CACHE_ENV, "3")
        second = decode_cache()
        assert second is not first
        assert second.capacity == 3
        assert decode_cache() is second
