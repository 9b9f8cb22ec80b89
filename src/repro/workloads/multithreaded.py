"""Multi-threaded workload substitutes: FFT, RADIX (SPLASH-2), PageRank (GAP).

Threads of one program share a footprint; the generators split the
shared data among cores the way the real kernels do:

* FFT — each thread sweeps its partition with power-of-two strides
  between phases (butterfly exchanges touch rows shared with siblings);
* RADIX — counting phase sweeps the local partition, permute phase
  scatters across the whole footprint;
* PageRank — destination-vertex accesses are near-uniform over the
  entire graph (very low row locality, high ACT rate).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.workloads.trace import CoreTrace, TraceEntry


def _gaps(rng, n: int, mean_gap: float) -> List[int]:
    """Exponential integer gaps.

    Deliberately NOT ``synthetic._gaps``: that helper short-circuits
    ``mean_gap <= 0`` without touching the RNG, while these generators
    have always drawn ``n`` variates unconditionally — unifying would
    shift the draw stream and change historical traces bit-for-bit.
    """
    return [
        g if g > 0 else 0
        for g in map(int, rng.exponential(mean_gap, size=n))
    ]


def _entries_from_logical(
    logical_rows: Sequence[int],
    gaps: Sequence[int],
    writes: Sequence[bool],
    num_banks: int,
    rows_per_bank: int = 65536,
) -> List[TraceEntry]:
    return [
        TraceEntry(
            gap_cycles=int(gaps[i]),
            bank_index=int(logical_rows[i]) % num_banks,
            row=(int(logical_rows[i]) // num_banks) % rows_per_bank,
            column=i % 128,
            is_write=bool(writes[i]),
            instructions=int(gaps[i]) + 1,
        )
        for i in range(len(logical_rows))
    ]


def fft_like(
    num_cores: int = 16,
    num_requests: int = 4000,
    num_banks: int = 64,
    footprint_rows: int = 16384,
    mean_gap: float = 24.0,
    seed: int = 21,
) -> List[CoreTrace]:
    """FFT: partitioned sweeps with stride-doubling exchange phases."""
    rng = np.random.default_rng(seed)
    partition = footprint_rows // num_cores
    traces = []
    for core in range(num_cores):
        gaps = _gaps(rng, num_requests, mean_gap)
        writes = [v < 0.5 for v in rng.random(num_requests)]
        logical = [0] * num_requests
        base = core * partition
        stride = 1
        position = 0
        phase_len = max(1, num_requests // 8)
        for i in range(num_requests):
            if i % phase_len == 0 and i > 0:
                stride = min(stride * 2, footprint_rows // 2)
                position = 0
            logical[i] = (base + (position % partition)) % footprint_rows
            # exchange phase: every 4th access goes to a sibling partition
            if stride > 1 and i % 4 == 3:
                logical[i] = (logical[i] + stride) % footprint_rows
            position += 1 if stride == 1 else stride
        traces.append(
            CoreTrace(
                name=f"fft-t{core}",
                entries=_entries_from_logical(logical, gaps, writes, num_banks),
                memory_intensive=True,
            )
        )
    return traces


def radix_like(
    num_cores: int = 16,
    num_requests: int = 4000,
    num_banks: int = 64,
    footprint_rows: int = 16384,
    mean_gap: float = 20.0,
    seed: int = 22,
) -> List[CoreTrace]:
    """RADIX: local counting sweep then global scatter (permute)."""
    rng = np.random.default_rng(seed)
    partition = footprint_rows // num_cores
    traces = []
    for core in range(num_cores):
        gaps = _gaps(rng, num_requests, mean_gap)
        writes = [v < 0.5 for v in rng.random(num_requests)]
        half = num_requests // 2
        local = [
            core * partition + (i // 8) % partition for i in range(half)
        ]
        scatter = rng.integers(0, footprint_rows, size=num_requests - half)
        logical = local + list(scatter)
        traces.append(
            CoreTrace(
                name=f"radix-t{core}",
                entries=_entries_from_logical(logical, gaps, writes, num_banks),
                memory_intensive=True,
            )
        )
    return traces


def zipf_weights(count: int, exponent: float) -> np.ndarray:
    """Normalized ``1 / rank**exponent`` weights, rank = 1..count."""
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, exponent)
    weights /= weights.sum()
    return weights


def pagerank_like(
    num_cores: int = 16,
    num_requests: int = 4000,
    num_banks: int = 64,
    footprint_rows: int = 65536,
    mean_gap: float = 18.0,
    skew: float = 0.75,
    seed: int = 23,
) -> List[CoreTrace]:
    """PageRank: power-law vertex popularity over a huge footprint."""
    rng = np.random.default_rng(seed)
    traces = []
    # Zipf-ish vertex popularity shared by all threads.
    weights = zipf_weights(footprint_rows, skew)
    for core in range(num_cores):
        gaps = _gaps(rng, num_requests, mean_gap)
        writes = [v < 0.15 for v in rng.random(num_requests)]
        logical = rng.choice(footprint_rows, size=num_requests, p=weights)
        traces.append(
            CoreTrace(
                name=f"pagerank-t{core}",
                entries=_entries_from_logical(logical, gaps, writes, num_banks),
                memory_intensive=True,
            )
        )
    return traces
