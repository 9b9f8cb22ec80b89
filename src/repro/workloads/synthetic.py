"""Base synthetic trace generators.

Three access primitives cover the behaviours the paper's workloads
exhibit:

* :func:`streaming_sweep_trace` — the lbm-style "large object sweep"
  of Figure 8: sequential sweep over a big footprint, concentrated
  per-row bursts, bank-interleaved;
* :func:`random_access_trace` — PageRank-style irregular accesses with
  almost no row locality (every access is an ACT);
* :func:`strided_trace` — FFT/RADIX-style strided phases.

All generators are deterministic in their ``seed``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.workloads.trace import CoreTrace, TraceEntry


def _gaps(rng, n: int, mean_gap: float) -> List[int]:
    """Integer inter-request gaps with an exponential distribution.

    One sized ``exponential`` draw, truncated toward zero per element
    and clamped at zero.
    """
    if mean_gap <= 0:
        return [0] * n
    return [
        g if g > 0 else 0
        for g in map(int, rng.exponential(mean_gap, size=n))
    ]


def streaming_sweep_trace(
    name: str = "sweep",
    num_requests: int = 4000,
    num_banks: int = 64,
    rows_per_bank: int = 65536,
    accesses_per_row: int = 16,
    footprint_rows: int = 2048,
    mean_gap: float = 24.0,
    write_fraction: float = 0.3,
    start_row: int = 0,
    seed: int = 1,
) -> CoreTrace:
    """Sequential sweep: bursts of accesses per row, rows striped on banks."""
    if accesses_per_row <= 0:
        raise ValueError("accesses_per_row must be positive")
    rng = np.random.default_rng(seed)
    gaps = _gaps(rng, num_requests, mean_gap)
    writes = [v < write_fraction for v in rng.random(num_requests)]
    entries = []
    for i in range(num_requests):
        block = i // accesses_per_row
        logical_row = start_row + block % footprint_rows
        bank = logical_row % num_banks
        row = (logical_row // num_banks) % rows_per_bank
        entries.append(
            TraceEntry(
                gap_cycles=int(gaps[i]),
                bank_index=bank,
                row=row,
                column=i % accesses_per_row,
                is_write=bool(writes[i]),
                instructions=int(gaps[i]) + 1,
            )
        )
    return CoreTrace(name=name, entries=entries, memory_intensive=mean_gap < 64)


def random_access_trace(
    name: str = "random",
    num_requests: int = 4000,
    num_banks: int = 64,
    rows_per_bank: int = 65536,
    footprint_rows: int = 65536,
    mean_gap: float = 32.0,
    write_fraction: float = 0.2,
    seed: int = 2,
) -> CoreTrace:
    """Uniform random rows: near-zero locality, one ACT per access."""
    rng = np.random.default_rng(seed)
    gaps = _gaps(rng, num_requests, mean_gap)
    logical = rng.integers(0, footprint_rows, size=num_requests)
    columns = rng.integers(0, 128, size=num_requests)
    writes = [v < write_fraction for v in rng.random(num_requests)]
    entries = [
        TraceEntry(
            gap_cycles=int(gaps[i]),
            bank_index=int(logical[i]) % num_banks,
            row=(int(logical[i]) // num_banks) % rows_per_bank,
            column=int(columns[i]),
            is_write=bool(writes[i]),
            instructions=int(gaps[i]) + 1,
        )
        for i in range(num_requests)
    ]
    return CoreTrace(name=name, entries=entries, memory_intensive=mean_gap < 64)


def strided_trace(
    name: str = "strided",
    num_requests: int = 4000,
    num_banks: int = 64,
    rows_per_bank: int = 65536,
    stride_rows: int = 8,
    phase_length: int = 512,
    footprint_rows: int = 4096,
    mean_gap: float = 28.0,
    write_fraction: float = 0.4,
    seed: int = 3,
) -> CoreTrace:
    """Strided phases: FFT butterflies / radix-sort scatter behaviour."""
    rng = np.random.default_rng(seed)
    gaps = _gaps(rng, num_requests, mean_gap)
    writes = [v < write_fraction for v in rng.random(num_requests)]
    entries = []
    position = 0
    for i in range(num_requests):
        if i % phase_length == 0 and i > 0:
            position = int(rng.integers(0, footprint_rows))
        logical = position % footprint_rows
        position += stride_rows
        bank = logical % num_banks
        row = (logical // num_banks) % rows_per_bank
        entries.append(
            TraceEntry(
                gap_cycles=int(gaps[i]),
                bank_index=bank,
                row=row,
                column=i % 64,
                is_write=bool(writes[i]),
                instructions=int(gaps[i]) + 1,
            )
        )
    return CoreTrace(name=name, entries=entries, memory_intensive=mean_gap < 64)
