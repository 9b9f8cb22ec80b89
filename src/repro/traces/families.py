"""New stress families: workloads at the extremes of the ACT axes.

BlockHammer (HPCA 2021) and Graphene (MICRO 2020) rank differently
once row locality collapses or bank load skews, so each family pins
one extreme of the characterization space
(:mod:`repro.traces.characterize`) and ships **design targets** —
numeric bounds its own characterization must satisfy — asserted by the
test suite and printed by ``repro traces synth --check``:

``capacity-pressure``
    Row-buffer-thrashing sweeps: every core walks a bank-striped
    footprint so consecutive accesses to any one bank always land on
    adjacent-but-different rows.  ACT-per-access ~= 1 with balanced
    banks — the maximum benign ACT rate the geometry allows.

``row-conflict-heavy``
    Antagonistic same-bank different-row pairs: cores are paired onto
    a shared bank and ping-pong disjoint row sets, so the merged
    stream is a continuous row-buffer conflict on a handful of banks
    (the queueing-pressure extreme; most banks stay idle).

``multi-channel-imbalanced``
    Skewed bank/channel load: a hot fraction of block accesses goes to
    channel 0's banks, the remainder to channel 1's, with per-core row
    bursts.  Per-bank trackers see wildly uneven ACT budgets.

All generators are deterministic in their ``seed`` and register in the
engine catalog (``repro.engine.catalog``) with ``--scale``-aware
sizing, so `SimJob`s reference them like any other workload kind.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.params import DramOrganization
from repro.workloads.synthetic import _gaps
from repro.workloads.trace import CoreTrace, TraceEntry

#: The documented design targets (docs/WORKLOADS.md); the numbers the
#: family tests assert via :func:`design_violations`.
DESIGN_TARGETS: Dict[str, Dict[str, float]] = {
    "capacity-pressure": {
        "act_per_access_min": 0.95,
        "mean_burst_length_max": 1.05,
        "bank_imbalance_max": 1.3,
    },
    "row-conflict-heavy": {
        "act_per_access_min": 0.95,
        # touched banks <= ceil(num_cores / 2): pairs share one bank.
        "banks_touched_max_pair_fraction": 1.0,
        "mean_burst_length_max": 1.05,
    },
    "multi-channel-imbalanced": {
        "bank_imbalance_min": 1.4,
        "channel_share_top_min": 0.65,
        "per_core_mean_burst_min": 2.0,
    },
}


def capacity_pressure(
    num_cores: int = 4,
    num_requests: int = 1200,
    num_banks: int = 16,
    rows_per_bank: int = 65536,
    footprint_rows: int = 4096,
    mean_gap: float = 10.0,
    write_fraction: float = 0.25,
    seed: int = 61,
) -> List[CoreTrace]:
    """Row-buffer-thrashing sweeps (see the module docstring).

    Core ``c`` walks logical blocks ``start_c, start_c + 1, ...``;
    ``bank = block % num_banks`` stripes adjacent blocks across banks,
    so the next access to the same bank sits one row further — a
    guaranteed row-buffer miss under any page policy.
    """
    rng = np.random.default_rng(seed)
    traces = []
    for core in range(num_cores):
        start = core * footprint_rows + int(rng.integers(0, num_banks))
        gaps = _gaps(rng, num_requests, mean_gap)
        writes = [v < write_fraction for v in rng.random(num_requests)]
        entries = []
        for i in range(num_requests):
            block = start + i
            entries.append(
                TraceEntry(
                    gap_cycles=int(gaps[i]),
                    bank_index=block % num_banks,
                    row=(block // num_banks) % rows_per_bank,
                    column=i % 128,
                    is_write=bool(writes[i]),
                    instructions=int(gaps[i]) + 1,
                )
            )
        traces.append(
            CoreTrace(
                name=f"core{core}-capacity-pressure",
                entries=entries,
                memory_intensive=True,
            )
        )
    return traces


def row_conflict_heavy(
    num_cores: int = 4,
    num_requests: int = 1200,
    num_banks: int = 16,
    rows_per_bank: int = 65536,
    conflict_rows: int = 8,
    mean_gap: float = 8.0,
    write_fraction: float = 0.2,
    seed: int = 62,
) -> List[CoreTrace]:
    """Antagonistic same-bank different-row pairs.

    Cores ``2p`` and ``2p + 1`` share bank ``p % num_banks`` but cycle
    *disjoint* sets of ``conflict_rows`` rows, so every scheduled
    request closes the other core's row.  An odd trailing core gets a
    bank of its own (still self-conflicting across its row set).
    """
    if conflict_rows < 2:
        raise ValueError(
            f"conflict_rows must be >= 2 to force row misses, "
            f"got {conflict_rows}"
        )
    rng = np.random.default_rng(seed)
    traces = []
    for core in range(num_cores):
        pair = core // 2
        bank = pair % num_banks
        base = (pair * 4096 + (core % 2) * 2048) % rows_per_bank
        gaps = _gaps(rng, num_requests, mean_gap)
        writes = [v < write_fraction for v in rng.random(num_requests)]
        entries = [
            TraceEntry(
                gap_cycles=int(gaps[i]),
                bank_index=bank,
                row=(base + (i % conflict_rows) * 2) % rows_per_bank,
                column=i % 128,
                is_write=bool(writes[i]),
                instructions=int(gaps[i]) + 1,
            )
            for i in range(num_requests)
        ]
        traces.append(
            CoreTrace(
                name=f"core{core}-row-conflict",
                entries=entries,
                memory_intensive=True,
            )
        )
    return traces


def multi_channel_imbalanced(
    num_cores: int = 4,
    num_requests: int = 1200,
    num_banks: int = 16,
    rows_per_bank: int = 65536,
    banks_per_channel: int = 32,
    hot_share: float = 0.75,
    accesses_per_row: int = 4,
    mean_gap: float = 14.0,
    write_fraction: float = 0.3,
    seed: int = 63,
) -> List[CoreTrace]:
    """Skewed bank/channel load with per-core row bursts.

    Each burst of ``accesses_per_row`` requests picks a (bank, row):
    with probability ``hot_share`` a bank in channel 0 (flat indices
    ``[0, num_banks)``), otherwise the matching bank of channel 1
    (``[banks_per_channel, banks_per_channel + num_banks)`` — the
    default organization's flat-to-channel fold).
    """
    if not 0.5 <= hot_share < 1.0:
        raise ValueError(
            f"hot_share must be in [0.5, 1.0) to skew, got {hot_share}"
        )
    if accesses_per_row <= 0:
        raise ValueError("accesses_per_row must be positive")
    rng = np.random.default_rng(seed)
    traces = []
    for core in range(num_cores):
        gaps = _gaps(rng, num_requests, mean_gap)
        writes = [v < write_fraction for v in rng.random(num_requests)]
        entries = []
        bank = row = 0
        for i in range(num_requests):
            if i % accesses_per_row == 0:
                local = int(rng.integers(0, num_banks))
                hot = bool(rng.random() < hot_share)
                bank = local if hot else banks_per_channel + local
                row = int(rng.integers(0, rows_per_bank))
            entries.append(
                TraceEntry(
                    gap_cycles=int(gaps[i]),
                    bank_index=bank,
                    row=row,
                    column=i % 128,
                    is_write=bool(writes[i]),
                    instructions=int(gaps[i]) + 1,
                )
            )
        traces.append(
            CoreTrace(
                name=f"core{core}-channel-imbalanced",
                entries=entries,
                memory_intensive=True,
            )
        )
    return traces


def design_violations(
    kind: str,
    traces: Sequence[CoreTrace],
    organization: Optional[DramOrganization] = None,
) -> List[str]:
    """Check a materialized family against :data:`DESIGN_TARGETS`.

    Returns human-readable violations (empty = the family hits its
    documented targets).  Used by the family regression tests and by
    ``repro traces synth --check``.
    """
    from repro.traces.characterize import (
        characterize_trace,
        characterize_workload,
    )

    try:
        targets = DESIGN_TARGETS[kind]
    except KeyError:
        raise KeyError(
            f"no design targets for workload kind {kind!r}; "
            f"known: {', '.join(sorted(DESIGN_TARGETS))}"
        ) from None
    merged = characterize_workload(traces, organization, name=kind)
    violations = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            violations.append(message)

    if "act_per_access_min" in targets:
        bound = targets["act_per_access_min"]
        require(
            merged.act_per_access >= bound,
            f"act_per_access {merged.act_per_access:.3f} < {bound}",
        )
    if "mean_burst_length_max" in targets:
        bound = targets["mean_burst_length_max"]
        require(
            merged.mean_burst_length <= bound,
            f"mean_burst_length {merged.mean_burst_length:.2f} > {bound}",
        )
    if "bank_imbalance_max" in targets:
        bound = targets["bank_imbalance_max"]
        require(
            merged.bank_imbalance <= bound,
            f"bank_imbalance {merged.bank_imbalance:.2f} > {bound}",
        )
    if "bank_imbalance_min" in targets:
        bound = targets["bank_imbalance_min"]
        require(
            merged.bank_imbalance >= bound,
            f"bank_imbalance {merged.bank_imbalance:.2f} < {bound}",
        )
    if "channel_share_top_min" in targets:
        bound = targets["channel_share_top_min"]
        require(
            merged.channel_share_top >= bound,
            f"channel_share_top {merged.channel_share_top:.2f} < {bound}",
        )
    if "banks_touched_max_pair_fraction" in targets:
        limit = math.ceil(
            len(traces) / 2 * targets["banks_touched_max_pair_fraction"]
        )
        require(
            merged.banks_touched <= limit,
            f"banks_touched {merged.banks_touched} > {limit} "
            f"(ceil(cores/2))",
        )
    if "per_core_mean_burst_min" in targets:
        bound = targets["per_core_mean_burst_min"]
        for trace in traces:
            single = characterize_trace(trace, organization)
            require(
                single.mean_burst_length >= bound,
                f"{trace.name}: per-core mean burst "
                f"{single.mean_burst_length:.2f} < {bound}",
            )
    return violations
