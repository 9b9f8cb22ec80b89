"""Pin the default output of every seeded workload builder.

Each case hashes a builder's default traces, entry by entry, and
compares the digest with a committed constant.  A change that alters
any draw, its order or its coercion (gap, bank, row, column, write
flag, instruction count) changes the digest.  The golden pairs cover
only mix-high, fft and the attacks; these pins cover the remaining
seeded generators too.
"""

import hashlib
import json

import pytest

from repro.traces import families
from repro.workloads import multithreaded, spec_like

DIGESTS = {
    "mix_high": "c344a2e988a74e18",
    "mix_blend": "593803b5306d7781",
    "fft_like": "7c33d1f267c55bd0",
    "radix_like": "2ae4564ee2bfa60b",
    "pagerank_like": "dac822764d6ef105",
    "capacity_pressure": "3b3b3046c58570de",
    "row_conflict_heavy": "341817a4a35c5d6e",
    "multi_channel_imbalanced": "5af3c034aa5751da",
}


def _digest(traces) -> str:
    rows = [
        (
            trace.name,
            trace.memory_intensive,
            [
                (
                    e.gap_cycles,
                    e.bank_index,
                    e.row,
                    e.column,
                    e.is_write,
                    e.instructions,
                )
                for e in trace.entries
            ],
        )
        for trace in traces
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("builder", sorted(DIGESTS))
def test_default_output_digest(builder):
    fn = (
        getattr(spec_like, builder, None)
        or getattr(multithreaded, builder, None)
        or getattr(families, builder)
    )
    assert _digest(fn()) == DIGESTS[builder]
