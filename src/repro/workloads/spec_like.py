"""SPEC-CPU2017-style multiprogrammed workload mixes.

The paper evaluates two 16-trace mixes:

* **mix-high** — 16 memory-intensive traces;
* **mix-blend** — 16 randomly selected traces (intensive and not).

The substitutes here compose the synthetic primitives with per-core
parameters drawn deterministically from the mix seed.  Memory-intensive
cores get small inter-request gaps and large sweeping footprints (the
lbm behaviour of Figure 8); compute-bound cores get large gaps and
small footprints.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.workloads.synthetic import (
    random_access_trace,
    streaming_sweep_trace,
    strided_trace,
)
from repro.workloads.trace import CoreTrace


_GENERATORS = (streaming_sweep_trace, random_access_trace, strided_trace)


def _one_core(
    index: int,
    rng,
    num_requests: int,
    num_banks: int,
    intensive: bool,
) -> CoreTrace:
    kind = _GENERATORS[int(rng.integers(0, len(_GENERATORS)))]
    mean_gap = float(rng.uniform(16, 40) if intensive else rng.uniform(120, 400))
    seed = int(rng.integers(0, 2**31))
    kwargs = dict(
        name=f"core{index}-{kind.__name__.replace('_trace', '')}"
        + ("-mem" if intensive else "-cpu"),
        num_requests=num_requests,
        num_banks=num_banks,
        mean_gap=mean_gap,
        seed=seed,
    )
    if kind is streaming_sweep_trace:
        kwargs["footprint_rows"] = int(rng.integers(1024, 8192))
        kwargs["start_row"] = int(rng.integers(0, 32768))
    elif kind is random_access_trace:
        kwargs["footprint_rows"] = int(rng.integers(8192, 65536))
    else:
        kwargs["footprint_rows"] = int(rng.integers(2048, 16384))
        kwargs["stride_rows"] = int(rng.choice([2, 4, 8, 16]))
    trace = kind(**kwargs)
    trace.memory_intensive = intensive
    return trace


def mix_high(
    num_cores: int = 16,
    num_requests: int = 4000,
    num_banks: int = 64,
    seed: int = 11,
) -> List[CoreTrace]:
    """mix-high: every core is memory intensive."""
    rng = np.random.default_rng(seed)
    return [
        _one_core(i, rng, num_requests, num_banks, intensive=True)
        for i in range(num_cores)
    ]


def mix_blend(
    num_cores: int = 16,
    num_requests: int = 4000,
    num_banks: int = 64,
    seed: int = 12,
) -> List[CoreTrace]:
    """mix-blend: a random half-and-half blend of intensities."""
    rng = np.random.default_rng(seed)
    intensities = [v < 0.5 for v in rng.random(num_cores)]
    if not any(intensities):
        intensities[0] = True
    return [
        _one_core(i, rng, num_requests, num_banks, intensive=bool(intensities[i]))
        for i in range(num_cores)
    ]
