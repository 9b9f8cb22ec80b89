"""Scalar and native backends agree byte for byte on random systems.

The golden suite pins 24 hand-picked scheme x workload pairs at the
default configuration.  This property draws random *small* systems
instead — scheme and its parameters, page policy, scheduler, geometry
(channels, banks, rows, refresh groups, tREFI), RFM threshold, MLP,
hammer tracking and a ``max_cycles`` cut — and short traces that mix
benign fragments with attack fragments (double-sided, many-sided and
rotation hammering on one bank).  ``result_to_dict`` of the scalar
reference and of the native C drain must serialize to identical bytes
(and a run a scheme aborts must abort identically).

Small rows-per-bank, refresh groups and thresholds put the rare paths
(array-edge victims, refresh ranges, RFM with the Mithril+ MRR gate,
ARR bursts, BlockHammer throttling, flips) inside a few hundred
accesses.
"""

import dataclasses
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.cache import result_to_dict
from repro.engine.catalog import _blockhammer_factory
from repro.params import DEFAULT_CONFIG
from repro.sim.system import simulate
from repro.workloads.trace import CoreTrace, TraceEntry

SCHEMES = ("none", "mithril", "mithril+", "parfm", "graphene",
           "blockhammer", "para", "cbt", "twice")


def _factory(scheme, flip_th, rows, knob):
    """A scheme factory; ``knob`` varies each scheme's main parameter."""
    from repro.core.mithril import MithrilScheme
    from repro.mitigations.cbt import CbtScheme
    from repro.mitigations.graphene import GrapheneScheme
    from repro.mitigations.para import ParaScheme
    from repro.mitigations.parfm import ParfmScheme
    from repro.mitigations.twice import TwiceScheme

    if scheme == "none":
        return None
    if scheme in ("mithril", "mithril+"):
        return lambda: MithrilScheme(
            n_entries=2 + knob % 30, rfm_th=4 + knob % 12,
            adaptive_th=(knob * 7) % 40, plus=scheme == "mithril+",
            rows_per_bank=rows,
        )
    if scheme == "parfm":
        return lambda: ParfmScheme(rows_per_bank=rows, seed=knob)
    if scheme == "blockhammer":
        return _blockhammer_factory(flip_th, 0.05 + (knob % 8) / 10)
    if scheme == "para":
        return lambda: ParaScheme(flip_th=flip_th, rows_per_bank=rows,
                                  seed=knob)
    if scheme == "graphene":
        return lambda: GrapheneScheme(flip_th=flip_th, rows_per_bank=rows)
    if scheme == "cbt":
        return lambda: CbtScheme(flip_th=flip_th, rows_per_bank=rows)
    return lambda: TwiceScheme(flip_th=flip_th, rows_per_bank=rows)


def _benign(draw, banks, rows):
    return draw(st.lists(
        st.builds(
            TraceEntry,
            gap_cycles=st.integers(min_value=0, max_value=80),
            bank_index=st.integers(min_value=0, max_value=2 * banks),
            row=st.integers(min_value=0, max_value=rows - 1),
            column=st.integers(min_value=0, max_value=7),
            is_write=st.booleans(),
            instructions=st.integers(min_value=1, max_value=32),
        ),
        max_size=30,
    ))


def _attack(draw, banks, rows):
    bank = draw(st.integers(min_value=0, max_value=banks - 1))
    base = draw(st.integers(min_value=0, max_value=rows - 1))
    pattern = draw(st.sampled_from(["double", "many", "rotation"]))
    if pattern == "double":
        aggressors = [base - 1, base + 1]
    elif pattern == "many":
        aggressors = [base + 2 * i for i in range(draw(
            st.integers(min_value=2, max_value=9)))]
    else:
        aggressors = [base + 3 * i for i in range(draw(
            st.integers(min_value=8, max_value=40)))]
    aggressors = [row % rows for row in aggressors]
    count = draw(st.integers(min_value=4, max_value=160))
    return [
        TraceEntry(gap_cycles=0, bank_index=bank,
                   row=aggressors[i % len(aggressors)], column=i % 8,
                   is_write=False, instructions=1)
        for i in range(count)
    ]


@st.composite
def systems(draw):
    channels = draw(st.integers(min_value=1, max_value=2))
    banks_per_rank = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.sampled_from([16, 64, 512]))
    banks = channels * banks_per_rank
    config = dataclasses.replace(
        DEFAULT_CONFIG,
        scheduler=draw(st.sampled_from(["bliss", "frfcfs"])),
        page_policy=draw(st.sampled_from(
            ["open", "closed", "minimalist-open"])),
    ).with_organization(
        channels=channels, banks_per_rank=banks_per_rank,
        rows_per_bank=rows,
        refresh_groups=draw(st.sampled_from([1, 4, 8192])),
    ).with_timings(trefi=draw(st.sampled_from([300.0, 3906.25])))
    traces = []
    for core in range(draw(st.integers(min_value=1, max_value=3))):
        entries = []
        for is_attack in draw(st.lists(st.booleans(), min_size=1,
                                       max_size=3)):
            entries += (_attack if is_attack else _benign)(draw, banks, rows)
        traces.append(CoreTrace(name=f"c{core}", entries=entries))
    scheme = draw(st.sampled_from(SCHEMES))
    flip_th = draw(st.sampled_from([32, 100, 400]))
    knob = draw(st.integers(min_value=0, max_value=1000))
    return dict(
        traces=traces,
        scheme_factory=_factory(scheme, flip_th, rows, knob),
        config=config,
        rfm_th=draw(st.sampled_from([0, 2, 5, 16])),
        flip_th=flip_th,
        mlp=draw(st.integers(min_value=1, max_value=4)),
        track_hammer=draw(st.booleans()),
        max_cycles=draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=6000))),
    )


def _canonical(kwargs, backend) -> str:
    """The run's result as canonical JSON — or, for a configuration a
    scheme rejects mid-run (e.g. Mithril's wrapping-counter overflow
    when no RFM drains its table), the exception it raised: both
    backends must fail the same way too."""
    try:
        result = simulate(backend=backend, **kwargs)
    except (OverflowError, ValueError) as error:
        return f"{type(error).__name__}: {error}"
    return json.dumps(result_to_dict(result), sort_keys=True,
                      separators=(",", ":"))


def _regression(scheme, **overrides):
    """A fixed one-bank, two-core double-sided system for ``@example``
    seeds: edge shapes (cut at cycle 0, FR-FCFS throttling, closed
    pages with the MRR gate, 16-row array edges) plus the property's
    first shrunk counterexample, a Mithril run without RFM that the
    scheme aborts on wrapping-counter overflow."""
    rows = overrides.pop("rows", 64)
    config = dataclasses.replace(
        DEFAULT_CONFIG, scheduler=overrides.pop("scheduler", "bliss"),
        page_policy=overrides.pop("page_policy", "minimalist-open"),
    ).with_organization(channels=1, banks_per_rank=1, rows_per_bank=rows,
                        refresh_groups=4).with_timings(trefi=300.0)
    entries = [TraceEntry(0, 0, (i % 2) * 2 + 1, 0, False, 1)
               for i in range(overrides.pop("acts", 120))]
    kwargs = dict(
        traces=[CoreTrace("a", entries),
                CoreTrace("b", list(reversed(entries)))],
        scheme_factory=_factory(scheme, 32, rows, overrides.pop("knob", 3)),
        config=config, rfm_th=2, flip_th=32, mlp=2, track_hammer=True,
        max_cycles=None,
    )
    kwargs.update(overrides)
    return kwargs


@given(systems())
@example(_regression("blockhammer", scheduler="frfcfs"))
@example(_regression("mithril+", page_policy="closed"))
@example(_regression("para", max_cycles=0))
@example(_regression("graphene", rows=16, acts=200))
@example(_regression("mithril", rfm_th=0, acts=300))
@settings(max_examples=150, deadline=None)
def test_native_matches_scalar(kwargs):
    assert _canonical(kwargs, "native") == _canonical(kwargs, "scalar")
