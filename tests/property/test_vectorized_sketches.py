"""Scalar and vectorized sketch engines agree exactly, always.

The turbo backend swaps the scalar sketches for the numpy engines of
:mod:`repro.streaming.vectorized`; golden byte-identity across
backends rests on these engines producing *the same numbers*, not
statistically similar ones.  Hypothesis drives randomized streams —
mixed observes, batch observes, estimates, batch estimates, CBF
decrements (including past-zero clamping) and resets — through both
implementations and requires exact agreement at every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.count_min import CountMinSketch
from repro.streaming.counting_bloom import (
    CountingBloomFilter,
    DualCountingBloomFilter,
)
from repro.streaming.vectorized import (
    NumpyCountMinSketch,
    NumpyCountingBloomFilter,
    NumpyDualCountingBloomFilter,
)

# Tiny counter spaces maximize probe aliasing — the regime where an
# index-dedup bug would diverge from the scalar probe loop.
SIZES = st.integers(min_value=1, max_value=64)
ELEMENTS = st.integers(min_value=0, max_value=40)
COUNTS = st.integers(min_value=1, max_value=5)


def ops_strategy(with_decrement: bool):
    op = st.one_of(
        st.tuples(st.just("observe"), ELEMENTS, COUNTS),
        st.tuples(
            st.just("observe_many"),
            st.lists(ELEMENTS, max_size=12),
            COUNTS,
        ),
        st.tuples(st.just("estimate"), ELEMENTS, st.just(0)),
        st.tuples(
            st.just("estimate_many"),
            st.lists(ELEMENTS, max_size=12),
            st.just(0),
        ),
        st.tuples(st.just("reset"), st.just(0), st.just(0)),
    )
    if with_decrement:
        op = st.one_of(
            op, st.tuples(st.just("decrement"), ELEMENTS, COUNTS)
        )
    return st.lists(op, max_size=40)


def drive(scalar, turbo, operations, check_total=True):
    """Apply each op to both engines, asserting identical results."""
    for name, arg, count in operations:
        if name == "observe":
            scalar.observe(arg, count)
            turbo.observe(arg, count)
        elif name == "observe_many":
            scalar.observe_many(arg, count)
            turbo.observe_many(arg, count)
        elif name == "decrement":
            scalar.decrement(arg, count)
            turbo.decrement(arg, count)
        elif name == "estimate":
            assert scalar.estimate(arg) == turbo.estimate(arg)
        elif name == "estimate_many":
            assert scalar.estimate_many(arg) == turbo.estimate_many(arg)
        else:
            scalar.reset()
            turbo.reset()
        if check_total:
            assert scalar.total_observed == turbo.total_observed
    # Full final sweep: every element ever mentioned estimates equal.
    probe = sorted(
        {arg for name, arg, _ in operations if isinstance(arg, int)}
        | {e for name, arg, _ in operations
           if isinstance(arg, list) for e in arg}
    )
    assert scalar.estimate_many(probe) == turbo.estimate_many(probe)


class TestCountMin:
    @settings(max_examples=80, deadline=None)
    @given(
        width=SIZES,
        depth=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32),
        operations=ops_strategy(with_decrement=False),
    )
    def test_exact_agreement(self, width, depth, seed, operations):
        drive(
            CountMinSketch(width, depth, seed),
            NumpyCountMinSketch(width, depth, seed),
            operations,
        )


class TestCountingBloom:
    @settings(max_examples=80, deadline=None)
    @given(
        size=SIZES,
        hashes=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32),
        operations=ops_strategy(with_decrement=True),
    )
    def test_exact_agreement(self, size, hashes, seed, operations):
        drive(
            CountingBloomFilter(size, hashes, seed),
            NumpyCountingBloomFilter(size, hashes, seed),
            operations,
        )

    def test_decrement_clamps_at_zero(self):
        scalar = CountingBloomFilter(8, 4, seed=3)
        turbo = NumpyCountingBloomFilter(8, 4, seed=3)
        for engine in (scalar, turbo):
            engine.observe(1, 3)
            engine.decrement(1, 10)  # past zero: every counter clamps
        assert scalar.estimate(1) == turbo.estimate(1) == 0
        assert scalar.total_observed == turbo.total_observed == 0

    def test_decrement_aliased_counters(self):
        # size=1: every probe aliases onto one counter; the scalar
        # sequential clamp and the vectorized multiplicity form must
        # still agree.
        scalar = CountingBloomFilter(1, 4, seed=9)
        turbo = NumpyCountingBloomFilter(1, 4, seed=9)
        for engine in (scalar, turbo):
            engine.observe(5, 2)
            engine.decrement(5, 1)
        assert scalar.estimate(5) == turbo.estimate(5)


class TestDualCountingBloom:
    @settings(max_examples=80, deadline=None)
    @given(
        size=SIZES,
        epoch=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32),
        operations=ops_strategy(with_decrement=False),
        tail=st.lists(ELEMENTS, min_size=0, max_size=30),
    )
    def test_exact_agreement(self, size, epoch, seed, operations, tail):
        scalar = DualCountingBloomFilter(size, epoch, seed=seed)
        turbo = NumpyDualCountingBloomFilter(size, epoch, seed=seed)
        drive(scalar, turbo, operations, check_total=False)
        # The per-ACT hot path: interleaved observe_and_estimate must
        # agree across rotations.
        for element in tail:
            assert scalar.observe_and_estimate(
                element
            ) == turbo.observe_and_estimate(element)
        assert scalar._active == turbo._active
        assert scalar._since_swap == turbo._since_swap

    def test_rotation_mid_batch(self):
        scalar = DualCountingBloomFilter(16, 6, seed=1)
        turbo = NumpyDualCountingBloomFilter(16, 6, seed=1)
        batch = list(range(10))  # crosses multiple half-epochs (3)
        scalar.observe_many(batch)
        turbo.observe_many(batch)
        assert scalar._active == turbo._active
        assert scalar.estimate_many(batch) == turbo.estimate_many(batch)

    def test_multi_count_observe_rotates_identically(self):
        scalar = DualCountingBloomFilter(16, 4, seed=2)
        turbo = NumpyDualCountingBloomFilter(16, 4, seed=2)
        scalar.observe(7, 9)
        turbo.observe(7, 9)
        assert scalar._active == turbo._active
        assert scalar._since_swap == turbo._since_swap
        assert scalar.estimate(7) == turbo.estimate(7)
