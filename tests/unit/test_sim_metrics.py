"""Unit tests for simulation metrics."""

import pytest

from repro.sim.metrics import (
    POW2_BUCKETS,
    SimulationResult,
    exact_percentile,
    merge_counts,
    percentile_from_counts,
    percentile_summary,
    pow2_bucket,
    pow2_bucket_bounds,
    pow2_histogram,
)
from repro.types import EnergyCounts


def _result(instructions, finishes, **kwargs):
    defaults = dict(
        scheme_name="s",
        total_cycles=max(finishes) if finishes else 0,
        per_core_instructions=instructions,
        per_core_finish_cycles=finishes,
        energy=EnergyCounts(),
    )
    defaults.update(kwargs)
    return SimulationResult(**defaults)


class TestSimulationResult:
    def test_aggregate_ipc_sums_cores(self):
        result = _result([100, 200], [100, 100])
        assert result.aggregate_ipc == pytest.approx(3.0)

    def test_zero_finish_core_skipped(self):
        result = _result([100, 50], [100, 0])
        assert result.aggregate_ipc == pytest.approx(1.0)

    def test_relative_performance(self):
        base = _result([100], [100])      # IPC 1.0
        slow = _result([100], [125])      # IPC 0.8
        assert slow.relative_performance(base) == pytest.approx(80.0)

    def test_relative_performance_zero_baseline(self):
        base = _result([0], [0])
        other = _result([10], [10])
        assert other.relative_performance(base) == 0.0

    def test_row_hit_rate(self):
        result = _result([1], [1], row_hits=30, row_misses=70)
        assert result.row_hit_rate == pytest.approx(0.3)

    def test_row_hit_rate_no_accesses(self):
        assert _result([1], [1]).row_hit_rate == 0.0

    def test_summary_keys(self):
        summary = _result([1], [1]).summary()
        for key in ("scheme", "aggregate_ipc", "flips", "rfm_commands"):
            assert key in summary


class TestEnergyCounts:
    def test_merged_adds_fields(self):
        a = EnergyCounts(acts=1, reads=2, preventive_refresh_rows=3)
        b = EnergyCounts(acts=10, writes=5, rfm_commands=7)
        merged = a.merged(b)
        assert merged.acts == 11
        assert merged.reads == 2
        assert merged.writes == 5
        assert merged.preventive_refresh_rows == 3
        assert merged.rfm_commands == 7

    def test_merged_does_not_mutate(self):
        a = EnergyCounts(acts=1)
        b = EnergyCounts(acts=2)
        a.merged(b)
        assert a.acts == 1 and b.acts == 2


class TestPow2Histograms:
    """Exact-value coverage of the probe layer's histogram helpers."""

    def test_bucket_zero_and_negative(self):
        assert pow2_bucket(0) == 0
        assert pow2_bucket(-5) == 0

    def test_bucket_boundaries_are_bit_length(self):
        # bucket i (i >= 1) holds [2**(i-1), 2**i)
        assert pow2_bucket(1) == 1
        assert pow2_bucket(2) == 2
        assert pow2_bucket(3) == 2
        assert pow2_bucket(4) == 3
        assert pow2_bucket(7) == 3
        assert pow2_bucket(8) == 4

    def test_bucket_clamps_to_last(self):
        huge = 1 << 40
        assert pow2_bucket(huge) == POW2_BUCKETS - 1
        assert pow2_bucket(huge, buckets=4) == 3

    def test_bounds_round_trip_bucket(self):
        for index in range(POW2_BUCKETS):
            lower, upper = pow2_bucket_bounds(index)
            assert pow2_bucket(lower) == index
            if upper is not None:
                assert pow2_bucket(upper - 1) == index
                assert pow2_bucket(upper) == index + 1

    def test_bounds_exact_values(self):
        assert pow2_bucket_bounds(0) == (0, 1)
        assert pow2_bucket_bounds(1) == (1, 2)
        assert pow2_bucket_bounds(3) == (4, 8)
        # the last bucket is open-ended
        last = pow2_bucket_bounds(POW2_BUCKETS - 1)
        assert last == (1 << (POW2_BUCKETS - 2), None)

    def test_histogram_exact_counts(self):
        counts = pow2_histogram([0, 0, 1, 2, 3, 4, 9], buckets=5)
        assert counts == [2, 1, 2, 1, 1]
        assert sum(counts) == 7

    def test_merge_counts_pads_shorter_vectors(self):
        assert merge_counts([[1, 2], [3, 4, 5]]) == [4, 6, 5]
        assert merge_counts([[], [1, 1]]) == [1, 1]
        assert merge_counts([]) == []
        assert merge_counts([[], []]) == []


class TestPercentiles:
    def test_exact_percentile_nearest_rank(self):
        values = [1, 2, 3, 4]
        assert exact_percentile(values, 50) == 2
        assert exact_percentile(values, 75) == 3
        assert exact_percentile(values, 95) == 4
        assert exact_percentile(values, 100) == 4

    def test_exact_percentile_unsorted_input(self):
        assert exact_percentile([9, 1, 5], 50) == 5
        assert exact_percentile([9, 1, 5], 1) == 1

    def test_exact_percentile_empty_and_bad_q(self):
        assert exact_percentile([], 50) is None
        with pytest.raises(ValueError):
            exact_percentile([1], 0)
        with pytest.raises(ValueError):
            exact_percentile([1], 101)

    def test_percentile_from_counts_exact(self):
        # 3 samples in bucket 1, 2 in bucket 2, 1 in bucket 4
        counts = [0, 3, 2, 0, 1]
        assert percentile_from_counts(counts, 50) == 1
        assert percentile_from_counts(counts, 75) == 2
        assert percentile_from_counts(counts, 99) == 4
        assert percentile_from_counts(counts, 100) == 4

    def test_percentile_from_counts_empty_and_bad_q(self):
        assert percentile_from_counts([0, 0], 50) is None
        assert percentile_from_counts([], 50) is None
        with pytest.raises(ValueError):
            percentile_from_counts([1], 0)

    def test_percentile_summary_exact_panel(self):
        summary = percentile_summary([4, 1, 3, 2])
        assert summary == {
            "count": 4, "min": 1, "max": 4, "mean": 2.5,
            "p50": 2, "p95": 4, "p99": 4,
        }

    def test_percentile_summary_empty(self):
        assert percentile_summary([]) == {"count": 0}
