"""Tests for the statistics helpers."""

import math
from array import array

import numpy as np
import pytest

from repro.sim.stats import (
    MeasurementSummary,
    RunningStats,
    TrialResult,
    coefficient_of_variation,
    jain_fairness_index,
    mean,
    ordered_sum,
    stdev,
)


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.n == 0
        assert stats.mean == 0.0
        assert stats.stdev == 0.0

    def test_single_sample(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0

    def test_known_values(self):
        stats = RunningStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.stdev == pytest.approx(2.138, rel=1e-3)
        assert stats.minimum == 2.0
        assert stats.maximum == 9.0

    def test_merge_equivalent_to_combined(self):
        left, right, combined = RunningStats(), RunningStats(), RunningStats()
        a = [1.0, 2.0, 3.0]
        b = [10.0, 20.0, 30.0, 40.0]
        left.extend(a)
        right.extend(b)
        combined.extend(a + b)
        merged = left.merge(right)
        assert merged.n == combined.n
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.stdev == pytest.approx(combined.stdev)

    def test_merge_with_empty(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0])
        merged = stats.merge(RunningStats())
        assert merged.mean == pytest.approx(1.5)
        merged2 = RunningStats().merge(stats)
        assert merged2.n == 2


class TestTrialResult:
    def test_per_call_conversion(self):
        trial = TrialResult(name="x", calls=1000, total_cycles=599_000, mhz=599.0)
        assert trial.total_microseconds == pytest.approx(1000.0)
        assert trial.microseconds_per_call == pytest.approx(1.0)
        assert trial.cycles_per_call == pytest.approx(599.0)

    def test_jitter_scales_time_not_cycles(self):
        trial = TrialResult(name="x", calls=100, total_cycles=59_900, mhz=599.0,
                            jitter_factor=1.1)
        assert trial.microseconds_per_call == pytest.approx(1.1)
        assert trial.cycles_per_call == pytest.approx(599.0)

    def test_zero_calls(self):
        trial = TrialResult(name="x", calls=0, total_cycles=0, mhz=599.0)
        assert trial.microseconds_per_call == 0.0


class TestMeasurementSummary:
    def _summary(self, per_call_us):
        summary = MeasurementSummary(name="bench", calls_per_trial=1000)
        for us in per_call_us:
            summary.add(TrialResult(name="bench", calls=1000,
                                    total_cycles=int(us * 599.0 * 1000),
                                    mhz=599.0))
        return summary

    def test_mean_and_stdev(self):
        summary = self._summary([1.0, 1.1, 0.9])
        assert summary.num_trials == 3
        assert summary.mean_us_per_call == pytest.approx(1.0, rel=1e-3)
        assert summary.stdev_us_per_call == pytest.approx(0.1, rel=1e-2)

    def test_mismatched_trial_rejected(self):
        summary = MeasurementSummary(name="bench", calls_per_trial=10)
        with pytest.raises(ValueError):
            summary.add(TrialResult(name="bench", calls=20, total_cycles=1,
                                    mhz=599.0))

    def test_ratio_to(self):
        fast = self._summary([1.0, 1.0])
        slow = self._summary([10.0, 10.0])
        assert slow.ratio_to(fast) == pytest.approx(10.0)

    def test_ratio_to_zero_is_inf(self):
        zero = MeasurementSummary(name="z", calls_per_trial=10)
        other = self._summary([1.0])
        assert other.ratio_to(zero) == math.inf


class TestModuleLevelHelpers:
    def test_mean_empty(self):
        assert mean([]) == 0.0

    def test_stdev_small(self):
        assert stdev([5.0]) == 0.0
        assert stdev([]) == 0.0

    def test_stdev_known(self):
        assert stdev([1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_cv(self):
        assert coefficient_of_variation([10.0, 10.0]) == 0.0
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([9.0, 11.0]) == pytest.approx(math.sqrt(2) / 10, rel=1e-6)


class TestOrderedSum:
    """``ordered_sum`` adds left to right on every interpreter."""

    def test_empty(self):
        assert ordered_sum(array("d")) == 0.0

    def test_no_compensation(self):
        # 1e16 + 1.0 rounds back to 1e16 when added in order; a
        # compensated sum (Python 3.12's builtin) would return 1.0
        assert ordered_sum(array("d", [1e16, 1.0, -1e16])) == 0.0

    def test_any_iterable_adds_in_order_from_zero(self):
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
        # a compensated sum gives 1.0
        assert ordered_sum([0.7, 0.2, 0.1]) == 0.9999999999999999
        assert ordered_sum(x for x in (0.7, 0.2, 0.1)) == 0.9999999999999999
        assert ordered_sum(array("d", [0.7, 0.2, 0.1])) == 0.9999999999999999
        assert ordered_sum([]) == 0.0
        assert ordered_sum([1, 2]) == 3.0

    def test_negative_zero_sums_to_zero_on_both_paths(self):
        for xs in ([-0.0], array("d", [-0.0, -0.0])):
            assert math.copysign(1.0, ordered_sum(xs)) == 1.0

    def test_matches_a_left_to_right_loop_bit_for_bit(self):
        rng = np.random.default_rng(0x5EED)
        for size in (1, 2, 7, 1000, 100_000):
            xs = array("d", (rng.lognormal(1.5, 1.0, size)
                             * rng.choice([-1.0, 1.0], size)).tolist())
            total = 0.0
            for x in xs:
                total += x
            assert ordered_sum(xs).hex() == total.hex(), size


class TestReductionsAddInOrder:
    """Each float reduction gives Python 3.11's left-to-right bits; the
    inputs are ones where a compensated sum (Python 3.12's builtin ``sum``)
    gives a different last bit."""

    @staticmethod
    def _summary(tenths):
        summary = MeasurementSummary("x", calls_per_trial=1)
        for cycles in tenths:
            summary.add(TrialResult("x", calls=1, total_cycles=cycles,
                                    mhz=10.0))
        return summary

    def test_mean(self):
        # compensated: 0.19999999999999998
        assert mean([0.1, 0.2, 0.3]) == 0.20000000000000004

    def test_stdev(self):
        # compensated: 0.32145502536643183
        assert stdev([0.1, 0.2, 0.7]) == 0.3214550253664318

    def test_summary_mean_and_stdev(self):
        summary = self._summary([1, 2, 3])
        assert summary.per_call_samples == [0.1, 0.2, 0.3]
        assert summary.mean_us_per_call == 0.20000000000000004
        assert self._summary([1, 2, 7]).stdev_us_per_call == 0.3214550253664318

    def test_jain_fairness_index(self):
        # compensated: 0.617283950617284
        assert jain_fairness_index([0.7, 0.2, 0.1]) == 0.6172839506172839
