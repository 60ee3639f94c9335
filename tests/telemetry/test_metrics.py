"""Telemetry plane: histogram correctness, registry views, disabled overhead."""

import gc
import math
import sys

import pytest

from repro.hw.machine import make_paper_machine
from repro.secmodule.decision_cache import DecisionCache
from repro.sim.costs import CostMeter, PENTIUM_III_599
from repro.sim.clock import Stopwatch, VirtualClock
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import jain_fairness_index
from repro.telemetry import (
    LogHistogram,
    MetricsRegistry,
    Telemetry,
    render_snapshot,
)


def _reference_quantile(samples, p):
    """The same rank statistic LogHistogram.quantile targets, sample-exact."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class TestLogHistogram:
    def test_quantile_error_is_within_the_documented_bound(self):
        rng = DeterministicRNG(123)
        histogram = LogHistogram()
        samples = [rng.lognormal(10.0, 1.2) for _ in range(5000)]
        for sample in samples:
            histogram.record(sample)
        for p in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
            true = _reference_quantile(samples, p)
            estimate = histogram.quantile(p)
            relative_error = abs(estimate - true) / true
            assert relative_error <= histogram.relative_error_bound + 1e-9, \
                f"p{p}: {estimate} vs {true}"

    def test_quantile_spans_ten_orders_of_magnitude(self):
        histogram = LogHistogram()
        for exponent in range(-4, 7):
            histogram.record(10.0 ** exponent)
        assert histogram.quantile(0) == pytest.approx(1e-4, rel=0.19)
        assert histogram.quantile(100) == pytest.approx(1e6, rel=0.19)
        # sparse dict buckets, not a dense array over the span
        assert histogram.bucket_count == 11

    def test_mean_min_max_are_exact(self):
        histogram = LogHistogram()
        for value in (1.0, 2.0, 4.0, 8.0):
            histogram.record(value)
        assert histogram.mean == pytest.approx(3.75)
        assert histogram.minimum == 1.0
        assert histogram.maximum == 8.0
        assert histogram.count == 4

    def test_non_positive_samples_land_in_the_zero_bucket(self):
        histogram = LogHistogram()
        histogram.record(0.0, n=3)
        histogram.record(5.0)
        assert histogram.count == 4
        assert histogram.quantile(50) == 0.0
        assert histogram.quantile(99) == pytest.approx(5.0, rel=0.19)

    def test_empty_histogram_is_quiet(self):
        histogram = LogHistogram()
        assert histogram.quantile(99) == 0.0
        assert histogram.mean == 0.0
        assert histogram.summary()["count"] == 0

    @staticmethod
    def _fresh_quantile(histogram, p):
        """The rank walk over freshly sorted bucket keys."""
        if histogram.count == 0:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * histogram.count))
        seen = histogram.zeros
        if rank <= seen:
            return 0.0
        for index in sorted(histogram._buckets):
            seen += histogram._buckets[index]
            if seen >= rank:
                value = min(histogram.base ** (index + 0.5), histogram._max)
                if histogram._min > 0.0:
                    value = max(value, histogram._min)
                return value
        return histogram._max

    def assert_fresh(self, histogram):
        for p in (0, 1, 25, 50, 90, 95, 99, 100):
            assert histogram.quantile(p) == self._fresh_quantile(histogram,
                                                                 p)

    def test_quantile_after_record(self):
        rng = DeterministicRNG(11)
        histogram = LogHistogram()
        for round_ in range(6):
            # each round reads the quantiles (keeping the sorted keys),
            # then records into old and new buckets, both sides of them
            self.assert_fresh(histogram)
            for _ in range(50):
                histogram.record(rng.exponential(2.0 ** round_))
            histogram.record(10.0 ** (round_ - 3))
            histogram.record(10.0 ** (round_ + 3), n=3)
            self.assert_fresh(histogram)
        for value in (1e-9, 0.0, 5e8, 3.0, 1e12):
            histogram.record(value)
            self.assert_fresh(histogram)


class TestRegistryAndViews:
    def test_labelled_metrics_are_stable_identities(self):
        registry = MetricsRegistry()
        assert registry.counter("x", a=1) is registry.counter("x", a=1)
        assert registry.counter("x", a=1) is not registry.counter("x", a=2)
        registry.counter("x", a=1).inc(3)
        assert registry.snapshot()["counters"]["x{a=1}"] == 3

    def test_per_session_histograms_merge_into_per_module_view(self):
        telemetry = Telemetry().enable_metrics()
        for session_id in (1, 2, 3):
            for call in range(session_id * 10):
                telemetry.record_dispatch(session_id, "libm", 6.4 + call)
        telemetry.record_dispatch(9, "libother", 1.0)
        view = telemetry.registry.histograms_named("dispatch_latency_us",
                                                   module="libm")
        # the per-module view holds each session's histogram, in label
        # order, and together they hold every libm sample
        assert [labels["session"] for labels, _ in view] == [1, 2, 3]
        assert [histogram.count for _, histogram in view] == [10, 20, 30]
        assert sum(histogram.total for _, histogram in view) == \
            pytest.approx(sum(6.4 + call for session_id in (1, 2, 3)
                              for call in range(session_id * 10)))

    def test_family_views_keep_the_sorted_label_order(self):
        """A family view yields exactly the full-registry sort: by
        ``repr(labels)``, insertion order breaking ties."""
        registry = MetricsRegistry()
        rng = DeterministicRNG(7)
        labels = [{"session": s, "module": m}
                  for s in (3, 12, 1, 20, 2) for m in ("b", "a")]
        labels += [{"session": "3"}, {"client": 4}, {}]
        for index in range(len(labels) - 1, 0, -1):   # deterministic shuffle
            swap = int(rng.uniform(0, index + 1))
            labels[index], labels[swap] = labels[swap], labels[index]
        for position, label in enumerate(labels):
            registry.histogram("flush_service_us", **label).record(position + 1)
            registry.histogram("other", **label)
        reference = [
            (dict(key[1]), histogram)
            for key, histogram in sorted(
                registry._histograms.items(),
                key=lambda item: (item[0][0], repr(item[0][1])))
            if key[0] == "flush_service_us"]
        view = registry.histograms_named("flush_service_us")
        assert [(labels, id(h)) for labels, h in view] == \
            [(labels, id(h)) for labels, h in reference]
        assert [labels for labels, _ in
                registry.histograms_named("flush_service_us", module="a")] \
            == [labels for labels, _ in reference if labels.get("module") == "a"]
        assert sum(histogram.count for _, histogram in view) == len(labels)
        assert sum(histogram.total for _, histogram in view) == \
            sum(range(1, len(labels) + 1))
        assert registry.histograms_named("missing") == []

    def test_snapshot_round_trips_and_renders(self):
        telemetry = Telemetry().enable_metrics()
        telemetry.record_dispatch(1, "libm", 6.4)
        telemetry.record_batch(1, 8, 10.0)
        telemetry.record_handle_queue(5, 8)
        telemetry.record_queue_delay(5, 2, 0.25)
        telemetry.cache = DecisionCache()
        telemetry.cache.note_batch_served(3)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["decision_cache.hits"] == 3
        text = render_snapshot(snapshot)
        assert "dispatch_latency_us" in text
        assert "pool_queue_delay_us{client=2,handle=5}" in text

    def test_cost_meter_mirrors_charges_into_telemetry(self):
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        telemetry = Telemetry(clock, meter=meter).enable_metrics()
        before = clock.cycles
        meter.charge("trap_entry", 2)
        assert telemetry.op_counts["trap_entry"] == 2
        assert telemetry.op_cycles["trap_entry"] == clock.cycles - before

    def test_stopwatch_reads_without_charging(self):
        clock = VirtualClock()
        watch = Stopwatch(clock, mhz=599.0)
        clock.advance(599)
        assert watch.elapsed_us() == pytest.approx(1.0)
        events_before = clock.events
        watch.elapsed_us()
        watch.restart()
        assert clock.events == events_before


class TestJainIndex:
    def test_even_allocation_is_one(self):
        assert jain_fairness_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_n(self):
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_degenerate_inputs_are_fair_by_convention(self):
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0.0, 0.0]) == 1.0


class TestNullTelemetry:
    """The machine's plane with both sinks off."""

    def test_disabled_flag_and_empty_snapshot(self):
        machine = make_paper_machine()
        telemetry = machine.telemetry
        assert not telemetry.enabled
        assert telemetry.snapshot() == {}
        assert Telemetry().enable_metrics().enabled

    def test_disabled_recording_creates_no_metrics(self):
        machine = make_paper_machine()
        telemetry = machine.telemetry
        machine.charge("trap_entry")
        telemetry.record_dispatch(1, "libm", 6.4)
        telemetry.record_batch(1, 8, 10.0)
        telemetry.record_handle_queue(5, 8)
        telemetry.record_queue_delay(5, 2, 0.25)
        telemetry.record_depth(0, 16)
        assert len(telemetry.registry) == 0
        assert telemetry.op_counts == {}

    def test_disabled_recording_is_zero_allocation(self):
        telemetry = make_paper_machine().telemetry

        def spin(n):
            for _ in range(n):
                telemetry.record_dispatch(1, "libm", 6.4)
                telemetry.record_batch(1, 8, 10.0)
                telemetry.record_handle_queue(5, 8)
                telemetry.record_queue_delay(5, 2, 0.25)
                telemetry.record_shed("b", "deadline", "pool.shed")
                telemetry.record_depth(0, 16)

        spin(1000)                      # warm any lazily-built interpreter state
        gc.collect()
        before = sys.getallocatedblocks()
        spin(5000)
        gc.collect()
        after = sys.getallocatedblocks()
        # 30k recording calls must not retain a single new allocation
        # (small slack absorbs interpreter-internal block jitter)
        assert after - before <= 8
