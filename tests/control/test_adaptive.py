"""The AIMD batch controller: unit behaviour and traffic-engine integration."""

import pytest

from repro.control.adaptive import AdaptiveBatchController
from repro.errors import SimulationError
from repro.telemetry import Telemetry
from repro.workloads.traffic import TrafficSpec, run_traffic


def _drive(controller, *, gap_us, arrivals, flush_every, telemetry=None,
           start_us=0.0):
    """Feed a fixed-rate arrival train from ``start_us``, flushing every
    ``flush_every``; like the traffic engine, record each depth change
    into ``telemetry``.  Returns the last arrival's time."""
    t = start_us
    for index in range(arrivals):
        t += gap_us
        controller.observe_arrival(t)
        if (index + 1) % flush_every == 0:
            depth = controller.on_flush(flush_every, t)
            if depth is not None and telemetry is not None:
                telemetry.record_depth(controller.client, depth)
    return t


class TestControllerUnit:
    def test_grows_additively_under_fast_arrivals(self):
        controller = AdaptiveBatchController(32)
        _drive(controller, gap_us=1.0, arrivals=200, flush_every=8)
        assert controller.depth == 32
        assert controller.grows >= 8
        assert controller.shrinks == 0
        # additive: each growth step moved the depth by INCREASE_STEP
        depths = [depth for _, depth in controller.trajectory]
        steps = [b - a for a, b in zip(depths, depths[1:])]
        assert all(step == 4 for step in steps[:-1])

    def test_shrinks_multiplicatively_after_a_lull(self):
        controller = AdaptiveBatchController(32)
        grown = _drive(controller, gap_us=1.0, arrivals=64, flush_every=8)
        assert controller.depth == 32
        ramp = len(controller.trajectory) - 1
        last = _drive(controller, gap_us=100.0, arrivals=12, flush_every=1,
                      start_us=grown)
        assert controller.depth == 1
        assert controller.shrinks >= 5
        depths = [depth for _, depth in controller.trajectory[ramp:]]
        # 32 -> 16 -> 8 -> 4 -> 2 -> 1: halving, not counting down
        assert depths == [32, 16, 8, 4, 2, 1]
        # and a long gap reports the lull so the engine drains the queue
        assert controller.observe_arrival(last + 500.0)

    def test_holds_inside_the_dead_band(self):
        controller = AdaptiveBatchController(32)
        grown = _drive(controller, gap_us=1.0, arrivals=4, flush_every=4)
        assert controller.depth == 5 and controller.grows == 1
        # 16us gaps sit between GROW_BELOW_US (8) and SHRINK_ABOVE_US (24)
        _drive(controller, gap_us=16.0, arrivals=64, flush_every=4,
               start_us=grown)
        assert controller.depth == 5
        assert controller.grows == 1 and controller.shrinks == 0

    def test_bounds_are_respected(self):
        controller = AdaptiveBatchController(2)
        _drive(controller, gap_us=0.5, arrivals=64, flush_every=2)
        assert controller.depth == 2
        controller = AdaptiveBatchController(8)
        _drive(controller, gap_us=100.0, arrivals=16, flush_every=1)
        assert controller.depth == 1

    def test_first_flush_without_ewma_holds(self):
        controller = AdaptiveBatchController(64)
        controller.observe_arrival(1.0)         # a single arrival: no gap yet
        controller.on_flush(1, 1.0)
        assert controller.depth == 1

    def test_depth_changes_feed_the_telemetry_gauge(self):
        telemetry = Telemetry().enable_metrics()
        controller = AdaptiveBatchController(8, client=3)
        _drive(controller, gap_us=1.0, arrivals=32, flush_every=4,
               telemetry=telemetry)
        gauges = telemetry.snapshot()["gauges"]
        assert gauges["adaptive_batch_depth{client=3}"]["max"] == 8


def _steady_spec(**overrides):
    defaults = dict(clients=1, modules=1, calls_per_client=256,
                    arrival="open", mean_interval_us=2.0, seed=5)
    defaults.update(overrides)
    return TrafficSpec(**defaults)


class TestTrafficIntegration:
    def test_spec_validation(self):
        with pytest.raises(SimulationError):
            TrafficSpec(adaptive_batch=True)                 # closed loop
        with pytest.raises(SimulationError):
            TrafficSpec(adaptive_batch=True, arrival="open", batch_size=4)
        with pytest.raises(SimulationError):
            TrafficSpec(adaptive_batch=True, arrival="open",
                        adaptive_max_depth=0)

    def test_depth1_floor_is_cycle_identical_to_single_path(self):
        """The AIMD floor: a max_depth=1 controller flushes every call
        through the paper's per-call dispatch, cycle for cycle."""
        static = run_traffic(_steady_spec(clients=2, modules=2,
                                          calls_per_client=16))
        adaptive = run_traffic(_steady_spec(clients=2, modules=2,
                                            calls_per_client=16,
                                            adaptive_batch=True,
                                            adaptive_max_depth=1))
        assert adaptive.total_cycles == static.total_cycles
        assert adaptive.latencies_us == static.latencies_us
        assert adaptive.queue_delays_us == static.queue_delays_us
        assert adaptive.denied_calls == static.denied_calls

    def test_converges_under_steady_poisson_arrivals(self):
        adaptive = run_traffic(_steady_spec(adaptive_batch=True,
                                            adaptive_max_depth=16))
        static = run_traffic(_steady_spec(batch_size=16))
        snapshot = adaptive.adaptive["per_client"][0]
        assert snapshot["depth"] == 16              # converged to the ceiling
        assert snapshot["grows"] >= 4 and snapshot["shrinks"] == 0
        # converged tail within 20% of the static depth it converged to
        assert adaptive.tail_mean_service_us() <= \
            static.mean_service_us * 1.2
        # and far better than unbatched dispatch
        single = run_traffic(_steady_spec())
        assert adaptive.mean_service_us < single.mean_service_us * 0.5

    def test_ramps_up_and_shrinks_back_across_mmpp_bursts(self):
        result = run_traffic(TrafficSpec(
            clients=1, modules=1, calls_per_client=400, arrival="mmpp",
            mean_interval_us=48.0, burst_interval_us=1.5,
            burst_on_us=400.0, burst_off_us=1200.0,
            adaptive_batch=True, adaptive_max_depth=32, seed=11))
        snapshot = result.adaptive["per_client"][0]
        assert snapshot["max_depth_reached"] >= 8      # ramped up in a burst
        assert snapshot["shrinks"] > 0                 # and came back down
        trajectory = snapshot["trajectory"]
        peak = 0
        fell_after_peak = False
        for _, depth in trajectory:
            if depth > peak:
                peak = depth
            elif peak >= 8 and depth <= peak // 2:
                fell_after_peak = True
        assert fell_after_peak

    def test_telemetry_never_changes_cycle_totals(self):
        plain = run_traffic(_steady_spec(adaptive_batch=True,
                                         adaptive_max_depth=16))
        observed = run_traffic(_steady_spec(adaptive_batch=True,
                                            adaptive_max_depth=16,
                                            telemetry=True))
        assert observed.total_cycles == plain.total_cycles
        assert observed.latencies_us == plain.latencies_us
        assert observed.metrics and not plain.metrics

    def test_leftover_queue_drains_at_end_of_run(self):
        # 13 calls with a deep ceiling: the tail flush must still issue all
        result = run_traffic(_steady_spec(calls_per_client=13,
                                          adaptive_batch=True,
                                          adaptive_max_depth=64))
        assert result.total_calls == 13
