"""Tests for the multi-client traffic engine."""

import pytest

from repro.secmodule.dispatch import DispatchConfig
from repro.workloads.traffic import (
    TrafficEngine,
    TrafficSpec,
    build_traffic_module,
    run_traffic,
    traffic_policy,
)


def small_spec(**overrides):
    defaults = dict(clients=4, modules=2, calls_per_client=6, seed=1234)
    defaults.update(overrides)
    return TrafficSpec(**defaults)


class TestTrafficDeterminism:
    def test_same_seed_replays_identically(self):
        a = run_traffic(small_spec())
        b = run_traffic(small_spec())
        assert a.total_cycles == b.total_cycles
        assert a.latencies_us == b.latencies_us
        assert a.denied_calls == b.denied_calls
        assert a.cache_stats == b.cache_stats

    def test_different_seed_differs(self):
        a = run_traffic(small_spec(seed=1))
        b = run_traffic(small_spec(seed=2))
        # the call mix and interleaving are seed-driven
        assert (a.total_cycles != b.total_cycles
                or a.latencies_us != b.latencies_us)

    def test_open_loop_deterministic_too(self):
        a = run_traffic(small_spec(arrival="open"))
        b = run_traffic(small_spec(arrival="open"))
        assert a.total_cycles == b.total_cycles
        assert a.latencies_us == b.latencies_us


class TestTrafficMechanics:
    def test_issues_full_schedule(self):
        spec = small_spec()
        result = run_traffic(spec)
        assert result.total_calls == spec.clients * spec.calls_per_client
        assert len(result.latencies_us) == result.total_calls
        assert result.calls_per_second > 0

    def test_denied_slice_of_the_mix(self):
        result = run_traffic(small_spec(calls_per_client=16))
        # the default mix sends ~10% of calls to the denied test_null
        assert 0 < result.denied_calls < result.total_calls

    def test_multi_session_table_population(self):
        spec = small_spec()
        engine = TrafficEngine(spec)
        engine.build()
        manager = engine.extension.sessions
        assert len(manager.active_sessions()) == spec.clients * spec.modules
        assert sum(manager.shard_sizes()) == spec.clients * spec.modules
        for state in engine.clients:
            assert len(manager.for_client(state.program.proc)) == spec.modules

    def test_open_loop_records_queue_delays(self):
        spec = small_spec(arrival="open", mean_interval_us=1.0)
        result = run_traffic(spec)
        assert len(result.queue_delays_us) == \
            spec.clients * spec.calls_per_client
        # with arrivals faster than service some calls must queue
        assert any(d > 0 for d in result.queue_delays_us)
        assert result.queue_delay_percentile(99) >= \
            result.queue_delay_percentile(50)
        # closed-loop runs carry no queueing record
        assert len(run_traffic(small_spec()).queue_delays_us) == 0

    def test_decision_cache_reduces_cycles(self):
        spec = small_spec(calls_per_client=12)
        cached = run_traffic(spec, dispatch_config=DispatchConfig(
            use_decision_cache=True))
        uncached = run_traffic(spec, dispatch_config=DispatchConfig(
            use_decision_cache=False))
        assert cached.cache_stats["hits"] > 0
        assert uncached.cache_stats["hits"] == 0
        assert cached.cycles_per_call < uncached.cycles_per_call

    def test_quota_policy_chain_disables_caching(self):
        result = run_traffic(small_spec(policy_kind="quota"))
        assert result.cache_stats["hits"] == 0
        assert result.cache_stats["entries"] == 0


class TestBurstyArrivals:
    def test_mmpp_runs_full_schedule_deterministically(self):
        spec = small_spec(arrival="mmpp", calls_per_client=8)
        a = run_traffic(spec)
        b = run_traffic(spec)
        assert a.total_calls == spec.clients * spec.calls_per_client
        assert a.total_cycles == b.total_cycles
        assert a.latencies_us == b.latencies_us

    def test_mmpp_records_queue_delays(self):
        spec = small_spec(arrival="mmpp", calls_per_client=8,
                          burst_interval_us=1.0)
        result = run_traffic(spec)
        assert len(result.queue_delays_us) == \
            spec.clients * spec.calls_per_client

    def test_mmpp_burstier_than_open_poisson(self):
        """Same mean OFF interval: the MMPP trace's queueing delay tail
        must dominate the plain Poisson trace's."""
        common = dict(clients=8, calls_per_client=16, seed=77,
                      mean_interval_us=40.0)
        poisson = run_traffic(TrafficSpec(arrival="open", **common))
        bursty = run_traffic(TrafficSpec(arrival="mmpp",
                                         burst_interval_us=1.0,
                                         burst_on_us=200.0,
                                         burst_off_us=200.0, **common))
        assert bursty.queue_delay_percentile(99) > \
            poisson.queue_delay_percentile(99)


class TestTailMeanServiceTime:
    def test_raises_after_a_seat_shed(self):
        """A shed call records no latency, so the concatenated latencies
        no longer split into one run of calls_per_client per client."""
        from repro.errors import SimulationError
        result = run_traffic(TrafficSpec(
            clients=2, modules=1, calls_per_client=64, arrival="mmpp",
            mean_interval_us=30.0, burst_interval_us=1.0, burst_on_us=80.0,
            burst_off_us=240.0, shed_deadline_us=4.0, seed=0x5EA7))
        assert result.total_calls == 10
        assert result.broker_stats["seat_sheds"] == 118
        with pytest.raises(SimulationError, match="per-client tails"):
            result.tail_mean_service_us()


class TestBatchedTraffic:
    def test_batched_run_issues_full_schedule(self):
        spec = small_spec(batch_size=4, calls_per_client=10)
        result = run_traffic(spec)
        assert result.total_calls == spec.clients * spec.calls_per_client
        assert len(result.latencies_us) == result.total_calls

    def test_batching_reduces_cycles_per_call(self):
        base = small_spec(calls_per_client=16)
        batched = small_spec(calls_per_client=16, batch_size=8)
        a = run_traffic(base)
        b = run_traffic(batched)
        assert b.cycles_per_call < a.cycles_per_call

    def test_batched_run_deterministic(self):
        spec = small_spec(batch_size=4, calls_per_client=12)
        a = run_traffic(spec)
        b = run_traffic(spec)
        assert a.total_cycles == b.total_cycles
        assert a.denied_calls == b.denied_calls

    def test_batch_size_validation(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            TrafficSpec(batch_size=0)


class TestShardLockAccounting:
    def test_traffic_charges_shard_locks(self):
        from repro.sim import costs
        engine = TrafficEngine(small_spec())
        engine.run()
        manager = engine.extension.sessions
        assert manager.charge_shard_locks
        assert manager.shard_lock_acquisitions > 0
        assert engine.machine.meter.count(costs.SMOD_SHARD_LOCK) == \
            manager.shard_lock_acquisitions


class TestTrafficTeardown:
    def test_teardown_leaves_no_dangling_state(self):
        spec = small_spec()
        engine = TrafficEngine(spec)
        engine.run()
        handles = [s.handle.proc
                   for s in engine.extension.sessions.active_sessions()]
        assert handles
        engine.teardown()
        manager = engine.extension.sessions
        assert len(manager.active_sessions()) == 0
        assert sum(manager.shard_sizes()) == 0
        # no dangling message queues, no live handle pids
        assert len(engine.kernel.msg) == 0
        assert all(not handle.alive for handle in handles)
        # clients survive and are fully detached
        for state in engine.clients:
            assert state.program.proc.alive
            assert not state.program.proc.is_smod_client
            assert state.program.proc.smod_session is None
        # every memoized decision for those sessions is gone
        assert len(engine.extension.decision_cache) == 0


class TestHeavyTailedThinkTimes:
    def test_think_models_run_full_schedule_deterministically(self):
        a = run_traffic(small_spec(think="lognormal"))
        b = run_traffic(small_spec(think="lognormal"))
        assert a.total_calls == 4 * 6
        assert a.total_cycles == b.total_cycles
        assert a.latencies_us == b.latencies_us

    def test_exponential_default_unchanged(self):
        """think='exponential' is the original engine draw for draw."""
        a = run_traffic(small_spec())
        b = run_traffic(small_spec(think="exponential"))
        assert a.total_cycles == b.total_cycles
        assert a.latencies_us == b.latencies_us

    def test_heavy_tail_changes_schedule_not_call_count(self):
        exp = run_traffic(small_spec())
        heavy = run_traffic(small_spec(think="lognormal"))
        assert heavy.total_calls == exp.total_calls
        assert heavy.elapsed_us != exp.elapsed_us

    def test_open_loop_ignores_think_knob(self):
        a = run_traffic(small_spec(arrival="open"))
        b = run_traffic(small_spec(arrival="open", think="lognormal"))
        assert a.total_cycles == b.total_cycles

    def test_think_validation(self):
        from repro.errors import SimulationError
        for think in ("weibull", "pareto"):
            with pytest.raises(SimulationError,
                               match="unknown think-time model"):
                TrafficSpec(think=think)


class TestPooledHandleTraffic:
    def test_32_clients_4_sessions_one_handle_per_module(self):
        """The acceptance-bar scenario: 32 clients x 4 modules (one session
        each per module) all served by one pooled handle per module."""
        spec = small_spec(clients=32, modules=4, calls_per_client=4,
                          handle_policy="per_module")
        engine = TrafficEngine(spec)
        result = engine.run()
        assert result.session_count == 32 * 4
        assert result.handle_count == 4            # one per module
        assert result.broker_stats["handles_forked"] == 4
        assert result.broker_stats["attachments"] == 32 * 4 - 4
        assert result.total_calls == 32 * 4
        engine.teardown()
        assert engine.extension.sessions.handle_count() == 0
        assert len(engine.kernel.msg) == 0

    def test_pooled_cap_respected_under_traffic(self):
        spec = small_spec(clients=8, modules=1, handle_policy="pooled",
                          pool_max_sessions=4)
        result = run_traffic(spec)
        assert result.session_count == 8
        assert result.handle_count == 2            # ceil(8 / 4)

    def test_per_session_traffic_unchanged_by_broker(self):
        a = run_traffic(small_spec())
        b = run_traffic(small_spec(handle_policy="per_session"))
        assert a.total_cycles == b.total_cycles
        assert a.handle_count == a.session_count   # the 1:1 shape

    def test_batched_traffic_through_pooled_handles(self):
        spec = small_spec(clients=6, modules=2, calls_per_client=8,
                          batch_size=4, handle_policy="per_module")
        result = run_traffic(spec)
        assert result.total_calls == 6 * 8
        assert result.handle_count == 2

    def test_handle_policy_validation(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            TrafficSpec(handle_policy="per_galaxy")
        with pytest.raises(SimulationError):
            TrafficSpec(handle_policy="pooled", pool_max_sessions=0)


class TestSpecValidation:
    def test_rejects_bad_dimensions(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            TrafficSpec(clients=0)
        with pytest.raises(SimulationError):
            TrafficSpec(arrival="bursty")

    def test_policy_kinds(self):
        for kind in ("static", "quota", "expiry", "deny-only"):
            assert traffic_policy(small_spec(policy_kind=kind)) is not None
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            traffic_policy(small_spec(policy_kind="nope"))

    def test_traffic_module_shape(self):
        module = build_traffic_module(3, policy=traffic_policy(small_spec()))
        assert module.name == "libtraffic3"
        assert set(module.function_names()) == {"getpid", "test_incr",
                                                "test_null"}


class TestIdleAccounting:
    """Idle time between arrivals flows through the meter, not the raw clock.

    Regression pin for the static-analysis sweep that replaced the
    engine's direct ``clock.advance`` with ``Machine.idle``: the charge
    must stay byte-identical (same cycles, one clock event per idle span)
    while leaving the per-operation histogram untouched.
    """

    def test_advance_clock_to_is_metered_and_exact(self):
        engine = TrafficEngine(small_spec()).build()
        machine = engine.machine
        snapshot = machine.meter.snapshot()
        cycles_before = machine.clock.cycles
        events_before = machine.clock.events
        target_us = machine.microseconds() + 100.0
        engine._advance_clock_to(target_us)
        # with fast-forward enabled idle spans are deferred into the
        # accumulator; settling must land the exact same charge
        engine._ff_flush()
        expected = int(round(100.0 * machine.spec.mhz))
        assert machine.clock.cycles - cycles_before == expected
        assert machine.clock.events - events_before == 1
        assert machine.meter.diff(snapshot) == {}

    def test_advance_to_past_time_is_a_noop(self):
        engine = TrafficEngine(small_spec()).build()
        machine = engine.machine
        cycles_before = machine.clock.cycles
        events_before = machine.clock.events
        engine._advance_clock_to(machine.microseconds() - 1.0)
        assert machine.clock.cycles == cycles_before
        assert machine.clock.events == events_before
