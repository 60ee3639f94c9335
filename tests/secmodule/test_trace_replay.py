"""Trace-replay dispatch fast path: differential identity and invalidation.

The acceptance bar for the fast path is *byte identity*: every cycle total,
clock event count, per-operation histogram and cache statistic must be the
same with ``use_trace_replay`` on and off — the knob may only change how
fast the simulator runs, never what it measures.  These tests run the same
deterministic workloads both ways and compare everything; the invalidation
tests then prove each precondition (policy epoch, pooled-handle seats,
hardening mode, stateful policy chains) forces the slow path without
breaking identity.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import (
    DispatchConfig,
    HardeningMode,
    TRACE_HOT,
    TraceCache,
)
from repro.secmodule.policy import FunctionDenyPolicy
from repro.sim import costs
from repro.workloads.traffic import TrafficEngine, TrafficSpec


def run_engine(spec: TrafficSpec, *, use_trace_replay: bool):
    engine = TrafficEngine(
        spec,
        dispatch_config=DispatchConfig(use_trace_replay=use_trace_replay))
    result = engine.run()
    return engine, result


def normalized_metrics(metrics):
    """Round histogram means to 12 significant digits.

    Fast-forward charges a hot span's telemetry in bulk
    (``total += value * n``) where the slow path adds ``value`` n times;
    the sums agree to within float rounding but not bitwise.  Counts,
    buckets (hence quantiles), min/max, counters and gauges are integer-
    or order-independent and stay byte-exact; only the derived mean may
    differ in the last ulp, so it alone is compared through a rounding
    window.
    """
    if not isinstance(metrics, dict):
        return metrics
    out = {}
    for key, value in metrics.items():
        if key == "histograms" and isinstance(value, dict):
            out[key] = {
                name: {field: (float(f"{v:.12g}") if field == "mean"
                               else v)
                       for field, v in summary.items()}
                for name, summary in value.items()}
        else:
            out[key] = value
    return out


def accounting(engine, result):
    """Everything that must be identical between replay on and off."""
    return {
        "cycles": engine.machine.clock.cycles,
        "events": engine.machine.clock.events,
        "ops": dict(engine.machine.meter.op_counts),
        "cache": result.cache_stats,
        "total_calls": result.total_calls,
        "denied": result.denied_calls,
        "latencies": result.latencies_us,
        "dispatched": engine.extension.dispatcher.calls_dispatched,
        "session_calls": sorted(
            (s.session_id, s.calls_made)
            for s in engine.extension.sessions.active_sessions()),
        "metrics": normalized_metrics(result.metrics),
    }


def assert_differential_identity(spec: TrafficSpec, *,
                                 expect_replays: bool = True):
    off_engine, off_result = run_engine(spec, use_trace_replay=False)
    on_engine, on_result = run_engine(spec, use_trace_replay=True)
    assert accounting(off_engine, off_result) == \
        accounting(on_engine, on_result)
    stats = on_engine.extension.dispatcher.trace_cache.snapshot()
    if expect_replays:
        # hot spans take the fast path either as per-call replays or as
        # accumulated fast-forward windows; both count
        assert stats["replays"] + stats["fast_forward_calls"] > 0
    return stats


class TestDifferentialIdentity:
    def test_closed_loop_depth1(self):
        stats = assert_differential_identity(
            TrafficSpec(clients=4, modules=2, calls_per_client=60))
        assert stats["hot"] > 0

    def test_open_loop_depth1(self):
        assert_differential_identity(
            TrafficSpec(clients=4, modules=2, calls_per_client=60,
                        arrival="open"))

    def test_mmpp_batched(self):
        # random per-flush shapes repeat rarely at depth 4; identity must
        # hold regardless of how many flushes actually replay
        assert_differential_identity(
            TrafficSpec(clients=3, modules=2, calls_per_client=64,
                        arrival="mmpp", batch_size=4),
            expect_replays=False)

    def test_adaptive_controller(self):
        assert_differential_identity(
            TrafficSpec(clients=3, modules=2, calls_per_client=80,
                        arrival="open", adaptive_batch=True,
                        adaptive_max_depth=8))

    def test_pooled_handles(self):
        assert_differential_identity(
            TrafficSpec(clients=6, modules=2, calls_per_client=40,
                        handle_policy="pooled", pool_max_sessions=3))

    def test_telemetry_attached(self):
        # the metrics snapshot itself is part of the compared accounting
        assert_differential_identity(
            TrafficSpec(clients=3, modules=2, calls_per_client=40,
                        arrival="open", telemetry=True))

    def test_single_module_homogeneous_batches(self):
        # one module + one-function mix: batch shapes repeat, batches replay
        spec = TrafficSpec(clients=2, modules=1, calls_per_client=64,
                           batch_size=8,
                           call_mix=(("test_incr", 1.0),))
        stats = assert_differential_identity(spec)
        # hot batch traces take the fast path; with fast-forward enabled
        # whole repeat windows are charged analytically instead of being
        # replayed one flush at a time
        assert stats["hot"] > 0
        assert stats["replays"] + stats["fast_forward_calls"] > 0


def make_system(**kwargs):
    return SecModuleSystem.create(include_libc=False, **kwargs)


def hot_entries(system) -> int:
    cache = system.extension.dispatcher.trace_cache
    return sum(1 for e in cache._entries.values() if e.state == TRACE_HOT)


class TestStateMachine:
    def test_third_call_replays(self):
        system = make_system()
        cache = system.extension.dispatcher.trace_cache
        for i in range(5):
            assert system.call("test_incr", i) == i + 1
        # call 1 records, call 2 confirms, calls 3..5 replay
        assert cache.confirms >= 1
        assert cache.replays == 3
        assert hot_entries(system) == 1

    def test_replay_preserves_per_call_charges(self):
        """A replayed call charges exactly what a slow call charges."""
        system = make_system()
        meter = system.machine.meter
        system.call("test_incr", 0)
        before = meter.snapshot()
        clock_before = system.machine.clock.cycles
        system.call("test_incr", 1)          # confirm pass (slow)
        slow_diff = meter.diff(before)
        slow_cycles = system.machine.clock.cycles - clock_before
        before = meter.snapshot()
        clock_before = system.machine.clock.cycles
        system.call("test_incr", 2)          # replayed
        assert system.extension.dispatcher.trace_cache.replays == 1
        assert meter.diff(before) == slow_diff
        assert system.machine.clock.cycles - clock_before == slow_cycles

    def test_disabled_knob_never_records(self):
        system = make_system()
        config = DispatchConfig(use_trace_replay=False)
        for i in range(4):
            system.call("test_incr", i, config=config)
        cache = system.extension.dispatcher.trace_cache
        assert len(cache) == 0 and cache.replays == 0

    def test_return_values_follow_arguments_on_replay(self):
        system = make_system()
        values = [system.call("test_incr", i * 7) for i in range(6)]
        assert values == [i * 7 + 1 for i in range(6)]


class TestBatchSpans:
    """A batch span records the meter's delta; its settle touches the
    decision cache in the order of the queue it settles."""

    CONFIG = DispatchConfig(batch_size=3)
    RECORDED = [("test_incr", (1,)), ("test_add", (1, 2)),
                ("test_null", ())]
    PERMUTED = [("test_null", ()), ("test_incr", (5,)), ("test_add", (3, 4))]

    def system(self, *, use_trace_replay=True):
        system = make_system(policy=FunctionDenyPolicy(["test_null"]))
        config = replace(self.CONFIG, use_trace_replay=use_trace_replay)
        # the first flush stores the three decisions: it records nothing
        system.extension.dispatcher.call_batch(system.session, self.RECORDED,
                                               config=config)
        return system, config

    def test_a_frozen_clock_stores_no_entry(self):
        system, config = self.system()
        dispatcher = system.extension.dispatcher
        cache = dispatcher.trace_cache
        records, entries = cache.records, len(cache)
        clock = system.machine.clock
        clock.freeze()
        outcome = dispatcher.call_batch(system.session, self.RECORDED,
                                        config=config)
        clock.unfreeze()
        assert outcome.values == [2, 3, None]
        assert (cache.records, len(cache)) == (records, entries)
        # the key records again next time
        dispatcher.call_batch(system.session, self.RECORDED, config=config)
        assert cache.records == records + 1

    def test_touches_out_of_queue_order_store_no_entry(self):
        """Stale decisions are looked up per entry: each repeated key is
        touched at its second occurrence, not in the queue's order, so no
        settle of another permutation could repeat the span."""
        system, config = self.system()
        dispatcher = system.extension.dispatcher
        session = system.session
        m_id = next(iter(session.credentials))
        session.replace_credential(m_id, session.credentials[m_id])
        cache = dispatcher.trace_cache
        records = cache.records
        queue = [("test_incr", (1,)), ("test_add", (1, 2)),
                 ("test_add", (3, 4)), ("test_incr", (2,))]
        outcome = dispatcher.call_batch(session, queue,
                                        config=replace(config, batch_size=4))
        assert outcome.values == [2, 3, 7, 3]
        assert cache.records == records

    def test_hot_batch_entry_keeps_no_log(self):
        system, config = self.system()
        dispatcher = system.extension.dispatcher
        for _ in range(2):
            dispatcher.call_batch(system.session, self.RECORDED,
                                  config=config)
        (entry,) = [e for e in dispatcher.trace_cache._entries.values()
                    if e.batched]
        assert entry.state == TRACE_HOT
        # its plan signature holds each distinct pair once, with its count
        plan_sig = entry.effects_sig[-1]
        assert [item[:2] for item in plan_sig] == sorted(entry.plan_by_pair)
        assert sum(item[3] for item in plan_sig) == entry.depth
        events, ops = entry.charge_sig
        assert ops == tuple(sorted(ops))
        assert entry.trace.events == events
        assert sorted(entry.trace.ops) == list(ops)

    def decision_order(self, system):
        cache = system.extension.dispatcher.decision_cache
        return list(cache._sessions[system.session.session_id])

    def test_per_call_settle_touches_in_its_queue_order(self):
        orders = []
        for use_trace_replay in (True, False):
            system, config = self.system(use_trace_replay=use_trace_replay)
            dispatcher = system.extension.dispatcher
            for calls in (self.RECORDED, self.RECORDED, self.PERMUTED):
                outcome = dispatcher.call_batch(system.session, calls,
                                                config=config)
            assert outcome.values == [None, 6, 7]
            assert dispatcher.trace_cache.replays == int(use_trace_replay)
            orders.append(self.decision_order(system))
        assert orders[0] == orders[1]
        module = system.session.find_function("test_null")[0]
        by_name = module.definition.function
        assert orders[0] == [(module.m_id, by_name(name).func_id)
                             for name, _ in self.PERMUTED]


class TestStaleDecisionSpans:
    """A span that replaces a stale decision stores it, so it is not steady
    state: it records no trace.  Replacing a stale decision changes neither
    the cache's length nor its evictions nor its invalidations; the cache's
    ``stores`` count is what shows it."""

    BATCH = [("test_incr", (1,)), ("test_add", (1, 2)),
             ("test_incr", (2,)), ("test_add", (3, 4))]

    def run(self, flush, *, use_trace_replay):
        """Flush once, twice replace the credential and flush, then flush
        once more; return the cycles and the decision-cache hits and
        misses."""
        system = make_system(seed=4242,
                             policy=FunctionDenyPolicy(["test_null"]))
        session = system.session
        config = DispatchConfig(batch_size=4,
                                use_trace_replay=use_trace_replay)
        flush(system, config)
        for _ in range(2):
            m_id = next(iter(session.credentials))
            session.replace_credential(m_id, session.credentials[m_id])
            flush(system, config)
        flush(system, config)
        cache = system.extension.dispatcher.decision_cache
        return system.machine.clock.cycles, cache.hits, cache.misses

    def test_a_batch_span_that_replaced_stale_decisions_settles_nothing(self):
        def flush(system, config):
            system.extension.dispatcher.call_batch(system.session,
                                                   self.BATCH, config=config)

        for use_trace_replay in (True, False):
            assert self.run(flush, use_trace_replay=use_trace_replay) == \
                (81_621, 10, 6)

    def test_a_single_call_that_replaced_a_stale_decision_settles_nothing(
            self):
        def flush(system, config):
            system.extension.dispatcher.call(
                system.session, "test_incr", 1,
                config=replace(config, batch_size=1))

        for use_trace_replay in (True, False):
            assert self.run(flush, use_trace_replay=use_trace_replay) == \
                (75_185, 1, 3)

    def test_every_store_is_counted(self):
        system = make_system(policy=FunctionDenyPolicy(["test_null"]))
        cache = system.extension.dispatcher.decision_cache
        system.call("test_incr", 1)
        assert (cache.stores, len(cache)) == (1, 1)
        session = system.session
        m_id = next(iter(session.credentials))
        session.replace_credential(m_id, session.credentials[m_id])
        system.call("test_incr", 2)
        assert (cache.stores, len(cache)) == (2, 1)


class TestInvalidation:
    def test_policy_epoch_bump_forces_slow_path(self):
        """replace_credential must retire the hot trace (and identity holds)."""
        def run(replay: bool):
            system = make_system(seed=77)
            config = DispatchConfig(use_trace_replay=replay)
            for i in range(4):
                system.call("test_incr", i, config=config)
            session = system.session
            m_id = next(iter(session.credentials))
            session.replace_credential(m_id, session.credentials[m_id])
            for i in range(4):
                system.call("test_incr", 100 + i, config=config)
            return (system.machine.clock.cycles,
                    dict(system.machine.meter.op_counts),
                    system.extension.dispatcher.trace_cache.snapshot())
        slow_cycles, slow_ops, _ = run(False)
        fast_cycles, fast_ops, stats = run(True)
        assert (slow_cycles, slow_ops) == (fast_cycles, fast_ops)
        assert stats["replays"] > 0
        # after the bump the next call re-executes op by op (a second
        # confirmation under the new epoch) instead of replaying stale state
        assert stats["confirms"] >= 2

    def test_seat_attach_and_detach_invalidate_pooled_traces(self):
        def run(replay: bool):
            system = SecModuleSystem.create_multi(
                clients=2, include_libc=False, handle_policy="pooled:4",
                seed=99)
            config = DispatchConfig(use_trace_replay=replay)
            first, second = system.sessions[0], system.sessions[1]
            dispatcher = system.extension.dispatcher
            for i in range(4):
                dispatcher.call(first, "test_incr", i, config=config)
            # a third seat joins the shared handle: routing cost changes
            system.attach_client()
            third = system.sessions[2]
            for i in range(4):
                dispatcher.call(first, "test_incr", 10 + i, config=config)
            # ... and leaves again
            system.extension.sessions.teardown(third)
            for i in range(4):
                dispatcher.call(first, "test_incr", 20 + i, config=config)
                dispatcher.call(second, "test_incr", 20 + i, config=config)
            return (system.machine.clock.cycles,
                    dict(system.machine.meter.op_counts))
        assert run(False) == run(True)

    def test_seat_change_recorded_in_op_histogram(self):
        """Sanity: the routing charge really differs across seat counts, so
        a stale trace would be observably wrong."""
        system = SecModuleSystem.create_multi(
            clients=2, include_libc=False, handle_policy="pooled:4", seed=5)
        dispatcher = system.extension.dispatcher
        meter = system.machine.meter
        for i in range(4):
            dispatcher.call(system.sessions[0], "test_incr", i)
        routed_two_seats = meter.count(costs.SMOD_POOL_ROUTE)
        assert routed_two_seats > 0

    def test_hardening_mode_change_uses_distinct_traces(self):
        def run(replay: bool):
            system = make_system(seed=11)
            plain = DispatchConfig(use_trace_replay=replay)
            hardened = DispatchConfig(
                use_trace_replay=replay,
                hardening=HardeningMode.SUSPEND_CLIENT)
            for i in range(4):
                system.call("test_incr", i, config=plain)
            for i in range(4):
                system.call("test_incr", i, config=hardened)
            for i in range(4):
                system.call("test_incr", i, config=plain)
            return (system.machine.clock.cycles,
                    dict(system.machine.meter.op_counts))
        assert run(False) == run(True)

    def test_quota_policy_chain_stays_on_slow_path(self):
        spec = TrafficSpec(clients=2, modules=1, calls_per_client=40,
                           policy_kind="quota")
        off_engine, off_result = run_engine(spec, use_trace_replay=False)
        on_engine, on_result = run_engine(spec, use_trace_replay=True)
        assert accounting(off_engine, off_result) == \
            accounting(on_engine, on_result)
        stats = on_engine.extension.dispatcher.trace_cache.snapshot()
        # a dynamic (quota) clause in the chain disqualifies every call
        assert stats["replays"] == 0 and stats["records"] == 0
        # denials (the mix's test_null) happened identically both ways
        assert on_result.denied_calls == off_result.denied_calls
        assert on_result.denied_calls > 0

    def test_variable_cost_function_never_replayed(self):
        """malloc's arena charges depend on its arguments: fixed_cost=False
        must keep it off the fast path forever."""
        system = SecModuleSystem.create(seed=3)       # include_libc=True
        for size in (64, 128, 4096, 64, 64, 64):
            assert system.call("malloc", size) != 0
        cache = system.extension.dispatcher.trace_cache
        assert cache.replays == 0

    def test_module_removal_drops_traces(self):
        system = make_system(seed=21)
        for i in range(4):
            system.call("test_incr", i)
        cache = system.extension.dispatcher.trace_cache
        assert len(cache) > 0
        m_id = next(iter(system.session.modules))
        system.extension.decision_cache.invalidate_module(m_id)
        assert len(cache) == 0

    def test_teardown_drops_traces(self):
        system = make_system(seed=23)
        for i in range(4):
            system.call("test_incr", i)
        cache = system.extension.dispatcher.trace_cache
        assert len(cache) > 0
        system.extension.sessions.teardown(system.session)
        assert len(cache) == 0


class _DummyEntry:
    state = 0
    m_ids = frozenset()


class TestTraceCacheBounds:
    def test_capacity_evicts_lru(self):
        cache = TraceCache(capacity=2)
        cache.store(("s", 1), _DummyEntry())
        cache.store(("s", 2), _DummyEntry())
        cache.store(("s", 3), _DummyEntry())
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.lookup(("s", 1)) is None

    def test_rejects_nonpositive_capacity(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            TraceCache(capacity=0)
