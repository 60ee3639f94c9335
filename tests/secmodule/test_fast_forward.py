"""The analytic fast-forward tier: closed-form charges over hot traces.

Three layers of proof, mirroring docs/performance.md:

* ``charge_trace(trace, n)`` is *exactly* the aggregate of ``n``
  back-to-back charges — integer arithmetic, no rounding to diverge;
* ``fast_forward_probe`` x n + ``fast_forward_commit(n)`` applies the
  identical machine/session/cache state a loop of n per-call replays
  applies (only the trace cache's own mechanism counters may differ);
* admission fails closed: poisoned entries, stale decision-cache touches
  and mid-window epoch bumps all force the slow path, and a span that
  falls back is never also settled in a window (no double-charging).
"""

from __future__ import annotations

import pytest

from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import (
    DispatchConfig,
    TRACE_HOT,
    TRACE_POISONED,
)
from repro.telemetry.tracing import TIER_REPLAY
from repro.workloads.traffic import TrafficEngine, TrafficSpec
from test_trace_replay import accounting, normalized_metrics  # noqa: F401


def make_system(**kwargs):
    return SecModuleSystem.create(include_libc=False, **kwargs)


def warm_key(system, config):
    """Record + confirm ``test_incr`` and return its hot trace key."""
    for i in range(2):
        assert system.call("test_incr", i, config=config) == i + 1
    session = system.session
    module, function = session.find_function("test_incr")
    key = (session.session_id, (module.m_id, function.func_id), config)
    entry = system.extension.dispatcher.trace_cache.lookup(key)
    assert entry is not None and entry.state == TRACE_HOT
    return key, entry


def machine_state(system):
    """Everything a fast-forward settle must leave identical to n replays
    (the trace cache's own mechanism counters are accounting *of* the
    mechanism and excluded by design)."""
    dispatcher = system.extension.dispatcher
    cache = dispatcher.decision_cache
    return {
        "cycles": system.machine.clock.cycles,
        "events": system.machine.clock.events,
        "ops": dict(system.machine.meter.op_counts),
        "dispatched": dispatcher.calls_dispatched,
        "denied": dispatcher.calls_denied,
        "served": system.session.handle.calls_served,
        "session_calls": (system.session.calls_made,
                          dict(system.session.calls_per_module)),
        "cache": (cache.hits, cache.misses, cache.batch_epoch_checks,
                  cache.batch_served),
    }


def meter_state(meter):
    """The meter's clock and op histogram."""
    return (meter.clock.cycles, meter.clock.events, dict(meter.op_counts))


class TestChargeTraceN:
    def test_charge_trace_n_is_exact_integer_aggregation(self):
        system = make_system(seed=3)
        _, entry = warm_key(system, DispatchConfig())
        trace = entry.trace
        meter = system.machine.meter
        for n in (2, 5, 1000):
            cycles, events, ops = meter_state(meter)
            assert meter.charge_trace(trace, n) == trace.total_cycles * n
            assert meter.clock.cycles - cycles == trace.total_cycles * n
            assert meter.clock.events - events == trace.events * n
            assert meter.diff(ops) == {op: count * n
                                       for op, count in trace.ops}

    def test_charge_trace_n_equals_n_back_to_back_replays(self):
        looped, closed = make_system(seed=3), make_system(seed=3)
        _, looped_entry = warm_key(looped, DispatchConfig())
        _, closed_entry = warm_key(closed, DispatchConfig())
        for _ in range(7):
            looped.machine.meter.charge_trace(looped_entry.trace)
        closed.machine.meter.charge_trace(closed_entry.trace, 7)
        assert meter_state(looped.machine.meter) == \
            meter_state(closed.machine.meter)

    def test_charge_trace_zero_is_a_noop_and_negative_raises(self):
        system = make_system(seed=3)
        _, entry = warm_key(system, DispatchConfig())
        meter = system.machine.meter
        before = meter_state(meter)
        assert meter.charge_trace(entry.trace, 0) == 0
        with pytest.raises(ValueError):
            meter.charge_trace(entry.trace, -1)
        assert meter_state(meter) == before


class TestProbeCommitEquivalence:
    def test_probe_n_commit_equals_n_replays(self):
        """One scaled commit must equal the per-call replay loop, state
        field for state field."""
        config = DispatchConfig()
        n = 7

        replay = make_system(seed=11)
        warm_key(replay, config)
        for i in range(n):
            replay.call("test_incr", 50 + i, config=config)
        assert replay.extension.dispatcher.trace_cache.replays == n

        forwarded = make_system(seed=11)
        key, entry = warm_key(forwarded, config)
        dispatcher = forwarded.extension.dispatcher
        for _ in range(n):
            assert dispatcher.fast_forward_probe(forwarded.session,
                                                 key) is entry
        dispatcher.fast_forward_commit(entry, forwarded.session, n)
        stats = dispatcher.trace_cache.snapshot()
        assert stats["fast_forwards"] == 1
        assert stats["fast_forward_calls"] == n

        assert machine_state(replay) == machine_state(forwarded)

    def test_commit_of_zero_spans_is_a_noop(self):
        system = make_system(seed=11)
        key, entry = warm_key(system, DispatchConfig())
        before = machine_state(system)
        system.extension.dispatcher.fast_forward_commit(
            entry, system.session, 0)
        assert machine_state(system) == before
        assert system.extension.dispatcher.trace_cache.fast_forwards == 0


class TestAdmission:
    def test_poisoned_entry_refuses_probe(self):
        system = make_system(seed=17)
        key, entry = warm_key(system, DispatchConfig())
        entry.state = TRACE_POISONED
        dispatcher = system.extension.dispatcher
        assert dispatcher.fast_forward_probe(system.session, key) is None
        # the call itself still works — op by op, never through the entry
        replays_before = dispatcher.trace_cache.replays
        assert system.call("test_incr", 9) == 10
        assert dispatcher.trace_cache.replays == replays_before

    def test_stale_decision_touch_fails_probe_and_counts_fallback(self):
        """A hot entry whose recorded decision-cache touches can no longer
        be replayed (evicted/invalidated decision) must fail the probe with
        the same ``fallbacks`` bump a failed replay takes."""
        system = make_system(seed=17)
        key, entry = warm_key(system, DispatchConfig())
        entry.cache_touch_keys = (("no-such-module", -1, -1),)
        dispatcher = system.extension.dispatcher
        fallbacks = dispatcher.trace_cache.fallbacks
        assert dispatcher.fast_forward_probe(system.session, key) is None
        assert dispatcher.trace_cache.fallbacks == fallbacks + 1

    def test_epoch_bump_forces_probe_failure(self):
        system = make_system(seed=17)
        key, _ = warm_key(system, DispatchConfig())
        session = system.session
        m_id = next(iter(session.credentials))
        session.replace_credential(m_id, session.credentials[m_id])
        assert system.extension.dispatcher.fast_forward_probe(
            session, key) is None

    def test_unknown_key_probe_returns_none_quietly(self):
        system = make_system(seed=17)
        dispatcher = system.extension.dispatcher
        fallbacks = dispatcher.trace_cache.fallbacks
        assert dispatcher.fast_forward_probe(
            system.session, ("bogus",)) is None
        assert dispatcher.trace_cache.fallbacks == fallbacks

    def test_armed_event_trace_refuses_probe(self):
        """A live TraceBuffer needs per-op emits fast-forward skips."""
        system = make_system(seed=17)
        key, _ = warm_key(system, DispatchConfig())
        system.machine.trace.enabled = True
        try:
            assert system.extension.dispatcher.fast_forward_probe(
                system.session, key) is None
        finally:
            system.machine.trace.enabled = False


class TestNoDoubleCharge:
    def test_epoch_bump_mid_window_settles_partial_then_falls_back(self):
        """The window-close contract: spans admitted before an epoch bump
        settle once via the scaled commit, the bumped call runs the slow
        path once — totals identical to never fast-forwarding at all."""
        config = DispatchConfig()

        def drive(fast_forward: bool):
            system = make_system(seed=23)
            dispatcher = system.extension.dispatcher
            session = system.session
            key, entry = warm_key(system, config)
            if fast_forward:
                for _ in range(3):
                    assert dispatcher.fast_forward_probe(session,
                                                         key) is entry
            else:
                for i in range(3):
                    system.call("test_incr", 10 + i, config=config)
            # the invalidating event lands mid-window
            m_id = next(iter(session.credentials))
            session.replace_credential(m_id, session.credentials[m_id])
            if fast_forward:
                # probe now refuses; settle the partial window exactly once
                assert dispatcher.fast_forward_probe(session, key) is None
                dispatcher.fast_forward_commit(entry, session, 3)
            # the refused span takes the slow path (re-records under the
            # new epoch), exactly as a failed replay would
            system.call("test_incr", 100, config=config)
            return machine_state(system)

        assert drive(fast_forward=True) == drive(fast_forward=False)


class TestPerCallSettle:
    """A direct call on a HOT key settles as a fast-forward window of one,
    but keeps its own live span and counts as a replay, not a window."""

    def test_traced_hot_call_is_one_replay_span(self):
        system = make_system(seed=29)
        warm_key(system, DispatchConfig())
        tracer = system.machine.telemetry.enable_spans()
        assert system.call("test_incr", 5) == 6
        assert [(span.kind, span.tier, span.count)
                for span in tracer.spans()] == [
            ("dispatch.call", TIER_REPLAY, 1)]
        stats = system.extension.dispatcher.trace_cache.snapshot()
        assert stats["replays"] == 1
        assert stats["fast_forwards"] == stats["fast_forward_calls"] == 0

    def test_traced_hot_batch_is_one_replay_span(self):
        system = make_system(seed=29)
        config = DispatchConfig(batch_size=3)
        dispatcher = system.extension.dispatcher
        calls = [("test_incr", (i,)) for i in range(3)]
        for _ in range(2):                       # record, then confirm
            dispatcher.call_batch(system.session, calls, config=config)
        tracer = system.machine.telemetry.enable_spans()
        outcome = dispatcher.call_batch(system.session, calls[::-1],
                                        config=config)
        assert outcome.values == [3, 2, 1]       # any permutation settles
        assert [(span.kind, span.tier, span.count)
                for span in tracer.spans()] == [
            ("dispatch.batch", TIER_REPLAY, 1)]
        assert dispatcher.trace_cache.replays == 1


class TestEngineDifferential:
    def accounting_pair(self, spec: TrafficSpec):
        def run(fast_forward: bool):
            engine = TrafficEngine(spec, dispatch_config=DispatchConfig(
                use_trace_replay=fast_forward))
            result = engine.run()
            return engine, result
        off_engine, off_result = run(False)
        on_engine, on_result = run(True)
        assert accounting(off_engine, off_result) == \
            accounting(on_engine, on_result)
        return (off_engine.extension.dispatcher.trace_cache.snapshot(),
                on_engine.extension.dispatcher.trace_cache.snapshot())

    def test_open_loop_ff_off_vs_on(self):
        off, on = self.accounting_pair(
            TrafficSpec(clients=4, modules=2, calls_per_client=60,
                        arrival="open"))
        assert off["fast_forward_calls"] == 0 and off["replays"] == 0
        assert off["records"] == 0
        assert on["fast_forward_calls"] > 0

    def test_open_loop_with_telemetry(self):
        # the metrics snapshot (bulk vs per-call recording) is part of the
        # compared accounting, means normalized to 12 significant digits
        self.accounting_pair(
            TrafficSpec(clients=3, modules=2, calls_per_client=40,
                        arrival="open", telemetry=True))

    def test_mmpp_ff_off_vs_on(self):
        self.accounting_pair(
            TrafficSpec(clients=3, modules=2, calls_per_client=48,
                        arrival="mmpp"))
