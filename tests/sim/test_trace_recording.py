"""CostMeter trace recording / CallTrace replay and the charge_words fix."""

from __future__ import annotations

import pytest

from repro.hw.machine import make_paper_machine
from repro.sim import costs
from repro.sim.clock import VirtualClock
from repro.sim.costs import CallTrace, CostMeter, PENTIUM_III_599
from repro.telemetry import Telemetry


def fresh_meter():
    clock = VirtualClock()
    return CostMeter(PENTIUM_III_599, clock), clock


class TestAdvanceMany:
    def test_advances_cycles_and_events(self):
        clock = VirtualClock()
        clock.advance_many(500, 7)
        assert clock.cycles == 500 and clock.events == 7

    def test_rejects_negative(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance_many(-1, 0)
        with pytest.raises(ValueError):
            clock.advance_many(0, -1)

    def test_respects_freeze(self):
        clock = VirtualClock()
        clock.freeze()
        clock.advance_many(500, 7)
        assert clock.cycles == 0 and clock.events == 0


class TestChargeWords:
    def test_positive_words_charge(self):
        meter, clock = fresh_meter()
        meter.charge_words(costs.COPY_WORD, 8)
        assert meter.count(costs.COPY_WORD) == 8

    def test_zero_words_free(self):
        meter, clock = fresh_meter()
        assert meter.charge_words(costs.COPY_WORD, 0) == 0
        assert clock.cycles == 0 and clock.events == 0

    def test_negative_words_raise(self):
        """Silently clamping a negative size hid caller bugs; both charge
        entry points now reject negatives identically."""
        meter, _ = fresh_meter()
        with pytest.raises(ValueError):
            meter.charge_words(costs.COPY_WORD, -1)
        with pytest.raises(ValueError):
            meter.charge(costs.COPY_WORD, -1)


class TestTraceRecording:
    def test_recorder_captures_sequence(self):
        meter, _ = fresh_meter()
        recorder = meter.record_trace()
        assert recorder.start()
        meter.charge(costs.TRAP_ENTRY)
        meter.charge(costs.COPY_WORD, 4)
        meter.charge(costs.TRAP_ENTRY)
        raw = recorder.stop()
        assert raw == ((costs.TRAP_ENTRY, 1), (costs.COPY_WORD, 4),
                       (costs.TRAP_ENTRY, 1))

    def test_recording_does_not_nest(self):
        meter, _ = fresh_meter()
        outer = meter.record_trace()
        inner = meter.record_trace()
        assert outer.start()
        assert not inner.start()
        meter.charge(costs.TRAP_ENTRY)
        assert inner.stop() == ()        # inner never armed
        assert outer.stop() == ((costs.TRAP_ENTRY, 1),)

    def test_zero_count_charges_not_recorded(self):
        meter, _ = fresh_meter()
        recorder = meter.record_trace()
        recorder.start()
        meter.charge_words(costs.COPY_WORD, 0)
        assert recorder.stop() == ()

    def test_abort_discards(self):
        meter, _ = fresh_meter()
        recorder = meter.record_trace()
        recorder.start()
        meter.charge(costs.TRAP_ENTRY)
        recorder.abort()
        assert meter._trace_log is None
        # the meter is usable for a fresh recording afterwards
        again = meter.record_trace()
        assert again.start()
        again.stop()


class TestDeltaRecording:
    """A batch span records the meter's delta: (events, sorted op totals,
    cycles), or None when the clock did not count exactly its charges."""

    def charge_some(self, meter):
        meter.charge(costs.TRAP_ENTRY)
        meter.charge_each(costs.USER_STACK_WORD, 5)
        meter.charge(costs.COPY_WORD, 4)
        meter.charge(costs.TRAP_ENTRY)

    def test_delta_equals_the_log(self):
        logged, _ = fresh_meter()
        log = logged.record_trace()
        log.start()
        self.charge_some(logged)
        trace = CallTrace(log.stop(), PENTIUM_III_599)

        meter, clock = fresh_meter()
        meter.charge(costs.CONTEXT_SWITCH)          # history before the span
        recorder = meter.record_delta()
        assert recorder.start()
        self.charge_some(meter)
        events, ops, cycles = recorder.stop()
        assert events == trace.events == 8
        assert ops == tuple(sorted(trace.ops))
        assert cycles == trace.total_cycles
        replay = CallTrace.from_totals(ops, events, PENTIUM_III_599)
        assert (replay.events, replay.total_cycles) == (events, cycles)

    def test_refuses_a_frozen_clock_at_start(self):
        meter, clock = fresh_meter()
        clock.freeze()
        assert not meter.record_delta().start()
        # the refusal leaves nothing armed
        assert meter.record_trace().start()

    def test_refuses_a_clock_frozen_at_the_end(self):
        meter, clock = fresh_meter()
        recorder = meter.record_delta()
        assert recorder.start()
        self.charge_some(meter)
        clock.freeze()
        assert recorder.stop() is None
        assert meter.record_delta().start() is False   # still frozen
        clock.unfreeze()
        assert meter.record_delta().start()

    def test_refuses_a_freeze_inside_the_span(self):
        meter, clock = fresh_meter()
        recorder = meter.record_delta()
        recorder.start()
        clock.freeze()
        meter.charge(costs.TRAP_ENTRY)          # counted, but not clocked
        clock.unfreeze()
        meter.charge(costs.TRAP_EXIT)
        assert recorder.stop() is None

    @pytest.mark.parametrize("advance", [
        lambda meter: meter.idle(40),
        lambda meter: meter.idle_many(40, 2),
        lambda meter: meter.clock.advance(7),
    ], ids=["idle", "idle_many", "bare-advance"])
    def test_refuses_an_idle_inside_the_span(self, advance):
        meter, _ = fresh_meter()
        recorder = meter.record_delta()
        recorder.start()
        meter.charge(costs.TRAP_ENTRY)
        advance(meter)
        meter.charge(costs.TRAP_EXIT)
        assert recorder.stop() is None

    def test_never_nests_with_the_log(self):
        meter, _ = fresh_meter()
        delta = meter.record_delta()
        log = meter.record_trace()
        assert delta.start()
        assert not log.start()
        assert not meter.record_delta().start()
        meter.charge(costs.TRAP_ENTRY)
        assert meter._trace_log is None         # no log behind the delta
        assert delta.stop()[0] == 1
        assert log.start()
        assert not meter.record_delta().start()
        log.stop()
        assert meter.record_delta().start()

    def test_abort_disarms(self):
        meter, _ = fresh_meter()
        recorder = meter.record_delta()
        recorder.start()
        recorder.abort()
        assert recorder.stop() is None
        assert meter.record_trace().start()


class TestChargeTrace:
    def run_both(self, raw):
        """Execute a sequence op by op and as a replay; return both meters."""
        slow, slow_clock = fresh_meter()
        for operation, count in raw:
            slow.charge(operation, count)
        fast, fast_clock = fresh_meter()
        fast.charge_trace(CallTrace(raw, PENTIUM_III_599))
        return (slow, slow_clock), (fast, fast_clock)

    def test_replay_matches_op_by_op(self):
        raw = ((costs.TRAP_ENTRY, 1), (costs.COPY_WORD, 4),
               (costs.CONTEXT_SWITCH, 2), (costs.COPY_WORD, 3))
        (slow, slow_clock), (fast, fast_clock) = self.run_both(raw)
        assert slow_clock.cycles == fast_clock.cycles
        assert slow_clock.events == fast_clock.events
        assert dict(slow.op_counts) == dict(fast.op_counts)

    def test_replay_mirrors_telemetry(self):
        raw = ((costs.TRAP_ENTRY, 1), (costs.COPY_WORD, 4),
               (costs.TRAP_ENTRY, 1))
        slow, slow_clock = fresh_meter()
        slow_telemetry = Telemetry(slow_clock, meter=slow).enable_metrics()
        for operation, count in raw:
            slow.charge(operation, count)
        fast, fast_clock = fresh_meter()
        fast_telemetry = Telemetry(fast_clock, meter=fast).enable_metrics()
        fast.charge_trace(CallTrace(raw, PENTIUM_III_599))
        assert slow_telemetry.op_counts == fast_telemetry.op_counts
        assert slow_telemetry.op_cycles == fast_telemetry.op_cycles

    def test_replay_respects_frozen_clock(self):
        meter, clock = fresh_meter()
        trace = CallTrace(((costs.TRAP_ENTRY, 1),), PENTIUM_III_599)
        clock.freeze()
        meter.charge_trace(trace)
        assert clock.cycles == 0
        # op histogram still accumulates, exactly like charge() on a frozen
        # clock
        assert meter.count(costs.TRAP_ENTRY) == 1

    def test_calltrace_precomputes_totals(self):
        raw = ((costs.TRAP_ENTRY, 2), (costs.TRAP_ENTRY, 1),
               (costs.COPY_WORD, 5))
        trace = CallTrace(raw, PENTIUM_III_599)
        assert trace.events == 3
        assert dict(trace.ops) == {costs.TRAP_ENTRY: 3, costs.COPY_WORD: 5}
        expected = (3 * PENTIUM_III_599.cost(costs.TRAP_ENTRY)
                    + 5 * PENTIUM_III_599.cost(costs.COPY_WORD))
        assert trace.total_cycles == expected


class TestMachineIntegration:
    def test_machine_meter_records_and_replays(self):
        machine = make_paper_machine()
        recorder = machine.meter.record_trace()
        recorder.start()
        machine.charge(costs.TRAP_ENTRY)
        machine.charge_words(costs.COPY_WORD, 2)
        raw = recorder.stop()
        cycles_once = machine.clock.cycles
        machine.meter.charge_trace(machine.meter.build_trace(raw))
        assert machine.clock.cycles == 2 * cycles_once
        assert machine.meter.count(costs.TRAP_ENTRY) == 2


class TestChargeEach:
    """``charge_each(op, n)`` is exactly ``n`` back-to-back ``charge(op)``."""

    def run_both(self, operation, n, *, frozen=False):
        meters = []
        for run in (lambda m: [m.charge(operation) for _ in range(n)],
                    lambda m: m.charge_each(operation, n)):
            meter, clock = fresh_meter()
            telemetry = Telemetry(clock, meter=meter).enable_metrics()
            meter.charge(costs.TRAP_ENTRY)      # a charge before the run
            if frozen:
                clock.freeze()
            recorder = meter.record_trace()
            recorder.start()
            run(meter)
            meter.charge(costs.TRAP_ENTRY)      # and one after it
            meters.append((meter, clock, recorder.stop(), telemetry))
        return meters

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_matches_unit_charges(self, n):
        ((slow, slow_clock, slow_raw, slow_telemetry),
         (fast, fast_clock, fast_raw, fast_telemetry)) = \
            self.run_both(costs.USER_STACK_WORD, n)
        assert fast_clock.cycles == slow_clock.cycles
        assert fast_clock.events == slow_clock.events == 2 + n
        assert list(fast.op_counts.items()) == list(slow.op_counts.items())
        assert fast_raw == slow_raw
        assert (CallTrace(fast_raw, PENTIUM_III_599).events
                == CallTrace(slow_raw, PENTIUM_III_599).events)
        assert fast_telemetry.op_counts == slow_telemetry.op_counts
        assert fast_telemetry.op_cycles == slow_telemetry.op_cycles

    def test_zero_touches_nothing(self):
        meter, clock = fresh_meter()
        assert meter.charge_each(costs.USER_STACK_WORD, 0) == 0
        assert clock.events == 0 and costs.USER_STACK_WORD not in meter.op_counts

    def test_frozen_clock(self):
        (slow, slow_clock, slow_raw, _), (fast, fast_clock, fast_raw, _) = \
            self.run_both(costs.SMOD_STACK_FIXUP_WORD, 5, frozen=True)
        assert (fast_clock.cycles, fast_clock.events) == \
            (slow_clock.cycles, slow_clock.events) == \
            (PENTIUM_III_599.cost(costs.TRAP_ENTRY), 1)
        assert dict(fast.op_counts) == dict(slow.op_counts)
        assert fast_raw == slow_raw

    def test_negative_raises(self):
        meter, clock = fresh_meter()
        with pytest.raises(ValueError):
            meter.charge_each(costs.USER_STACK_WORD, -1)
        assert clock.events == 0 and not meter.op_counts

    def test_returns_cycles_charged(self):
        meter, _ = fresh_meter()
        assert meter.charge_each(costs.XDR_ITEM, 3) == \
            3 * PENTIUM_III_599.cost(costs.XDR_ITEM)

    def test_machine_charge_is_the_meter_method(self):
        machine = make_paper_machine()
        assert machine.charge == machine.meter.charge
        assert machine.charge_each == machine.meter.charge_each
