"""Tests for the cost model and calibration profiles."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import costs
from repro.sim.clock import VirtualClock
from repro.sim.costs import (
    ALL_OPERATIONS,
    CostMeter,
    CostProfile,
    MODERN_X86_3GHZ,
    PENTIUM_III_599,
    get_profile,
    total_cycles,
)


class TestCostProfile:
    def test_paper_profile_defines_every_operation(self):
        for op in ALL_OPERATIONS:
            assert PENTIUM_III_599.cost(op) >= 0

    def test_paper_profile_frequency_matches_figure7(self):
        assert PENTIUM_III_599.mhz == pytest.approx(599.0)

    def test_native_getpid_calibration_anchor(self):
        """trap + demux + getpid body + return ~= the paper's 0.658 us."""
        cycles = total_cycles(PENTIUM_III_599, [
            costs.TRAP_ENTRY, costs.SYSCALL_DEMUX, costs.FUNC_BODY_GETPID,
            costs.TRAP_EXIT])
        us = PENTIUM_III_599.microseconds(cycles)
        assert abs(us - 0.658) < 0.05

    def test_missing_operation_rejected(self):
        with pytest.raises(ConfigurationError):
            CostProfile(name="broken", mhz=100.0, cycles={"trap_entry": 1})

    def test_unknown_operation_rejected(self):
        table = dict(PENTIUM_III_599.cycles)
        table["made_up_op"] = 5
        with pytest.raises(ConfigurationError):
            CostProfile(name="broken", mhz=100.0, cycles=table)

    def test_negative_cost_rejected(self):
        table = dict(PENTIUM_III_599.cycles)
        table[costs.TRAP_ENTRY] = -1
        with pytest.raises(ConfigurationError):
            CostProfile(name="broken", mhz=100.0, cycles=table)

    def test_scaled_profile(self):
        doubled = PENTIUM_III_599.scaled(2.0)
        assert doubled.cost(costs.TRAP_ENTRY) == 2 * PENTIUM_III_599.cost(costs.TRAP_ENTRY)
        assert doubled.name.startswith(PENTIUM_III_599.name)

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigurationError):
            PENTIUM_III_599.scaled(0)

    def test_with_overrides(self):
        custom = PENTIUM_III_599.with_overrides({costs.TRAP_ENTRY: 999})
        assert custom.cost(costs.TRAP_ENTRY) == 999
        assert custom.cost(costs.TRAP_EXIT) == PENTIUM_III_599.cost(costs.TRAP_EXIT)

    def test_with_overrides_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            PENTIUM_III_599.with_overrides({"bogus": 1})

    def test_get_profile_by_name(self):
        assert get_profile("pentium3-599") is PENTIUM_III_599
        assert get_profile(MODERN_X86_3GHZ.name) is MODERN_X86_3GHZ

    def test_get_profile_unknown(self):
        with pytest.raises(ConfigurationError):
            get_profile("does-not-exist")

    def test_modern_profile_is_faster_in_wall_clock(self):
        """Same op table semantics, higher clock -> fewer microseconds."""
        cycles = 3000
        assert MODERN_X86_3GHZ.microseconds(cycles) < PENTIUM_III_599.microseconds(cycles)


class TestCostMeter:
    def test_charge_advances_clock(self):
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        meter.charge(costs.TRAP_ENTRY)
        assert clock.cycles == PENTIUM_III_599.cost(costs.TRAP_ENTRY)

    def test_charge_count(self):
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        meter.charge(costs.COPY_WORD, 10)
        assert clock.cycles == 10 * PENTIUM_III_599.cost(costs.COPY_WORD)
        assert meter.count(costs.COPY_WORD) == 10

    def test_charge_zero_is_noop(self):
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        assert meter.charge(costs.TRAP_ENTRY, 0) == 0
        assert clock.cycles == 0

    def test_charge_negative_rejected(self):
        meter = CostMeter(PENTIUM_III_599, VirtualClock())
        with pytest.raises(ValueError):
            meter.charge(costs.TRAP_ENTRY, -1)

    def test_snapshot_and_diff(self):
        meter = CostMeter(PENTIUM_III_599, VirtualClock())
        meter.charge(costs.TRAP_ENTRY)
        before = meter.snapshot()
        meter.charge(costs.TRAP_ENTRY)
        meter.charge(costs.MSGQ_SEND, 2)
        diff = meter.diff(before)
        assert diff == {costs.TRAP_ENTRY: 1, costs.MSGQ_SEND: 2}

    def test_reset_counts_keeps_clock(self):
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        meter.charge(costs.TRAP_ENTRY)
        meter.reset_counts()
        assert meter.count(costs.TRAP_ENTRY) == 0
        assert clock.cycles > 0

    def test_microseconds(self):
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        clock.advance(599)
        assert meter.microseconds() == pytest.approx(1.0)


class TestOpHistogram:
    """The meter's op histogram keeps dict's own store and reads an
    uncharged op as 0 without inserting it."""

    def test_histogram_overrides_no_item_slot(self):
        # a Python __setitem__ or __delitem__ anywhere above dict (as
        # collections.Counter's __delitem__) sends every store of a
        # charge through a by-name method lookup
        counts = CostMeter(PENTIUM_III_599, VirtualClock()).op_counts
        for name in ("__getitem__", "__setitem__", "__delitem__"):
            assert getattr(type(counts), name) is getattr(dict, name), name

    def test_uncharged_op_reads_zero_and_is_not_inserted(self):
        meter = CostMeter(PENTIUM_III_599, VirtualClock())
        meter.charge(costs.TRAP_ENTRY)
        counts = meter.op_counts
        assert counts[costs.MSGQ_SEND] == 0
        assert costs.MSGQ_SEND not in counts
        assert dict(counts) == {costs.TRAP_ENTRY: 1}
        assert len(counts) == 1 and list(counts.items()) == [
            (costs.TRAP_ENTRY, 1)]

    def test_zero_count_charges_store_nothing(self):
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        assert meter.charge(costs.TRAP_ENTRY, 0) == 0
        assert meter.charge_each(costs.USER_STACK_WORD, 0) == 0
        assert meter.charge_words(costs.COPY_WORD, 0) == 0
        assert not meter.op_counts
        assert (clock.cycles, clock.events) == (0, 0)

    def test_no_zero_count_entry_after_a_settle(self):
        from repro.secmodule.api import SecModuleSystem

        system = SecModuleSystem.create(include_libc=False, seed=3)
        for i in range(4):
            system.call("test_incr", i)
        assert system.extension.dispatcher.trace_cache.replays == 2
        counts = system.machine.meter.op_counts
        assert counts and 0 not in counts.values()

    def test_no_zero_count_entry_after_window_commits(self):
        from repro.workloads.traffic import TrafficEngine, TrafficSpec

        engine = TrafficEngine(TrafficSpec(
            clients=2, modules=2, arrival="mmpp", adaptive_batch=True,
            calls_per_client=300, seed=1)).build()
        engine.run()
        assert engine.extension.dispatcher.trace_cache.fast_forwards > 0
        counts = engine.machine.meter.op_counts
        assert counts and 0 not in counts.values()


class TestIdle:
    """``CostMeter.idle``: metered idle time that charges no operation.

    Added when the static-analysis sweep replaced the traffic engine's
    direct ``clock.advance`` with a meter-routed idle charge; these tests
    pin the equivalence (one event, exact cycles, no histogram entry).
    """

    def test_idle_advances_clock_one_event(self):
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        meter.idle(1234)
        assert clock.cycles == 1234
        assert clock.events == 1

    def test_idle_charges_no_operation(self):
        meter = CostMeter(PENTIUM_III_599, VirtualClock())
        before = meter.snapshot()
        meter.idle(500)
        assert meter.diff(before) == {}

    def test_idle_zero_is_still_one_event(self):
        """Matches ``clock.advance(0)``: the event counter ticks."""
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        meter.idle(0)
        assert clock.cycles == 0
        assert clock.events == 1

    def test_idle_negative_rejected(self):
        meter = CostMeter(PENTIUM_III_599, VirtualClock())
        with pytest.raises(ValueError):
            meter.idle(-1)

    def test_idle_respects_freeze(self):
        clock = VirtualClock()
        meter = CostMeter(PENTIUM_III_599, clock)
        clock.freeze()
        meter.idle(999)
        assert clock.cycles == 0
