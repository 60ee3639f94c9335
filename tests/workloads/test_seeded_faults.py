"""Seeded faults: each known fault class, patched in alone, fails a gate.

A gate that cannot fail proves nothing.  Each case patches one fault into
the simulator and runs the tier-1 gate that must catch it: a case of the
traffic digest table (``test_traffic_digests.py``), whose committed digest
the fault must move, or the array arm's differential against op-by-op
dispatch (``test_array_arm.py``); a fault with two gates must fail both.
Each gate also passes without its fault.  Served calls that ignore the engine's ``DispatchConfig`` (F2's
class) are left out: that is today's behaviour, and a test for it waits
on F2's fix.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.hw.machine import OPENBSD36_PIII, Machine
from repro.secmodule.dispatch import DispatchConfig, SmodDispatcher
from repro.sim import costs
from repro.sim.costs import PENTIUM_III_599, CallTrace
from repro.telemetry.metrics import Telemetry
from repro.workloads import traffic
from repro.workloads.traffic import TrafficEngine, TrafficSpec

from test_array_arm import _accounting
from test_traffic_digests import TABLE, digest


def _settle_skipping_a_switch(settle):
    """F1's class: each settled span charges one context switch less."""
    def faulty(self, entry, session, n, window=False):
        trace = entry.trace
        ops = dict(trace.ops)
        if ops.get(costs.CONTEXT_SWITCH):
            ops[costs.CONTEXT_SWITCH] -= 1
            entry.trace = CallTrace.from_totals(
                tuple(ops.items()), trace.events - 1,
                self.kernel.machine.meter.profile)
        try:
            settle(self, entry, session, n, window)
        finally:
            entry.trace = trace
    return faulty


def _settle_run_dropping_an_idle(settle_run):
    """A window run settles one idle event fewer than its arrivals idled."""
    def faulty(self, views, at, rows, kid):
        before = self._pending_idle_events
        settle_run(self, views, at, rows, kid)
        if self._pending_idle_events > before:
            self._pending_idle_events -= 1
    return faulty


def _flush_committing_in_last_use_order(flush):
    """The barrier commits its windows in last-use order, not first-use."""
    def faulty(self):
        windows = self._ff_windows
        ordered = sorted(windows.items(), key=lambda item: item[1][3])
        windows.clear()
        windows.update(ordered)
        flush(self)
    return faulty


def _tap_charging_an_op(record_dispatch):
    """An observation tap that charges the meter."""
    def faulty(self, *args, **kwargs):
        self.meter.charge(costs.SCHED_WAKEUP)
        return record_dispatch(self, *args, **kwargs)
    return faulty


def _digest_moves(case: str):
    """The digest-table gate over ``case``: it fails when the digest moves."""
    def gate() -> bool:
        table = json.loads(TABLE.read_text())
        return digest(*case.split("/")) != table[case]
    return gate


def _differential_fails(spec: TrafficSpec, machine_spec=OPENBSD36_PIII):
    """The array arm's gate: fast-forward must account as op by op."""
    def gate() -> bool:
        forwarded = TrafficEngine(spec, machine=Machine(spec=machine_spec))
        op_by_op = TrafficEngine(spec, machine=Machine(spec=machine_spec),
                                 dispatch_config=DispatchConfig(
                                     use_trace_replay=False))
        failed = _accounting(forwarded) != _accounting(op_by_op)
        stats = forwarded.extension.dispatcher.trace_cache.snapshot()
        assert stats["fast_forward_calls"] > 0.9 * spec.clients \
            * spec.calls_per_client
        return failed
    return gate


def _unchecked_candidate(clock_starts):
    """The array arm takes its max-plus candidate starts unchecked."""
    def faulty(self, at, cycles, x):
        starts = traffic._lindley_starts(at, cycles, x,
                                         self.machine.spec.mhz)
        before = starts.copy()
        before[0] = x
        before[1:] = starts[:-1] + cycles[:-1]
        return starts, at > before / self.machine.meter.profile.mhz
    return faulty


#: open arrivals that idle inside window runs, for the differential (of
#: the digest table's open specs only open-depth1-idling idles in them)
IDLING = TrafficSpec(clients=3, modules=2, calls_per_client=200,
                     arrival="open")
#: the 600 MHz profile against the spec's 599 of test_array_arm.py: every
#: idle start's candidate is off
MHZ_600 = replace(OPENBSD36_PIII,
                  profile=PENTIUM_III_599.scaled(1.0, mhz=600.0))

#: fault -> (patch target, attribute, fault factory, the gates it must fail)
FAULTS = {
    "settle-skips-a-switch": (
        SmodDispatcher, "_settle", _settle_skipping_a_switch,
        (_digest_moves("closed-depth1/ff"),)),
    "settle-run-drops-an-idle": (
        TrafficEngine, "_settle_run", _settle_run_dropping_an_idle,
        (_digest_moves("open-depth1-idling/ff"),
         _differential_fails(IDLING))),
    "windows-commit-in-last-use-order": (
        TrafficEngine, "_ff_flush", _flush_committing_in_last_use_order,
        (_digest_moves("aimd-mmpp-depth64-telemetry-p95/ff"),)),
    "array-arm-skips-the-candidate-check": (
        TrafficEngine, "_clock_starts", _unchecked_candidate,
        (_differential_fails(replace(IDLING, calls_per_client=1_000),
                             MHZ_600),)),
    "telemetry-tap-charges": (
        Telemetry, "record_dispatch", _tap_charging_an_op,
        (_digest_moves("open-telemetry/op"),)),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_seeded_fault_fails_its_gate(fault, monkeypatch):
    target, name, make, gates = FAULTS[fault]
    monkeypatch.setattr(target, name, make(getattr(target, name)))
    assert all(gate() for gate in gates)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_the_gate_passes_without_the_fault(fault):
    assert not any(gate() for gate in FAULTS[fault][3])
