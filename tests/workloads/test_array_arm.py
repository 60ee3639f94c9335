"""The array arm's clock where its max-plus candidate is wrong.

Open/MMPP fast-forward runs settle each window run in numpy: a max-plus
(Lindley) candidate for every arrival's start cycle, then a recompute of
each start from its predecessor with the scalar step's float operations.
The candidate rounds the arrival time where the scalar step rounds the
wait, so it is off whenever the two roundings part, and everywhere on a
machine whose cost profile runs at another MHz than its spec.  The arm
repairs a bounded number of candidates per chunk and finishes the chunk
with the scalar recurrence; either way the accounting must be the scalar
arm's, which op by op dispatch reproduces.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.hw.machine import OPENBSD36_PIII, Machine
from repro.secmodule.dispatch import DispatchConfig
from repro.sim.costs import PENTIUM_III_599
from repro.workloads import traffic
from repro.workloads.traffic import TrafficEngine, TrafficSpec

#: three clients' open arrivals, four chunks of the schedule
SPEC = TrafficSpec(clients=3, modules=2, calls_per_client=20_000,
                   arrival="open")


def _accounting(engine):
    result = engine.run()
    machine = engine.machine
    return (machine.clock.cycles, machine.clock.events,
            dict(machine.meter.op_counts), result.total_calls,
            result.denied_calls, result.latencies_us.tobytes(),
            result.queue_delays_us.tobytes())


def _chunks(spec: TrafficSpec) -> int:
    arrivals = spec.clients * spec.calls_per_client
    return -(-arrivals // traffic._ARRIVAL_CHUNK)


def test_profile_mhz_off_the_spec_accounts_as_op_by_op():
    """At 600 MHz against the spec's 599 every idle start is off, so each
    chunk spends its repairs and finishes with the scalar recurrence."""
    machine_spec = replace(
        OPENBSD36_PIII, profile=PENTIUM_III_599.scaled(1.0, mhz=600.0))
    forwarded = TrafficEngine(SPEC, machine=Machine(spec=machine_spec))
    op_by_op = TrafficEngine(SPEC, machine=Machine(spec=machine_spec),
                             dispatch_config=DispatchConfig(
                                 use_trace_replay=False))
    assert _accounting(forwarded) == _accounting(op_by_op)
    stats = forwarded.extension.dispatcher.trace_cache.snapshot()
    assert stats["fast_forward_calls"] > 0.99 * 60_000
    # every chunk ran out of repairs; none made more than its bound
    assert forwarded._clock_repairs == traffic._CHUNK_REPAIRS * _chunks(SPEC)


@pytest.mark.parametrize("every", [1, 3001])
def test_a_candidate_off_by_one_is_repaired(monkeypatch, every):
    """Every ``every``-th candidate start is one cycle late.  At every
    arrival the budget runs out and the scalar recurrence finishes each
    chunk; at every 3001st the repairs alone fix each chunk."""
    expected = _accounting(TrafficEngine(SPEC))
    lindley = traffic._lindley_starts

    def off_by_one(at, cycles, x, spec_mhz):
        starts = lindley(at, cycles, x, spec_mhz)
        starts[every - 1::every] += 1
        return starts

    monkeypatch.setattr(traffic, "_lindley_starts", off_by_one)
    engine = TrafficEngine(SPEC)
    assert _accounting(engine) == expected
    bound = traffic._CHUNK_REPAIRS * _chunks(SPEC)
    if every == 1:
        assert engine._clock_repairs == bound
    else:
        assert 0 < engine._clock_repairs < bound
