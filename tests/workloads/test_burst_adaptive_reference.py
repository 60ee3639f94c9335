"""burst-adaptive at full size accounts exactly as its op-by-op run.

The end-to-end benchmark's burst-adaptive workload (two MMPP clients over
two modules, AIMD batching, telemetry on and a p95 target) settles most
of its flushes: hot spans join fast-forward windows, and flushes of new
queue shapes settle from entries their session's batch model composes.
The reference is the same spec with ``SmodDispatcher._traceable``
answering False, so no span is ever recorded and every call and flush
runs op by op.  Both runs must agree on every cycle, clock event, op
count, latency, queueing delay, denial and controller step.
"""

from __future__ import annotations

import functools

import pytest

from repro.secmodule.dispatch import BatchModel, SmodDispatcher
from repro.workloads.traffic import TrafficEngine, TrafficSpec

#: ``benchmarks/e2e``'s burst-adaptive workload at its full size
SPEC = dict(clients=2, modules=2, arrival="mmpp", adaptive_batch=True,
            telemetry=True, service_p95_target_us=40.0,
            calls_per_client=7000)


def end_state(seed: int, patches=()):
    """Run the spec under ``patches`` (``(target, name, value)``); what
    both tiers must agree on, and the trace cache."""
    with pytest.MonkeyPatch.context() as patch:
        for target, name, value in patches:
            patch.setattr(target, name, value)
        engine = TrafficEngine(TrafficSpec(seed=seed, **SPEC))
        result = engine.run()
    machine = engine.machine
    state = {
        "cycles": machine.clock.cycles,
        "events": machine.clock.events,
        "ops": dict(sorted(machine.meter.op_counts.items())),
        "calls": result.total_calls,
        "latencies": result.latencies_us.tobytes(),
        "delays": result.queue_delays_us.tobytes(),
        "denied": result.denied_calls,
        "adaptive": result.adaptive,
    }
    return state, engine.extension.dispatcher.trace_cache


@functools.lru_cache(maxsize=None)
def reference(seed: int):
    """The op-by-op run of ``seed``: nothing is traceable."""
    state, trace_cache = end_state(seed, patches=[
        (SmodDispatcher, "_traceable", lambda *args: False)])
    assert trace_cache.records == trace_cache.fast_forwards == 0
    return state


def assert_matches_reference(seed: int, patches=()) -> None:
    state, trace_cache = end_state(seed, patches)
    # the shipped run settles: windows and composed flushes both ran
    assert trace_cache.fast_forward_calls > 0 and trace_cache.composed > 0
    expected = reference(seed)
    for name, value in expected.items():
        assert state[name] == value, name


@pytest.mark.parametrize("seed", [1, 7])
def test_settled_run_accounts_as_op_by_op(seed):
    assert_matches_reference(seed)


def test_a_fault_in_an_answer_fails_the_reference():
    """One increment off by one only where a batch model answers:
    composed flushes charge one event too many per entry of its first
    pair, and the comparison names the clock events."""
    answer = BatchModel.answer

    def off_by_one(model, counts, arity):
        components = answer(model, counts, arity)
        if components is not None:
            components[0] += counts.get(next(iter(model.info)), 0)
        return components

    with pytest.raises(AssertionError, match="events"):
        assert_matches_reference(1,
                                 patches=[(BatchModel, "answer", off_by_one)])
