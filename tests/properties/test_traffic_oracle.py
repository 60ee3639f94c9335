"""Property-based differential oracle over the traffic engine's knob space.

Hypothesis draws small ``TrafficSpec`` values across every arrival source,
flush policy and call sink the engine composes, over 1-5 modules and a call
mix of one to three of the traffic functions with drawn weights, and each
draw must keep the determinism contract the hand-written differentials pin
case by case:

* construction either raises ``SimulationError`` or the run finishes;
* fast-forward on accounts exactly as op by op (``accounting`` from
  ``tests/secmodule/test_trace_replay.py``);
* telemetry and tracing on account exactly as both off (the same
  accounting, minus the metrics only telemetry fills);
* every offered call is issued or shed at the seat queue;
* there is one latency per issued call and, on open-loop runs, one
  queueing delay per issued call.

A second strategy draws the same specs under every policy chain the engine
builds (static, quota, expiry, deny-only) and every
``DispatchConfig(hardening, marshalling)`` of the 3 x 2 grid, and asserts
fast-forward on accounts exactly as op by op there too: the stateful
chains, the suspend/resume and unmap hardenings and explicit-copy
marshalling all run on the op-by-op path.  A third draws
the specs fast-forward runs through the array arm (static depth-1 open and
MMPP runs), whose calls come from a call table drawn in bulk with each
client's schedule, and asserts op by op (the general arm, drawing one call
at a time) accounts alike and leaves every client's bit generator in the
same state.  A fourth widens the draws to 2-6 clients over 2-3 shards and
asserts the sharded runner merges alike on one worker and on three
(``merged_accounting`` from ``tests/workloads/test_shard.py``).

The run is derandomized, so tier-1 sees the same examples every time.  A
shrunk failure belongs below as a named regression test.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.secmodule.dispatch import (DispatchConfig, HardeningMode,
                                      MarshallingMode)
from repro.workloads.shard import run_traffic_sharded
from repro.workloads.traffic import (TRAFFIC_FUNCTIONS, TrafficEngine,
                                     TrafficSpec)


def _helper(relative: str, name: str):
    """``name`` from the test module at ``tests/<relative>``."""
    path = pathlib.Path(__file__).resolve().parents[1] / relative
    module_spec = importlib.util.spec_from_file_location(
        f"_oracle_{path.stem}", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return getattr(module, name)


accounting = _helper("secmodule/test_trace_replay.py", "accounting")
merged_accounting = _helper("workloads/test_shard.py", "merged_accounting")

#: the same examples on every run, whatever a local example database holds
ORACLE = settings(derandomize=True, database=None, deadline=None,
                  max_examples=100,
                  suppress_health_check=[HealthCheck.too_slow])

_intervals = st.floats(min_value=0.5, max_value=60.0, allow_nan=False)
_weights = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


@st.composite
def traffic_specs(draw):
    """Keyword arguments for one small ``TrafficSpec``."""
    arrival, flush = draw(st.sampled_from(
        [(a, f) for a in ("closed", "open", "mmpp")
         for f in ("static", "aimd", "service")]))
    functions = draw(st.lists(st.sampled_from(TRAFFIC_FUNCTIONS),
                              min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(_weights, min_size=len(functions),
                            max_size=len(functions)))
    kwargs = dict(
        arrival=arrival,
        clients=draw(st.integers(1, 3)),
        modules=draw(st.integers(1, 5)),
        calls_per_client=draw(st.integers(1, 16)),
        call_mix=tuple(zip(functions, weights)),
        handle_policy=draw(st.sampled_from(
            ["per_session", "per_module", "pooled"])),
        pool_max_sessions=draw(st.integers(1, 3)),
        mean_interval_us=draw(_intervals),
        burst_interval_us=draw(_intervals),
        burst_on_us=draw(_intervals),
        burst_off_us=draw(_intervals),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    if flush == "static":
        kwargs["batch_size"] = draw(st.sampled_from([1, 2, 3, 4, 5]))
    elif flush == "aimd":
        kwargs.update(adaptive_batch=True,
                      adaptive_max_depth=draw(st.sampled_from(range(1, 9))))
    else:
        kwargs["via_service"] = True
    if arrival != "closed" and draw(st.booleans()):
        kwargs["shed_deadline_us"] = draw(
            st.floats(min_value=0.5, max_value=40.0, allow_nan=False))
    return kwargs


@st.composite
def policy_and_dispatch_draws(draw):
    """A ``traffic_specs`` draw under a drawn policy chain, and a dispatch
    config from the hardening x marshalling grid."""
    kwargs = draw(traffic_specs())
    kwargs["policy_kind"] = draw(st.sampled_from(
        ["static", "quota", "expiry", "deny-only"]))
    config = DispatchConfig(
        hardening=draw(st.sampled_from(list(HardeningMode))),
        marshalling=draw(st.sampled_from(list(MarshallingMode))))
    return kwargs, config


def _run(kwargs, *, config: DispatchConfig = DispatchConfig(), **extra):
    engine = TrafficEngine(TrafficSpec(**kwargs, **extra),
                           dispatch_config=config)
    return engine, engine.run()


def _without_metrics(engine, result):
    books = accounting(engine, result)
    del books["metrics"]
    return books


def check_contract(kwargs) -> None:
    """Assert the determinism contract for one drawn spec."""
    try:
        spec = TrafficSpec(**kwargs)
    except SimulationError:
        return
    ff_engine, ff = _run(kwargs)
    op_engine, op = _run(kwargs,
                         config=DispatchConfig(use_trace_replay=False))
    assert accounting(ff_engine, ff) == accounting(op_engine, op)
    seen_engine, seen = _run(kwargs, telemetry=True, tracing=True)
    assert _without_metrics(seen_engine, seen) == \
        _without_metrics(ff_engine, ff)

    offered = spec.clients * spec.calls_per_client
    assert ff.total_calls + ff.broker_stats["seat_sheds"] == offered
    assert len(ff.latencies_us) == ff.total_calls
    if spec.arrival != "closed":
        assert len(ff.queue_delays_us) == ff.total_calls
    else:
        assert len(ff.queue_delays_us) == 0


@ORACLE
@given(kwargs=traffic_specs())
def test_traffic_contract_holds_across_the_knob_space(kwargs):
    check_contract(kwargs)


@st.composite
def array_arm_specs(draw):
    """A ``traffic_specs`` draw that fast-forward runs through the array
    arm: open or MMPP arrivals, static batches of one, no shedding, no
    service plane."""
    kwargs = draw(traffic_specs())
    for knob in ("adaptive_batch", "adaptive_max_depth", "via_service",
                 "shed_deadline_us"):
        kwargs.pop(knob, None)
    kwargs["arrival"] = draw(st.sampled_from(["open", "mmpp"]))
    kwargs["batch_size"] = 1
    return kwargs


def _stream_states(engine):
    return [state.rng._rng.bit_generator.state for state in engine.clients]


@settings(ORACLE, max_examples=60)
@given(kwargs=array_arm_specs())
def test_array_arm_draws_what_the_general_arm_draws(kwargs):
    """The array arm takes its calls from a table drawn in bulk with each
    client's schedule; op by op, the general arm draws them one by one.
    Both runs account alike and leave every client's bit generator in the
    same state."""
    ff_engine, ff = _run(kwargs)
    op_engine, op = _run(kwargs,
                         config=DispatchConfig(use_trace_replay=False))
    assert accounting(ff_engine, ff) == accounting(op_engine, op)
    assert _stream_states(ff_engine) == _stream_states(op_engine)


@ORACLE
@given(draw=policy_and_dispatch_draws())
def test_tiers_agree_across_policies_and_dispatch_configs(draw):
    kwargs, config = draw
    try:
        TrafficSpec(**kwargs)
    except SimulationError:
        return
    ff_engine, ff = _run(kwargs, config=config)
    op_engine, op = _run(kwargs, config=dataclasses.replace(
        config, use_trace_replay=False))
    assert accounting(ff_engine, ff) == accounting(op_engine, op)


@st.composite
def sharded_specs(draw):
    """A ``traffic_specs`` draw widened to 2-6 clients over 2-3 shards;
    telemetry and tracing stay off, as a sharded run rejects them."""
    kwargs = draw(traffic_specs())
    kwargs["clients"] = draw(st.integers(2, 6))
    kwargs["shards"] = draw(st.integers(2, min(3, kwargs["clients"])))
    return kwargs


@settings(ORACLE, max_examples=12)
@given(kwargs=sharded_specs())
def test_sharded_merge_is_independent_of_worker_count(kwargs):
    try:
        spec = TrafficSpec(**kwargs)
    except SimulationError:
        return
    one = run_traffic_sharded(spec, workers=1)
    pooled = run_traffic_sharded(spec, workers=3)
    assert merged_accounting(one) == merged_accounting(pooled)


class TestShedUnderAimd:
    """Seat-queue shedding composes with AIMD batching."""

    SPEC = dict(clients=4, modules=1, calls_per_client=64,
                arrival="mmpp", mean_interval_us=30.0,
                burst_interval_us=1.0, burst_on_us=80.0,
                burst_off_us=240.0, shed_deadline_us=4.0,
                seed=0x5EA7, adaptive_batch=True, adaptive_max_depth=8,
                telemetry=True)

    def test_every_offered_call_is_issued_or_shed(self):
        _, result = _run(self.SPEC)
        sheds = result.broker_stats["seat_sheds"]
        assert sheds > 0
        # a shed last arrival still flushes what its client left queued
        assert result.total_calls + sheds == 4 * 64
        assert len(result.queue_delays_us) == result.total_calls

    def test_fast_forward_on_equals_off(self):
        ff_engine, ff = _run(self.SPEC)
        op_engine, op = _run(self.SPEC,
                             config=DispatchConfig(use_trace_replay=False))
        assert accounting(ff_engine, ff) == accounting(op_engine, op)
        assert ff.adaptive == op.adaptive
