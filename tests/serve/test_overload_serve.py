"""Overload protection across the service plane.

Deadline shedding at the attachment pool, its interaction with
``overflow="refuse"`` under bursty arrivals, per-backend circuit
breakers (including a half-open probe racing a still-down backend),
retry-budget exhaustion end to end through the RPC stubs, the
``serve status`` overload section, and the broker's seat-queue shedding
under MMPP traffic (which must force every call down the per-call path —
no analytic fast-forward).
"""

from __future__ import annotations

import json

import pytest

from repro.control.overload import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    OverloadConfig,
)
from repro.kernel.errno import Errno
from repro.secmodule.libc_conversion import build_test_module
from repro.secmodule.protection import ProtectionMode
from repro.serve.attachment_pool import PoolConfig
from repro.serve.frontend import ServiceConfig, ServiceFrontend
from repro.sim.rng import DeterministicRNG
from repro.userland.process import Program
from repro.workloads.traffic import TrafficSpec, run_traffic


def build_front(smod_kernel, *, overload=None, pool=None):
    kernel, ext = smod_kernel
    registered = ext.registry.register(build_test_module(), uid=0,
                                      protection=ProtectionMode.ENCRYPT)
    config = ServiceConfig(overload=overload,
                           pool=pool or PoolConfig(max_attachments=2))
    frontend = ServiceFrontend(kernel, ext, config=config)
    record = frontend.register_backend("libtest", [registered])
    return kernel, frontend, record


def breaker_config():
    """Breakers over a 1000 us window, at the module's thresholds: 8
    outcomes at a failure ratio of 0.5 trip one, which then stays open for
    200 us."""
    return OverloadConfig(breaker_window_us=1000.0)


class TestDeadlineShed:
    def test_pool_sheds_when_projected_wait_blows_deadline(self, smod_kernel):
        _, frontend, record = build_front(
            smod_kernel,
            overload=OverloadConfig(deadline_us=10.0),
            pool=PoolConfig(max_attachments=1))
        pool = frontend.pool("libtest")
        # the overload deadline propagated into the backend's pool
        assert pool.shed_deadline_us == 10.0
        first = pool.checkout(0.0)
        assert first.ok
        pool.checkin(first.attachment, 100.0)       # busy until t=100
        shed = pool.checkout(5.0)                   # projected wait 95 > 10
        assert shed.refused and shed.reason == "deadline shed"
        assert shed.wait_us == pytest.approx(95.0)
        assert pool.sheds == 1
        # at t=95 the projected wait (5us) is inside the deadline: queue it
        queued = pool.checkout(95.0)
        assert queued.ok and queued.wait_us == pytest.approx(5.0)
        assert pool.sheds == 1

    def test_shed_takes_priority_over_refuse_past_the_deadline(
            self, smod_kernel):
        """With both knobs on, the *reason* tells the caller what to do:
        waits inside the deadline refuse (retry-able backpressure), waits
        past it shed (the reply would be late anyway)."""
        _, frontend, _ = build_front(
            smod_kernel,
            overload=OverloadConfig(deadline_us=20.0),
            pool=PoolConfig(max_attachments=1, overflow="refuse"))
        pool = frontend.pool("libtest")
        first = pool.checkout(0.0)
        pool.checkin(first.attachment, 30.0)
        refused = pool.checkout(15.0)               # wait 15 <= 20: refuse
        assert refused.refused and refused.reason == "pool exhausted"
        shed = pool.checkout(5.0)                   # wait 25 > 20: shed
        assert shed.refused and shed.reason == "deadline shed"
        assert pool.sheds == 1 and pool.refusals == 1

    def test_bursty_arrivals_split_between_sheds_and_refusals(
            self, smod_kernel):
        """An MMPP-shaped burst against a refuse+deadline pool: on-burst
        arrivals shed (deep backlog), the stragglers right behind a
        service completion refuse; both leave the queue untouched."""
        _, frontend, record = build_front(
            smod_kernel,
            overload=OverloadConfig(deadline_us=4.0),
            pool=PoolConfig(max_attachments=1, overflow="refuse"))
        pool = frontend.pool("libtest")
        rng = DeterministicRNG(0xB0B)
        now, served, sheds, refusals = 0.0, 0, 0, 0
        for burst in range(6):
            # ON state: a tight burst of arrivals...
            for _ in range(5):
                now += rng.exponential(1.5)
                outcome, checkout = frontend.call_pooled(
                    record, "test_incr", 1, arrival_us=now)
                if outcome.ok:
                    served += 1
                elif checkout.reason == "deadline shed":
                    sheds += 1
                else:
                    assert checkout.reason == "pool exhausted"
                    refusals += 1
            # ...then an OFF lull long enough to drain the attachment
            now += 40.0
        # each burst drains at least one call through the single seat (a
        # long enough burst squeezes a second past the service horizon)
        assert served >= 6
        assert sheds > 0 and refusals > 0
        assert sheds + refusals + served == 30
        assert pool.sheds == sheds and pool.refusals == refusals
        assert pool.waits == 0              # nothing ever queued


class TestCircuitBreaker:
    def test_down_backend_failures_trip_the_breaker(self, smod_kernel):
        _, frontend, record = build_front(smod_kernel,
                                          overload=breaker_config())
        frontend.registry.mark_down(record)
        for t in range(8):
            outcome, checkout = frontend.call_pooled(
                record, "test_incr", 1, arrival_us=float(t))
            assert outcome.errno == Errno.EAGAIN
            assert "down" in checkout.reason
        assert record.breaker.state == BREAKER_OPEN
        assert frontend.down_refusals == 8
        # open breaker fast-fails before the down check is even reached
        outcome, checkout = frontend.call_pooled(
            record, "test_incr", 1, arrival_us=10.0)
        assert outcome.errno == Errno.EAGAIN
        assert "breaker open" in checkout.reason
        assert frontend.breaker_refusals == 1
        assert frontend.down_refusals == 8

    def test_half_open_probe_racing_a_down_backend_reopens(
            self, smod_kernel):
        """The probe admitted after the open period races the backend's
        recovery: still down, the probe fails and the breaker re-opens
        for a fresh open period; healed, the probe closes it."""
        _, frontend, record = build_front(smod_kernel,
                                          overload=breaker_config())
        frontend.registry.mark_down(record)
        for t in range(8):
            frontend.call_pooled(record, "test_incr", 1,
                                 arrival_us=float(t))
        breaker = record.breaker
        assert breaker.state == BREAKER_OPEN and breaker.trips == 1
        # past the open period: the probe goes through... into a wall
        outcome, checkout = frontend.call_pooled(
            record, "test_incr", 1, arrival_us=210.0)
        assert outcome.errno == Errno.EAGAIN and "down" in checkout.reason
        assert breaker.state == BREAKER_OPEN and breaker.trips == 2
        # the fresh open period starts at the failed probe, not the trip
        outcome, checkout = frontend.call_pooled(
            record, "test_incr", 1, arrival_us=220.0)
        assert "breaker open" in checkout.reason
        # backend heals; next probe succeeds and the breaker closes
        frontend.registry.mark_up(record)
        outcome, _ = frontend.call_pooled(record, "test_incr", 1,
                                          arrival_us=420.0)
        assert outcome.ok and outcome.value == 2
        assert breaker.state == BREAKER_CLOSED
        # and stays closed for ordinary traffic
        outcome, _ = frontend.call_pooled(record, "test_incr", 5,
                                          arrival_us=500.0)
        assert outcome.ok and outcome.value == 6

    def test_breaker_state_surfaces_in_status(self, smod_kernel):
        _, frontend, record = build_front(smod_kernel,
                                          overload=breaker_config())
        frontend.registry.mark_down(record)
        for t in range(8):
            frontend.call_pooled(record, "test_incr", 1,
                                 arrival_us=float(t))
        frontend.call_pooled(record, "test_incr", 1, arrival_us=10.0)
        status = frontend.status(probe=False)
        json.dumps(status)
        overload = status["overload"]
        snapshot = overload["breakers"]["libtest"]
        assert snapshot["state"] == BREAKER_OPEN
        assert snapshot["trips"] == 1 and snapshot["fast_fails"] == 1
        assert overload["breaker_refusals"] == 1
        assert overload["down_refusals"] == 8


class TestRetryBudget:
    def test_exhaustion_surfaces_as_eagain_through_rpc_stubs(
            self, smod_kernel):
        kernel, frontend, record = build_front(
            smod_kernel,
            overload=OverloadConfig(retry_budget=3))
        frontend.start()
        caller = Program.spawn(kernel, "rpc-caller", uid=1000)
        stub = frontend.make_client(caller.proc)
        module = record.modules[0]
        incr = next(f.func_id for f in module.definition.functions()
                    if f.name == "test_incr")
        # healthy backend: the stub succeeds without touching the budget
        assert stub.call("serve_call_pooled",
                         record.backend_id, module.m_id, incr, 5) == 6
        budget = frontend.retry_budget("libtest")
        assert budget.consumed == 0
        # down backend: bounded retries burn the budget, then the EAGAIN
        # stands — and each retry idled the clock for its backoff
        frontend.registry.mark_down(record)
        before_us = kernel.machine.microseconds()
        result = stub.call("serve_call_pooled",
                           record.backend_id, module.m_id, incr, 5)
        assert result == -int(Errno.EAGAIN)
        assert budget.remaining == 0
        assert budget.consumed == 3 and budget.exhaustions == 1
        # exponential virtual-time backoff: 8 + 16 + 32 us at minimum
        assert kernel.machine.microseconds() - before_us >= 56.0
        snapshot = frontend.status(probe=False)["overload"]
        assert snapshot["retry_budgets"]["libtest"] == {
            "budget": 3, "remaining": 0, "consumed": 3, "exhaustions": 1}

    def test_budget_drained_means_no_backoff_on_later_calls(
            self, smod_kernel):
        kernel, frontend, record = build_front(
            smod_kernel,
            overload=OverloadConfig(retry_budget=1))
        frontend.start()
        caller = Program.spawn(kernel, "rpc-caller", uid=1000)
        stub = frontend.make_client(caller.proc)
        module = record.modules[0]
        incr = next(f.func_id for f in module.definition.functions()
                    if f.name == "test_incr")
        frontend.registry.mark_down(record)
        mark = kernel.machine.microseconds()
        stub.call("serve_call_pooled",
                  record.backend_id, module.m_id, incr, 5)
        retried_us = kernel.machine.microseconds() - mark
        budget = frontend.retry_budget("libtest")
        assert budget.remaining == 0
        mark = kernel.machine.microseconds()
        assert stub.call("serve_call_pooled", record.backend_id,
                         module.m_id, incr, 5) == -int(Errno.EAGAIN)
        drained_us = kernel.machine.microseconds() - mark
        # a drained budget fails fast: the same refusal without the
        # retried attempt's >= 8us of idle backoff
        assert retried_us - drained_us >= 8.0
        assert budget.exhaustions == 2


class TestBrokerShedding:
    def _spec(self, **kwargs):
        base = dict(clients=4, modules=1, calls_per_client=32,
                    arrival="mmpp", mean_interval_us=30.0,
                    burst_interval_us=1.0, burst_on_us=80.0,
                    burst_off_us=240.0, shed_deadline_us=4.0,
                    seed=0x5EA7)
        base.update(kwargs)
        return TrafficSpec(**base)

    def test_mmpp_burst_sheds_at_the_seat_queue(self):
        from repro.workloads.traffic import TrafficEngine
        engine = TrafficEngine(self._spec())
        result = engine.run()
        sheds = result.broker_stats["seat_sheds"]
        assert sheds > 0
        # shed calls never reached the dispatcher: every service latency
        # in the result is a call that actually ran
        assert len(result.latencies_us) == result.total_calls
        # shedding consults per-call queueing delay, so the analytic
        # fast-forward tier must have stayed out of the way entirely
        cache = engine.extension.dispatcher.trace_cache.snapshot()
        assert cache["fast_forwards"] == 0
        assert cache["fast_forward_calls"] == 0

    def test_shed_runs_replay_deterministically(self):
        one = run_traffic(self._spec())
        two = run_traffic(self._spec())
        assert one.total_cycles == two.total_cycles
        assert one.total_calls == two.total_calls
        assert one.broker_stats == two.broker_stats
        assert list(one.latencies_us) == list(two.latencies_us)

    def test_deadline_shedding_requires_open_loop_arrivals(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="open-loop"):
            TrafficSpec(arrival="closed", shed_deadline_us=4.0)


class TestAdaptiveP95Feed:
    def test_tight_p95_target_forces_the_controller_down(self):
        """Closed loop through telemetry: an unreachable p95 target keeps
        the controller shrinking even though arrivals alone say grow."""
        spec = TrafficSpec(clients=2, modules=1, calls_per_client=48,
                           arrival="open", mean_interval_us=2.0,
                           adaptive_batch=True, telemetry=True,
                           service_p95_target_us=0.5, seed=0xF33D)
        result = run_traffic(spec)
        snapshots = result.adaptive["per_client"]
        assert sum(c["p95_shrinks"] for c in snapshots) > 0

    def test_loose_target_changes_nothing(self):
        base = dict(clients=2, modules=1, calls_per_client=48,
                    arrival="open", mean_interval_us=2.0,
                    adaptive_batch=True, telemetry=True, seed=0xF33D)
        plain = run_traffic(TrafficSpec(**base))
        loose = run_traffic(TrafficSpec(service_p95_target_us=10_000.0,
                                        **base))
        assert loose.total_cycles == plain.total_cycles
