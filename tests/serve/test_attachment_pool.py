"""Attachment-pool edge cases: exhaustion, backend death, teardown races,
and the pool-of-1 cycle-identity contract."""

from __future__ import annotations

import pytest

from repro.hw.machine import make_paper_machine
from repro.kernel.kernel import Kernel
from repro.kernel.proc import ProcState
from repro.secmodule.libc_conversion import build_test_module
from repro.secmodule.protection import ProtectionMode
from repro.secmodule.session import SessionDescriptor, build_requirements
from repro.secmodule.smod_syscalls import install_secmodule
from repro.serve.attachment_pool import PoolConfig
from repro.serve.frontend import ServiceConfig, ServiceFrontend
from repro.sim.rng import DeterministicRNG, TwoStateMMPP
from repro.userland.process import Program


def _system(seed=101):
    kernel = Kernel(machine=make_paper_machine(seed=seed)).boot()
    ext = install_secmodule(kernel)
    registered = ext.registry.register(build_test_module(), uid=0,
                                       protection=ProtectionMode.ENCRYPT)
    return kernel, ext, registered


def _frontend(kernel, ext, registered, pool, *, charge_ops=True):
    frontend = ServiceFrontend(
        kernel, ext, config=ServiceConfig(pool=pool, charge_ops=charge_ops))
    record = frontend.register_backend("libtest", [registered])
    return frontend, record


def _now(kernel):
    return kernel.machine.meter.profile.microseconds(
        kernel.machine.clock.cycles)


class TestExhaustionUnderBurst:
    def test_mmpp_burst_queues_deterministic_waits(self):
        """An MMPP ON-burst offers load far above a 2-attachment pool's
        capacity: the excess must wait, with deterministic wait totals."""
        kernel, ext, registered = _system()
        frontend, record = _frontend(kernel, ext, registered,
                                     PoolConfig(max_attachments=2))
        mmpp = TwoStateMMPP(DeterministicRNG(7),
                            on_interval=0.5, off_interval=400.0,
                            on_duration=200.0, off_duration=50.0)
        at = _now(kernel)
        waits = 0
        for index, gap in enumerate(mmpp.interarrivals(64).tolist()):
            at += gap
            outcome, checkout = frontend.call_pooled(
                record, "test_incr", index, arrival_us=at)
            assert outcome.ok and outcome.value == index + 1
            assert not checkout.refused
            if checkout.wait_us > 0:
                waits += 1
                # a queued checkout starts exactly wait_us after arrival,
                # and its attachment's next free horizon lies beyond that
                assert checkout.start_us == pytest.approx(
                    at + checkout.wait_us, abs=1e-9)
                assert checkout.attachment.free_at_us > checkout.start_us
        pool = frontend.pool("libtest")
        assert pool.size == 2
        assert waits == pool.waits > 0
        assert pool.total_wait_us > 0
        assert pool.max_wait_us >= pool.mean_wait_us()

    def test_refuse_mode_turns_burst_excess_away(self):
        kernel, ext, registered = _system()
        frontend, record = _frontend(
            kernel, ext, registered,
            PoolConfig(max_attachments=1, overflow="refuse"))
        at = _now(kernel)
        # back-to-back arrivals: the first grows the pool, the second hits
        # a busy pool of 1 and must be refused, never queued
        ok_outcome, first = frontend.call_pooled(record, "test_incr", 1,
                                                 arrival_us=at)
        assert ok_outcome.ok and not first.refused
        refused_outcome, second = frontend.call_pooled(
            record, "test_incr", 2, arrival_us=at + 0.001)
        assert not refused_outcome.ok
        assert second.refused and second.reason == "pool exhausted"
        assert frontend.pool("libtest").refusals == 1


class TestBackendDeath:
    def test_checkout_after_backend_death_replaces_the_attachment(self):
        """A worker whose handle died unnoticed must never be handed out:
        checkout discards it and the factory builds a replacement."""
        kernel, ext, registered = _system()
        frontend, record = _frontend(kernel, ext, registered,
                                     PoolConfig(max_attachments=2))
        at = _now(kernel)
        _, checkout = frontend.call_pooled(record, "test_incr", 1,
                                           arrival_us=at)
        dead_session = checkout.attachment.session
        # the handle process crashes without the broker noticing
        dead_session.handle.proc.state = ProcState.ZOMBIE
        pool = frontend.pool("libtest")
        outcome, replacement = frontend.call_pooled(
            record, "test_incr", 2, arrival_us=_now(kernel) + 1000.0)
        assert outcome.ok and outcome.value == 3
        assert replacement.attachment.session is not dead_session
        assert pool.discarded == 1
        assert pool.size == 1            # dead seat released, one rebuilt

    def test_torn_down_session_is_discarded_at_checkout(self):
        kernel, ext, registered = _system()
        frontend, record = _frontend(kernel, ext, registered,
                                     PoolConfig(max_attachments=1))
        at = _now(kernel)
        _, checkout = frontend.call_pooled(record, "test_incr", 1,
                                           arrival_us=at)
        ext.sessions.teardown(checkout.attachment.session)
        outcome, fresh = frontend.call_pooled(
            record, "test_incr", 5, arrival_us=_now(kernel) + 1000.0)
        assert outcome.ok and outcome.value == 6
        assert fresh.attachment.session.established
        assert not fresh.attachment.session.torn_down
        assert frontend.pool("libtest").discarded == 1


class TestTeardownRace:
    def test_teardown_racing_a_queued_checkout(self):
        """A checkout granted for the future (queued on a busy attachment)
        whose session is torn down before its start time: the *next*
        checkout must not receive the dead attachment."""
        kernel, ext, registered = _system()
        frontend, record = _frontend(kernel, ext, registered,
                                     PoolConfig(max_attachments=1))
        at = _now(kernel)
        _, first = frontend.call_pooled(record, "test_incr", 1,
                                        arrival_us=at)
        attachment = first.attachment
        # second arrival lands while the attachment is busy -> queued grant
        outcome, queued = frontend.call_pooled(record, "test_incr", 2,
                                               arrival_us=at + 0.001)
        assert outcome.ok and queued.wait_us > 0
        assert frontend.pool("libtest").waits == 1
        # the race: the session is torn down after the queued call completed
        # its dispatch but while the attachment sits checked in
        ext.sessions.teardown(attachment.session)
        pool = frontend.pool("libtest")
        outcome, third = frontend.call_pooled(
            record, "test_incr", 3, arrival_us=_now(kernel) + 1000.0)
        assert outcome.ok and outcome.value == 4
        assert third.attachment is not attachment
        assert pool.discarded == 1
        assert pool.queue_depth(_now(kernel) + 1000.0) == 0


class TestPoolOfOneIdentity:
    """The compiled-out contract at the pool layer: a 1-attachment pool with
    charging off is cycle-identical to a directly-attached worker."""

    def _direct_cycles(self, seed, calls):
        kernel, ext, registered = _system(seed)
        worker = Program.spawn(kernel, "serve-worker[libtest]", uid=1000)
        ext.broker.register_policy(registered.name, "pooled:64")
        descriptor = SessionDescriptor(
            build_requirements([registered], principal="alice", uid=1000),
            allow_multiple=True)
        session = ext.sessions.get(
            worker.smod_crt0_startup(ext, descriptor))
        start = None
        for index in range(calls):
            if index == 1:
                # mirror the pooled measurement window: steady-state calls
                start = kernel.machine.clock.cycles
            outcome = ext.dispatcher.call(session, "test_incr", index)
            assert outcome.ok
        return kernel.machine.clock.cycles, start

    def _pooled_cycles(self, seed, calls, *, charge_ops):
        kernel, ext, registered = _system(seed)
        frontend, record = _frontend(
            kernel, ext, registered, PoolConfig(max_attachments=1),
            charge_ops=charge_ops)
        at = _now(kernel)
        start = None
        for index in range(calls):
            if index == 1:
                # attachment creation (worker spawn + establishment) happens
                # inside the first checkout; measure steady-state calls
                start = kernel.machine.clock.cycles
            outcome, checkout = frontend.call_pooled(
                record, "test_incr", index,
                arrival_us=at + index * 10_000.0)
            assert outcome.ok and not checkout.refused
        return kernel.machine.clock.cycles, start

    def test_uncharged_pool_of_one_is_cycle_identical(self):
        calls = 9
        direct_end, direct_start = self._direct_cycles(505, calls)
        pooled_end, pooled_start = self._pooled_cycles(505, calls,
                                                       charge_ops=False)
        assert (pooled_end - pooled_start) == (direct_end - direct_start)

    def test_charged_pool_adds_exactly_the_serve_ops(self):
        from repro.sim import costs
        calls = 9
        _, _ = self._direct_cycles(505, calls)      # sanity: direct path runs
        quiet_end, quiet_start = self._pooled_cycles(505, calls,
                                                     charge_ops=False)
        loud_end, loud_start = self._pooled_cycles(505, calls,
                                                   charge_ops=True)
        kernel, _, _ = _system(505)
        table = kernel.machine.meter.profile
        per_call = (table.cost(costs.SERVE_BACKEND_RESOLVE)
                    + table.cost(costs.SERVE_POOL_CHECKOUT)
                    + table.cost(costs.SERVE_POOL_CHECKIN))
        assert (loud_end - loud_start) - (quiet_end - quiet_start) == \
            per_call * (calls - 1)
