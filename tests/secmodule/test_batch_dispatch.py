"""Tests for the batched dispatch path (``sys_smod_call_batch``).

The batch contract: the session is validated once, the policy check runs
per entry, the two context switches are paid once per flush, per-entry
failures never abort the batch, and a queue of one is cycle-identical to
the paper's single-call path.
"""

import pytest

from repro.kernel.errno import Errno
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import DispatchConfig, HardeningMode
from repro.secmodule.policy import FunctionDenyPolicy
from repro.sim import costs


def incr_batch(n, start=0):
    return [("test_incr", (start + i,)) for i in range(n)]


def make_system(seed=4242, **kwargs):
    return SecModuleSystem.create(seed=seed, include_libc=False, **kwargs)


class TestBatchHappyPath:
    def test_values_in_submission_order(self):
        system = make_system()
        outcome = system.extension.dispatcher.call_batch(
            system.session, incr_batch(6), config=DispatchConfig(batch_size=6))
        assert outcome.ok
        assert outcome.values == [1, 2, 3, 4, 5, 6]
        assert len(outcome) == 6

    def test_stack_balanced_after_batch(self):
        system = make_system()
        system.extension.dispatcher.call_batch(
            system.session, incr_batch(8), config=DispatchConfig(batch_size=8))
        assert system.session.shared_stack.depth() == 0
        assert system.session.handle.secret_stack.depth() == 0

    def test_one_context_switch_pair_per_flush(self):
        system = make_system()
        meter = system.machine.meter
        before = meter.count(costs.CONTEXT_SWITCH)
        system.extension.dispatcher.call_batch(
            system.session, incr_batch(16),
            config=DispatchConfig(batch_size=16))
        assert meter.count(costs.CONTEXT_SWITCH) == before + 2

    def test_one_message_pair_per_flush(self):
        system = make_system()
        meter = system.machine.meter
        sends = meter.count(costs.MSGQ_SEND)
        recvs = meter.count(costs.MSGQ_RECV)
        system.extension.dispatcher.call_batch(
            system.session, incr_batch(16),
            config=DispatchConfig(batch_size=16))
        assert meter.count(costs.MSGQ_SEND) == sends + 2
        assert meter.count(costs.MSGQ_RECV) == recvs + 2

    def test_batching_amortizes_cycles(self):
        single = make_system()
        single.call("test_incr", 0)
        mark = single.machine.clock.checkpoint()
        for i in range(16):
            single.call("test_incr", i)
        per_call = single.machine.clock.since(mark).cycles / 16

        batched = make_system()
        batched.call("test_incr", 0)
        mark = batched.machine.clock.checkpoint()
        batched.extension.dispatcher.call_batch(
            batched.session, incr_batch(16),
            config=DispatchConfig(batch_size=16))
        batched_per_call = batched.machine.clock.since(mark).cycles / 16
        assert batched_per_call < per_call / 2

    def test_counters_and_quota_accounting(self):
        system = make_system()
        system.extension.dispatcher.call_batch(
            system.session, incr_batch(5), config=DispatchConfig(batch_size=5))
        assert system.extension.dispatcher.calls_dispatched == 5
        assert system.session.calls_made == 5
        assert system.session.handle.calls_served == 5

    def test_chunking_splits_long_queues(self):
        system = make_system()
        meter = system.machine.meter
        traps = meter.count(costs.TRAP_ENTRY)
        switches = meter.count(costs.CONTEXT_SWITCH)
        outcome = system.extension.dispatcher.call_batch(
            system.session, incr_batch(10), config=DispatchConfig(batch_size=4))
        # 4 + 4 + 2: three flushes, each one trap and one switch pair
        assert outcome.ok and len(outcome) == 10
        assert meter.count(costs.TRAP_ENTRY) == traps + 3
        assert meter.count(costs.CONTEXT_SWITCH) == switches + 6


class TestBatchEdgeCases:
    def test_empty_batch_charges_nothing(self):
        system = make_system()
        mark = system.machine.clock.checkpoint()
        outcome = system.extension.dispatcher.call_batch(
            system.session, [], config=DispatchConfig(batch_size=8))
        assert outcome.ok and len(outcome) == 0
        assert system.machine.clock.since(mark).cycles == 0

    def test_every_entry_denied_does_not_abort(self):
        system = make_system(policy=FunctionDenyPolicy(["test_incr"]))
        meter = system.machine.meter
        switches = meter.count(costs.CONTEXT_SWITCH)
        outcome = system.extension.dispatcher.call_batch(
            system.session, incr_batch(4), config=DispatchConfig(batch_size=4))
        assert outcome.errno is None            # the batch itself succeeded
        assert not outcome.ok                   # ... but every entry failed
        assert [o.errno for o in outcome.outcomes] == [Errno.EACCES] * 4
        assert outcome.denied == 4
        assert system.session.shared_stack.depth() == 0
        assert system.extension.dispatcher.calls_denied == 4
        assert system.extension.dispatcher.calls_dispatched == 0
        # a fully-denied queue never wakes the handle: no switches, like the
        # single path's denial
        assert meter.count(costs.CONTEXT_SWITCH) == switches

    def test_mixed_allow_deny_ordering_preserved(self):
        system = make_system(policy=FunctionDenyPolicy(["test_add"]))
        calls = [("test_incr", (1,)), ("test_add", (1, 2)),
                 ("test_incr", (10,)), ("test_add", (3, 4)),
                 ("test_incr", (20,))]
        outcome = system.extension.dispatcher.call_batch(
            system.session, calls, config=DispatchConfig(batch_size=5))
        assert outcome.errno is None
        assert [o.errno for o in outcome.outcomes] == [
            None, Errno.EACCES, None, Errno.EACCES, None]
        assert outcome.values == [2, None, 11, None, 21]
        assert system.session.shared_stack.depth() == 0
        assert system.extension.dispatcher.calls_dispatched == 3
        assert system.extension.dispatcher.calls_denied == 2

    def test_unknown_function_is_per_entry_enoent(self):
        system = make_system()
        calls = [("test_incr", (1,)), ("no_such_function", ()),
                 ("test_incr", (2,))]
        outcome = system.extension.dispatcher.call_batch(
            system.session, calls, config=DispatchConfig(batch_size=3))
        assert [o.errno for o in outcome.outcomes] == [None, Errno.ENOENT,
                                                       None]
        assert outcome.values == [2, None, 3]
        assert system.session.shared_stack.depth() == 0

    def test_torn_down_session_rejects_whole_batch(self):
        system = make_system()
        extra = system.open_extra_session()
        system.extension.sessions.teardown(extra)
        outcome = system.extension.dispatcher.call_batch(
            extra, incr_batch(3), config=DispatchConfig(batch_size=3))
        assert outcome.errno is Errno.EINVAL
        assert [o.errno for o in outcome.outcomes] == [Errno.EINVAL] * 3
        # the client stub unwound every frame of the rejected super-frame
        assert extra.shared_stack.depth() == 0
        # the surviving primary session still dispatches
        assert system.call("test_incr", 1) == 2

    def test_foreign_client_rejected_with_eperm(self):
        system_a = make_system(seed=31)
        system_b = make_system(seed=32)
        from repro.secmodule.stubs import BatchStub, ClientStub
        module, function = system_a.session.find_function("test_incr")
        stub = BatchStub()
        stub.enqueue(ClientStub("test_incr", module.m_id, function.func_id,
                                arg_words=function.arg_words), (1,))
        stub.enqueue(ClientStub("test_incr", module.m_id, function.func_id,
                                arg_words=function.arg_words), (2,))
        batch = stub.push_batch(system_a.session.shared_stack)
        outcome = system_a.extension.dispatcher.sys_smod_call_batch(
            system_b.client_proc, system_a.session, batch)
        assert outcome.errno is Errno.EPERM

    def test_raising_handle_mid_batch_resumes_suspended_client(self):
        """SUSPEND_CLIENT hardening must be undone even when the handle
        blows up halfway through draining the super-frame."""
        system = make_system()
        config = DispatchConfig(hardening=HardeningMode.SUSPEND_CLIENT,
                                batch_size=4)
        original = system.session.handle.receive_batch

        def exploding(*args, **kwargs):
            raise RuntimeError("handle crashed mid-batch")

        system.session.handle.receive_batch = exploding
        with pytest.raises(RuntimeError):
            system.extension.dispatcher.call_batch(
                system.session, incr_batch(4), config=config)
        assert not system.kernel.sched.is_suspended(system.client_proc)
        # restore and demonstrate the client can dispatch again
        system.session.handle.receive_batch = original
        system.kernel.msg.msgrcv(system.session.handle.proc,
                                 system.session.request_msqid, 1)
        while system.session.shared_stack.depth():
            system.session.shared_stack.pop()
        assert system.call("test_incr", 1) == 2


class TestBatchSizeOneParity:
    def test_batch_size_one_is_cycle_identical(self):
        """The acceptance bar: a queue flushed at depth 1 charges exactly
        the op sequence of the existing single-call path."""
        single = make_system(seed=99)
        single.call("test_incr", 0)              # warm lazy state
        before = single.machine.meter.snapshot()
        mark = single.machine.clock.checkpoint()
        for i in range(8):
            single.call("test_incr", i)
        single_cycles = single.machine.clock.since(mark).cycles
        single_ops = single.machine.meter.diff(before)

        batched = make_system(seed=99)
        batched.call("test_incr", 0)
        before = batched.machine.meter.snapshot()
        mark = batched.machine.clock.checkpoint()
        outcome = batched.extension.dispatcher.call_batch(
            batched.session, incr_batch(8), config=DispatchConfig(batch_size=1))
        batch_cycles = batched.machine.clock.since(mark).cycles
        batch_ops = batched.machine.meter.diff(before)

        assert outcome.ok and outcome.values == [1, 2, 3, 4, 5, 6, 7, 8]
        assert batch_cycles == single_cycles
        assert batch_ops == single_ops           # op-for-op identical

    def test_batch_size_one_denied_parity(self):
        deny = FunctionDenyPolicy(["test_incr"])
        single = make_system(seed=7, policy=deny)
        single.call_outcome("test_incr", 0)
        mark = single.machine.clock.checkpoint()
        single.call_outcome("test_incr", 1)
        single_cycles = single.machine.clock.since(mark).cycles

        batched = make_system(seed=7, policy=deny)
        batched.call_outcome("test_incr", 0)
        mark = batched.machine.clock.checkpoint()
        outcome = batched.extension.dispatcher.call_batch(
            batched.session, incr_batch(1, start=1),
            config=DispatchConfig(batch_size=1))
        assert outcome.outcomes[0].errno is Errno.EACCES
        assert batched.machine.clock.since(mark).cycles == single_cycles


class TestBatchOrderingAndQuota:
    def test_policy_reads_the_clock_of_its_entry(self):
        """The walk charges its per-entry words as runs, but a policy that
        reads the clock sees every charge of the entries before it and of
        its own entry, as a per-entry charge would leave them."""
        from repro.secmodule.policy import Policy, PolicyDecision

        class ClockWatch(Policy):
            name = "clock-watch"

            def __init__(self):
                self.seen = []

            def evaluate(self, ctx):
                self.seen.append(ctx.now_us)
                return PolicyDecision(allowed=True, steps=1, reason="seen")

        watch = ClockWatch()
        system = make_system(policy=watch)
        del watch.seen[:]                  # session set-up evaluates too
        system.extension.dispatcher.call_batch(
            system.session, incr_batch(4),
            config=DispatchConfig(batch_size=4))
        profile = system.machine.meter.profile
        gaps = [round((later - earlier) * profile.mhz)
                for earlier, later in zip(watch.seen, watch.seen[1:])]
        assert gaps == [profile.cost(costs.SMOD_POLICY_STEP)
                        + profile.cost(costs.SMOD_BATCH_ENTRY)
                        + profile.cost(costs.SMOD_CRED_CHECK)] * 3

    def test_entries_execute_in_submission_order(self):
        """The stub pushes newest-first so the handle's LIFO drain runs the
        queue FIFO — side-effecting call sequences keep their meaning."""
        from repro.secmodule.module import SecModuleDefinition
        order = []

        def recorder(tag):
            def impl(env, *args):
                order.append(tag)
                return tag
            return impl

        module = SecModuleDefinition("libseq", 1)
        for tag in ("first", "second", "third"):
            module.add_function(tag, recorder(tag),
                                cost_op=costs.FUNC_BODY_TESTINCR, arg_words=0)
        system = SecModuleSystem.create(seed=4242, include_libc=False,
                                        include_test_module=False,
                                        extra_modules=[module])
        outcome = system.extension.dispatcher.call_batch(
            system.session, [("first", ()), ("second", ()), ("third", ())],
            config=DispatchConfig(batch_size=3))
        assert outcome.ok
        assert order == ["first", "second", "third"]
        assert outcome.values == ["first", "second", "third"]

    def test_quota_enforced_within_a_batch(self):
        """Validating the queue up front must not let a batch blow through a
        call quota: each entry sees the count including the entries granted
        before it in the same queue."""
        from repro.secmodule.policy import CallQuotaPolicy
        system = make_system(policy=CallQuotaPolicy(2))
        outcome = system.extension.dispatcher.call_batch(
            system.session, incr_batch(5), config=DispatchConfig(batch_size=5))
        assert [o.errno for o in outcome.outcomes] == [
            None, None, Errno.EACCES, Errno.EACCES, Errno.EACCES]
        assert system.session.calls_made == 2
        # the quota stays spent for later single calls too
        assert system.call_outcome("test_incr", 9).errno is Errno.EACCES

    def test_oversized_batch_fails_cleanly_before_pushing(self):
        """A queue that cannot fit on the shared stack must fail before the
        first push — not overflow halfway and strand a partial super-frame."""
        from repro.errors import SimulationError
        system = make_system()
        depth_before = system.session.shared_stack.depth()
        with pytest.raises(SimulationError):
            system.extension.dispatcher.call_batch(
                system.session, incr_batch(1400),
                config=DispatchConfig(batch_size=1400))
        assert system.session.shared_stack.depth() == depth_before
        assert system.call("test_incr", 1) == 2      # session still healthy

    def test_dead_session_aborts_remaining_chunks(self):
        """After a whole-queue rejection the remaining chunks are failed in
        place instead of paying a trap + push + unwind each."""
        system = make_system()
        extra = system.open_extra_session()
        system.extension.sessions.teardown(extra)
        meter = system.machine.meter
        traps = meter.count(costs.TRAP_ENTRY)
        outcome = system.extension.dispatcher.call_batch(
            extra, incr_batch(12), config=DispatchConfig(batch_size=4))
        assert outcome.errno is Errno.EINVAL
        assert len(outcome) == 12
        assert all(o.errno is Errno.EINVAL for o in outcome.outcomes)
        assert meter.count(costs.TRAP_ENTRY) == traps + 1   # one trap only
        assert extra.shared_stack.depth() == 0


def _static_chain_system(**kwargs):
    from repro.secmodule.policy import (
        CompositePolicy, FunctionDenyPolicy, UidAllowPolicy)
    chain = CompositePolicy([UidAllowPolicy([1000]),
                             FunctionDenyPolicy(["test_null"])])
    return make_system(policy=chain, **kwargs)


class TestBatchDecisionCacheInterplay:
    def test_policy_check_runs_per_entry_with_cache(self):
        system = _static_chain_system()
        cache = system.extension.decision_cache
        outcome = system.extension.dispatcher.call_batch(
            system.session, incr_batch(6), config=DispatchConfig(batch_size=6))
        assert outcome.ok
        # first entry misses and stores, the other five hit
        assert cache.misses == 1 and cache.hits == 5

    def test_warm_batch_validates_whole_queue_with_one_epoch_check(self):
        """A warm queue pays ONE cache-hit charge for the whole flush (the
        single epoch check) instead of one per entry; the saved charges are
        counted on the cache."""
        system = _static_chain_system()
        cache = system.extension.decision_cache
        meter = system.machine.meter
        config = DispatchConfig(batch_size=6)
        system.extension.dispatcher.call_batch(      # cold: stores the key
            system.session, incr_batch(6), config=config)
        charges = meter.count(costs.SMOD_POLICY_CACHE_HIT)
        hits = cache.hits
        outcome = system.extension.dispatcher.call_batch(
            system.session, incr_batch(6), config=config)
        assert outcome.ok
        assert meter.count(costs.SMOD_POLICY_CACHE_HIT) == charges + 1
        assert cache.hits == hits + 6                # per-entry stats intact
        assert cache.batch_epoch_checks == 1
        assert cache.batch_saved_charges == 5

    def test_warm_batch_cheaper_than_per_entry_hits(self):
        """The saved per-entry hit charges show up in cycle accounting."""
        def warm_flush_cycles(use_batch_path):
            system = _static_chain_system()
            config = DispatchConfig(batch_size=6)
            system.extension.dispatcher.call_batch(
                system.session, incr_batch(6), config=config)
            mark = system.machine.clock.checkpoint()
            if use_batch_path:
                system.extension.dispatcher.call_batch(
                    system.session, incr_batch(6), config=config)
            else:
                for name, args in incr_batch(6):
                    system.extension.dispatcher.call(system.session, name,
                                                     *args, config=config)
            return (system.machine.clock.since(mark).cycles,
                    system.machine.spec.profile.cost(
                        costs.SMOD_POLICY_CACHE_HIT))
        batched, hit_cost = warm_flush_cycles(True)
        per_call, _ = warm_flush_cycles(False)
        # the batch saves (at least) five per-entry epoch checks on top of
        # the amortized traps and switches
        assert batched <= per_call - 5 * hit_cost

    def test_epoch_bump_invalidates_batch_prefetch(self):
        """Re-credentialing between flushes must force re-evaluation — the
        one epoch check covers the queue only while the epoch stands."""
        system = _static_chain_system()
        cache = system.extension.decision_cache
        config = DispatchConfig(batch_size=4)
        system.extension.dispatcher.call_batch(
            system.session, incr_batch(4), config=config)
        module = next(iter(system.session.modules.values()))
        credential = module.definition.issuer.issue("alice", uid=1000)
        system.session.replace_credential(module.m_id, credential)
        checks = cache.batch_epoch_checks
        outcome = system.extension.dispatcher.call_batch(
            system.session, incr_batch(4), config=config)
        assert outcome.ok
        assert cache.batch_epoch_checks == checks    # stale: no prefetch hit

    def test_uncacheable_policy_never_prefetches(self):
        from repro.secmodule.policy import CallQuotaPolicy
        system = make_system(policy=CallQuotaPolicy(1000))
        cache = system.extension.decision_cache
        system.extension.dispatcher.call_batch(
            system.session, incr_batch(6), config=DispatchConfig(batch_size=6))
        system.extension.dispatcher.call_batch(
            system.session, incr_batch(6), config=DispatchConfig(batch_size=6))
        assert cache.batch_epoch_checks == 0
        assert cache.batch_served == 0
