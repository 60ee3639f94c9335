"""Tests for session establishment (Figure 1) and the dispatch path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernel.errno import Errno
from repro.kernel.proc import ProcFlag
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import DispatchConfig, HardeningMode, MarshallingMode
from repro.secmodule.libc_conversion import build_test_module
from repro.secmodule.policy import (
    CallQuotaPolicy,
    DenyAllPolicy,
    FunctionDenyPolicy,
    UidAllowPolicy,
)
from repro.secmodule.session import SessionDescriptor, SessionRequirement
from repro.secmodule.smod_syscalls import install_secmodule
from repro.kernel.kernel import make_booted_kernel
from repro.userland.process import Program
from repro.sim import costs


def build_manual_system(*, policy=None, uid=1000, principal="alice"):
    """A hand-wired system (kernel + one test module + client) for tests that
    need to tamper with individual handshake steps."""
    kernel = make_booted_kernel()
    extension = install_secmodule(kernel)
    module = build_test_module(policy=policy)
    registered = extension.registry.register(module, uid=0)
    credential = registered.definition.issuer.issue(principal, uid=uid)
    descriptor = SessionDescriptor((SessionRequirement(
        module_name="libtest", version=1, credential=credential),))
    client = Program.spawn(kernel, "client", uid=uid)
    return kernel, extension, client, descriptor, registered


class TestSessionEstablishment:
    def test_handshake_creates_established_session(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        session_id = client.smod_crt0_startup(extension, descriptor)
        session = extension.sessions.get(session_id)
        assert session.established and not session.torn_down
        assert client.crt_record.handshake_complete
        assert client.crt_record.found_modules == [1]

    def test_handle_process_flags_and_pairing(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        session = extension.sessions.get(
            client.smod_crt0_startup(extension, descriptor))
        handle_proc = session.handle.proc
        assert handle_proc.has_flag(ProcFlag.SMOD_HANDLE)
        assert handle_proc.has_flag(ProcFlag.NOCORE)
        assert handle_proc.has_flag(ProcFlag.NOTRACE)
        assert handle_proc.smod_peer is client.proc
        assert client.proc.is_smod_client
        assert extension.sessions.for_handle(handle_proc) is session
        assert extension.sessions.for_client(client.proc) == [session]

    def test_handle_shares_client_memory_after_handshake(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        from repro.kernel.uvm.layout import DATA_BASE
        client.proc.vmspace.write(DATA_BASE, b"client secret state")
        session = extension.sessions.get(
            client.smod_crt0_startup(extension, descriptor))
        assert session.handle.proc.vmspace.read(DATA_BASE, 19) == b"client secret state"

    def test_secret_region_not_visible_to_client(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        session = extension.sessions.get(
            client.smod_crt0_startup(extension, descriptor))
        from repro.kernel.uvm.layout import SECRET_BASE
        assert session.handle.proc.vmspace.vm_map.lookup(SECRET_BASE) is not None
        assert client.proc.vmspace.vm_map.lookup(SECRET_BASE) is None

    def test_unregistered_module_fails_with_enoent(self):
        kernel, extension, client, _, registered = build_manual_system()
        credential = registered.definition.issuer.issue("alice", uid=1000)
        descriptor = SessionDescriptor((SessionRequirement(
            module_name="libmissing", version=1, credential=credential),))
        result = kernel.syscall(client.proc, "smod_start_session", descriptor)
        assert result.errno is Errno.ENOENT

    def test_bad_credential_rejected_with_eacces(self):
        kernel, extension, client, _, registered = build_manual_system()
        # credential bound to a different uid than the presenting client
        credential = registered.definition.issuer.issue("alice", uid=4242)
        descriptor = SessionDescriptor((SessionRequirement(
            module_name="libtest", version=1, credential=credential),))
        result = kernel.syscall(client.proc, "smod_start_session", descriptor)
        assert result.errno is Errno.EACCES
        assert extension.sessions.denied_establishments

    def test_policy_denial_blocks_session(self):
        kernel, extension, client, descriptor, _ = build_manual_system(
            policy=DenyAllPolicy())
        result = kernel.syscall(client.proc, "smod_start_session", descriptor)
        assert result.errno is Errno.EACCES

    def test_session_info_restricted_to_handle(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        assert kernel.syscall(client.proc, "smod_session_info", None).errno is Errno.EPERM

    def test_handle_info_restricted_to_client(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        session = extension.sessions.get(
            client.smod_crt0_startup(extension, descriptor))
        result = kernel.syscall(session.handle.proc, "smod_handle_info", None)
        assert result.errno is Errno.EPERM

    def test_handle_info_before_session_info_fails(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        kernel.syscall(client.proc, "smod_start_session", descriptor)
        result = kernel.syscall(client.proc, "smod_handle_info", None)
        assert result.errno is Errno.EINVAL

    def test_second_session_for_same_client_rejected(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        client.smod_crt0_startup(extension, descriptor)
        result = kernel.syscall(client.proc, "smod_start_session", descriptor)
        assert result.failed

    def test_teardown_kills_handle_and_clears_flags(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        session = extension.sessions.get(
            client.smod_crt0_startup(extension, descriptor))
        handle_proc = session.handle.proc
        extension.sessions.teardown(session)
        assert session.torn_down
        assert not handle_proc.alive
        assert not client.proc.is_smod_client
        assert extension.sessions.for_client(client.proc) == []
        assert len(extension.sessions) == 0


class TestDispatch:
    def test_call_returns_value_and_counts(self, system):
        assert system.call("test_incr", 41) == 42
        assert system.call("test_add", 2, 3) == 5
        assert system.session.calls_made == 2
        assert system.extension.dispatcher.calls_dispatched == 2

    def test_call_charges_two_context_switches(self, system):
        before = system.machine.meter.count(costs.CONTEXT_SWITCH)
        system.call("test_incr", 1)
        assert system.machine.meter.count(costs.CONTEXT_SWITCH) == before + 2

    def test_call_uses_message_queues(self, system):
        before_send = system.machine.meter.count(costs.MSGQ_SEND)
        before_recv = system.machine.meter.count(costs.MSGQ_RECV)
        system.call("test_incr", 1)
        assert system.machine.meter.count(costs.MSGQ_SEND) == before_send + 2
        assert system.machine.meter.count(costs.MSGQ_RECV) == before_recv + 2

    def test_unknown_function_is_enoent(self, system):
        outcome = system.call_outcome("not_a_function", 1)
        assert outcome.errno is Errno.ENOENT
        with pytest.raises(PermissionError):
            system.call("not_a_function", 1)

    def test_shared_stack_balanced_after_calls(self, system):
        for i in range(5):
            system.call("test_incr", i)
        assert system.session.shared_stack.depth() == 0

    def test_shared_stack_balanced_after_denied_call(self):
        system = SecModuleSystem.create(policy=CallQuotaPolicy(2), seed=20)
        assert system.call("test_incr", 1) == 2
        assert system.call("test_incr", 2) == 3
        outcome = system.call_outcome("test_incr", 3)
        assert outcome.errno is Errno.EACCES
        assert system.session.shared_stack.depth() == 0
        assert system.extension.dispatcher.calls_denied >= 1

    def test_uid_policy_allows_matching_uid(self):
        system = SecModuleSystem.create(policy=UidAllowPolicy([1000]), seed=21)
        assert system.call("test_incr", 1) == 2

    def test_policy_denied_session_creation_raises(self):
        with pytest.raises(PermissionError):
            SecModuleSystem.create(policy=UidAllowPolicy([7]), seed=23, uid=1000)

    def test_smod_getpid_returns_client_pid(self, system):
        assert system.call("getpid") == system.client_proc.pid
        assert system.call("getpid") != system.handle_proc.pid

    def test_dispatch_latency_matches_paper(self, system):
        system.call("test_incr", 0)
        mark = system.machine.clock.checkpoint()
        system.call("test_incr", 1)
        us = system.machine.clock.since(mark).microseconds(system.machine.spec.mhz)
        assert us == pytest.approx(6.407, abs=0.35)

    def test_hardening_modes_cost_more(self, system):
        def cost_of(config):
            system.call("test_incr", 0, config=config)
            mark = system.machine.clock.checkpoint()
            system.call("test_incr", 1, config=config)
            return system.machine.clock.since(mark).cycles

        base = cost_of(DispatchConfig())
        suspend = cost_of(DispatchConfig(hardening=HardeningMode.SUSPEND_CLIENT))
        unmap = cost_of(DispatchConfig(hardening=HardeningMode.UNMAP_CLIENT))
        assert base < suspend < unmap   # paper: unmapping has higher kernel overhead

    def test_explicit_copy_marshalling_costs_more(self, system):
        shared = DispatchConfig(marshalling=MarshallingMode.SHARED_VM)
        copied = DispatchConfig(marshalling=MarshallingMode.EXPLICIT_COPY)
        system.call("test_add", 1, 2, config=shared)
        mark = system.machine.clock.checkpoint()
        system.call("test_add", 1, 2, config=shared)
        shared_cycles = system.machine.clock.since(mark).cycles
        mark = system.machine.clock.checkpoint()
        system.call("test_add", 1, 2, config=copied)
        copied_cycles = system.machine.clock.since(mark).cycles
        assert copied_cycles > shared_cycles

    def test_call_against_foreign_session_rejected(self):
        """The handle answers only its own client (paper question 2)."""
        system_a = SecModuleSystem.create(seed=31)
        system_b = SecModuleSystem.create(seed=32)
        found = system_a.session.find_function("test_incr")
        module, function = found
        stub_frame_stack = system_a.session.shared_stack
        from repro.secmodule.stubs import ClientStub
        stub = ClientStub("test_incr", module.m_id, function.func_id)
        frame = stub.push_call(stub_frame_stack, (1,))
        # a different process presenting someone else's session
        outcome = system_a.extension.dispatcher.sys_smod_call(
            system_b.client_proc, system_a.session, frame, module.m_id,
            function.func_id)
        assert outcome.errno is Errno.EPERM

    def test_call_before_handshake_rejected(self):
        kernel, extension, client, descriptor, registered = build_manual_system()
        kernel.syscall(client.proc, "smod_start_session", descriptor)
        # skip steps 3 and 4 and try to call directly
        session = extension.sessions.for_client(client.proc)[0]
        outcome = extension.dispatcher.call(session, "test_incr", 1)
        assert outcome.errno is Errno.EINVAL


class TestMultiSession:
    """One client holding several concurrent sessions (the traffic engine)."""

    def test_open_extra_session_gives_second_handle(self):
        system = SecModuleSystem.create(seed=50)
        extra = system.open_extra_session()
        sessions = system.extension.sessions.for_client(system.client_proc)
        assert len(sessions) == 2
        assert extra in sessions
        assert extra.handle.proc.pid != system.session.handle.proc.pid
        # both sessions dispatch independently
        assert system.extension.dispatcher.call(extra, "test_incr", 5).value == 6
        assert system.call("test_incr", 7) == 8

    def test_second_session_without_allow_multiple_still_rejected(self):
        kernel, extension, client, descriptor, _ = build_manual_system()
        client.smod_crt0_startup(extension, descriptor)
        result = kernel.syscall(client.proc, "smod_start_session", descriptor)
        assert result.failed

    def test_sharded_table_keys_by_pid_and_session(self):
        system = SecModuleSystem.create(seed=51)
        system.open_extra_session()
        manager = system.extension.sessions
        pid = system.client_proc.pid
        shard = manager._shards[manager._shard_index(pid)]
        ids = {sid for (p, sid) in shard if p == pid}
        assert len(ids) == 2
        assert sum(manager.shard_sizes()) == len(manager.active_sessions())

    def test_session_for_call_resolves_by_module(self):
        system = SecModuleSystem.create(seed=52)
        extra = system.open_extra_session(["libtest"])
        manager = system.extension.sessions
        m_id = next(iter(extra.modules))
        resolved = manager.session_for_call(system.client_proc, m_id)
        assert resolved is not None and m_id in resolved.modules

    def test_teardown_one_session_keeps_the_other_working(self):
        system = SecModuleSystem.create(seed=53)
        extra = system.open_extra_session()
        system.extension.sessions.teardown(extra)
        assert system.client_proc.is_smod_client
        assert system.call("test_incr", 1) == 2
        sessions = system.extension.sessions.for_client(system.client_proc)
        assert sessions == [system.session]

    def test_teardown_last_session_clears_client_state(self):
        system = SecModuleSystem.create(seed=54)
        extra = system.open_extra_session()
        manager = system.extension.sessions
        manager.teardown(extra)
        manager.teardown(system.session)
        assert not system.client_proc.is_smod_client
        assert system.client_proc.smod_session is None
        assert manager.for_client(system.client_proc) == []
        assert sum(manager.shard_sizes()) == 0

    def test_call_against_torn_down_extra_session_is_einval(self):
        """A stale frame whose session died must not be dispatched onto a
        *different* live session's shared stack (regression)."""
        system = SecModuleSystem.create(seed=58)
        extra = system.open_extra_session()
        system.extension.sessions.teardown(extra)
        outcome = system.extension.dispatcher.call(extra, "test_incr", 1)
        assert outcome.errno is Errno.EINVAL
        # the surviving primary session is untouched and still balanced
        assert system.call("test_incr", 2) == 3
        assert system.session.shared_stack.depth() == 0

    def test_exit_tears_down_every_session(self):
        system = SecModuleSystem.create(seed=55)
        extra = system.open_extra_session()
        handles = [system.session.handle.proc, extra.handle.proc]
        system.kernel.syscall(system.client_proc, "exit", 0)
        assert system.session.torn_down and extra.torn_down
        assert all(not handle.alive for handle in handles)
        assert len(system.kernel.msg) == 0


class TestDispatchStateLeaks:
    """Regressions for the dispatch-path state leaks this PR fixes."""

    def test_raising_handle_leaves_client_resumable(self, system):
        """A SUSPEND_CLIENT-hardened client must not stay suspended when the
        handle's receive_call blows up mid-dispatch."""
        config = DispatchConfig(hardening=HardeningMode.SUSPEND_CLIENT)
        original = system.session.handle.receive_call

        def exploding(*args, **kwargs):
            raise RuntimeError("handle crashed mid-call")

        system.session.handle.receive_call = exploding
        with pytest.raises(RuntimeError):
            system.extension.dispatcher.sys_smod_call(
                system.client_proc, system.session,
                _push_frame(system), *_ids(system), config=config)
        assert not system.kernel.sched.is_suspended(system.client_proc)
        # the client dispatches again once the handle behaves
        system.session.handle.receive_call = original
        # drain the stale request left on the queue by the failed call
        system.kernel.msg.msgrcv(system.session.handle.proc,
                                 system.session.request_msqid, 1)
        # rebalance the shared stack from the aborted frame
        while system.session.shared_stack.depth():
            system.session.shared_stack.pop()
        assert system.call("test_incr", 1) == 2

    def test_denied_call_unwind_charged_uniformly(self):
        """The unwind pops every stub word at SMOD_STACK_FIXUP_WORD: 4 for
        the duplicated fp/ret + id pair, 2 for the original fp/ret, and one
        per argument — 7 for test_incr — plus the 4 the push charged."""
        system = SecModuleSystem.create(
            policy=FunctionDenyPolicy(["test_incr"]), seed=56,
            include_libc=False)
        meter = system.machine.meter
        before_fixup = meter.count(costs.SMOD_STACK_FIXUP_WORD)
        before_user = meter.count(costs.USER_STACK_WORD)
        outcome = system.call_outcome("test_incr", 1)
        assert outcome.errno is Errno.EACCES
        assert meter.count(costs.SMOD_STACK_FIXUP_WORD) - before_fixup == 11
        # the push path charged args+ret+fp (3 words) as ordinary user pushes
        assert meter.count(costs.USER_STACK_WORD) - before_user == 3
        assert system.session.shared_stack.depth() == 0

    def test_denied_call_cycle_total_is_analytic(self):
        """Denied-call cycles decompose into the exact op sequence."""
        system = SecModuleSystem.create(
            policy=FunctionDenyPolicy(["test_incr"]), seed=57,
            include_libc=False)
        system.call_outcome("test_incr", 1)      # warm any lazy state
        before = system.machine.meter.snapshot()
        mark = system.machine.clock.checkpoint()
        system.call_outcome("test_incr", 2)
        cycles = system.machine.clock.since(mark).cycles
        diff = system.machine.meter.diff(before)
        profile = system.machine.spec.profile
        assert cycles == sum(profile.cost(op) * count
                             for op, count in diff.items())
        assert diff[costs.SMOD_STACK_FIXUP_WORD] == 11


class TestDispatchConfigPickle:
    def test_unpickled_config_hashes_under_the_receiving_salt(self, tmp_path):
        """The cached hash covers enums, whose hashes are salted per
        process.  A config pickled under one PYTHONHASHSEED and loaded
        under another must hash like an equal config built there, so it
        finds that config's dict entries."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        blob = tmp_path / "config.pickle"
        prelude = ("import pickle, sys\n"
                   "from repro.secmodule.dispatch import DispatchConfig\n")
        dump = prelude + ("open(sys.argv[1], 'wb').write("
                          "pickle.dumps(DispatchConfig(batch_size=4)))\n")
        load = prelude + (
            "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "fresh = DispatchConfig(batch_size=4)\n"
            "print(loaded == fresh, hash(loaded) == hash(fresh),"
            " {fresh: 'found'}.get(loaded))\n")
        outputs = []
        for hash_seed, code in (("1", dump), ("2", load)):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code, str(blob)],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        assert outputs[1] == ["True", "True", "found"]


def _push_frame(system):
    """Push a test_incr stub frame on the shared stack (step 1-2)."""
    from repro.secmodule.stubs import ClientStub
    module, function = system.session.find_function("test_incr")
    stub = ClientStub("test_incr", module.m_id, function.func_id,
                      arg_words=function.arg_words)
    return stub.push_call(system.session.shared_stack, (1,))


def _ids(system):
    module, function = system.session.find_function("test_incr")
    return module.m_id, function.func_id


class TestRoundTripRaisesNothing:
    """The op-by-op round trip signals nothing through exceptions: no
    raise-and-catch in the scheduler, no closed generators in the policy
    chain.  Every exception event ``sys.settrace`` reports inside the
    ``repro`` package is counted; an ordinary call must make none."""

    def test_op_by_op_quota_run_raises_nothing(self):
        import repro
        from repro.workloads.traffic import TrafficEngine, TrafficSpec

        package = os.path.dirname(repro.__file__) + os.sep
        engine = TrafficEngine(
            TrafficSpec(clients=4, modules=2, calls_per_client=25,
                        policy_kind="quota", seed=7),
            dispatch_config=DispatchConfig(use_trace_replay=False))
        engine.build()
        raised = []

        def tracer(frame, event, arg):
            if event == "exception" and \
                    frame.f_code.co_filename.startswith(package):
                raised.append((arg[0].__name__, frame.f_code.co_name))
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            result = engine.run()
        finally:
            sys.settrace(previous)
        assert result.total_calls == 100
        # the mix's test_null calls are denied, so denials are on the path
        # too
        assert 0 < result.denied_calls < 100
        assert raised == []
