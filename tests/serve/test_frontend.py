"""Service front-end: bindings, dispatch paths, status, RPC surface."""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError
from repro.kernel.errno import Errno
from repro.secmodule.libc_conversion import build_test_module
from repro.secmodule.protection import ProtectionMode
from repro.serve.frontend import SERVE_PROG, ServiceConfig, ServiceFrontend
from repro.userland.process import Program


@pytest.fixture
def front(smod_kernel):
    kernel, ext = smod_kernel
    registered = ext.registry.register(build_test_module(), uid=0,
                                      protection=ProtectionMode.ENCRYPT)
    frontend = ServiceFrontend(kernel, ext)
    record = frontend.register_backend("libtest", [registered])
    return kernel, ext, frontend, record


class TestBindings:
    def test_attach_establishes_a_real_session(self, front):
        _, ext, frontend, record = front
        binding = frontend.attach(record, tenant=2)
        assert binding.session.established
        assert ext.sessions.tenant_for(binding.client.proc.pid) == 2
        assert ext.sessions.lookup(binding.client.proc.pid,
                                   binding.session.session_id) \
            is binding.session

    def test_call_bound_dispatches_via_keyed_probe(self, front):
        _, _, frontend, record = front
        binding = frontend.attach(record)
        outcome = frontend.call_bound(binding.binding_id, "test_incr", 41)
        assert outcome.ok and outcome.value == 42
        assert frontend.bound_calls == 1
        assert binding.calls == 1

    def test_detach_tears_down_and_invalidates_the_binding(self, front):
        _, ext, frontend, record = front
        binding = frontend.attach(record)
        frontend.detach(binding.binding_id)
        assert binding.session.torn_down
        assert ext.sessions.lookup(binding.client.proc.pid,
                                   binding.session.session_id) is None
        outcome = frontend.call_bound(binding.binding_id, "test_incr", 1)
        assert outcome.errno == Errno.EINVAL
        with pytest.raises(SimulationError, match="unknown binding"):
            frontend.detach(binding.binding_id)

    def test_draining_backend_rejects_new_bindings(self, front):
        _, _, frontend, record = front
        existing = frontend.attach(record)
        frontend.registry.mark_draining(record)
        with pytest.raises(SimulationError, match="draining"):
            frontend.attach(record)
        # existing bindings keep serving while draining
        assert frontend.call_bound(existing.binding_id, "test_incr", 1).ok

    def test_down_backend_refuses_pooled_calls_with_eagain(self, front):
        _, _, frontend, record = front
        frontend.registry.mark_down(record)
        outcome, checkout = frontend.call_pooled(record, "test_incr", 1)
        assert outcome.errno == Errno.EAGAIN
        assert checkout.refused and "down" in checkout.reason
        assert frontend.down_refusals == 1


class TestStatus:
    def test_status_is_json_serializable_and_complete(self, front):
        _, _, frontend, record = front
        frontend.attach(record, tenant=0)
        frontend.attach(record, tenant=3)
        frontend.call_pooled(record, "test_incr", 7)
        status = frontend.status()
        json.dumps(status)                    # JSON-serializable end to end
        assert status["bindings"] == 2
        assert status["attaches"] == 2
        assert status["pooled_calls"] == 1
        assert status["sessions_by_tenant"][3] == 1
        assert status["backends"]["libtest"]["state"] == "up"
        assert status["pools"]["libtest"]["checkouts"] == 1

    def test_unprobed_status_charges_no_health_probe(self, front):
        kernel, _, frontend, record = front
        frontend.attach(record)
        probes_before = frontend.registry.probes
        frontend.status(probe=False)
        assert frontend.registry.probes == probes_before


class TestRpcSurface:
    def test_full_rpc_round_trip(self, front):
        kernel, _, frontend, record = front
        service = frontend.start()
        assert service.interface.prog == SERVE_PROG
        assert frontend.start() is service              # idempotent
        caller = Program.spawn(kernel, "rpc-caller", uid=1000)
        stub = frontend.make_client(caller.proc)
        assert stub.call("serve_ping") == 0
        binding_id = stub.call("serve_attach", record.backend_id, 1)
        assert binding_id > 0
        m_id = record.modules[0].m_id
        incr = next(f.func_id for f in
                    record.modules[0].definition.functions()
                    if f.name == "test_incr")
        assert stub.call("serve_call", binding_id, m_id, incr, 99) == 100
        assert stub.call("serve_call_pooled",
                         record.backend_id, m_id, incr, 5) == 6
        assert stub.call("serve_probe", record.backend_id) == 0
        assert stub.call("serve_detach", binding_id) == 0
        # errors come back as negated errnos over the int-only wire
        assert stub.call("serve_call", binding_id, m_id, incr, 1) == \
            -int(Errno.EINVAL)
        assert stub.call("serve_attach", 999) == -int(Errno.EAGAIN)

    def test_attach_on_a_full_process_table_reads_eagain(self, smod_kernel,
                                                         monkeypatch):
        """A handle fork the full process table refuses comes back as
        -EAGAIN over the wire (not an RPC SYSTEM_ERR), and the server
        switches back exactly as on any other refused attach."""
        kernel, ext = smod_kernel
        registered = ext.registry.register(build_test_module(), uid=0,
                                          protection=ProtectionMode.ENCRYPT)
        frontend = ServiceFrontend(kernel, ext)
        # per-session handles: every attach forks a surrogate and a handle
        record = frontend.register_backend("libtest", [registered],
                                           policy="per_session")
        frontend.start()
        stub = frontend.make_client(
            Program.spawn(kernel, "rpc-caller", uid=1000).proc)
        attaches = 2
        # room for two surrogate+handle pairs, then one more surrogate only
        # (ServiceConfig.max_procs only ever raises the cap, so shrink the
        # kernel's table directly)
        kernel.procs.max_procs = (len(kernel.procs.all_procs())
                                  + 2 * attaches + 1)
        switch_backs = []
        switch_back = frontend._switch_back
        monkeypatch.setattr(frontend, "_switch_back",
                            lambda: switch_backs.append(1) or switch_back())
        for _ in range(attaches):
            assert stub.call("serve_attach", record.backend_id, 0) > 0
        switch_backs.clear()
        assert stub.call("serve_attach", record.backend_id, 0) == \
            -int(Errno.EAGAIN)
        assert switch_backs == [1]
        assert stub.call("serve_ping") == 0

    def test_serve_coexists_with_the_rpc_baseline(self, front):
        """smodserve and the paper's testincr service share one kernel's
        portmapper, like two programs under one rpcbind."""
        kernel, _, frontend, _ = front
        from repro.rpc.rpcgen import generate_service, testincr_interface
        frontend.start()
        baseline = generate_service(kernel, testincr_interface(), port=2049)
        assert baseline.portmap is frontend.service.portmap


class TestConfig:
    def test_max_procs_raises_the_process_table_cap(self, smod_kernel):
        kernel, ext = smod_kernel
        before = kernel.procs.max_procs
        ServiceFrontend(kernel, ext,
                        config=ServiceConfig(max_procs=before + 100))
        assert kernel.procs.max_procs == before + 100
        # a smaller request never shrinks the cap
        ServiceFrontend(kernel, ext, config=ServiceConfig(max_procs=10))
        assert kernel.procs.max_procs == before + 100
