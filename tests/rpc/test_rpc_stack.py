"""Tests for the loopback transport, portmapper, server, client and rpcgen."""

import pytest

from repro.errors import SimulationError
from repro.kernel.cred import unprivileged
from repro.kernel.errno import Errno
from repro.kernel.kernel import make_booted_kernel
from repro.kernel.proc import ProcState
from repro.rpc.client import RpcError
from repro.rpc.portmap import Portmapper
from repro.rpc.rpcgen import InterfaceDefinition, generate_service
from repro.rpc.rpcgen import testincr_interface as make_testincr_interface
from repro.rpc.transport import install_network
from repro.sim import costs


@pytest.fixture
def kernel():
    return make_booted_kernel()


@pytest.fixture
def service(kernel):
    return generate_service(kernel, make_testincr_interface())


@pytest.fixture
def client(kernel, service):
    proc = kernel.create_process("rpc-client", cred=unprivileged(1000))
    return service.make_client(kernel, proc)


class TestPortmapper:
    def test_set_getport_unset(self):
        portmap = Portmapper()
        portmap.set(100003, 3, 2049)
        assert portmap.getport(100003, 3) == 2049
        assert portmap.getport(100003, 4) is None
        assert portmap.unset(100003, 3)
        assert not portmap.unset(100003, 3)
        assert portmap.lookups == 2

    def test_duplicate_registration_rejected(self):
        portmap = Portmapper()
        portmap.set(1, 1, 1000)
        with pytest.raises(SimulationError):
            portmap.set(1, 1, 2000)

    def test_invalid_port_rejected(self):
        with pytest.raises(SimulationError):
            Portmapper().set(1, 1, 0)

    def test_dump(self):
        portmap = Portmapper()
        portmap.set(2, 1, 111)
        portmap.set(1, 1, 222)
        assert [e.prog for e in portmap.dump()] == [1, 2]
        assert len(portmap) == 2


class TestTransport:
    def test_socket_bind_send_recv(self, kernel):
        network = install_network(kernel)
        sender = kernel.create_process("sender", cred=unprivileged(1000))
        receiver = kernel.create_process("receiver", cred=unprivileged(1000))
        sfd = kernel.syscall(sender, "socket").unwrap()
        rfd = kernel.syscall(receiver, "socket").unwrap()
        kernel.syscall(receiver, "bind", rfd, 5000).unwrap()
        assert kernel.syscall(sender, "sendto", sfd, b"ping", 5000).ok
        datagram = kernel.syscall(receiver, "recvfrom", rfd).unwrap()
        assert datagram.payload == b"ping"
        assert network.datagrams_sent == 1

    def test_install_network_idempotent(self, kernel):
        assert install_network(kernel) is install_network(kernel)

    def test_send_to_unbound_port_fails(self, kernel):
        install_network(kernel)
        sender = kernel.create_process("sender", cred=unprivileged(1000))
        sfd = kernel.syscall(sender, "socket").unwrap()
        result = kernel.syscall(sender, "sendto", sfd, b"x", 9999)
        assert result.errno is Errno.ENOENT
        assert kernel.network.datagrams_dropped == 1

    def test_recv_empty_blocks_process(self, kernel):
        install_network(kernel)
        receiver = kernel.create_process("receiver", cred=unprivileged(1000))
        rfd = kernel.syscall(receiver, "socket").unwrap()
        result = kernel.syscall(receiver, "recvfrom", rfd)
        assert result.errno is Errno.EAGAIN
        assert receiver.state is ProcState.SLEEPING

    def test_foreign_socket_rejected(self, kernel):
        install_network(kernel)
        owner = kernel.create_process("owner", cred=unprivileged(1000))
        thief = kernel.create_process("thief", cred=unprivileged(1000))
        fd = kernel.syscall(owner, "socket").unwrap()
        assert kernel.syscall(thief, "sendto", fd, b"x", 1).errno is Errno.EINVAL

    def test_bind_conflict(self, kernel):
        install_network(kernel)
        a = kernel.create_process("a", cred=unprivileged(1000))
        b = kernel.create_process("b", cred=unprivileged(1000))
        fda = kernel.syscall(a, "socket").unwrap()
        fdb = kernel.syscall(b, "socket").unwrap()
        assert kernel.syscall(a, "bind", fda, 7000).ok
        assert kernel.syscall(b, "bind", fdb, 7000).errno is Errno.EBUSY


class TestRpcService:
    def test_testincr_call(self, client):
        assert client.test_incr(41) == 42
        assert client.call("test_add", 2, 3) == 5
        assert client.rpc.stats.calls == 2

    def test_nullproc(self, client):
        assert client.rpc.null_call() == 0

    def test_unknown_procedure_name(self, client):
        with pytest.raises(SimulationError):
            client.call("does_not_exist")

    def test_unknown_procedure_number_rejected_by_server(self, client):
        with pytest.raises(RpcError):
            client.rpc.clnt_call(99, [1])
        assert client.rpc.server.garbage_calls == 1

    def test_server_handler_exception_becomes_system_err(self, kernel):
        error = ValueError("boom")
        interface = InterfaceDefinition(name="broken", prog=0x20000999, vers=1)
        interface.add_procedure(1, "explode",
                                lambda args: (_ for _ in ()).throw(error))
        service = generate_service(kernel, interface, port=3000)
        proc = kernel.create_process("c", cred=unprivileged(1000))
        client = service.make_client(kernel, proc)
        with pytest.raises(RpcError) as raised:
            client.call("explode", 1)
        assert raised.value.__cause__ is error
        assert client.rpc.server.garbage_calls == 1

    def test_per_call_costs_include_network_paths(self, kernel, client):
        before_send = kernel.machine.meter.count(costs.UDP_SEND_PATH)
        before_recv = kernel.machine.meter.count(costs.UDP_RECV_PATH)
        client.test_incr(1)
        assert kernel.machine.meter.count(costs.UDP_SEND_PATH) == before_send + 2
        assert kernel.machine.meter.count(costs.UDP_RECV_PATH) == before_recv + 2

    def test_rpc_latency_matches_paper(self, kernel, client):
        client.test_incr(0)
        mark = kernel.machine.clock.checkpoint()
        client.test_incr(1)
        us = kernel.machine.clock.since(mark).microseconds(kernel.machine.spec.mhz)
        assert us == pytest.approx(63.23, rel=0.05)

    def test_rpc_is_roughly_ten_times_smod(self, kernel, client):
        """The paper's headline comparison, at the single-call level."""
        from repro.secmodule.api import SecModuleSystem
        client.test_incr(0)
        mark = kernel.machine.clock.checkpoint()
        client.test_incr(1)
        rpc_us = kernel.machine.clock.since(mark).microseconds(kernel.machine.spec.mhz)
        system = SecModuleSystem.create(seed=55)
        system.call("test_incr", 0)
        mark = system.machine.clock.checkpoint()
        system.call("test_incr", 1)
        smod_us = system.machine.clock.since(mark).microseconds(system.machine.spec.mhz)
        assert 5 < rpc_us / smod_us < 20

    def test_interface_definition_text(self):
        text = make_testincr_interface().definition_text()
        assert "TEST_INCR" in text and "program TESTINCR" in text

    def test_duplicate_procedure_number_rejected(self):
        interface = make_testincr_interface()
        with pytest.raises(SimulationError):
            interface.add_procedure(1, "again", lambda args: 0)
        with pytest.raises(SimulationError):
            interface.add_procedure(0, "null", lambda args: 0)

    def test_two_programs_on_distinct_ports(self, kernel, service):
        other = InterfaceDefinition(name="other", prog=0x20000555, vers=1)
        other.add_procedure(1, "echo", lambda args: args[0] if args else 0)
        other_service = generate_service(kernel, other, port=4000,
                                         portmap=service.portmap)
        proc = kernel.create_process("c2", cred=unprivileged(1000))
        client_a = service.make_client(kernel, proc)
        client_b = other_service.make_client(kernel, proc)
        assert client_a.test_incr(1) == 2
        assert client_b.echo(7) == 7
