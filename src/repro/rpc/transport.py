"""Loopback UDP transport.

The paper's comparison point is a *locally running* RPC service, so the
datagrams never leave the machine — but they still traverse the socket
layer, the UDP/IP input and output paths and the loopback interface on both
send and receive, four protocol-stack traversals per remote procedure call.
Those traversals, plus two scheduler hand-offs, are where RPC's ~63 µs go,
and they are what this transport charges for.

The endpoints live on the simulated kernel: a :class:`UdpSocket` is owned by
a process, ``sendto`` and ``recvfrom`` are issued through the syscall trap
layer (so they pay the same trap costs every other syscall pays), and a
receiver with an empty queue blocks through the scheduler just as the
SecModule handle blocks on its message queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, NamedTuple, Optional

from ..errors import SimulationError
from ..kernel.errno import Errno, SyscallResult, fail, ok, syscall_result
from ..kernel.proc import Proc
from ..sim import costs

#: Address family constant (only loopback is modelled).
LOOPBACK_ADDR = "127.0.0.1"


class Datagram(NamedTuple):
    """One UDP datagram queued on a socket."""

    source_port: int
    dest_port: int
    payload: bytes


#: Datagram from its three fields in order, without NamedTuple's frame
datagram = partial(tuple.__new__, Datagram)


@dataclass
class UdpSocket:
    """A bound UDP socket owned by one simulated process."""

    sockfd: int
    owner_pid: int
    port: int
    receive_queue: Deque[Datagram] = field(default_factory=deque)
    #: the sleep channel of the socket's blocked receiver, named once
    wchan: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.wchan = f"udprecv:{self.sockfd}"


class LoopbackNetwork:
    """The machine-local UDP fabric: sockets and ports.

    The two data paths are the ``sendto`` and ``recvfrom`` syscall bodies
    below, which read the socket and port tables in place.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self._sockets: Dict[int, UdpSocket] = {}
        self._by_port: Dict[int, int] = {}
        self._next_fd = 3           # 0-2 are the traditional stdio fds
        self._next_ephemeral_port = 49152
        self.datagrams_sent = 0
        self.datagrams_dropped = 0

    # -- socket management -------------------------------------------------------
    def socket(self, proc: Proc) -> UdpSocket:
        fd = self._next_fd
        self._next_fd += 1
        port = self._next_ephemeral_port
        self._next_ephemeral_port += 1
        sock = UdpSocket(sockfd=fd, owner_pid=proc.pid, port=port)
        self._sockets[fd] = sock
        self._by_port[port] = fd
        self.kernel.machine.charge(costs.KMALLOC)
        return sock

    def bind(self, sock: UdpSocket, port: int) -> None:
        if port in self._by_port and self._by_port[port] != sock.sockfd:
            raise SimulationError(f"port {port} already bound")
        self._by_port.pop(sock.port, None)
        sock.port = port
        self._by_port[port] = sock.sockfd

    def close(self, sock: UdpSocket) -> None:
        self._sockets.pop(sock.sockfd, None)
        self._by_port.pop(sock.port, None)
        self.kernel.machine.charge(costs.KFREE)

    def lookup_fd(self, fd: int) -> Optional[UdpSocket]:
        return self._sockets.get(fd)


# ---------------------------------------------------------------------------
# The socket system calls (registered on demand by install_network)
# ---------------------------------------------------------------------------

def _sys_socket(kernel, proc: Proc) -> SyscallResult:
    sock = kernel.network.socket(proc)
    return ok(sock.sockfd)


def _sys_bind(kernel, proc: Proc, sockfd: int, port: int) -> SyscallResult:
    sock = kernel.network.lookup_fd(sockfd)
    if sock is None or sock.owner_pid != proc.pid:
        return fail(Errno.EINVAL)
    try:
        kernel.network.bind(sock, port)
    except SimulationError:
        return fail(Errno.EBUSY)
    return ok(0)


def _sys_sendto(kernel, proc: Proc, sockfd: int, payload: bytes,
                dest_port: int) -> SyscallResult:
    """Send one datagram: the socket send, UDP output and loopback path,
    then delivery to the bound destination, waking its receiver."""
    network = kernel.network
    sockets = network._sockets
    sock = sockets.get(sockfd)
    if sock is None or sock.owner_pid != proc.pid:
        return syscall_result((-1, Errno.EINVAL))
    machine = kernel.machine
    machine.charge(costs.SOCKET_ALLOC)
    machine.charge_words(costs.COPY_WORD, max(1, len(payload) // 4))
    machine.charge(costs.UDP_SEND_PATH)
    dest_fd = network._by_port.get(dest_port)
    dest = sockets.get(dest_fd) if dest_fd is not None else None
    if dest is None:
        network.datagrams_dropped += 1
        return syscall_result((-1, Errno.ENOENT))
    dest.receive_queue.append(datagram((sock.port, dest_port, payload)))
    network.datagrams_sent += 1
    # wake a receiver blocked on the socket; with none there is nothing
    # to wake and nothing to charge
    sched = kernel.sched
    if dest.wchan in sched.sleepers:
        sched.wakeup(dest.wchan)
    return syscall_result((len(payload), None))


def _sys_recvfrom(kernel, proc: Proc, sockfd: int) -> SyscallResult:
    """Take the socket's next datagram through loopback input, UDP input
    and soreceive; with none queued, the caller sleeps on the socket."""
    sock = kernel.network._sockets.get(sockfd)
    if sock is None or sock.owner_pid != proc.pid:
        return syscall_result((-1, Errno.EINVAL))
    queue = sock.receive_queue
    if not queue:
        kernel.sched.sleep(proc, sock.wchan)
        return syscall_result((-1, Errno.EAGAIN))
    received = queue.popleft()
    machine = kernel.machine
    machine.charge(costs.UDP_RECV_PATH)
    machine.charge_words(costs.COPY_WORD, max(1, len(received.payload) // 4))
    machine.charge(costs.KFREE)
    return syscall_result((received, None))


#: Syscall numbers follow repro.kernel.syscall's table.
NETWORK_SYSCALLS = (
    (97, "socket", _sys_socket, 3),
    (104, "bind", _sys_bind, 3),
    (133, "sendto", _sys_sendto, 6),
    (29, "recvfrom", _sys_recvfrom, 6),
)


def install_network(kernel) -> LoopbackNetwork:
    """Attach the loopback network and its syscalls to a booted kernel."""
    if getattr(kernel, "network", None) is not None:
        return kernel.network
    network = LoopbackNetwork(kernel)
    kernel.network = network
    for number, name, handler, arg_words in NETWORK_SYSCALLS:
        if kernel.syscalls.lookup(name) is None:
            kernel.syscalls.register(number, name, handler, arg_words=arg_words)
    return network
