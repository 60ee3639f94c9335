"""The RPC client (clnt) side.

``clnt_call`` performs one complete remote procedure call against a locally
running server: build the call message, XDR-encode it, send it through the
UDP loopback, hand the CPU to the server, collect and decode the reply.
The per-call cost that emerges — four protocol-stack traversals, two
scheduler hand-offs, XDR encode/decode on both ends, authentication and
dispatch — is the paper's 63 µs baseline that SecModule beats by roughly
a factor of ten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import SimulationError
from ..kernel.proc import Proc
from ..sim import costs
from .message import AcceptStat, CallMessage, OpaqueAuth, ReplyMessage, ReplyStat
from .portmap import IPPROTO_UDP, Portmapper
from .server import RpcServer
from .transport import LoopbackNetwork, UdpSocket


class RpcError(RuntimeError):
    """A call failed at the RPC layer (timeout, denial, bad program...)."""


@dataclass
class ClientStats:
    calls: int = 0
    retransmissions: int = 0
    failures: int = 0


class RpcClient:
    """A client handle bound to one (program, version) on the local host."""

    def __init__(self, kernel, proc: Proc, network: LoopbackNetwork,
                 portmap: Portmapper, server: RpcServer, *,
                 prog: int, vers: int) -> None:
        self.kernel = kernel
        self.proc = proc
        self.network = network
        self.portmap = portmap
        self.server = server
        self.prog = prog
        self.vers = vers
        self.socket: Optional[UdpSocket] = None
        self.server_port: Optional[int] = None
        self.next_xid = 0x10_0000
        self.stats = ClientStats()

    # -- binding (clnt_create) -----------------------------------------------------
    def bind(self) -> None:
        """clnt_create: open a socket and resolve the server's port."""
        if self.socket is not None:
            return
        sockfd = self.kernel.syscall(self.proc, "socket").unwrap()
        self.socket = self.network.lookup_fd(sockfd)
        port = self.portmap.getport(self.prog, self.vers, IPPROTO_UDP)
        if port is None:
            raise RpcError(
                f"portmapper has no entry for program {self.prog} v{self.vers}")
        self.server_port = port

    # -- the call itself -------------------------------------------------------------
    def clnt_call(self, proc_num: int, args: List[int]) -> int:
        """One synchronous remote procedure call; returns the integer result."""
        if self.socket is None or self.server_port is None:
            raise SimulationError("client not bound; call bind() first")
        machine = self.kernel.machine
        machine.charge(costs.RPC_CLNT_CALL_OVERHEAD)

        self.next_xid += 1
        call = CallMessage(xid=self.next_xid, prog=self.prog, vers=self.vers,
                           proc=proc_num, args=list(args),
                           cred=OpaqueAuth(), verf=OpaqueAuth())
        payload = call.encode(machine)

        sent = self.kernel.syscall(self.proc, "sendto", self.socket.sockfd,
                                   payload, self.server_port)
        if sent.failed:
            self.stats.failures += 1
            raise RpcError(f"sendto failed: {sent.errno.name}")

        # The datagram woke the server; give it the CPU so it can run one
        # iteration of svc_run, then park itself in recvfrom again.
        self.kernel.sched.switch_to(self.server.proc)
        reply_msg = self.server.serve_one()
        if reply_msg is None:
            self.stats.failures += 1
            raise RpcError("server had no request queued (lost datagram?)")
        self.server.block_in_svc_run()

        # Back to the client, which was about to block in recvfrom.
        self.kernel.sched.switch_to(self.proc)
        received = self.kernel.syscall(self.proc, "recvfrom", self.socket.sockfd)
        if received.failed:
            self.stats.failures += 1
            raise RpcError("reply datagram missing")
        reply = ReplyMessage.decode(received.value.payload, machine)

        if reply.xid != call.xid:
            self.stats.failures += 1
            raise RpcError(f"xid mismatch: sent {call.xid}, got {reply.xid}")
        if reply.reply_stat is not ReplyStat.MSG_ACCEPTED:
            self.stats.failures += 1
            raise RpcError("call denied by server")
        if reply.accept_stat is not AcceptStat.SUCCESS:
            self.stats.failures += 1
            cause = (self.server.last_system_error
                     if reply.accept_stat is AcceptStat.SYSTEM_ERR else None)
            raise RpcError(
                f"call not successful: {reply.accept_stat.name}") from cause
        self.stats.calls += 1
        return reply.result if reply.result is not None else 0

    def null_call(self) -> int:
        """Call NULLPROC (procedure 0) — the classic RPC ping."""
        return self.clnt_call(0, [])
