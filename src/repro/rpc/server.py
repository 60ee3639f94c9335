"""The RPC server (svc) side.

A :class:`RpcServer` is an ordinary simulated process that binds a UDP
socket, registers its program with the portmapper, and then loops in
``svc_run`` — receive a datagram, decode the call, check authentication,
dispatch to the registered procedure, encode the reply, send it back.  Every
step charges the same costs a real OpenBSD svc_udp implementation would pay,
which is what makes the RPC row of Figure 8 land an order of magnitude above
SecModule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..kernel.proc import Proc
from ..sim import costs
from .message import (NO_AUTH, AcceptStat, CallMessage, ReplyMessage,
                      ReplyStat, reply_message)
from .portmap import IPPROTO_UDP, Portmapper
from .transport import LoopbackNetwork, UdpSocket

#: Procedure handler signature: (args list) -> int result
ProcedureHandler = Callable[[List[int]], int]

_ACCEPTED, _SUCCESS = ReplyStat.MSG_ACCEPTED, AcceptStat.SUCCESS


@dataclass
class RpcProgram:
    """One registered RPC program: number, version and its procedures
    (NULLPROC, :func:`nullproc`, is served without being registered)."""

    prog: int
    vers: int
    name: str = ""
    procedures: Dict[int, ProcedureHandler] = field(default_factory=dict)
    procedure_names: Dict[int, str] = field(default_factory=dict)

    def add_procedure(self, proc_num: int, handler: ProcedureHandler, *,
                      name: str = "") -> None:
        if proc_num == 0:
            raise SimulationError("procedure 0 is reserved for NULLPROC")
        if proc_num in self.procedures:
            raise SimulationError(f"procedure {proc_num} already registered")
        self.procedures[proc_num] = handler
        self.procedure_names[proc_num] = name or f"proc{proc_num}"


def nullproc(args: List[int]) -> int:
    """NULLPROC (procedure 0), which every program serves: the RPC ping."""
    return 0


class RpcServer:
    """A UDP RPC service bound to one simulated process."""

    def __init__(self, kernel, proc: Proc, network: LoopbackNetwork,
                 portmap: Portmapper, *, port: int = 2049) -> None:
        self.kernel = kernel
        self.proc = proc
        self.network = network
        self.portmap = portmap
        self.port = port
        self.programs: Dict[Tuple[int, int], RpcProgram] = {}
        self.socket: Optional[UdpSocket] = None
        self.calls_served = 0
        self.garbage_calls = 0
        #: the handler exception behind the last SYSTEM_ERR reply, which
        #: the client chains to the RpcError it raises
        self.last_system_error: Optional[Exception] = None

    # -- setup ----------------------------------------------------------------
    def register_program(self, program: RpcProgram) -> RpcProgram:
        key = (program.prog, program.vers)
        if key in self.programs:
            raise SimulationError(
                f"program {program.prog} v{program.vers} already served")
        self.programs[key] = program
        self.portmap.set(program.prog, program.vers, self.port,
                         protocol=IPPROTO_UDP)
        return program

    def start(self) -> None:
        """svc_create: open and bind the service socket."""
        if self.socket is not None:
            return
        result = self.kernel.syscall(self.proc, "socket")
        sockfd = result.unwrap()
        self.socket = self.network.lookup_fd(sockfd)
        self.kernel.syscall(self.proc, "bind", sockfd, self.port).unwrap()

    # -- the dispatch loop body ---------------------------------------------------
    def serve_one(self) -> Optional[ReplyMessage]:
        """Handle exactly one queued request (one iteration of svc_run).

        Returns the reply that was sent, or ``None`` when no request was
        queued (in which case the server blocked in recvfrom).
        """
        if self.socket is None:
            raise SimulationError("server not started")
        machine = self.kernel.machine

        datagram, errno = self.kernel.syscall(self.proc, "recvfrom",
                                              self.socket.sockfd)
        if errno is not None:
            return None

        machine.charge(costs.RPC_SVC_DISPATCH)
        call = CallMessage.decode(datagram.payload, machine)
        machine.charge(costs.RPC_AUTH_CHECK)

        program = self.programs.get((call.prog, call.vers))
        if program is None:
            reply = ReplyMessage(xid=call.xid,
                                 accept_stat=AcceptStat.PROG_UNAVAIL)
            self.garbage_calls += 1
        else:
            proc_num = call.proc
            handler = program.procedures.get(proc_num) if proc_num \
                else nullproc
            if handler is None:
                reply = ReplyMessage(xid=call.xid,
                                     accept_stat=AcceptStat.PROC_UNAVAIL)
                self.garbage_calls += 1
            else:
                try:
                    result = handler(call.args)
                except Exception as exc:
                    reply = ReplyMessage(xid=call.xid,
                                         accept_stat=AcceptStat.SYSTEM_ERR)
                    self.garbage_calls += 1
                    self.last_system_error = exc
                else:
                    reply = reply_message((call.xid, _ACCEPTED, _SUCCESS,
                                           result, NO_AUTH))
                    self.calls_served += 1

        payload = reply.encode(machine)
        self.kernel.syscall(self.proc, "sendto", self.socket.sockfd, payload,
                            datagram.source_port)
        return reply

    def block_in_svc_run(self) -> None:
        """Park the server in recvfrom waiting for the next request."""
        if self.socket is None:
            raise SimulationError("server not started")
        result = self.kernel.syscall(self.proc, "recvfrom", self.socket.sockfd)
        if result.errno is None:
            raise SimulationError(
                "server expected to block but a datagram was already queued")
