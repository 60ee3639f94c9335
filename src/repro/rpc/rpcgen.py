"""An rpcgen-like interface compiler.

The paper mentions that the explicit-shared-memory design it rejected would
have required "the generation of tools akin to rpcgen for SecModule".  The
reproduction supplies the rpcgen side for the baseline: given an interface
definition (program number, version, list of procedures), it produces the
client stub callables and the server skeleton in one step — the same
convenience the real tool gives C programmers — plus the ``.x``-style
definition text for documentation.

It also doubles as the way benchmark and example code builds the "testincr"
service: define the interface once, instantiate the server and a bound
client from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..kernel.errno import Errno
from ..kernel.proc import Proc
from .client import RpcClient
from .portmap import Portmapper
from .server import ProcedureHandler, RpcProgram, RpcServer
from .transport import LoopbackNetwork, install_network


@dataclass(frozen=True)
class ProcedureSpec:
    """One procedure in an interface definition."""

    number: int
    name: str
    arg_names: Tuple[str, ...]
    handler: ProcedureHandler
    doc: str = ""


@dataclass
class InterfaceDefinition:
    """The ``.x`` file equivalent: a named program with typed procedures."""

    name: str
    prog: int
    vers: int
    procedures: List[ProcedureSpec] = field(default_factory=list)

    def add_procedure(self, number: int, name: str, handler: ProcedureHandler,
                      *, arg_names: Tuple[str, ...] = ("arg",),
                      doc: str = "") -> ProcedureSpec:
        if any(p.number == number for p in self.procedures):
            raise SimulationError(f"procedure number {number} already defined")
        if number == 0:
            raise SimulationError("procedure 0 is reserved for NULLPROC")
        spec = ProcedureSpec(number=number, name=name, arg_names=arg_names,
                             handler=handler, doc=doc)
        self.procedures.append(spec)
        return spec

    def definition_text(self) -> str:
        """Render the interface as rpcgen ``.x`` style text."""
        lines = [f"program {self.name.upper()} {{",
                 f"    version VERS_{self.vers} {{"]
        for spec in sorted(self.procedures, key=lambda p: p.number):
            args = ", ".join(f"int {a}" for a in spec.arg_names) or "void"
            lines.append(f"        int {spec.name.upper()}({args}) = {spec.number};")
        lines.append(f"    }} = {self.vers};")
        lines.append(f"}} = {self.prog:#x};")
        return "\n".join(lines)


@dataclass
class GeneratedService:
    """Everything rpcgen produced for one interface: server + client factory."""

    interface: InterfaceDefinition
    server: RpcServer
    network: LoopbackNetwork
    portmap: Portmapper
    client_stub_names: Dict[str, int] = field(default_factory=dict)

    def make_client(self, kernel, proc: Proc) -> "BoundClient":
        rpc_client = RpcClient(kernel, proc, self.network, self.portmap,
                               self.server, prog=self.interface.prog,
                               vers=self.interface.vers)
        rpc_client.bind()
        return BoundClient(rpc_client, dict(self.client_stub_names))


class BoundClient:
    """A client with per-procedure stub methods (what rpcgen's *_clnt.c gives)."""

    def __init__(self, rpc_client: RpcClient, stubs: Dict[str, int]) -> None:
        self.rpc = rpc_client
        self._stubs = stubs
        #: the machine's observation plane: one span per stub round trip
        self.telemetry = rpc_client.kernel.machine.telemetry
        #: overload protection: ``retry_policy(procedure_name, args)``
        #: returns the :class:`~repro.control.overload.RetryBudget` (or
        #: None) guarding an EAGAIN reply's retries.  None = never retry,
        #: the pre-protection behavior.
        self.retry_policy = None
        #: observation hook: ``retry_observer(name, args, outcome)`` with
        #: outcome ``"retried"`` / ``"exhausted"``
        self.retry_observer = None

    def _backoff(self, backoff_us: float) -> None:
        """Deterministic virtual-time retry backoff: idle cycles on the
        meter, exactly like any other priced wait."""
        machine = self.rpc.kernel.machine
        cycles = int(round(backoff_us * machine.spec.mhz))
        if cycles > 0:
            machine.meter.idle(cycles)

    def call(self, procedure_name: str, *args: int) -> int:
        try:
            number = self._stubs[procedure_name]
        except KeyError:
            raise SimulationError(
                f"interface defines no procedure {procedure_name!r}") from None
        telemetry = self.telemetry
        span = (telemetry.start(f"rpc.{procedure_name}",
                                client_id=self.rpc.proc.pid)
                if telemetry.enabled else None)
        result = self.rpc.clnt_call(number, args)
        policy = self.retry_policy
        if policy is not None and result == -int(Errno.EAGAIN):
            budget = policy(procedure_name, args)
            attempt = 0
            while (budget is not None and result == -int(Errno.EAGAIN)
                   and budget.try_consume()):
                # bounded retries with exponential virtual-time backoff;
                # a drained budget stops the loop and the EAGAIN stands
                attempt += 1
                self._backoff(budget.backoff_us(attempt))
                if self.retry_observer is not None:
                    self.retry_observer(procedure_name, args, "retried")
                result = self.rpc.clnt_call(number, args)
            if (budget is not None and result == -int(Errno.EAGAIN)
                    and budget.remaining <= 0
                    and self.retry_observer is not None):
                self.retry_observer(procedure_name, args, "exhausted")
        if span is not None:
            telemetry.finish(span)
        return result

    def __getattr__(self, item: str):
        if item.startswith("_") or item == "rpc":
            raise AttributeError(item)
        if item in self._stubs:
            return lambda *args: self.call(item, *args)
        raise AttributeError(item)


def generate_service(kernel, interface: InterfaceDefinition, *,
                     server_uid: int = 0, port: int = 2049,
                     portmap: Optional[Portmapper] = None) -> GeneratedService:
    """Instantiate the server side of ``interface`` on ``kernel``.

    Creates the server process, installs the network stack if needed, binds
    the service socket, registers with the portmapper, and parks the server
    in its receive loop, ready for clients.
    """
    from ..kernel.cred import ROOT, unprivileged

    network = install_network(kernel)
    if portmap is None:
        # One portmapper per kernel, like the real rpcbind: every service
        # generated on this kernel registers in (and resolves through) the
        # same table, so two services can coexist and share clients.  An
        # explicitly passed portmapper still wins (tests isolate with it).
        portmap = getattr(kernel, "rpc_portmap", None)
        if portmap is None:
            portmap = Portmapper()
            kernel.rpc_portmap = portmap
    cred = ROOT if server_uid == 0 else unprivileged(server_uid)
    server_proc = kernel.create_process(f"rpc.{interface.name}d", cred=cred)
    server = RpcServer(kernel, server_proc, network, portmap, port=port)

    program = RpcProgram(prog=interface.prog, vers=interface.vers,
                         name=interface.name)
    stub_names: Dict[str, int] = {}
    for spec in interface.procedures:
        program.add_procedure(spec.number, spec.handler, name=spec.name)
        stub_names[spec.name] = spec.number
    server.register_program(program)
    server.start()
    server.block_in_svc_run()

    return GeneratedService(interface=interface, server=server,
                            network=network, portmap=portmap,
                            client_stub_names=stub_names)


def testincr_interface() -> InterfaceDefinition:
    """The paper's benchmark service: test_incr(x) returns x + 1."""
    interface = InterfaceDefinition(name="testincr", prog=0x20000101, vers=1)
    interface.add_procedure(1, "test_incr", lambda args: (args[0] if args else 0) + 1,
                            arg_names=("x",),
                            doc="return the argument incremented by one")
    interface.add_procedure(2, "test_add",
                            lambda args: sum(args),
                            arg_names=("a", "b"), doc="return a + b")
    return interface
