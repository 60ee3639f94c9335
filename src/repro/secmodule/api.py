"""High-level public API: a whole SecModule system in one object.

:class:`SecModuleSystem` wires every layer together the way the paper's
prototype deployment did:

1. boot the (simulated) OpenBSD kernel and install the SecModule kernel
   extension (syscalls 301–320, lifecycle hooks);
2. run the toolchain over the synthetic libc and the benchmark test module,
   producing packed, encryptable module definitions and client stubs;
3. register the modules with the kernel as the trusted host (root), at which
   point their text keys live only in kernel space;
4. issue a credential to the client principal and link the client program
   the SecModule way (special crt0 + descriptor/credential objects);
5. start the client and run its crt0 handshake, which *attaches* a handle
   through the :class:`~repro.secmodule.handle_pool.HandleBroker`,
   force-shares the address space and leaves an established session.

Handles are no longer hard-wired one-per-session: ``create`` takes a
``handle_policy`` — ``"per_session"`` (the paper default: the broker forks
a private handle, cycle-identical to the original prototype),
``"per_module"`` (one handle serves every session over the same module
set) or ``"pooled:N"`` (shared handles capped at N sessions each) — and
:meth:`create_multi` builds a whole fleet of clients whose sessions share
pooled handles.  :meth:`attach_client` adds one more client to a live
system; teardown detaches a session's seat and only the last detachment
kills a shared handle.

After :meth:`create`, :meth:`call` makes protected calls, :meth:`native_getpid`
makes the baseline kernel call, and the benchmark harness drives both in
tight loops to regenerate Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..hw.machine import Machine, make_paper_machine
from ..kernel.kernel import Kernel
from ..kernel.proc import Proc
from ..userland.process import Program
from .credentials import DEFAULT_PRINCIPAL, DEFAULT_UID, Credential
from .dispatch import DispatchConfig, DispatchOutcome
from .libc_conversion import build_test_module, convert_libc
from .module import SecModuleDefinition
from .policy import Policy
from .protection import ProtectionMode
from .registry import RegisteredModule
from .session import Session, SessionDescriptor, build_requirements
from .smod_syscalls import SmodExtension, install_secmodule
from .toolchain.link import link_secmodule_client
from .toolchain.packer import PackResult
from .toolchain.register import RegistrationTool
from .toolchain.stubgen import StubSet


def _map_library_images(program: Program,
                        modules: List[RegisteredModule]) -> None:
    """Map the protected libraries' images into a client, as the dynamic
    loader would before startup.  Under ENCRYPT protection the bytes mapped
    here are already ciphertext (registration encrypted them); under UNMAP
    protection the handshake tears these mappings out again."""
    for module in modules:
        image = module.definition.ensure_library_image()
        text_sections = image.text_sections()
        if text_sections:
            program.proc.vmspace.map_text(
                f"{image.name}:.text", bytes(text_sections[0].data),
                encrypted=image.encrypted)


@dataclass
class SystemBuildReport:
    """What got built and registered while creating the system."""

    registered_modules: List[str] = field(default_factory=list)
    skipped_libc_symbols: List[str] = field(default_factory=list)
    special_libc_symbols: List[str] = field(default_factory=list)
    stub_count: int = 0
    session_id: Optional[int] = None


class SecModuleSystem:
    """A booted kernel + registered modules + one established client session."""

    def __init__(self, kernel: Kernel, extension: SmodExtension,
                 client: Program, session: Session, *,
                 libc_pack: Optional[PackResult] = None,
                 report: Optional[SystemBuildReport] = None) -> None:
        self.kernel = kernel
        self.extension = extension
        self.client = client
        self.session = session
        #: every client program of the system, primary first (``create``
        #: makes one; ``create_multi``/``attach_client`` grow the list)
        self.clients: List[Program] = [client]
        #: the primary session of each client, aligned with ``clients``
        self.sessions: List[Session] = [session]
        self.libc_pack = libc_pack
        self.report = report or SystemBuildReport()
        self.default_config = DispatchConfig()

    # ----------------------------------------------------------------- factory
    @classmethod
    def create(cls, *,
               machine: Optional[Machine] = None,
               policy: Optional[Policy] = None,
               protection: ProtectionMode = ProtectionMode.ENCRYPT,
               uid: int = DEFAULT_UID,
               principal: str = DEFAULT_PRINCIPAL,
               include_libc: bool = True,
               include_test_module: bool = True,
               extra_modules: Optional[List[SecModuleDefinition]] = None,
               dispatch_config: Optional[DispatchConfig] = None,
               handle_policy=None,
               seed: int = 0x5EC_0DD5) -> "SecModuleSystem":
        """Build a complete system ready to make protected calls.

        ``handle_policy`` sets the broker default: ``"per_session"`` (paper
        default, private forked handles), ``"per_module"``, ``"pooled:N"``
        or a :class:`~repro.secmodule.handle_pool.HandlePolicy`.
        """
        if not include_libc and not include_test_module and not extra_modules:
            raise SimulationError("system needs at least one module")

        machine = machine or make_paper_machine(seed=seed)
        kernel = Kernel(machine=machine).boot()
        extension = install_secmodule(kernel, handle_policy=handle_policy)
        report = SystemBuildReport()

        # -- toolchain + registration (as the trusted host) --------------------
        tool = RegistrationTool(kernel, extension, kernel.proc0)
        definitions: List[SecModuleDefinition] = []
        libc_pack: Optional[PackResult] = None
        stubs: Optional[StubSet] = None
        if include_libc:
            libc_pack = convert_libc(policy=policy)
            definitions.append(libc_pack.definition)
            stubs = libc_pack.stubs
            report.skipped_libc_symbols = list(libc_pack.skipped_symbols)
            report.special_libc_symbols = list(libc_pack.special_symbols)
            report.stub_count = len(libc_pack.stubs)
        if include_test_module:
            definitions.append(build_test_module(policy=policy))
        for extra in (extra_modules or []):
            definitions.append(extra)

        registered: List[RegisteredModule] = []
        for definition in definitions:
            record = tool.register(definition, protection=protection)
            registered.append(extension.registry.get(record.m_id))
            report.registered_modules.append(definition.name)

        # -- credentials + client link -----------------------------------------
        credentials: List[Credential] = []
        versions: List[int] = []
        for module in registered:
            credentials.append(module.definition.issuer.issue(principal, uid=uid))
            versions.append(module.version)

        from ..obj.image import make_function_image
        client_object = make_function_image(
            "client.o", {"main": 64, "smod_client_main": 64},
            calls=[("main", "smod_client_main")])
        linked = link_secmodule_client("client", [client_object],
                                       credentials, versions, stubs=stubs)

        # -- start the client and run its crt0 handshake -------------------------
        client = Program.spawn(kernel, "client", uid=uid)
        # Map the client executable's text and the protected libraries'
        # images into the client, as the dynamic loader would have.
        client_text = linked.image.get_section(".text")
        client.proc.vmspace.map_text("client:.text", bytes(client_text.data))
        _map_library_images(client, registered)
        session_id = client.smod_crt0_startup(extension, linked.descriptor)
        session = extension.sessions.get(session_id)
        report.session_id = session_id

        system = cls(kernel, extension, client, session,
                     libc_pack=libc_pack, report=report)
        system.default_config = dispatch_config or DispatchConfig()
        return system

    @classmethod
    def create_multi(cls, *, clients: int = 2,
                     handle_policy="per_module",
                     machine: Optional[Machine] = None,
                     policy: Optional[Policy] = None,
                     protection: ProtectionMode = ProtectionMode.ENCRYPT,
                     uid: int = DEFAULT_UID,
                     principal: str = DEFAULT_PRINCIPAL,
                     include_libc: bool = False,
                     include_test_module: bool = True,
                     extra_modules: Optional[List[SecModuleDefinition]] = None,
                     dispatch_config: Optional[DispatchConfig] = None,
                     seed: int = 0x5EC_0DD5) -> "SecModuleSystem":
        """Build one kernel serving several clients (the multi-client shape).

        The first client is established exactly as :meth:`create` does; the
        remaining ``clients - 1`` attach through :meth:`attach_client`.
        Under the default ``per_module`` handle policy every client's
        session shares one handle co-process per module set — the
        broker-pooled deployment the 1:1 prototype could not express.
        """
        if clients < 1:
            raise SimulationError("create_multi needs at least one client")
        system = cls.create(
            machine=machine, policy=policy, protection=protection, uid=uid,
            principal=principal, include_libc=include_libc,
            include_test_module=include_test_module,
            extra_modules=extra_modules, dispatch_config=dispatch_config,
            handle_policy=handle_policy, seed=seed)
        for index in range(1, clients):
            system.attach_client(name=f"client{index}", uid=uid,
                                 principal=principal)
        return system

    def attach_client(self, *, name: Optional[str] = None,
                      uid: int = DEFAULT_UID,
                      principal: str = DEFAULT_PRINCIPAL
                      ) -> Tuple[Program, Session]:
        """Spawn one more client and establish its session via the broker.

        The new session names the same modules as the primary session;
        under a sharing handle policy it is seated on an existing pooled
        handle instead of paying a fork.
        """
        name = name or f"client{len(self.clients)}"
        program = Program.spawn(self.kernel, name, uid=uid)
        registered = list(self.session.modules.values())
        _map_library_images(program, registered)
        descriptor = SessionDescriptor(
            build_requirements(registered, principal=principal, uid=uid))
        session_id = program.smod_crt0_startup(self.extension, descriptor)
        session = self.extension.sessions.get(session_id)
        self.clients.append(program)
        self.sessions.append(session)
        return program, session

    # ------------------------------------------------------------------ calls
    def call(self, function_name: str, *args: Any,
             config: Optional[DispatchConfig] = None) -> Any:
        """Make one protected call; returns the value or raises on denial."""
        outcome = self.call_outcome(function_name, *args, config=config)
        if not outcome.ok:
            raise PermissionError(
                f"protected call {function_name!r} failed: {outcome.errno.name}")
        return outcome.value

    def call_outcome(self, function_name: str, *args: Any,
                     config: Optional[DispatchConfig] = None) -> DispatchOutcome:
        """Make one protected call; returns the full outcome (never raises)."""
        return self.extension.dispatcher.call(
            self.session, function_name, *args,
            config=config or self.default_config)

    def native_getpid(self) -> int:
        """The Figure 8 baseline: a plain getpid() kernel call by the client."""
        return self.kernel.syscall(self.client.proc, "getpid").unwrap()

    # ----------------------------------------------------------------- processes
    @property
    def client_proc(self) -> Proc:
        return self.client.proc

    @property
    def handle_proc(self) -> Proc:
        return self.session.handle.proc

    @property
    def handle_count(self) -> int:
        return self.extension.sessions.handle_count()

    @property
    def machine(self) -> Machine:
        return self.kernel.machine

    def open_extra_session(self, module_names: Optional[List[str]] = None, *,
                           principal: str = DEFAULT_PRINCIPAL) -> Session:
        """Open an additional concurrent session for this client.

        Exercises the multi-session path: the kernel forks a fresh handle
        and the client ends up holding several ``(client_pid, session_id)``
        entries in the sharded session table.  ``module_names`` defaults to
        the modules of the primary session.
        """
        if module_names is None:
            modules = list(self.session.modules.values())
        else:
            modules = []
            for name in module_names:
                found = self.extension.registry.find_any_version(name)
                if not found:
                    raise SimulationError(f"module {name!r} is not registered")
                modules.append(found[-1])
        descriptor = SessionDescriptor(
            build_requirements(modules, principal=principal,
                               uid=self.client_proc.cred.uid),
            allow_multiple=True)
        session_id = self.client.smod_crt0_startup(self.extension, descriptor)
        return self.extension.sessions.get(session_id)

    def fork_client(self, *, principal: str = DEFAULT_PRINCIPAL) -> "SecModuleSystem":
        """Fork the client and re-establish a session for the child (§4.3).

        Returns a new :class:`SecModuleSystem` view sharing the same kernel
        but with the child as its client (and the child's own fresh handle).
        """
        child_proc = self.kernel.fork_process(self.client.proc,
                                              name=f"{self.client.proc.name}-child")
        child = Program(self.kernel, child_proc)
        descriptor = SessionDescriptor(build_requirements(
            list(self.session.modules.values()), principal=principal,
            uid=child_proc.cred.uid))
        session_id = child.smod_crt0_startup(self.extension, descriptor)
        session = self.extension.sessions.get(session_id)
        return SecModuleSystem(self.kernel, self.extension, child, session,
                               libc_pack=self.libc_pack, report=self.report)

    def teardown(self) -> None:
        """Tear down the client's session (and kill its handle)."""
        if not self.session.torn_down:
            self.extension.sessions.teardown(self.session)

    # ------------------------------------------------------------------ metrics
    def elapsed_microseconds(self) -> float:
        return self.machine.microseconds()

    def operation_counts(self) -> Dict[str, int]:
        return self.machine.meter.snapshot()

    def describe(self) -> str:
        lines = [
            f"SecModule system on {self.machine.spec.name}",
            f"  modules: {', '.join(self.report.registered_modules)}",
            f"  client:  {self.client.proc.describe()}",
            f"  handle:  {self.session.handle.describe()}",
            f"  session: {self.session.describe()}",
            f"  broker:  {self.extension.broker.describe()}",
        ]
        return "\n".join(lines)
