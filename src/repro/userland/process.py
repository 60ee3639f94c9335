"""User-level program runtime.

A :class:`Program` wraps a kernel process together with the user-level
resources a C program would have: a malloc arena, convenience memory
accessors, and — when the program is SecModule-enabled — the crt0 handshake
driver that performs Figure 1 steps 1–4 through the real syscall interface
before handing control to ``smod_client_main``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import SimulationError
from ..kernel.cred import Ucred, unprivileged
from ..kernel.proc import Proc
from .libc.malloc import MallocArena
from .libc.syscall_stubs import getpid as _getpid


@dataclass
class CrtStartupRecord:
    """What the crt0 did during startup (used by the Figure 1 tests)."""

    found_modules: List[int] = field(default_factory=list)
    session_id: Optional[int] = None
    handshake_complete: bool = False


class Program:
    """One running user-level program on the simulated system."""

    def __init__(self, kernel, proc: Proc) -> None:
        self.kernel = kernel
        self.proc = proc
        self.heap = MallocArena(kernel, proc)
        self.crt_record = CrtStartupRecord()

    # ----------------------------------------------------------------- factory
    @classmethod
    def spawn(cls, kernel, name: str, *, uid: int = 1000,
              cred: Optional[Ucred] = None) -> "Program":
        """Create a fresh process and wrap it as a Program."""
        credential = cred if cred is not None else (
            unprivileged(uid) if uid else None)
        proc = kernel.create_process(name, cred=credential) if credential \
            else kernel.create_process(name)
        return cls(kernel, proc)

    # ------------------------------------------------------------ plain libc API
    def getpid(self) -> int:
        return _getpid(self.kernel, self.proc)

    def malloc(self, size: int) -> int:
        return self.heap.malloc(size)

    def free(self, address: int) -> None:
        self.heap.free(address)

    def write_memory(self, address: int, data: bytes) -> None:
        self.proc.vmspace.write(address, data)

    def read_memory(self, address: int, length: int) -> bytes:
        return self.proc.vmspace.read(address, length)

    # --------------------------------------------------- SecModule crt0 handshake
    def smod_crt0_startup(self, extension, descriptor) -> int:
        """Run the SecModule crt0 handshake (Figure 1 steps 1–4).

        Returns the established session id.  The sequence below issues the
        same syscalls, in the same order, as the paper's crt0:

        1. ``smod_find`` for each required module;
        2. ``smod_start_session`` (the kernel forks the handle);
        3. ``smod_session_info`` issued *by the handle*;
        4. ``smod_handle_info`` issued by the client, after which the crt0
           would jump to ``smod_client_main``.
        """
        kernel = self.kernel
        # Step 1: open access to the modules we need.
        for requirement in descriptor.requirements:
            result = kernel.syscall(self.proc, "smod_find",
                                    requirement.module_name, requirement.version)
            if result.failed:
                raise SimulationError(
                    f"crt0: required module {requirement.module_name!r} "
                    f"v{requirement.version} is not registered")
            self.crt_record.found_modules.append(result.value)

        # Step 2: formal request; the kernel forcibly forks the handle.
        result = kernel.syscall(self.proc, "smod_start_session", descriptor)
        if result.failed:
            raise PermissionError(
                f"crt0: smod_start_session rejected ({result.errno.name})")
        session_id = result.value
        self.crt_record.session_id = session_id
        session = extension.sessions.get(session_id)

        # Step 3: the handle's half of the handshake.  The kernel scheduled
        # the handle; the simulation context-switches to it explicitly so the
        # cost is charged where it belongs.
        kernel.sched.switch_to(session.handle.proc)
        result = kernel.syscall(session.handle.proc, "smod_session_info", None)
        if result.failed:
            raise SimulationError(
                f"crt0: smod_session_info failed ({result.errno.name})")

        # Step 4: back to the client, which completes the synchronization.
        kernel.sched.switch_to(self.proc)
        result = kernel.syscall(self.proc, "smod_handle_info", None)
        if result.failed:
            raise SimulationError(
                f"crt0: smod_handle_info failed ({result.errno.name})")
        self.crt_record.handshake_complete = True
        return session_id
