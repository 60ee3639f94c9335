"""The system-call trap layer.

Every simulated system call passes through :class:`SyscallTable.invoke`,
which charges the trap entry/exit and demultiplex costs, performs the ring
transition on the simulated CPU, and dispatches to the registered handler.
This is the layer whose cost the paper's first baseline (native ``getpid()``
at 0.658 µs/call) measures almost in isolation, and the layer SecModule
re-enters once more per protected call via ``sys_smod_call``.

Syscall numbers follow the OpenBSD 3.6 ``syscalls.master`` for the calls the
paper names, and Figure 4's 301–320 block for the SecModule additions (which
the :mod:`repro.secmodule.smod_syscalls` module registers at boot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Union

from ..errors import SimulationError
from ..hw.cpu import Ring
from ..sim import costs
from .errno import Errno, SyscallResult, fail
from .proc import Proc

#: Handler signature: (kernel, proc, *args) -> SyscallResult
SyscallHandler = Callable[..., SyscallResult]


@dataclass(frozen=True)
class SyscallEntry:
    number: int
    name: str
    handler: SyscallHandler
    #: number of argument words copied in from user space (charged per word)
    arg_words: int = 0


class SyscallTable:
    """Registration and dispatch of system calls."""

    def __init__(self, machine, cpu) -> None:
        self.machine = machine
        self.cpu = cpu
        #: every entry under its name *and* its number: names are strings
        #: and numbers ints, so one probe resolves either
        self._entries: Dict[Union[str, int], SyscallEntry] = {}
        #: dispatch counters, per syscall name (used by tests and reports)
        self.invocations: Dict[str, int] = {}

    # -- registration ------------------------------------------------------------
    def register(self, number: int, name: str, handler: SyscallHandler, *,
                 arg_words: int = 0, replace: bool = False) -> SyscallEntry:
        if not replace and (name in self._entries or number in self._entries):
            raise SimulationError(
                f"syscall {name!r} / number {number} already registered")
        entry = SyscallEntry(number=number, name=name, handler=handler,
                             arg_words=arg_words)
        self._entries[name] = entry
        self._entries[number] = entry
        return entry

    def lookup(self, name_or_number) -> Optional[SyscallEntry]:
        return self._entries.get(name_or_number)

    # -- dispatch ------------------------------------------------------------------
    def invoke(self, kernel, proc: Proc, name_or_number, *args: Any) -> SyscallResult:
        """Trap into the kernel and execute one system call for ``proc``.

        The whole trap is this one frame: the entry resolves in one probe
        and the ring transition is :meth:`CPU.enter_ring`'s swap, inlined.
        """
        entry = self._entries.get(name_or_number)
        machine = self.machine
        cpu = self.cpu

        # Trap entry: user -> kernel ring transition.
        machine.charge(costs.TRAP_ENTRY)
        previous_ring = cpu.ring
        cpu.ring = Ring.KERNEL
        machine.charge(costs.SYSCALL_DEMUX)

        try:
            if entry is None:
                return fail(Errno.ENOSYS)
            name = entry.name
            if entry.arg_words:
                machine.charge_words(costs.COPY_WORD, entry.arg_words)
            invocations = self.invocations
            invocations[name] = invocations.get(name, 0) + 1
            result = entry.handler(kernel, proc, *args)
            if not isinstance(result, SyscallResult):
                raise SimulationError(
                    f"syscall handler {name!r} returned "
                    f"{type(result).__name__}, not SyscallResult")
            return result
        finally:
            # Trap exit: back to the caller's ring.
            cpu.ring = previous_ring
            machine.charge(costs.TRAP_EXIT)

    def count(self, name: str) -> int:
        return self.invocations.get(name, 0)


# --------------------------------------------------------------------------
# Standard OpenBSD syscall numbers used by the simulation.
# --------------------------------------------------------------------------
SYS_exit = 1
SYS_fork = 2
SYS_getpid = 20
SYS_getppid = 39
SYS_kill = 37
SYS_obreak = 17
SYS_execve = 59
SYS_wait4 = 7
SYS_ptrace = 26
SYS_msgget = 225
SYS_msgsnd = 226
SYS_msgrcv = 227
SYS_msgctl = 224
SYS_sendto = 133
SYS_recvfrom = 29
SYS_socket = 97
SYS_select = 93

# Figure 4: the SecModule additions (registered by repro.secmodule).
SYS_smod_find = 301
SYS_smod_session_info = 303
SYS_smod_handle_info = 304
SYS_smod_add = 305
SYS_smod_remove = 306
SYS_smod_call = 307
SYS_smod_call_batch = 308
SYS_smod_start_session = 320
