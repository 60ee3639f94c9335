"""Processes and the process table.

The SecModule design leans on several per-process kernel facts:

* a handle process must never dump core (its text is the secret being
  protected) — modelled by the ``NOCORE`` flag;
* a handle process must never be ptrace-able — the ``NOTRACE`` flag;
* the kernel must know which processes are SecModule clients and which are
  handles, and how they pair up — the ``SMOD_CLIENT`` / ``SMOD_HANDLE``
  flags plus the ``smod_peer`` link;
* ``getpid()`` and friends executed *by the handle on the client's behalf*
  must report the client's identity (§4.3).

Everything else is ordinary UNIX bookkeeping: pids, parents, credentials,
states and exit status.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..errors import SimulationError
from .cred import Ucred
from .uvm.space import VMSpace


class ProcState(enum.Enum):
    EMBRYO = "embryo"       # being constructed by fork
    RUNNABLE = "runnable"   # on the ready queue
    RUNNING = "running"     # currently on the CPU
    SLEEPING = "sleeping"   # blocked on a wait channel
    ZOMBIE = "zombie"       # exited, waiting to be reaped
    DEAD = "dead"           # reaped


#: the states of a process that has exited: it may make no syscall and
#: never runs again
DEAD_STATES = (ProcState.ZOMBIE, ProcState.DEAD)


class ProcFlag(enum.Flag):
    NONE = 0
    SYSTEM = enum.auto()        # kernel-internal process (proc0)
    NOCORE = enum.auto()        # never write a core image (paper §3.1 item 3)
    NOTRACE = enum.auto()       # ptrace() must refuse (paper §3.1 item 4)
    SMOD_CLIENT = enum.auto()   # has an active SecModule session as client
    SMOD_HANDLE = enum.auto()   # is a SecModule handle co-process


#: every ProcFlag combination, by integer value: the flag helpers work on
#: the members' values (each enum.Flag operator runs Python frames)
_FLAGS_BY_VALUE = tuple(ProcFlag(value) for value in range(
    2 * max(flag._value_ for flag in ProcFlag)))


@dataclass
class Proc:
    """One simulated process (``struct proc`` + the SecModule extensions)."""

    pid: int
    name: str
    cred: Ucred
    vmspace: VMSpace
    ppid: int = 0
    state: ProcState = ProcState.EMBRYO
    flags: ProcFlag = ProcFlag.NONE
    exit_status: Optional[int] = None
    #: wait channel this process sleeps on (None when not sleeping)
    wchan: Optional[str] = None
    #: the other half of a SecModule pair (handle for a client, client for a handle)
    smod_peer: Optional["Proc"] = None
    #: opaque session object attached by repro.secmodule.session
    smod_session: Optional[object] = None
    #: children pids
    children: List[int] = field(default_factory=list)
    #: pending (not yet delivered) signal numbers
    pending_signals: Set[int] = field(default_factory=set)
    #: per-process signal dispositions: signo -> "default"|"ignore"|callable
    signal_actions: Dict[int, object] = field(default_factory=dict)

    def has_flag(self, flag: ProcFlag) -> bool:
        return bool(self.flags._value_ & flag._value_)

    def set_flag(self, flag: ProcFlag) -> None:
        self.flags = _FLAGS_BY_VALUE[self.flags._value_ | flag._value_]

    def clear_flag(self, flag: ProcFlag) -> None:
        self.flags = _FLAGS_BY_VALUE[self.flags._value_ & ~flag._value_]

    @property
    def is_smod_client(self) -> bool:
        return self.has_flag(ProcFlag.SMOD_CLIENT)

    @property
    def is_smod_handle(self) -> bool:
        return self.has_flag(ProcFlag.SMOD_HANDLE)

    @property
    def alive(self) -> bool:
        return self.state not in DEAD_STATES

    def effective_client(self) -> "Proc":
        """The process whose identity user-visible calls must report.

        For an ordinary process this is itself; for a SecModule *handle*
        executing a call on the client's behalf it is the client (paper
        §4.3: "getpid() and related calls must return the PIDs related to
        the client, not the handle!").
        """
        if self.is_smod_handle and self.smod_peer is not None:
            return self.smod_peer
        return self

    def describe(self) -> str:
        flag_names = [f.name for f in ProcFlag
                      if f is not ProcFlag.NONE and self.has_flag(f)]
        return (f"pid={self.pid} ppid={self.ppid} {self.name!r} "
                f"state={self.state.value} flags={'|'.join(flag_names) or '-'} "
                f"cred=({self.cred.describe()})")


class ProcTable:
    """Allocates pids and tracks every process in the system."""

    #: first pid handed to ordinary processes (pid 0 is proc0, 1 is init)
    FIRST_USER_PID = 2

    def __init__(self, max_procs: int = 1024) -> None:
        self.max_procs = max_procs
        self._procs: Dict[int, Proc] = {}
        self._next_pid = self.FIRST_USER_PID

    def allocate_pid(self) -> int:
        if len(self._procs) >= self.max_procs:
            raise SimulationError("process table full")
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def insert(self, proc: Proc) -> Proc:
        if proc.pid in self._procs:
            raise SimulationError(f"duplicate pid {proc.pid}")
        self._procs[proc.pid] = proc
        return proc

    def lookup(self, pid: int) -> Optional[Proc]:
        """``pfind()``: may return ZOMBIE processes but never reaped ones."""
        proc = self._procs.get(pid)
        if proc is not None and proc.state is ProcState.DEAD:
            return None
        return proc

    def remove(self, pid: int) -> None:
        proc = self._procs.pop(pid, None)
        if proc is not None:
            proc.state = ProcState.DEAD

    def all_procs(self) -> List[Proc]:
        return [p for p in self._procs.values() if p.state is not ProcState.DEAD]

    def children_of(self, pid: int) -> List[Proc]:
        return [p for p in self.all_procs() if p.ppid == pid]

    def __len__(self) -> int:
        return len(self.all_procs())

    def __contains__(self, pid: int) -> bool:
        return self.lookup(pid) is not None
