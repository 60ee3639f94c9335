"""The kernel facade.

A :class:`Kernel` owns every simulated kernel subsystem — process table,
scheduler, UVM page allocator, SysV message queues, signals, ptrace and core
dump policy, and the syscall table — and provides the process-lifecycle
operations (create/fork/exec/exit) that the substrates and the SecModule
layer build on.

Extension point: the SecModule implementation does not live inside this
module (just as the paper's code is a patch against a stock kernel).  It
registers its syscalls through :meth:`Kernel.syscalls.register` and attaches
to process-lifecycle events through :meth:`Kernel.register_hook`, which is
how ``execve`` tears down an active session and ``fork`` duplicates one
(paper §4.3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import SimulationError
from ..hw.cpu import Ring
from ..hw.machine import Machine, make_paper_machine
from ..obj.loader import LoadPlan
from ..sim import costs
from .coredump import CoreDumpPolicy, CoreImage
from .cred import ROOT, Ucred
from .errno import Errno, SyscallResult, syscall_result
from .proc import DEAD_STATES, Proc, ProcFlag, ProcState, ProcTable
from .ptrace import PtracePolicy
from .sched import Scheduler
from .signals import SignalSystem
from .syscall import SyscallTable
from .sysv_msg import SysVMsgSystem
from .uvm.layout import DATA_BASE, PAGE_SIZE
from .uvm.page import PageAllocator
from .uvm.space import VMSpace, uvmspace_fork

#: Lifecycle events extensions may hook.
HOOK_EVENTS = ("fork", "exec", "exit")


class Kernel:
    """The simulated OpenBSD 3.6 kernel (plus registered extensions)."""

    def __init__(self, machine: Optional[Machine] = None) -> None:
        self.machine = machine or make_paper_machine()
        self.allocator = PageAllocator(self.machine.spec.num_physical_pages)
        self.procs = ProcTable()
        self.sched = Scheduler(self.machine)
        self.msg = SysVMsgSystem(self.machine, self.sched)
        self.signals = SignalSystem(self)
        self.ptrace = PtracePolicy()
        self.coredump = CoreDumpPolicy()
        self.syscalls = SyscallTable()
        self._hooks: Dict[str, List[Callable]] = {event: [] for event in HOOK_EVENTS}
        self.proc0: Optional[Proc] = None
        self.booted = False

    # ------------------------------------------------------------------ boot
    def boot(self) -> "Kernel":
        """Create proc0, register the standard syscalls, mark the kernel live."""
        if self.booted:
            return self
        from .syscalls import register_standard_syscalls
        register_standard_syscalls(self)
        vmspace = VMSpace(machine=self.machine, allocator=self.allocator,
                          name="proc0")
        self.proc0 = Proc(pid=0, name="swapper", cred=ROOT, vmspace=vmspace,
                          state=ProcState.RUNNING, flags=ProcFlag.SYSTEM)
        self.procs.insert(self.proc0)
        self.sched.current = self.proc0
        self.booted = True
        self.machine.trace.emit("kernel", "boot",
                                detail_os=self.machine.spec.os_version)
        return self

    def _require_boot(self) -> None:
        if not self.booted:
            raise SimulationError("kernel not booted; call Kernel.boot() first")

    # ---------------------------------------------------------------- hooks
    def register_hook(self, event: str, callback: Callable) -> None:
        """Attach ``callback`` to a lifecycle event (``fork``/``exec``/``exit``)."""
        if event not in self._hooks:
            raise SimulationError(f"unknown hook event {event!r}")
        self._hooks[event].append(callback)

    def _run_hooks(self, event: str, *args) -> None:
        for callback in self._hooks[event]:
            callback(self, *args)

    # ------------------------------------------------------- process lifecycle
    def create_process(self, name: str, *, cred: Ucred = ROOT,
                       parent: Optional[Proc] = None,
                       data_pages: int = 4,
                       stack_pages: int = 16) -> Proc:
        """Create a fresh process with the traditional text/data/stack layout."""
        self._require_boot()
        vmspace = VMSpace(machine=self.machine, allocator=self.allocator,
                          name=name)
        if data_pages:
            vmspace.map_data("data", data_pages * PAGE_SIZE, base=DATA_BASE)
        if stack_pages:
            vmspace.map_stack(pages=stack_pages)
        pid = self.procs.allocate_pid()
        proc = Proc(pid=pid, name=name, cred=cred, vmspace=vmspace,
                    ppid=parent.pid if parent else 0,
                    state=ProcState.EMBRYO)
        self.procs.insert(proc)
        if parent is not None:
            parent.children.append(pid)
        self.sched.make_runnable(proc)
        return proc

    def fork_process(self, parent: Proc, *, name: Optional[str] = None,
                     flags: ProcFlag = ProcFlag.NONE) -> Proc:
        """``fork()``: duplicate the parent's address space and credentials."""
        self._require_boot()
        child_space = uvmspace_fork(parent.vmspace,
                                    child_name=name or f"{parent.name}-child")
        pid = self.procs.allocate_pid()
        child = Proc(pid=pid, name=name or parent.name, cred=parent.cred,
                     vmspace=child_space, ppid=parent.pid,
                     state=ProcState.EMBRYO, flags=flags)
        self.procs.insert(child)
        parent.children.append(pid)
        self.sched.make_runnable(child)
        self._run_hooks("fork", parent, child)
        return child

    def exec_process(self, proc: Proc, plan: LoadPlan, *,
                     new_name: Optional[str] = None) -> Proc:
        """``execve()``: replace the process image according to ``plan``.

        The exec hooks run *before* the address space is replaced, which is
        where the SecModule extension detaches the old session and kills the
        old handle (paper §4.3).
        """
        self._require_boot()
        self.machine.charge(costs.EXEC_BASE)
        self._run_hooks("exec", proc, plan)
        fresh = VMSpace(machine=self.machine, allocator=self.allocator,
                        name=new_name or plan.image_name)
        for segment in plan.segments:
            if segment.executable:
                fresh.map_text(segment.name, b"\0" * segment.size,
                               base=segment.vaddr,
                               encrypted=segment.encrypted)
            else:
                fresh.map_data(segment.name, segment.size, base=segment.vaddr)
        fresh.map_stack()
        proc.vmspace = fresh
        proc.name = new_name or plan.image_name
        return proc

    def exit_process(self, proc: Proc, status: int = 0) -> None:
        """``exit()``: run exit hooks, tear down, reparent children, zombify."""
        self._require_boot()
        if not proc.alive:
            return
        self.machine.charge(costs.EXIT_BASE)
        self._run_hooks("exit", proc, status)
        proc.exit_status = status
        proc.state = ProcState.ZOMBIE
        self.sched.remove(proc)
        # orphaned children are reparented to init/proc0
        for child_pid in proc.children:
            child = self.procs.lookup(child_pid)
            if child is not None and child.alive:
                child.ppid = 0
        parent = self.procs.lookup(proc.ppid)
        if parent is not None and parent.alive:
            self.sched.wakeup(f"waitpid:{parent.pid}")

    def crash_process(self, proc: Proc, *, reason: str = "SIGSEGV") -> Optional[CoreImage]:
        """Kill a process as a crash would: core-dump policy applies."""
        image = self.coredump.dump(proc)
        self.machine.trace.emit("kernel", "crash", pid=proc.pid, reason=reason)
        self.exit_process(proc, status=139)
        return image

    def reap(self, parent: Proc, child_pid: int) -> Optional[int]:
        """``wait4()`` core: collect a zombie child's status."""
        child = self.procs.lookup(child_pid)
        if child is None or child.ppid != parent.pid:
            return None
        if child.state is not ProcState.ZOMBIE:
            return None
        status = child.exit_status
        self.procs.remove(child_pid)
        if child_pid in parent.children:
            parent.children.remove(child_pid)
        return status

    # -------------------------------------------------------------- syscall API
    def syscall(self, proc: Proc, name_or_number, *args) -> SyscallResult:
        """Trap into the kernel and execute one system call for ``proc``.

        Charges the trap entry, demultiplex, argument copy-in and trap
        exit around the handler :attr:`syscalls` registers under the name
        or number.  The whole trap is this one frame: every protected call
        passes here, so ``_require_boot``, ``Proc.alive``, the entry probe
        and :meth:`CPU.enter_ring`'s swap are inlined.
        """
        if not self.booted:
            raise SimulationError("kernel not booted; call Kernel.boot() first")
        if proc.state in DEAD_STATES:
            raise SimulationError(f"dead process {proc.pid} cannot make syscalls")
        syscalls = self.syscalls
        entry = syscalls.entries.get(name_or_number)
        machine = self.machine
        cpu = machine.cpu

        # Trap entry: user -> kernel ring transition.
        machine.charge(costs.TRAP_ENTRY)
        previous_ring = cpu.ring
        cpu.ring = Ring.KERNEL
        machine.charge(costs.SYSCALL_DEMUX)

        try:
            if entry is None:
                return syscall_result((-1, Errno.ENOSYS))
            name = entry.name
            if entry.arg_words:
                machine.charge_words(costs.COPY_WORD, entry.arg_words)
            invocations = syscalls.invocations
            invocations[name] = invocations.get(name, 0) + 1
            result = entry.handler(self, proc, *args)
            if not isinstance(result, SyscallResult):
                raise SimulationError(
                    f"syscall handler {name!r} returned "
                    f"{type(result).__name__}, not SyscallResult")
            return result
        finally:
            # Trap exit: back to the caller's ring.
            cpu.ring = previous_ring
            machine.charge(costs.TRAP_EXIT)

    # --------------------------------------------------------------- utilities
    def copyin(self, words: int) -> None:
        """Charge a user->kernel copy of ``words`` 32-bit words."""
        self.machine.charge_words(costs.COPY_WORD, words)


def make_booted_kernel(machine: Optional[Machine] = None) -> Kernel:
    """Construct and boot a kernel in one call (the common test fixture)."""
    return Kernel(machine=machine).boot()
