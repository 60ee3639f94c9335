"""Process scheduler.

A deliberately simple run-to-block scheduler: the simulation is
single-CPU and every benchmark path is synchronous, so what matters is not
scheduling *policy* but scheduling *cost* — every time control moves from
one process to another a full context switch is charged, because those two
switches per call are a large share of the SecModule dispatch latency (and
two more are a large share of the RPC baseline's).

The paper's "second approach" to the multithreaded-client attack (§4.4) —
forcibly removing the client from the ready queue while the handle executes
on its behalf — is implemented here as :meth:`Scheduler.suspend` /
:meth:`Scheduler.resume`, and exercised by the hardened-dispatch ablation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..errors import SimulationError
from ..sim import costs
from .proc import DEAD_STATES, Proc, ProcState


class ReadyQueue:
    """FIFO ready queue keyed by pid: O(1) membership, discard and append.

    ``Proc`` is a deep-equality dataclass, so a plain deque pays a full
    structural comparison per ``in``/``remove`` — superlinear once the run
    holds 10^5+ processes (the served-session scale).  Pids are unique for
    live processes, so a pid-keyed insertion-ordered dict preserves the
    deque's FIFO semantics exactly while making every operation O(1).
    """

    __slots__ = ("_procs",)

    def __init__(self) -> None:
        self._procs: Dict[int, Proc] = {}

    def append(self, proc: Proc) -> None:
        self._procs[proc.pid] = proc

    def discard(self, proc: Proc) -> None:
        """Drop ``proc`` if it is queued; a proc that is not is left alone
        (a switch, sleep or suspend finds its target off the queue more
        often than on it, so this never raises)."""
        self._procs.pop(proc.pid, None)

    def __contains__(self, proc: object) -> bool:
        pid = getattr(proc, "pid", None)
        return pid in self._procs

    def __len__(self) -> int:
        return len(self._procs)

    def __iter__(self) -> Iterator[Proc]:
        return iter(self._procs.values())


class Scheduler:
    """Ready queue + current process + sleep/wakeup channels."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.ready = ReadyQueue()
        self.current: Optional[Proc] = None
        #: wait channel -> the processes sleeping on it; a channel with no
        #: sleeper has no key, so a waker tests membership before waking
        self.sleepers: Dict[str, List[Proc]] = {}
        self.context_switches = 0
        self._suspended: set[int] = set()
        #: pids woken (wakeup/make_runnable) while suspended: they must be
        #: re-enqueued at resume time, or a sleeper that was woken during a
        #: §4.4 suspension is silently dropped from scheduling forever.
        self._deferred_wakeups: set[int] = set()

    # -- state transitions ----------------------------------------------------
    def make_runnable(self, proc: Proc) -> None:
        if not proc.alive:
            raise SimulationError(f"cannot schedule dead process {proc.pid}")
        if proc.pid in self._suspended:
            # Record the wakeup but keep the proc off the queue until
            # resumed; also pull it out of any sleep channel so the wakeup
            # is not lost (the channel may never fire again).  The enqueue
            # work is charged here, at delivery time, so a deferred wakeup
            # costs the same as an immediate one.
            if proc.state is ProcState.SLEEPING:
                self._remove_sleeper(proc)
            if proc.pid not in self._deferred_wakeups:
                self.machine.charge(costs.SCHED_ENQUEUE)
            proc.state = ProcState.RUNNABLE
            proc.wchan = None
            self._deferred_wakeups.add(proc.pid)
            return
        if proc.state is ProcState.RUNNING or proc in self.ready:
            return
        proc.state = ProcState.RUNNABLE
        proc.wchan = None
        self.ready.append(proc)
        self.machine.charge(costs.SCHED_ENQUEUE)

    def _remove_sleeper(self, proc: Proc) -> None:
        # proc.wchan names the one channel a sleeper can be queued on, so
        # the removal never walks the other channels; the fallback full scan
        # only runs for a proc whose wchan was already cleared out-of-band
        wchan = proc.wchan
        if wchan is not None:
            sleepers = self.sleepers.get(wchan)
            if sleepers is not None:
                if proc in sleepers:
                    sleepers.remove(proc)
                if not sleepers:
                    del self.sleepers[wchan]
            return
        for channel, sleepers in list(self.sleepers.items()):
            if proc in sleepers:
                sleepers.remove(proc)
            if not sleepers:
                del self.sleepers[channel]

    def switch_to(self, proc: Proc) -> Proc:
        """Context switch to ``proc``; returns the previously running process.

        Two switches run per protected call, so ``Proc.alive`` and
        :meth:`ReadyQueue.discard` are inlined.
        """
        if proc.state in DEAD_STATES:
            raise SimulationError(f"cannot switch to dead process {proc.pid}")
        previous = self.current
        if previous is proc:
            return proc
        if previous is not None and previous.state is ProcState.RUNNING:
            previous.state = ProcState.RUNNABLE
        self.ready._procs.pop(proc.pid, None)
        proc.state = ProcState.RUNNING
        proc.wchan = None
        self.current = proc
        self.context_switches += 1
        self.machine.charge(costs.CONTEXT_SWITCH)
        return previous if previous is not None else proc

    def sleep(self, proc: Proc, wchan: str) -> None:
        """Block ``proc`` on ``wchan`` (tsleep).

        Every blocking receive sleeps here, so ``Proc.alive`` and
        :meth:`ReadyQueue.discard` are inlined, as in :meth:`switch_to`.
        """
        if proc.state in DEAD_STATES:
            raise SimulationError(f"cannot sleep dead process {proc.pid}")
        proc.state = ProcState.SLEEPING
        proc.wchan = wchan
        self.sleepers.setdefault(wchan, []).append(proc)
        self.ready._procs.pop(proc.pid, None)
        if self.current is proc:
            self.current = None

    def wakeup(self, wchan: str) -> List[Proc]:
        """Wake every process sleeping on ``wchan`` (wakeup).

        ``Proc.alive`` and :meth:`ReadyQueue.append` are inlined.
        """
        woken = self.sleepers.pop(wchan, None)
        if woken is None:
            return []
        ready = self.ready._procs
        for proc in woken:
            if proc.state not in DEAD_STATES:
                self.machine.charge(costs.SCHED_WAKEUP)
                proc.state = ProcState.RUNNABLE
                proc.wchan = None
                if proc.pid not in self._suspended:
                    ready[proc.pid] = proc
                else:
                    self._deferred_wakeups.add(proc.pid)
        return woken

    def sleeping_on(self, wchan: str) -> List[Proc]:
        return list(self.sleepers.get(wchan, []))

    # -- the §4.4 hardening hooks ---------------------------------------------
    def suspend(self, proc: Proc) -> None:
        """Forcibly remove ``proc`` (and conceptually all its threads) from
        the ready queue for the duration of a protected call."""
        self._suspended.add(proc.pid)
        self.ready.discard(proc)

    def resume(self, proc: Proc) -> None:
        self._suspended.discard(proc.pid)
        self._deferred_wakeups.discard(proc.pid)
        if not proc.alive:
            return
        if proc.state is ProcState.RUNNABLE and proc not in self.ready:
            # covers both a proc suspended straight off the ready queue and a
            # sleeper whose wakeup arrived while it was suspended; the
            # wakeup/make_runnable that deferred it already charged the
            # scheduling work, so re-enqueueing here is free
            self.ready.append(proc)
        # a proc still SLEEPING at resume time stays blocked; its eventual
        # wakeup() now enqueues it normally since the pid is no longer
        # suspended

    def is_suspended(self, proc: Proc) -> bool:
        return proc.pid in self._suspended

    # -- bookkeeping ------------------------------------------------------------
    def remove(self, proc: Proc) -> None:
        """Drop a (now dead) process from every scheduler structure."""
        self.ready.discard(proc)
        self._remove_sleeper(proc)
        if self.current is proc:
            self.current = None
        self._suspended.discard(proc.pid)
        self._deferred_wakeups.discard(proc.pid)

    def run_queue_length(self) -> int:
        return len(self.ready)
