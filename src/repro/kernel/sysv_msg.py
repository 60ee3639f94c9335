"""SysV message queues.

Section 4.1: *"the second goal of keeping the client and handle synchronized
is much easier to achieve, as OpenBSD already comes with the proper kernel
resources in the form of the SYSV MSG interface.  The msgsnd() and msgrcv()
functions already contain efficient blocking and awakening that we desire
for synchronization."*

SecModule therefore does not invent its own wait/wake primitive; the client
and handle rendezvous through an ordinary message queue pair, and every
dispatch pays one send and one receive in each direction.  The queue
implementation below charges exactly those costs and exposes the blocking
behaviour through the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..sim import costs
from .errno import Errno
from .proc import Proc

#: msgget key meaning "create a new private queue" (IPC_PRIVATE).
IPC_PRIVATE = 0
#: flag bit: create the queue if it does not exist.
IPC_CREAT = 0o1000
#: msgrcv/msgsnd flag: do not block.
IPC_NOWAIT = 0o4000


@dataclass
class Message:
    """One queued message: a type tag plus a payload of 32-bit words.

    A message may carry several logical *parts* — the batched dispatch path
    packs one part per queued protected call into a single send, so the whole
    queue pays one ``msgsnd``/``msgrcv`` pair instead of one per call.  The
    flat ``payload`` is what travels (and what the per-word charge covers);
    ``parts`` records the boundaries so the receiver can unpack without
    re-parsing.
    """

    mtype: int
    payload: Tuple[int, ...] = ()
    #: logical sub-payload boundaries; empty for ordinary single-part messages
    parts: Tuple[Tuple[int, ...], ...] = ()

    @classmethod
    def batched(cls, mtype: int,
                parts: List[Tuple[int, ...]]) -> "Message":
        """Pack several per-call payloads into one multi-part message."""
        packed = tuple(map(tuple, parts))
        return cls(mtype=mtype, payload=tuple(chain.from_iterable(packed)),
                   parts=packed)

    @property
    def part_count(self) -> int:
        return len(self.parts) if self.parts else (1 if self.payload else 0)

    @property
    def words(self) -> int:
        return len(self.payload)


@dataclass
class MessageQueue:
    """One SysV message queue (``struct msqid_ds``)."""

    msqid: int
    key: int
    owner_uid: int
    max_bytes: int = 16384
    messages: List[Message] = field(default_factory=list)
    removed: bool = False
    #: the sleep channel of the queue's blocked receivers, named once
    wchan: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.wchan = f"msgwait:{self.msqid}"

    @property
    def queued_bytes(self) -> int:
        return sum(4 * len(m.payload) for m in self.messages)

    def find(self, mtype: int) -> Optional[int]:
        """Index of the first message matching ``mtype`` (0 = any)."""
        for index, message in enumerate(self.messages):
            if mtype == 0 or message.mtype == mtype:
                return index
        return None


class SysVMsgSystem:
    """The kernel's message-queue subsystem."""

    def __init__(self, machine, scheduler) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self._queues: Dict[int, MessageQueue] = {}
        self._by_key: Dict[int, int] = {}
        self._next_id = 1

    # -- queue management -------------------------------------------------------
    def msgget(self, proc: Proc, key: int, flags: int = 0) -> int:
        """Create or look up a queue; returns the msqid or -errno semantics
        are handled by the syscall wrapper."""
        if key != IPC_PRIVATE and key in self._by_key:
            return self._by_key[key]
        if key != IPC_PRIVATE and not (flags & IPC_CREAT):
            raise KeyError(key)
        msqid = self._next_id
        self._next_id += 1
        queue = MessageQueue(msqid=msqid, key=key, owner_uid=proc.cred.uid)
        self._queues[msqid] = queue
        if key != IPC_PRIVATE:
            self._by_key[key] = msqid
        return msqid

    def msgctl_remove(self, proc: Proc, msqid: int) -> None:
        queue = self._queues.get(msqid)
        if queue is None:
            raise KeyError(msqid)
        if proc.cred.uid not in (0, queue.owner_uid):
            raise PermissionError(Errno.EPERM)
        queue.removed = True
        del self._queues[msqid]
        self._by_key = {k: v for k, v in self._by_key.items() if v != msqid}
        # wake anyone blocked on it so they can observe EIDRM
        self.scheduler.wakeup(queue.wchan)

    def lookup(self, msqid: int) -> Optional[MessageQueue]:
        return self._queues.get(msqid)

    # -- data path ---------------------------------------------------------------
    def msgsnd(self, proc: Proc, msqid: int, message: Message,
               flags: int = 0) -> None:
        """Append a message; wakes any receiver sleeping on the queue."""
        queue = self._queues.get(msqid)
        if queue is None:
            raise KeyError(msqid)
        words = len(message.payload)
        messages = queue.messages
        # an empty queue holds no bytes: only the message itself can
        # overflow it, so the sum over the queue runs only when it has one
        if (4 * words + (queue.queued_bytes if messages else 0)
                > queue.max_bytes):
            if flags & IPC_NOWAIT:
                raise BlockingIOError(Errno.EAGAIN)
            raise SimulationError(
                "queue full and blocking msgsnd is not needed by SecModule")
        machine = self.machine
        machine.charge(costs.MSGQ_SEND)
        machine.charge_words(costs.MSGQ_PER_WORD, words)
        messages.append(message)
        self.scheduler.wakeup(queue.wchan)

    def msgrcv(self, proc: Proc, msqid: int, mtype: int = 0,
               flags: int = 0) -> Optional[Message]:
        """Remove and return the first matching message.

        Returns ``None`` when the queue is empty and ``IPC_NOWAIT`` was not
        given; in that case the caller is expected to have been put to sleep
        on :meth:`block_receiver` — the synchronous dispatch code in
        SecModule and RPC drives that sequencing explicitly.
        """
        queue = self._queues.get(msqid)
        if queue is None:
            raise KeyError(msqid)
        machine = self.machine
        machine.charge(costs.MSGQ_RECV)
        messages = queue.messages
        # the synchronous dispatch finds its message at the head: take it
        # there before scanning
        if messages and (mtype == 0 or messages[0].mtype == mtype):
            index: Optional[int] = 0
        else:
            index = queue.find(mtype)
        if index is None:
            if flags & IPC_NOWAIT:
                raise BlockingIOError(Errno.ENOMSG)
            return None
        message = messages.pop(index)
        machine.charge_words(costs.MSGQ_PER_WORD, len(message.payload))
        return message

    def block_receiver(self, proc: Proc, msqid: int) -> None:
        """Put ``proc`` to sleep until something is sent to ``msqid``."""
        queue = self._queues.get(msqid)
        if queue is None:
            raise KeyError(msqid)
        self.scheduler.sleep(proc, queue.wchan)

    def __len__(self) -> int:
        return len(self._queues)
