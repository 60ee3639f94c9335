"""Client/handle stubs and the shared-stack calling convention (Figure 3).

The paper dedicates Figure 3 to the stack discipline around a protected
call, because it is both the correctness argument (the real library function
sees a perfectly ordinary stack frame) and part of the cost (the stub and
the kernel duplicate and strip a handful of words per call):

* **step (1)** — inside the client's assembly stub (e.g.
  ``SMOD_client_malloc``) the stack holds the caller's arguments, the return
  address and the caller's frame pointer;
* **step (2)** — the stub pushes the ``(moduleID, funcID)`` pair and then
  duplicates the return-address/frame-pointer pair so the kernel has a
  correct view of the frame without architecture-specific digging;
* **step (3)** — the handle, inside ``smod_stub_receive()`` running on its
  *secret* stack, pops everything above ``arg1`` and relays to the real
  function, which therefore sees ``args...`` exactly as a normal call would;
* **step (4)** — ``smod_stub_receive()`` pushes back the exact same words
  the client stub had seen so the return lands at the original call site.

The simulation represents the shared stack as an explicit list of typed
slots so each step above is a small, assertable transformation, and charges
:data:`~repro.sim.costs.USER_STACK_WORD` /
:data:`~repro.sim.costs.SMOD_STACK_FIXUP_WORD` per word moved.

Slots are immutable, so the words that are the same on every call through
one stub — step (2)'s four words and the return-address/frame-pointer pair
that steps (1) and (4) push — are built once per stub and pushed as they
are, and so is the request message ``sys_smod_call`` sends for them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Any, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..kernel.sysv_msg import Message
from ..sim import costs


class SlotKind(enum.Enum):
    ARG = "arg"
    RETURN_ADDRESS = "ret"
    FRAME_POINTER = "fp"
    MODULE_ID = "m_id"
    FUNC_ID = "func_id"
    SAVED = "saved"            # generic spill used by the handle-side stub


class StackSlot(NamedTuple):
    kind: SlotKind
    value: Any

    def describe(self) -> str:
        return f"{self.kind.value}={self.value}"


#: StackSlot from a ``(kind, value)`` pair, without NamedTuple's Python frame
_slot = partial(tuple.__new__, StackSlot)
_kind = itemgetter(0)
_value = itemgetter(1)

_FP, _RET, _ARG = SlotKind.FRAME_POINTER, SlotKind.RETURN_ADDRESS, SlotKind.ARG
_SAVED = SlotKind.SAVED
#: step (2)'s words in push order; step (3)'s (all above arg1) topmost first
_STEP2 = (SlotKind.MODULE_ID, SlotKind.FUNC_ID, _RET, _FP)
_STEP3 = _STEP2[::-1] + (_FP, _RET)
#: the same words bottom first, as they lie in a stack's slot list
_STEP3_UP = _STEP3[::-1]
#: the secret-stack words step (3) saves and step (4) drops
_STEP3_SAVED = (_SAVED,) * len(_STEP3)

#: where the client stub's call frame says it returns to, unless told
DEFAULT_RETURN_ADDRESS = 0x0804_8123
DEFAULT_FRAME_POINTER = 0xCFBF_0000


class SimStack:
    """A downward-growing stack of typed slots.

    ``machine`` may be None for pure unit tests; when present, pushes and
    pops by *user* code charge USER_STACK_WORD and pushes/pops by the stub
    fix-up paths charge SMOD_STACK_FIXUP_WORD, one unit charge per word.
    """

    def __init__(self, name: str = "stack", machine=None,
                 capacity: int = 4096) -> None:
        self.name = name
        self.machine = machine
        self.capacity = capacity
        self.slots: List[StackSlot] = []

    def push_slots(self, new: Sequence[StackSlot], *,
                   cost_op: Optional[str] = costs.USER_STACK_WORD) -> None:
        """Push ``new`` (a tuple or list of slots) as one run; overflow
        raises after the words that fit, as a word-by-word push would."""
        slots = self.slots
        count = len(new)
        fit = self.capacity - len(slots)
        if count <= fit:                    # the common case: it all fits
            slots += new
            fit = count
        elif fit > 0:
            slots += new[:fit]
        else:
            fit = 0
        machine = self.machine
        if fit and machine is not None and cost_op is not None:
            # smod: allow(COST002)  the push call sites pass USER_STACK_WORD
            # or SMOD_STACK_FIXUP_WORD, both costs constants
            machine.charge_each(cost_op, fit)
        if fit < count:
            raise SimulationError(f"stack {self.name!r} overflow")

    def push_words(self, kinds: Sequence[SlotKind], values: Sequence[Any], *,
                   cost_op: Optional[str] = costs.USER_STACK_WORD) -> None:
        """Push ``values`` (typed by ``kinds``) as one run of new slots;
        see :meth:`push_slots`."""
        self.push_slots(tuple(map(_slot, zip(kinds, values))),
                        cost_op=cost_op)

    def matching(self, expected: Sequence[Optional[SlotKind]]) -> int:
        """How many top words, topmost first, match ``expected`` (None: any)."""
        kinds = tuple(map(_kind, self.slots[:-len(expected) - 1:-1]))
        if kinds == expected:           # the common case: every word as told
            return len(kinds)
        for index, (want, kind) in enumerate(zip(expected, kinds)):
            if want is not None and kind is not want:
                return index
        return len(kinds)

    def pop_clean(self, expected: Sequence[Optional[SlotKind]], *,
                  cost_op: Optional[str] = costs.USER_STACK_WORD
                  ) -> List[StackSlot]:
        """Pop the top words, topmost first, for as long as they match
        ``expected`` (None: any), as one charged run; stops short, without
        raising, at a word of the wrong kind or at the bottom."""
        slots = self.slots
        popped = slots[:-len(expected) - 1:-1]          # topmost first
        if tuple(map(_kind, popped)) != expected:       # a word to stop at
            popped = popped[:self.matching(expected)]
        clean = len(popped)
        if clean:
            del slots[-clean:]
            machine = self.machine
            if machine is not None and cost_op is not None:
                # smod: allow(COST002)  the pop call sites pass
                # USER_STACK_WORD or SMOD_STACK_FIXUP_WORD, costs constants
                machine.charge_each(cost_op, clean)
        return popped

    def pop_words(self, expected: Sequence[Optional[SlotKind]], *,
                  cost_op: Optional[str] = costs.USER_STACK_WORD
                  ) -> List[StackSlot]:
        """Pop one word per ``expected`` kind (None: any) as one run, topmost
        first; a failing word raises after the clean words before it are
        popped and charged, as a word-by-word pop would."""
        popped = self.pop_clean(expected, cost_op=cost_op)
        clean = len(popped)
        if clean < len(expected):
            slots = self.slots
            if not slots:
                raise SimulationError(f"stack {self.name!r} underflow")
            raise SimulationError(
                f"stack discipline violated on {self.name!r}: expected "
                f"{expected[clean].value}, popped {slots.pop().kind.value}")
        return popped

    def push(self, kind: SlotKind, value: Any, *,
             cost_op: Optional[str] = costs.USER_STACK_WORD) -> StackSlot:
        self.push_words((kind,), (value,), cost_op=cost_op)
        return self.slots[-1]

    def pop(self, expected: Optional[SlotKind] = None, *,
            cost_op: Optional[str] = costs.USER_STACK_WORD) -> StackSlot:
        return self.pop_words((expected,), cost_op=cost_op)[0]

    def peek(self, depth: int = 0) -> StackSlot:
        if depth >= len(self.slots):
            raise SimulationError(f"stack {self.name!r} peek past bottom")
        return self.slots[-1 - depth]

    def snapshot(self) -> Tuple[StackSlot, ...]:
        """Immutable copy of the slots, bottom first (used by Figure 3)."""
        return tuple(self.slots)

    def depth(self) -> int:
        return len(self.slots)

    def describe(self) -> str:
        if not self.slots:
            return f"{self.name}: <empty>"
        rendered = ", ".join(s.describe() for s in self.slots)
        return f"{self.name} (bottom→top): {rendered}"

    def __len__(self) -> int:
        return len(self.slots)


#: the checkpoints of a frame that records none: one shared, read-only map
NO_CHECKPOINTS: Mapping[str, Tuple[StackSlot, ...]] = MappingProxyType({})


class StubCallFrame(NamedTuple):
    """Everything the client stub placed on the shared stack for one call.

    Immutable (a recorded frame's checkpoints fill in as the call runs);
    the stubs build it with :data:`_frame`, which runs no Python frame.
    """

    module_id: int
    func_id: int
    args: Tuple[Any, ...]
    return_address: int
    frame_pointer: int
    #: the two fields above as the slots step (1) pushed and step (4)
    #: restores; the stub builds them once and every frame shares them
    ret_fp: Tuple[StackSlot, ...]
    #: the request ``sys_smod_call`` sends the handle for this frame: its
    #: ``(m_id, func_id, return address)``, built once per stub and return
    #: address and shared by every frame (messages are never mutated)
    request: Message
    #: the shared stack the frame was pushed on — the simulation's stand-in
    #: for the ``framep`` address, which tells a multi-session kernel *which*
    #: of the client's shared regions the frame lives in
    stack: Optional[SimStack] = None
    #: the session the stub pushed the frame for; a shared (pooled) handle
    #: routes the frame to that session's secret-stack segment, and the
    #: kernel rejects frames naming a torn-down session with EINVAL
    session_id: Optional[int] = None
    #: snapshots of the shared stack at the four Figure 3 checkpoints (a
    #: fresh dict when the push records them)
    checkpoints: Mapping[str, Tuple[StackSlot, ...]] = NO_CHECKPOINTS


#: StubCallFrame from its ten fields in order, without NamedTuple's frame
_frame = partial(tuple.__new__, StubCallFrame)


class ClientStub:
    """The client-side assembly stub (``smod_stub_call`` / ``SMOD_client_*``).

    One instance is generated per protected function by the toolchain's stub
    generator; at run time it manipulates the shared stack exactly as
    Figure 3 steps (1)–(2) describe, then traps into ``sys_smod_call``.
    """

    def __init__(self, function_name: str, module_id: int, func_id: int, *,
                 arg_words: int = 1) -> None:
        self.function_name = function_name
        self.module_id = module_id
        self.func_id = func_id
        self.arg_words = arg_words
        self._fixed = self._fixed_slots(DEFAULT_RETURN_ADDRESS,
                                        DEFAULT_FRAME_POINTER)

    def _fixed_slots(self, return_address: int, frame_pointer: int) -> Tuple:
        """``(ret, fp, ret/fp pair, step (2)'s words, request)``: the slots
        a call through this stub pushes whatever its arguments, and the
        request message its frame sends."""
        ret_fp = (_slot((_RET, return_address)), _slot((_FP, frame_pointer)))
        return (return_address, frame_pointer, ret_fp,
                (_slot((SlotKind.MODULE_ID, self.module_id)),
                 _slot((SlotKind.FUNC_ID, self.func_id))) + ret_fp,
                Message(mtype=1, payload=(self.module_id, self.func_id,
                                          return_address)))

    def _slots_for(self, return_address: int, frame_pointer: int) -> Tuple:
        """:meth:`_fixed_slots` for one call frame, rebuilt only when the
        frame returns elsewhere than the last one did."""
        fixed = self._fixed
        if fixed[0] != return_address or fixed[1] != frame_pointer:
            fixed = self._fixed = self._fixed_slots(return_address,
                                                    frame_pointer)
        return fixed

    @property
    def symbol(self) -> str:
        return f"SMOD_client_{self.function_name}"

    def push_call(self, stack: SimStack, args: Sequence[Any], *,
                  return_address: int = DEFAULT_RETURN_ADDRESS,
                  frame_pointer: int = DEFAULT_FRAME_POINTER,
                  session_id: Optional[int] = None,
                  record_checkpoints: bool = False) -> StubCallFrame:
        """Perform Figure 3 steps (1) and (2) on ``stack`` for a call of
        ``session_id``'s session."""
        _, _, ret_fp, step2, request = self._slots_for(return_address,
                                                       frame_pointer)
        args = tuple(args)
        frame = _frame((self.module_id, self.func_id, args, return_address,
                        frame_pointer, ret_fp, request, stack, session_id,
                        {} if record_checkpoints else NO_CHECKPOINTS))
        # Step (1): the ordinary call left args (pushed right-to-left), the
        # return address, and the saved frame pointer on the stack.
        stack.push_slots(tuple(map(_slot, zip(repeat(_ARG), reversed(args))))
                         + ret_fp)
        if record_checkpoints:
            frame.checkpoints["step1"] = stack.snapshot()
        # Step (2): the stub pushes the identifier pair and duplicates the
        # top two elements so the kernel has the correct view of the frame.
        stack.push_slots(step2, cost_op=costs.SMOD_STACK_FIXUP_WORD)
        if record_checkpoints:
            frame.checkpoints["step2"] = stack.snapshot()
        return frame

    def pop_return(self, stack: SimStack, frame: StubCallFrame) -> None:
        """Unwind the original step (1) frame after the call returns."""
        stack.pop_words(returned_frame_kinds(frame))


def returned_frame_kinds(frame: StubCallFrame) -> Tuple[SlotKind, ...]:
    """A returned frame's words, topmost first: fp, ret, then the args."""
    return (_FP, _RET) + (_ARG,) * len(frame.args)


def unwind_client_frame(stack: SimStack, frame: StubCallFrame) -> None:
    """Pop one full step-2 frame that will never (or did not) execute.

    Used on two paths: the dispatcher's denied-call unwind and the handle's
    drain of batch entries whose per-entry validation failed.  The whole
    unwind is stub fix-up work, so every pop — the duplicated fp/ret pair,
    the id pair, *and* the original frame — is charged at
    :data:`~repro.sim.costs.SMOD_STACK_FIXUP_WORD`, mirroring the push path
    above where the stub (not ordinary user code) put the extra words there.
    """
    # duplicated fp/ret, func/module ids, then the original frame (unchecked)
    stack.pop_words((None,) * (6 + len(frame.args)),
                    cost_op=costs.SMOD_STACK_FIXUP_WORD)


@dataclass
class BatchCallFrame:
    """A super-frame: N complete stub frames pushed back to back.

    Each entry's frame is byte-for-byte the single-call step-2 layout, so
    the handle can relay every entry through the ordinary
    :func:`smod_stub_receive` and a failed entry unwinds with the ordinary
    denied-call pops — the batch changes *when* the two context switches
    happen, never the per-frame stack discipline.  The stub pushes the
    *last* queued call first, so the first submission ends up topmost and
    the handle's LIFO drain executes the queue in submission (FIFO) order.
    """

    #: per-entry frames in submission order (frames[0] is topmost on stack)
    frames: List[StubCallFrame] = field(default_factory=list)
    #: the shared stack the super-frame lives on (``framep`` disambiguation,
    #: exactly as on the single-call path)
    stack: Optional[SimStack] = None
    #: the session the whole queue targets (a super-frame never spans
    #: sessions); shared handles route the drain with this
    session_id: Optional[int] = None

    def __len__(self) -> int:
        return len(self.frames)


class BatchStub:
    """The client-side batching stub (``smod_stub_call_batch``).

    Protected calls are queued in user space and flushed as one super-frame
    through a single ``sys_smod_call_batch`` trap, amortizing the trap and
    the two context switches over the whole queue.  Queueing is free at the
    stub level (the args were going onto the stack anyway); the flush pushes
    every queued frame in the ordinary single-call layout.
    """

    def __init__(self) -> None:
        self.queue: List[Tuple[ClientStub, Tuple[Any, ...]]] = []

    def enqueue(self, stub: ClientStub, args: Sequence[Any]) -> None:
        self.queue.append((stub, tuple(args)))

    def __len__(self) -> int:
        return len(self.queue)

    def words_needed(self) -> int:
        """Stack words one flush will push: args + 6 stub words per frame."""
        return sum(len(args) + 6 for _, args in self.queue)

    def push_batch(self, stack: SimStack, *,
                   session_id: Optional[int] = None) -> BatchCallFrame:
        """Flush the queue: push newest first, so the oldest call is topmost
        and the handle's stack-ordered drain runs the queue FIFO.

        The capacity check happens **before** the first push: a queue that
        cannot fit must fail cleanly rather than overflow halfway through
        and strand a partial super-frame on the shared stack.  Then every
        frame's step (1) and (2) words go on in one extend, charged as two
        runs: one :data:`~repro.sim.costs.USER_STACK_WORD` run of
        Σ(args + 2) and one :data:`~repro.sim.costs.SMOD_STACK_FIXUP_WORD`
        run of 4 per frame.  The slots, cycles, events and op counts are
        those of pushing frame by frame; only the order of the two ops
        inside the flush's span differs, and nothing reads the clock in
        between.  ``session_id`` goes on the super-frame and every frame.
        """
        needed = self.words_needed()
        if stack.depth() + needed > stack.capacity:
            raise SimulationError(
                f"batch of {len(self.queue)} calls ({needed} "
                f"words) cannot fit on stack {stack.name!r} "
                f"(depth {stack.depth()}/{stack.capacity}); flush a smaller "
                f"queue")
        frames = []
        slots: List[StackSlot] = []
        for stub, args in reversed(self.queue):
            _, _, ret_fp, step2, request = stub._slots_for(
                DEFAULT_RETURN_ADDRESS, DEFAULT_FRAME_POINTER)
            frames.append(_frame((
                stub.module_id, stub.func_id, args, DEFAULT_RETURN_ADDRESS,
                DEFAULT_FRAME_POINTER, ret_fp, request, stack, session_id,
                NO_CHECKPOINTS)))
            slots += map(_slot, zip(repeat(_ARG), reversed(args)))
            slots += ret_fp
            slots += step2
        stack.slots += slots
        machine = stack.machine
        if machine is not None:
            fixups = 4 * len(frames)
            machine.charge_each(costs.USER_STACK_WORD, needed - fixups)
            machine.charge_each(costs.SMOD_STACK_FIXUP_WORD, fixups)
        self.queue.clear()
        frames.reverse()
        return BatchCallFrame(frames=frames, stack=stack,
                              session_id=session_id)


def smod_stub_receive(stack: SimStack, frame: StubCallFrame, function,
                      env, *, secret_stack: Optional[SimStack] = None,
                      record_checkpoints: bool = False,
                      drain: bool = False) -> Any:
    """The handle-side stub (Figure 3 steps (3) and (4), and Figure 5's
    ``smod_stub_receive(shmsegp, funcp)``).

    ``secret_stack`` is the handle's private stack: the stub's own
    bookkeeping happens there so it cannot disturb the shared stack (the
    paper is explicit about this — the stub "sets the stack to the shared
    stack before relaying the call").

    ``drain=True`` is the handle's batch drain: after step (4) the frame's
    remains — the restored ret/fp pair, then the args — are popped as stub
    fix-up work, since in a batch the client never revisits single frames.

    Each step is one charged run of fix-up words when the stacks pass its
    checks.  Step (3) checks the six words above arg1 and the secret
    stack's room, moves the six words and charges 12.  Step (4) checks the
    six saved words, the shared stack's room for ret/fp and, when
    draining, the args' kinds, then charges 8, or 10 + args when draining:
    the ret/fp pair step (4) pushes is the pair the drain pops next, so
    neither move happens.  A stack that fails a check takes the
    word-by-word steps from that point, so it charges the same words and
    raises the same :class:`SimulationError`.  Back-to-back runs of one op
    log, count and tick the clock exactly as one run does.
    """
    secret = secret_stack if secret_stack is not None else SimStack("secret")
    machine = stack.machine
    one_meter = secret.machine is machine
    slots = stack.slots
    saved = secret.slots

    # Step (3): pop everything above arg1 — the duplicated fp/ret pair and
    # the identifier pair — saving them on the secret stack, then the
    # original fp/ret pair so only the args remain visible to the callee.
    top = slots[-6:]
    if (one_meter and len(saved) + 6 <= secret.capacity
            and tuple(map(_kind, top)) == _STEP3_UP):
        del slots[-6:]
        saved += map(_slot, zip(repeat(_SAVED), map(_value, reversed(top))))
        if machine is not None:
            machine.charge_each(costs.SMOD_STACK_FIXUP_WORD, 12)
    else:
        _step3_words(stack, secret)
    if record_checkpoints:
        frame.checkpoints["step3"] = stack.snapshot()

    # The callee runs against the shared stack: it sees args exactly as a
    # normal (non-SecModule) call would, and may read/write any client data.
    args = frame.args
    result = function.invoke(env, *args)

    # Step (4): restore the exact words the client stub had seen so that the
    # eventual return lands back at the original call site.
    slots = stack.slots
    saved = secret.slots
    n = len(args)
    if (one_meter and tuple(map(_kind, saved[-6:])) == _STEP3_SAVED
            and len(slots) + 2 <= stack.capacity
            and (not drain or not n
                 or tuple(map(_kind, slots[-n:])) == (_ARG,) * n)):
        del saved[-6:]
        if not drain:
            slots += frame.ret_fp
        elif n:
            del slots[-n:]
        if machine is not None:
            machine.charge_each(costs.SMOD_STACK_FIXUP_WORD,
                                10 + n if drain else 8)
    else:
        secret.pop_words(_STEP3_SAVED, cost_op=costs.SMOD_STACK_FIXUP_WORD)
        stack.push_slots(frame.ret_fp, cost_op=costs.SMOD_STACK_FIXUP_WORD)
        if drain:
            stack.pop_words(returned_frame_kinds(frame),
                            cost_op=costs.SMOD_STACK_FIXUP_WORD)
    if record_checkpoints:
        frame.checkpoints["step4"] = stack.snapshot()
    return result


def _step3_words(stack: SimStack, secret: SimStack) -> None:
    """Step (3) on stacks that fail its checks, word-accurate: the clean
    run stops where the secret stack fills, and the word it stops at
    (wrong kind, bottom, full secret) then raises on its own."""
    room = secret.capacity - len(secret.slots)
    saved = stack.pop_clean(
        _STEP3 if room >= len(_STEP3) else _STEP3[:max(0, room)],
        cost_op=costs.SMOD_STACK_FIXUP_WORD)
    secret.push_slots(tuple(map(_slot, zip(repeat(_SAVED),
                                           map(_value, saved)))),
                      cost_op=costs.SMOD_STACK_FIXUP_WORD)
    clean = len(saved)
    if clean < len(_STEP3):
        slot = stack.pop(_STEP3[clean], cost_op=costs.SMOD_STACK_FIXUP_WORD)
        secret.push(_SAVED, slot.value, cost_op=costs.SMOD_STACK_FIXUP_WORD)


@dataclass(frozen=True)
class StubDescriptor:
    """Metadata the stub generator emits for one protected function."""

    function_name: str
    client_symbol: str
    module_name: str
    func_id: int
    arg_words: int
    assembly: str

    def __str__(self) -> str:   # pragma: no cover - cosmetic
        return f"{self.client_symbol} -> {self.module_name}:{self.func_id}"
