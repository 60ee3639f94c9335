"""The handle co-process.

"The handle h is a 'co-process' that is started upon request for access to
m" (§3).  It is the only process that ever holds the plaintext of the
protected functions; it shares the client's data/heap/stack (but not text);
it owns a small secret stack/heap the client cannot see; and it spends its
life blocked on a message queue waiting for ``sys_smod_call`` relays.

The :class:`Handle` object wraps the handle's kernel process together with
that SecModule-specific state.  Its :meth:`receive_call` is the simulated
``smod_std_handle`` / ``smod_stub_receive`` pair: it runs on the secret
stack, relays to the real function on the shared stack, and restores the
frame before replying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import SimulationError
from ..kernel.proc import Proc, ProcFlag
from ..kernel.uvm.layout import SECRET_BASE, SECRET_SIZE
from ..sim import costs
from .module import CallEnvironment, SecFunction
from .protection import handle_plaintext_view
from .registry import RegisteredModule
from .stubs import (
    BatchCallFrame,
    SimStack,
    StubCallFrame,
    smod_stub_receive,
    unwind_client_frame,
)


@dataclass
class LoadedModule:
    """One module's text as mapped (decrypted) into the handle."""

    module: RegisteredModule
    text_entry_name: str
    plaintext_bytes: int

    @property
    def m_id(self) -> int:
        return self.module.m_id


class Handle:
    """A SecModule handle co-process and its kernel-visible state.

    With the handle broker a handle may serve *several* sessions: each
    attached session gets its own secret-stack segment (carved out of the
    handle's secret region) and a routing-table entry, and the handle
    resolves the calling session from the ``session_id`` the client stub
    recorded in the frame.  A handle serving exactly one session — the
    paper's shape — routes for free, so the per-session path stays
    cycle-identical.
    """

    def __init__(self, kernel, proc: Proc, client: Proc) -> None:
        if not proc.has_flag(ProcFlag.SMOD_HANDLE):
            raise SimulationError("handle process must carry the SMOD_HANDLE flag")
        self.kernel = kernel
        self.proc = proc
        #: the client the handle was forked from (its address-space template);
        #: attached sessions may belong to other clients — see ``clients``
        self.client = client
        self.secret_stack = SimStack(name=f"secret-stack[pid {proc.pid}]",
                                     machine=kernel.machine)
        #: routing table: session_id -> attached Session; the per-receive
        #: routing charge depends on the seat count, so recorded dispatch
        #: traces go stale on every change
        # smod: guarded-by trace_epoch
        self.attached_sessions: Dict[int, object] = {}
        #: per-session secret-stack segments (first session uses the
        #: original ``secret_stack`` so the 1:1 shape is byte-identical)
        self.session_stacks: Dict[int, SimStack] = {}
        self.loaded: Dict[int, LoadedModule] = {}
        self.ready = False
        self.calls_served = 0
        #: bumped on every seat attach/detach: the per-receive routing charge
        #: is a function of the seat count, so recorded dispatch traces keyed
        #: under an older epoch must fall back to the slow path and re-record
        self.trace_epoch = 0

    # ------------------------------------------------------------- setup steps
    def map_secret_region(self) -> None:
        """Create the secret stack/heap segment (Figure 2's hatched region)."""
        if self.proc.vmspace.vm_map.find_entry("smod_secret") is not None:
            return
        self.proc.vmspace.map_secret_region()
        self.kernel.machine.trace.emit(
            "smod.session", "map_secret_region", pid=self.proc.pid,
            detail_base=hex(SECRET_BASE), detail_size=SECRET_SIZE)

    def load_module_text(self, module: RegisteredModule) -> LoadedModule:
        """Map the module's (decrypted) text into the handle's address space.

        "This system call may load in additional code segments as needed to
        fulfill the requirements of the module" — the paper attributes this
        to ``smod_session_info``, which is the caller of this method.
        """
        if module.m_id in self.loaded:
            return self.loaded[module.m_id]
        plaintext = handle_plaintext_view(module)
        if plaintext is None:
            raise SimulationError(
                f"module {module.name!r} has no text to load into the handle")
        if module.protection.uses_encryption:
            # every handle pays for decrypting the text into its own address
            # space, however often the host actually ran the cipher
            blocks = max(1, len(plaintext) // 8)
            self.kernel.machine.charge(costs.CIPHER_BLOCK, blocks)
        entry = self.proc.vmspace.map_text(
            f"smod:{module.name}:text", plaintext)
        entry.no_core = True
        loaded = LoadedModule(module=module, text_entry_name=entry.name,
                              plaintext_bytes=len(plaintext))
        self.loaded[module.m_id] = loaded
        self.kernel.machine.trace.emit(
            "smod.session", "load_module_text", pid=self.proc.pid,
            detail_module=module.name, detail_bytes=len(plaintext))
        return loaded

    def mark_ready(self) -> None:
        self.ready = True

    # ---------------------------------------------------------- session seats
    @property
    def session_count(self) -> int:
        return len(self.attached_sessions)

    @property
    def clients(self) -> List[Proc]:
        """Distinct client processes of the attached sessions."""
        seen: List[Proc] = []
        for session in self.attached_sessions.values():
            if session.client not in seen:
                seen.append(session.client)
        return seen

    def attach_session(self, session) -> None:
        """Add a routing-table entry and a secret-stack segment for a session."""
        if session.session_id in self.attached_sessions:
            return
        self.trace_epoch += 1
        self.attached_sessions[session.session_id] = session
        if not self.session_stacks:
            # the first seat uses the original secret stack — the 1:1 shape
            self.session_stacks[session.session_id] = self.secret_stack
        else:
            self.session_stacks[session.session_id] = SimStack(
                name=f"secret-stack[pid {self.proc.pid}/s{session.session_id}]",
                machine=self.kernel.machine)

    def detach_session(self, session) -> None:
        if session.session_id in self.attached_sessions:
            self.trace_epoch += 1
        self.attached_sessions.pop(session.session_id, None)
        self.session_stacks.pop(session.session_id, None)

    # --------------------------------------------------------------- call path
    def _begin_receive(self, what: str, frame, depth: int) -> SimStack:
        """A receive's handshake check, routing walk and queue-depth tap.

        Shared handles pay a routing-table walk per received request.  The
        walk is logarithmic in the number of seats (the table is a small
        balanced tree in the real kernel); a handle serving one session
        routes for free, keeping the paper path cycle-identical.
        """
        if not self.ready:
            raise SimulationError(
                f"handle pid {self.proc.pid} received a {what} before the "
                f"session handshake completed")
        machine = self.kernel.machine
        seats = len(self.attached_sessions)
        if seats > 1:
            machine.charge(costs.SMOD_POOL_ROUTE,
                           max(1, (seats - 1).bit_length()))
        telemetry = machine.telemetry
        if telemetry.enabled:
            telemetry.record_handle_queue(self.proc.pid, depth)
        # the secret segment serving the frame's session (frame-level
        # routing); a session without its own segment uses the original
        return self.session_stacks.get(getattr(frame, "session_id", None),
                                        self.secret_stack)

    def lookup_function(self, m_id: int, func_id: int) -> Optional[SecFunction]:
        loaded = self.loaded.get(m_id)
        if loaded is None:
            return None
        return loaded.module.definition.functions_by_id.get(func_id)

    def receive_call(self, shared_stack: SimStack, frame: StubCallFrame,
                     function: SecFunction, env: CallEnvironment, *,
                     record_checkpoints: bool = False) -> Any:
        """Execute one relayed call (``smod_stub_receive`` on the secret stack)."""
        # a single-call receive drains a queue of depth 1
        secret = self._begin_receive("call", frame, 1)
        result = smod_stub_receive(shared_stack, frame, function, env,
                                   secret_stack=secret,
                                   record_checkpoints=record_checkpoints)
        self.calls_served += 1
        return result

    def receive_batch(self, shared_stack: SimStack, batch: BatchCallFrame,
                      plan, env: CallEnvironment) -> Dict[int, Any]:
        """Drain one super-frame: execute every allowed entry, unwind the rest.

        ``plan`` is one ``(function, allowed)`` pair per entry of ``batch``
        (submission order).  The stub pushed the queue newest-first, so the
        topmost frame is the *first* submission and the drain executes the
        queue in FIFO order; each allowed entry relays through
        :func:`smod_stub_receive` in its drain mode, which also pops the
        entry's remains (restored ret/fp, then args) as stub fix-up work —
        in a batch the client never revisits individual frames, so the
        handle, not the client stub, leaves the stack clean.  Denied
        entries unwind with the exact denied-call pops of the single path.

        Returns ``{entry index: result}`` for the entries that executed.
        """
        frames = batch.frames
        if self.ready and len(plan) != len(frames):
            raise SimulationError(
                f"batch plan names {len(plan)} entries for "
                f"{len(frames)} frames")
        # one routing-table walk serves the whole queue (all entries of a
        # super-frame belong to one session)
        secret = self._begin_receive("batch", batch, len(frames))
        results: Dict[int, Any] = {}
        for index, (frame, (function, allowed)) in enumerate(
                zip(frames, plan)):
            if not allowed or function is None:
                unwind_client_frame(shared_stack, frame)
                continue
            results[index] = smod_stub_receive(
                shared_stack, frame, function, env, secret_stack=secret,
                drain=True)
            self.calls_served += 1
        return results

    # ----------------------------------------------------------------- teardown
    def kill(self) -> None:
        """Terminate the handle process (used by execve/exit special handling)."""
        if self.proc.alive:
            self.kernel.exit_process(self.proc, status=0)

    def describe(self) -> str:
        modules = ", ".join(f"{m.module.name}#{m_id}"
                            for m_id, m in sorted(self.loaded.items()))
        return (f"handle pid={self.proc.pid} for client pid={self.client.pid} "
                f"ready={self.ready} sessions={self.session_count} "
                f"modules=[{modules}]")
