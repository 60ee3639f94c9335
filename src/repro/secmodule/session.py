"""SecModule sessions: the Figure 1 handshake and per-session state.

A session binds one client process to one handle co-process for the set of
modules the client's descriptor names.  The establishment sequence follows
Figure 1 step by step:

1. the client's ``crt0`` asks the kernel whether each needed module exists
   (``sys_smod_find``), then issues ``sys_smod_start_session``;
2. the kernel validates the presented credentials against each module's
   policy, *forcibly forks* the handle process, gives it the secret
   stack/heap segment, and starts ``smod_std_handle`` on the secret stack;
3. the handle issues ``sys_smod_session_info``, which force-unmaps its
   data/heap/stack and maps the client's pages over the same range
   (``uvmspace_force_share``), loads the module text, and builds the message
   queues used for synchronization;
4. the client issues ``sys_smod_handle_info`` to complete the shared
   synchronization structures, after which its ``crt0`` transfers control to
   ``smod_client_main()``.

The session also owns the per-call accounting (calls made, quota state) and
the simplest policy of all — "allow access to m for the lifetime of p" —
falls out of the session's lifetime being tied to the client's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..kernel.proc import Proc, ProcFlag
from ..kernel.uvm.layout import SHARE_END, SHARE_START
from ..kernel.uvm.space import uvmspace_force_share, uvmspace_map_window
from ..sim import costs
from .credentials import Credential, validate_credential
from .handle import Handle
from .handle_pool import HandleBroker
from .module import CallEnvironment
from .policy import NO_ATTRIBUTES, PolicyContext, build_policy_context
from .protection import ClientTextGuard, apply_client_protection
from .registry import ModuleRegistry, RegisteredModule
from .stubs import SimStack


@dataclass(frozen=True)
class SessionRequirement:
    """One module the client wants access to, plus the credential it presents."""

    module_name: str
    version: int
    credential: Credential


def build_requirements(modules: Sequence[RegisteredModule], *,
                       principal: str,
                       uid: int) -> Tuple[SessionRequirement, ...]:
    """Issue a credential per registered module and wrap each as a
    :class:`SessionRequirement` (the shared prelude of every session
    (re-)establishment: extra sessions, fork re-establishment, traffic)."""
    return tuple(
        SessionRequirement(
            module_name=module.name, version=module.version,
            credential=module.definition.issuer.issue(principal, uid=uid))
        for module in modules)


@dataclass
class SessionDescriptor:
    """The ``struct smod_session_descriptor`` passed to start_session."""

    requirements: Tuple[SessionRequirement, ...]
    #: opt in to holding several concurrent sessions (the multi-session
    #: traffic engine sets this; the paper's crt0 leaves it off, preserving
    #: the original one-session-per-client rejection)
    allow_multiple: bool = False

    def __post_init__(self) -> None:
        if not self.requirements:
            raise SimulationError("session descriptor names no modules")

    @property
    def words(self) -> int:
        """Approximate size in 32-bit words (charged as a copyin)."""
        return 12 * len(self.requirements)


@dataclass
class Session:
    """One established (or being-established) client/handle pairing."""

    session_id: int
    client: Proc
    handle: Handle
    modules: Dict[int, RegisteredModule] = field(default_factory=dict)
    guards: Dict[int, ClientTextGuard] = field(default_factory=dict)
    request_msqid: int = -1
    reply_msqid: int = -1
    shared_stack: SimStack = None            # lives in the shared region
    established: bool = False
    torn_down: bool = False
    calls_made: int = 0
    #: per-module call counters (for quota policies)
    # smod: guarded-by policy_epoch
    calls_per_module: Dict[int, int] = field(default_factory=dict)
    #: credentials presented at establishment, per module id
    # smod: guarded-by policy_epoch
    credentials: Dict[int, Credential] = field(default_factory=dict)
    #: bumped whenever credential or quota state changes out-of-band; cached
    #: policy decisions recorded under an older epoch become stale
    policy_epoch: int = 0
    #: what the handle's functions run against on every call of this
    #: session; its kernel, client and handle never change, so it is built
    #: once at establishment and goes with the session
    call_env: Optional[CallEnvironment] = field(
        default=None, repr=False, compare=False)

    def module_by_name(self, name: str) -> Optional[RegisteredModule]:
        for module in self.modules.values():
            if module.name == name:
                return module
        return None

    def find_function(self, name: str) -> Optional[Tuple[RegisteredModule, object]]:
        """Locate a protected function by name across the session's modules
        (one probe of each module's name table)."""
        for module in self.modules.values():
            function = module.definition.functions_by_name.get(name)
            if function is not None:
                return module, function
        return None

    def policy_context(self, module: RegisteredModule, function_name: str, *,
                       now_us: float, args_words: int = 0,
                       pending_calls: int = 0,
                       attributes: Optional[dict] = None) -> PolicyContext:
        """``pending_calls`` covers calls already granted but not yet
        executed — the batched dispatch validates a whole queue before any
        entry runs, and quota clauses must see each entry against the count
        *including* its granted predecessors in the same queue."""
        credential = self.credentials[module.m_id]
        cred = self.client.cred
        return build_policy_context((
            credential, cred.uid, cred.gid, credential.principal,
            function_name, now_us,
            self.calls_per_module.get(module.m_id, 0) + pending_calls,
            args_words,
            NO_ATTRIBUTES if attributes is None else dict(attributes)))

    def note_call(self, module: RegisteredModule) -> None:
        self.calls_made += 1
        # smod: allow(EPOCH001)  counting *up* is the uncached hot path:
        # quota chains are never memoized, so advancing the counter cannot
        # stale a cached decision — only out-of-band resets invalidate
        self.calls_per_module[module.m_id] = (
            self.calls_per_module.get(module.m_id, 0) + 1)

    def note_calls(self, m_id: int, n: int) -> None:
        """Bulk form of :meth:`note_call` for the fast-forward tier.

        ``n`` identical executed calls against module ``m_id`` advance the
        same counters a per-call loop would — integer adds commute, so the
        totals are byte-identical.
        """
        self.calls_made += n
        # smod: allow(EPOCH001)  same reasoning as note_call: quota chains
        # are never memoized, so bulk-advancing cannot stale a cached entry
        self.calls_per_module[m_id] = (
            self.calls_per_module.get(m_id, 0) + n)

    def replace_credential(self, m_id: int, credential: Credential) -> None:
        """Swap the credential presented for one module (re-credentialing).

        Bumps ``policy_epoch`` so memoized decisions computed under the old
        credential are invalidated.
        """
        if m_id not in self.credentials:
            raise SimulationError(
                f"session {self.session_id} holds no credential for "
                f"module {m_id}")
        self.credentials[m_id] = credential
        self.policy_epoch += 1

    def reset_quota(self, m_id: Optional[int] = None) -> None:
        """Reset per-module call counters (quota top-up by the module owner).

        Also bumps ``policy_epoch``: quota chains are never cached, but an
        operator resetting quota state must invalidate defensively in case a
        composite mixed static and quota clauses under an older classifier.
        """
        if m_id is None:
            self.calls_per_module.clear()
        else:
            self.calls_per_module.pop(m_id, None)
        self.policy_epoch += 1

    def describe(self) -> str:
        names = ", ".join(sorted(m.name for m in self.modules.values()))
        return (f"session {self.session_id}: client pid={self.client.pid} "
                f"handle pid={self.handle.proc.pid} modules=[{names}] "
                f"established={self.established} calls={self.calls_made}")


#: Default shard count of the kernel session table.  Sharding bounds the
#: entries any one lookup walks when thousands of clients hold sessions
#: (and maps to per-shard locks in a real SMP kernel).
DEFAULT_SESSION_SHARDS = 8

#: The implicit tenant every client belongs to until assigned elsewhere.
#: A single-tenant table is flat — no tenant walk happens and no
#: :data:`~repro.sim.costs.SMOD_TENANT_LOOKUP` is ever charged, keeping the
#: paper-default accounting byte-identical.
DEFAULT_TENANT = 0


class SessionManager:
    """Kernel-side bookkeeping of every SecModule session.

    Sessions live in a sharded table keyed by ``(client_pid, session_id)``;
    one client may hold several concurrent sessions (the multi-session
    traffic engine), so client-side lookups return lists.  Handles are
    provided by the :class:`~repro.secmodule.handle_pool.HandleBroker`:
    under the paper-default ``per_session`` policy each session gets a
    private forked handle (1:1, cycle-identical to the original kernel),
    while ``per_module``/``pooled`` policies let one handle serve several
    sessions — establishment *attaches* and teardown *detaches*, and only
    the last detachment kills a shared handle.
    """

    def __init__(self, kernel, registry: ModuleRegistry, *,
                 n_shards: int = DEFAULT_SESSION_SHARDS,
                 decision_cache=None,
                 broker: Optional[HandleBroker] = None,
                 charge_shard_locks: bool = False) -> None:
        if n_shards < 1:
            raise SimulationError("session table needs at least one shard")
        self.kernel = kernel
        self.registry = registry
        self.n_shards = n_shards
        #: charge :data:`~repro.sim.costs.SMOD_SHARD_LOCK` on every shard
        #: touch.  Off by default: the paper's uniprocessor kernel compiles
        #: the shard locks out, which keeps the Figure 8 runs cycle-identical
        #: to the published setup.  The multi-client traffic engine turns it
        #: on so shard count shows up in cycle accounting under load.
        self.charge_shard_locks = charge_shard_locks
        self.shard_lock_acquisitions = 0
        self.tenant_lookups = 0
        #: authoritative store: shard -> {(client_pid, session_id): Session}
        self._shards: Tuple[Dict[Tuple[int, int], Session], ...] = tuple(
            {} for _ in range(n_shards))
        #: tenant id -> that tenant's shard tuple.  Tenant 0 *is* the flat
        #: table above; extra tenants get their own shard tuples and flip the
        #: table into hierarchical mode (tenant walk, then shard lock).
        self._tenants: Dict[int, Tuple[Dict[Tuple[int, int], Session], ...]] \
            = {DEFAULT_TENANT: self._shards}
        #: client pid -> tenant id (absent = DEFAULT_TENANT)
        self._tenant_of: Dict[int, int] = {}
        #: True once a second tenant table exists; gates the tenant walk so
        #: the single-tenant charge sequence never changes
        self.hierarchical = False
        self._by_id: Dict[int, Session] = {}
        #: pid -> {session_id: None} in establishment order (lookup index;
        #: a dict so teardown removes one id without walking the rest)
        self._client_sessions: Dict[int, Dict[int, None]] = {}
        #: handle pid -> {session_id: None} in attach order (a shared handle
        #: serves several sessions; the paper's 1:1 shape is the length-1 case)
        self._by_handle_pid: Dict[int, Dict[int, None]] = {}
        #: live (not torn down) sessions, total and per tenant — kept
        #: incrementally so ``len()`` and the serve status surface never
        #: scan the table
        self._live_count = 0
        self._live_by_tenant: Dict[int, int] = {}
        self._next_id = 1
        self.denied_establishments: List[str] = []
        #: memoized policy decisions to drop on teardown (may be None)
        self.decision_cache = decision_cache
        #: forks, pools and kills handle co-processes
        self.broker = broker or HandleBroker(kernel)

    def _shard(self, client_pid: int) -> Dict[Tuple[int, int], Session]:
        """Acquire (and charge for) the shard covering ``client_pid``.

        Every read or write of a shard goes through here so the per-shard
        lock acquisition is visible in cycle accounting when
        ``charge_shard_locks`` is on.  In hierarchical (multi-tenant) mode
        the walk is tenant index first, then the tenant's shard — one
        :data:`~repro.sim.costs.SMOD_TENANT_LOOKUP` plus the usual shard
        lock; a flat table skips the tenant level entirely.
        """
        if self.hierarchical:
            tenant = self._tenant_of.get(client_pid, DEFAULT_TENANT)
            shards = self._tenants[tenant]
            if self.charge_shard_locks:
                self.kernel.machine.charge(costs.SMOD_TENANT_LOOKUP)
                self.tenant_lookups += 1
        else:
            shards = self._shards
        if self.charge_shard_locks:
            self.kernel.machine.charge(costs.SMOD_SHARD_LOCK)
            self.shard_lock_acquisitions += 1
        return shards[client_pid % self.n_shards]

    def shard_sizes(self) -> List[int]:
        """Entries per shard (observability for the throughput reports).

        In hierarchical mode the per-shard counts are concatenated in
        tenant-id order, so a flat table reports exactly what it always did.
        """
        return [len(shard) for tenant in sorted(self._tenants)
                for shard in self._tenants[tenant]]

    # ------------------------------------------------------------ tenancy
    def configure_tenant(self, tenant_id: int) -> None:
        """Create (or re-use) a tenant-level session table.

        Creating any tenant other than :data:`DEFAULT_TENANT` switches the
        manager into hierarchical mode: every shard acquisition walks the
        tenant index first and — when shard-lock charging is on — pays one
        :data:`~repro.sim.costs.SMOD_TENANT_LOOKUP` for it.
        """
        if tenant_id < 0:
            raise SimulationError("tenant id must be non-negative")
        if tenant_id not in self._tenants:
            self._tenants[tenant_id] = tuple({} for _ in range(self.n_shards))
        if tenant_id != DEFAULT_TENANT:
            self.hierarchical = True

    def assign_tenant(self, client_pid: int, tenant_id: int) -> None:
        """Bind a client to a tenant before its first session is established.

        Re-assigning a client that already holds sessions would strand its
        table entries in the old tenant's shards, so that is rejected.
        """
        self.configure_tenant(tenant_id)
        if self._client_sessions.get(client_pid):
            raise SimulationError(
                f"client pid {client_pid} already holds sessions; "
                f"tenants are assigned at attach time")
        if tenant_id == DEFAULT_TENANT:
            self._tenant_of.pop(client_pid, None)
        else:
            self._tenant_of[client_pid] = tenant_id

    def tenant_for(self, client_pid: int) -> int:
        return self._tenant_of.get(client_pid, DEFAULT_TENANT)

    def live_sessions_by_tenant(self) -> Dict[int, int]:
        """Live session count per tenant (incremental; O(tenants))."""
        return {tenant: count
                for tenant, count in sorted(self._live_by_tenant.items())
                if count}

    # ------------------------------------------------------------ lookups
    def get(self, session_id: int) -> Optional[Session]:
        return self._by_id.get(session_id)

    def for_client(self, proc: Proc) -> List[Session]:
        """Every live session held by ``proc``, in establishment order."""
        shard = self._shard(proc.pid)
        return [shard[(proc.pid, sid)]
                for sid in self._client_sessions.get(proc.pid, ())
                if (proc.pid, sid) in shard]

    def lookup(self, client_pid: int, session_id: int) -> Optional[Session]:
        """Keyed probe of the (tenant-)sharded table: one shard acquisition.

        This is the service plane's hot lookup — binding resolution walks
        tenant index → shard → key, never scanning the table, so its cost
        stays flat as the live-session count grows.
        """
        # _shard, made in place: every bound call probes here
        if self.hierarchical:
            shards = self._tenants[self._tenant_of.get(client_pid,
                                                       DEFAULT_TENANT)]
            if self.charge_shard_locks:
                self.kernel.machine.charge(costs.SMOD_TENANT_LOOKUP)
                self.tenant_lookups += 1
        else:
            shards = self._shards
        if self.charge_shard_locks:
            self.kernel.machine.charge(costs.SMOD_SHARD_LOCK)
            self.shard_lock_acquisitions += 1
        return shards[client_pid % self.n_shards].get((client_pid,
                                                       session_id))

    def session_for_call(self, proc: Proc, m_id: int,
                         frame=None) -> Optional[Session]:
        """Resolve which of the client's sessions serves a call to ``m_id``.

        When the same module is reachable through several of the client's
        sessions the frame disambiguates: its ``framep`` lives in exactly one
        session's shared region (here: the frame records the shared stack it
        was pushed on).  A frame whose region belongs to no live session —
        e.g. a stale call against a torn-down session — resolves to None
        (EINVAL); dispatching it onto a *different* session's stack would
        corrupt that stack mid-call.  Frameless lookups fall back to the
        first established session holding the module, then the client's
        first session, so the dispatcher reports the precise errno (ENOENT
        vs EINVAL) exactly as the single-session kernel did.
        """
        frame_session_id = getattr(frame, "session_id", None)
        if frame_session_id is not None:
            # the stub recorded which session it pushed the frame for; a
            # frame naming a session the client no longer holds (torn down,
            # detached from its handle) must fail EINVAL, never be re-routed.
            # Torn-down sessions leave the shard at teardown, so one keyed
            # probe resolves this without walking the client's session list
            # (same single shard-lock charge as the list walk paid).  The
            # shard is acquired in place, as in lookup: every protected
            # call resolves here
            pid = proc.pid
            if self.hierarchical:
                shards = self._tenants[self._tenant_of.get(pid,
                                                           DEFAULT_TENANT)]
                if self.charge_shard_locks:
                    self.kernel.machine.charge(costs.SMOD_TENANT_LOOKUP)
                    self.tenant_lookups += 1
            else:
                shards = self._shards
            if self.charge_shard_locks:
                self.kernel.machine.charge(costs.SMOD_SHARD_LOCK)
                self.shard_lock_acquisitions += 1
            return shards[pid % self.n_shards].get((pid, frame_session_id))
        sessions = self.for_client(proc)
        frame_stack = getattr(frame, "stack", None)
        if frame_stack is not None:
            for session in sessions:
                if session.shared_stack is frame_stack:
                    return session
            return None
        for session in sessions:
            if session.established and not session.torn_down \
                    and m_id in session.modules:
                return session
        return sessions[0] if sessions else None

    def for_handle(self, proc: Proc) -> Optional[Session]:
        """The first live session a handle serves (1:1 compatibility view)."""
        sessions = self.sessions_for_handle(proc)
        return sessions[0] if sessions else None

    def sessions_for_handle(self, proc: Proc) -> List[Session]:
        """Every session seated on a handle, in attach order (broker query)."""
        return [self._by_id[sid]
                for sid in self._by_handle_pid.get(proc.pid, ())
                if sid in self._by_id]

    def handle_count(self) -> int:
        """Live handle co-processes currently serving at least one session."""
        return len(self._by_handle_pid)

    def active_sessions(self) -> List[Session]:
        return [s for s in self._by_id.values() if not s.torn_down]

    # ----------------------------------------------------- step 2: start_session
    def start_session(self, client: Proc, descriptor: SessionDescriptor, *,
                      allow_multiple: Optional[bool] = None) -> Session:
        """Validate credentials and forcibly fork the handle (Figure 1 step 2).

        Raises PermissionError when any credential fails validation — the
        syscall wrapper converts that into EACCES.  A second session for the
        same client is rejected unless the descriptor (or the keyword
        override) opts into multi-session operation.
        """
        if allow_multiple is None:
            allow_multiple = descriptor.allow_multiple
        if self.for_client(client) and not allow_multiple:
            raise SimulationError(
                f"client pid {client.pid} already has an active session")
        machine = self.kernel.machine
        now_us = machine.microseconds()

        resolved: List[Tuple[RegisteredModule, Credential]] = []
        for requirement in descriptor.requirements:
            module = self.registry.find(requirement.module_name,
                                        requirement.version)
            if module is None:
                raise LookupError(
                    f"module {requirement.module_name!r} "
                    f"v{requirement.version} is not registered")
            machine.charge(costs.SMOD_SESSION_LOOKUP)
            machine.charge(costs.SMOD_CRED_CHECK)
            outcome = validate_credential(module.definition.issuer,
                                          requirement.credential,
                                          uid=client.cred.uid, now_us=now_us)
            if not outcome.valid:
                self.denied_establishments.append(
                    f"{requirement.module_name}: {outcome.reason}")
                raise PermissionError(
                    f"credential rejected for {requirement.module_name!r}: "
                    f"{outcome.reason}")
            # Session-establishment policy check (per-call checks also run on
            # every dispatch; this one gates the fork itself).
            credential = requirement.credential
            ctx = build_policy_context((
                credential, client.cred.uid, client.cred.gid,
                credential.principal, "<session>", now_us, 0, 0,
                NO_ATTRIBUTES))
            decision = module.definition.policy.evaluate(ctx)
            machine.charge(costs.SMOD_POLICY_STEP, decision.steps)
            if not decision.allowed:
                self.denied_establishments.append(
                    f"{requirement.module_name}: {decision.reason}")
                raise PermissionError(
                    f"policy denied session for {requirement.module_name!r}: "
                    f"{decision.reason}")
            resolved.append((module, requirement.credential))

        machine.trace.emit("smod.session", "smod_start_session",
                           pid=client.pid,
                           detail_modules=[m.name for m, _ in resolved])

        # Ask the broker for a handle: under the paper-default per_session
        # policy this forcibly forks a private handle (Figure 1 step 2,
        # op-for-op); under per_module/pooled policies it may seat the
        # session on an already-live shared handle instead.
        handle, forked = self.broker.attach(
            client, [module for module, _ in resolved])
        handle_proc = handle.proc

        session = Session(
            session_id=self._next_id,
            client=client,
            handle=handle,
            shared_stack=SimStack(name=f"shared-stack[s{self._next_id}]",
                                  machine=machine),
        )
        session.call_env = CallEnvironment(kernel=self.kernel,
                                           session=session, client=client,
                                           handle=handle_proc)
        self._next_id += 1
        for module, credential in resolved:
            session.modules[module.m_id] = module
            session.credentials[module.m_id] = credential
            module.sessions_opened += 1
        self._by_id[session.session_id] = session
        shard = self._shard(client.pid)
        shard[(client.pid, session.session_id)] = session
        self._client_sessions.setdefault(client.pid, {})[
            session.session_id] = None
        self._by_handle_pid.setdefault(handle_proc.pid, {})[
            session.session_id] = None
        self._live_count += 1
        tenant = self.tenant_for(client.pid)
        self._live_by_tenant[tenant] = self._live_by_tenant.get(tenant, 0) + 1
        handle.attach_session(session)
        # proc.smod_session keeps pointing at the client's *primary* (first)
        # session so legacy single-session consumers keep working.
        if client.smod_session is None:
            client.smod_session = session
        # ... and the handle's at the first session it serves.
        if forked or handle_proc.smod_session is None:
            handle_proc.smod_session = session
        return session

    # -------------------------------------------------- step 3: smod_session_info
    def handle_session_info(self, handle_proc: Proc) -> Session:
        """The handle's half of the handshake (Figure 1 step 3).

        A shared handle runs this once per *attached* session: the broker
        query resolves which seated session has not built its message
        queues yet.  For a freshly forked handle that is simply its one
        session, exactly as the 1:1 kernel behaved.
        """
        sessions = self.sessions_for_handle(handle_proc)
        if not sessions:
            raise LookupError(
                f"pid {handle_proc.pid} is not a SecModule handle")
        pending = [s for s in sessions if s.request_msqid < 0]
        session = pending[0] if pending else sessions[-1]
        machine = self.kernel.machine
        machine.trace.emit("smod.session", "smod_session_info",
                           pid=handle_proc.pid)

        if handle_proc.vmspace.smod_peer is None:
            # "forcibly unmaps the entire data, heap, and stack segment of
            # the handle process and forces it to share the memory pages
            # from the same address range from the client process."
            shared_entries = uvmspace_force_share(
                handle_proc.vmspace, session.client.vmspace,
                SHARE_START, SHARE_END)
            machine.trace.emit("smod.uvm", "uvmspace_force_share",
                               pid=handle_proc.pid,
                               detail_entries=shared_entries,
                               detail_range=f"[{SHARE_START:#x},{SHARE_END:#x})")
        else:
            # A shared handle already owns its forked peer's window; an
            # attaching client's window is mapped at a relocated offset so
            # earlier seats stay coherent and heaps never collide.
            shared_entries = uvmspace_map_window(
                handle_proc.vmspace, session.client.vmspace,
                SHARE_START, SHARE_END)
            machine.trace.emit("smod.uvm", "uvmspace_map_window",
                               pid=handle_proc.pid,
                               detail_entries=shared_entries,
                               detail_client=session.client.pid)

        for module in session.modules.values():
            session.handle.load_module_text(module)

        # Synchronization: one request queue (client -> handle) and one reply
        # queue (handle -> client), via the stock SysV MSG interface.
        session.request_msqid = self.kernel.msg.msgget(handle_proc, 0)
        session.reply_msqid = self.kernel.msg.msgget(handle_proc, 0)
        session.handle.mark_ready()
        return session

    # --------------------------------------------------- step 4: smod_handle_info
    def client_handle_info(self, client: Proc) -> Session:
        """The client's final handshake step (Figure 1 step 4).

        With several concurrent sessions per client, this completes the most
        recently started session that has not finished its handshake yet.
        """
        sessions = self.for_client(client)
        if not sessions:
            raise LookupError(f"pid {client.pid} has no SecModule session")
        pending = [s for s in sessions if not s.established]
        session = pending[-1] if pending else sessions[-1]
        if not session.handle.ready:
            raise SimulationError(
                "smod_handle_info called before the handle completed "
                "smod_session_info")
        machine = self.kernel.machine
        machine.trace.emit("smod.session", "smod_handle_info", pid=client.pid)
        for module in session.modules.values():
            guard = apply_client_protection(self.kernel, client, module,
                                            mode=module.protection)
            session.guards[module.m_id] = guard
        session.established = True
        machine.trace.emit("smod.session", "smod_client_main", pid=client.pid)
        return session

    # -------------------------------------------------------------- teardown
    def teardown(self, session: Session, *, kill_handle: bool = True) -> None:
        """Detach the client and the handle seat, release queues.

        With multiple sessions per client only *this* session's state is
        released; the client keeps its SMOD_CLIENT flag (and its peer links
        move to the next surviving session) until the last session dies.
        The handle side mirrors that: a shared handle merely *detaches* the
        session's seat and lives on; it is killed (``kill_handle``
        permitting) only when its last session leaves — the paper's 1:1
        handle always is that last session.
        """
        if session.torn_down:
            return
        session.torn_down = True
        session.established = False
        # the environment points back at the session; dropping it here lets
        # reference counting free a torn-down session without the cycle GC
        session.call_env = None
        client = session.client
        handle_proc = session.handle.proc

        # drop this session from the sharded table and the client index first
        shard = self._shard(client.pid)
        shard.pop((client.pid, session.session_id), None)
        remaining_ids = self._client_sessions.get(client.pid, {})
        remaining_ids.pop(session.session_id, None)
        self._live_count -= 1
        tenant = self.tenant_for(client.pid)
        self._live_by_tenant[tenant] = self._live_by_tenant.get(tenant, 1) - 1
        survivors = self.for_client(client)

        if survivors:
            primary = survivors[0]
            client.smod_session = primary
            client.smod_peer = primary.handle.proc
            primary_space = primary.handle.proc.vmspace
            # vm-level peering (obreak propagation) only ever binds a handle
            # to the client it force-shared with; a surviving session seated
            # on someone else's pooled handle must not steal that link
            client.vmspace.smod_peer = (
                primary_space if primary_space.smod_peer is client.vmspace
                else None)
        else:
            client.clear_flag(ProcFlag.SMOD_CLIENT)
            client.smod_session = None
            client.smod_peer = None
            client.vmspace.smod_peer = None
            self._client_sessions.pop(client.pid, None)

        # handle side: release this session's seat
        seated_ids = self._by_handle_pid.get(handle_proc.pid, {})
        seated_ids.pop(session.session_id, None)
        last_seat = not seated_ids
        if last_seat:
            handle_proc.smod_session = None
        elif handle_proc.smod_session is session:
            handle_proc.smod_session = self._by_id.get(next(iter(seated_ids)))
        for msqid in (session.request_msqid, session.reply_msqid):
            if msqid >= 0 and self.kernel.msg.lookup(msqid) is not None:
                try:
                    self.kernel.msg.msgctl_remove(self.kernel.proc0, msqid)
                except KeyError:
                    pass
        session.handle.detach_session(session)
        self.broker.detach(session, last=last_seat, kill=kill_handle)
        if last_seat:
            self._by_handle_pid.pop(handle_proc.pid, None)
        if self.decision_cache is not None:
            self.decision_cache.invalidate_session(session.session_id)
        self.kernel.machine.trace.emit("smod.session", "teardown",
                                       pid=client.pid,
                                       detail_session=session.session_id)

    def teardown_all_for_client(self, client: Proc, *,
                                kill_handle: bool = True) -> int:
        """Tear down every session a client holds (exit/execve path).

        A teardown that raises mid-list must not strand the client's
        *later* sessions half-attached: every remaining session is still
        torn down, and the first error is re-raised afterwards rather than
        swallowed.
        """
        sessions = self.for_client(client)
        first_error: Optional[BaseException] = None
        for session in sessions:
            try:
                self.teardown(session, kill_handle=kill_handle)
            except BaseException as exc:      # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return len(sessions)

    def __len__(self) -> int:
        return self._live_count
