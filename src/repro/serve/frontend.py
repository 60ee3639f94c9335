"""The served front-end: SecModule as a backend behind an RPC service.

``ServiceFrontend`` is the service plane's data path.  It owns:

- a :class:`~repro.serve.discovery.BackendRegistry` naming each served
  module set (backends resolve by name or integer id, health-checked
  against the handle broker);
- one :class:`~repro.serve.attachment_pool.AttachmentPool` per backend,
  whose attachments are worker sessions established by a per-backend
  worker process (``allow_multiple`` sessions, one per attachment) — the
  front-end's own bounded connections to the broker;
- the *binding* table for stateful clients: each ``attach`` establishes a
  real per-client session in the (tenant-)sharded session table, and every
  bound call resolves binding → session with one keyed shard probe
  (:meth:`~repro.secmodule.session.SessionManager.lookup`) — an index
  walk, never a scan, so lookup cost stays flat at 10^6 live sessions;
- an optional rpcgen-generated RPC surface (program ``smodserve``), so
  remote clients reach the front-end over the existing loopback transport
  exactly like the paper's RPC baseline reaches ``testincr``.

Charging: every front-end operation is accounted with the SERVE_* cost
ops plus whatever the underlying session/dispatch machinery charges.
Constructing a front-end charges nothing; with ``charge_ops=False`` the
service plane adds *zero* cycles over direct dispatch (the compiled-out
contract, pinned by the differential tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..control.overload import CircuitBreaker, OverloadConfig, RetryBudget
from ..errors import SimulationError
from ..kernel.errno import Errno
from ..rpc.rpcgen import (BoundClient, GeneratedService, InterfaceDefinition,
                          generate_service)
from ..secmodule.credentials import DEFAULT_PRINCIPAL, DEFAULT_UID
from ..secmodule.dispatch import DispatchConfig, DispatchOutcome
from ..secmodule.session import (DEFAULT_TENANT, SessionDescriptor,
                                 build_requirements)
from ..sim import costs
from ..userland.process import Program
from .attachment_pool import AttachmentPool, Checkout, PoolConfig
from .discovery import (STATE_CODES, STATE_DOWN, STATE_UP, BackendRecord,
                        BackendRegistry)

#: the smodserve RPC program number (testincr is 0x20000101)
SERVE_PROG = 0x20000201
#: the service port, bound by a root server (the RPC baseline owns 2049)
SERVE_PORT = 3049


@dataclass(frozen=True)
class ServiceConfig:
    """Front-end configuration (frozen: one service, one shape)."""

    #: the attachment-pool shape of every registered backend
    pool: PoolConfig = PoolConfig()
    #: charge the SERVE_* ops (False = cycle-transparent service plane)
    charge_ops: bool = True
    #: raise the kernel's process-table cap (10^6-session runs need one
    #: surrogate client per session plus the pooled handles)
    max_procs: Optional[int] = None
    #: overload protection (breakers, deadline shedding, retry budgets);
    #: None = unprotected, every data path byte-identical to before
    overload: Optional[OverloadConfig] = None


@dataclass
class Binding:
    """One attached client: its program, session and home backend."""

    binding_id: int
    client: Program
    session: object                     # secmodule Session
    backend: BackendRecord
    tenant: int = DEFAULT_TENANT
    calls: int = 0


class ServiceFrontend:
    """Accepts clients, resolves backends, pools attachments, dispatches."""

    def __init__(self, kernel, extension, *,
                 config: Optional[ServiceConfig] = None) -> None:
        self.kernel = kernel
        self.extension = extension
        self.config = config or ServiceConfig()
        #: the machine's observation plane (never charges the clock)
        self.telemetry = kernel.machine.telemetry
        self.registry = BackendRegistry(kernel, extension,
                                        charge_ops=self.config.charge_ops)
        self._pools: Dict[str, AttachmentPool] = {}
        self._workers: Dict[str, Program] = {}
        self._bindings: Dict[int, Binding] = {}
        self._next_binding = 1
        self._service: Optional[GeneratedService] = None
        #: out-of-band arrival register: RPC arguments are plain ints, so a
        #: traffic driver passes the scheduled (virtual, fractional) arrival
        #: time of the next pooled call here, like a transport timestamp
        self._pending_arrival_us: Optional[float] = None
        self._us_of = kernel.machine.meter.profile.microseconds
        if self.config.max_procs is not None and \
                self.config.max_procs > kernel.procs.max_procs:
            kernel.procs.max_procs = self.config.max_procs
        # observability
        self.attaches = 0
        self.detaches = 0
        self.bound_calls = 0
        self.pooled_calls = 0
        self.down_refusals = 0
        self.breaker_refusals = 0
        #: per-backend RPC-stub retry budgets (OverloadConfig.retry_budget)
        self._retry_budgets: Dict[str, RetryBudget] = {}

    # --------------------------------------------------------------- plumbing
    def _now_us(self) -> float:
        return self._us_of(self.kernel.machine.clock.cycles)

    def _charge(self, operation: str) -> None:
        if self.config.charge_ops:
            # smod: allow(COST002)  forwarding wrapper; call sites name
            # the SERVE_* costs constants
            self.kernel.machine.charge(operation)

    def _descriptor(self, record: BackendRecord) -> SessionDescriptor:
        return SessionDescriptor(
            build_requirements(record.modules, principal=DEFAULT_PRINCIPAL,
                               uid=DEFAULT_UID),
            allow_multiple=True)

    # --------------------------------------------------------------- backends
    def register_backend(self, name: str, modules, *,
                         policy: Union[str, object] = "pooled:64"
                         ) -> BackendRecord:
        """Name a module set as a served backend and give it a pool.

        The pool takes its shape from ``ServiceConfig.pool``, its charging
        from ``ServiceConfig.charge_ops`` and its shed deadline from the
        overload config's ``deadline_us``.
        """
        record = self.registry.register(name, modules, policy=policy)
        overload = self.config.overload
        shed_deadline_us = 0.0
        if overload is not None:
            shed_deadline_us = overload.deadline_us
            if overload.breaker_enabled:
                record.breaker = CircuitBreaker(name, overload)
            if overload.retry_enabled:
                self._retry_budgets[name] = RetryBudget(overload.retry_budget)
        self._pools[name] = AttachmentPool(
            name, lambda rec=record: self._worker_session(rec),
            kernel=self.kernel, config=self.config.pool,
            charge_ops=self.config.charge_ops,
            shed_deadline_us=shed_deadline_us)
        return record

    def pool(self, backend_name: str) -> AttachmentPool:
        try:
            return self._pools[backend_name]
        except KeyError:
            raise SimulationError(
                f"backend {backend_name!r} has no attachment pool") from None

    def _worker_session(self, record: BackendRecord):
        """Pool factory: establish one worker session on the backend.

        All of a backend's attachments belong to one front-end worker
        process (the served analogue of a connection pool owned by one
        server), established through the ordinary crt0 handshake so every
        establishment cost is charged exactly as a direct client's would be.
        """
        worker = self._workers.get(record.name)
        if worker is None:
            worker = Program.spawn(self.kernel,
                                   f"serve-worker[{record.name}]",
                                   uid=DEFAULT_UID)
            self._workers[record.name] = worker
        session_id = worker.smod_crt0_startup(self.extension,
                                              self._descriptor(record))
        return self.extension.sessions.get(session_id)

    # --------------------------------------------------------------- bindings
    def attach(self, backend: Union[str, int, BackendRecord], *,
               tenant: int = DEFAULT_TENANT,
               client: Optional[Program] = None,
               name: Optional[str] = None) -> Binding:
        """Admit a client: resolve the backend, establish its session.

        The session lands in the (tenant-)sharded table under the client's
        pid; ``tenant`` routes it to a tenant-level table in hierarchical
        deployments.  A front-end-spawned surrogate program stands in for
        remote clients that exist only across the RPC boundary.
        """
        telemetry = self.telemetry
        span = telemetry.start("rpc.attach") if telemetry.enabled else None
        record = self.registry.resolve(backend)
        if record.state != STATE_UP:
            if span is not None:
                telemetry.finish(span)
            raise SimulationError(
                f"backend {record.name!r} is {record.state}; "
                f"not accepting new bindings")
        binding_id = self._next_binding
        if client is None:
            client = Program.spawn(self.kernel,
                                   name or f"svc-client{binding_id}",
                                   uid=DEFAULT_UID)
        if telemetry.spans:
            span.client_id = client.proc.pid
        sessions = self.extension.sessions
        if tenant != sessions.tenant_for(client.proc.pid):
            sessions.assign_tenant(client.proc.pid, tenant)
        try:
            session_id = client.smod_crt0_startup(self.extension,
                                                  self._descriptor(record))
        except PermissionError as refused:
            # the kernel refused the session, e.g. no process-table slot
            # for the handle fork: a refusal like any other, not a crash
            if span is not None:
                telemetry.finish(span)
            raise SimulationError(
                f"attach to backend {record.name!r} refused: {refused}"
            ) from refused
        session = sessions.get(session_id)
        binding = Binding(binding_id=binding_id, client=client,
                          session=session, backend=record, tenant=tenant)
        self._bindings[binding_id] = binding
        self._next_binding += 1
        self.attaches += 1
        if telemetry.spans:
            span.session_id = session.session_id
        if span is not None:
            telemetry.finish(span)
        return binding

    def detach(self, binding_id: int, *, kill_handle: bool = True) -> None:
        """Tear down a binding's session and drop it from the table."""
        binding = self._bindings.pop(binding_id, None)
        if binding is None:
            raise SimulationError(f"unknown binding {binding_id}")
        if not binding.session.torn_down:
            self.extension.sessions.teardown(binding.session,
                                             kill_handle=kill_handle)
        self.detaches += 1

    def binding(self, binding_id: int) -> Optional[Binding]:
        return self._bindings.get(binding_id)

    # ------------------------------------------------------------------ calls
    def call_bound(self, binding_id: int, function_name: str, *args,
                   config: DispatchConfig = DispatchConfig()
                   ) -> DispatchOutcome:
        """Dispatch on a client binding: service-table resolve + keyed probe.

        The binding resolve charges one SERVE_BACKEND_RESOLVE (the service
        table is the same kind of kernel-side map as the discovery
        registry); the session comes back through one keyed shard probe —
        cost independent of the live-session count.
        """
        binding = self._bindings.get(binding_id)
        if binding is None:
            return DispatchOutcome(errno=Errno.EINVAL)
        telemetry = self.telemetry
        span = resolve = None
        if telemetry.enabled:
            span = telemetry.start("serve.call",
                                   client_id=binding.client.proc.pid,
                                   session_id=binding.session.session_id)
            resolve = telemetry.start("serve.resolve")
        self._charge(costs.SERVE_BACKEND_RESOLVE)
        session = self.extension.sessions.lookup(
            binding.client.proc.pid, binding.session.session_id)
        if resolve is not None:
            telemetry.finish(resolve)
        if session is None:
            if span is not None:
                telemetry.finish(span)
            return DispatchOutcome(errno=Errno.EINVAL)
        binding.calls += 1
        self.bound_calls += 1
        outcome = self.extension.dispatcher.call(session, function_name,
                                                 *args, config=config)
        if span is not None:
            telemetry.finish(span)
        return outcome

    def call_pooled(self, backend: Union[str, int, BackendRecord],
                    function_name: str, *args,
                    arrival_us: Optional[float] = None,
                    config: DispatchConfig = DispatchConfig()
                    ) -> Tuple[DispatchOutcome, Checkout]:
        """Stateless dispatch through the backend's attachment pool.

        ``arrival_us`` is the call's virtual arrival time (defaults to now);
        pool waits and refusals are decided against it.  Returns the
        dispatch outcome plus the checkout record (wait/refusal detail).
        """
        telemetry = self.telemetry
        span = telemetry.start("serve.pooled") if telemetry.enabled else None
        record = self.registry.resolve(backend)
        now_us = self._now_us() if arrival_us is None else arrival_us
        breaker = record.breaker
        if breaker is not None:
            self._charge(costs.SERVE_BREAKER_CHECK)
            allowed, transition = breaker.allow(now_us)
            if transition is not None:
                self._breaker_transition(record.name, transition, now_us)
            if not allowed:
                # open breaker: fail fast, never touch the pool — the
                # whole point is that the refusal costs almost nothing
                self.breaker_refusals += 1
                self._charge(costs.SERVE_SHED)
                refusal = Checkout(
                    attachment=None, start_us=now_us, wait_us=0.0,
                    refused=True,
                    reason=f"backend {record.name!r} breaker open")
                if span is not None:
                    telemetry.finish(span)
                return DispatchOutcome(errno=Errno.EAGAIN), refusal
        if record.state == STATE_DOWN:
            self.down_refusals += 1
            refusal = Checkout(attachment=None, start_us=now_us, wait_us=0.0,
                               refused=True,
                               reason=f"backend {record.name!r} is down")
            self._breaker_outcome(record, now_us, False)
            if span is not None:
                telemetry.finish(span)
            return DispatchOutcome(errno=Errno.EAGAIN), refusal
        pool = self.pool(record.name)
        checkout = pool.checkout(now_us)
        if not checkout.ok:
            self._breaker_outcome(record, now_us, False)
            if span is not None:
                telemetry.finish(span)
            return DispatchOutcome(errno=Errno.EAGAIN), checkout
        if telemetry.spans:
            span.session_id = checkout.attachment.session.session_id
        before_us = self._now_us()
        outcome = self.extension.dispatcher.call(
            checkout.attachment.session, function_name, *args, config=config)
        service_us = self._now_us() - before_us
        pool.checkin(checkout.attachment, checkout.start_us + service_us)
        self.pooled_calls += 1
        self._breaker_outcome(record, now_us, outcome.ok)
        if span is not None:
            telemetry.finish(span)
        return outcome, checkout

    def _breaker_outcome(self, record: BackendRecord, now_us: float,
                         ok: bool) -> None:
        """Fold one call outcome into the backend's breaker (if any)."""
        breaker = record.breaker
        if breaker is None:
            return
        transition = breaker.record(now_us, ok)
        if transition is not None:
            self._breaker_transition(record.name, transition, now_us)

    def _breaker_transition(self, backend: str, state: str,
                            now_us: float) -> None:
        """A breaker changed state: observe it and charge the trip op."""
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.record_breaker_state(backend, state, now_us)
        self._charge(costs.SERVE_BREAKER_TRIP)

    # ---------------------------------------------------------------- status
    def status(self, *, probe: bool = True) -> Dict[str, object]:
        """The front-end's observability surface (JSON-serializable).

        ``probe=True`` runs a (charged) health check per backend; ``False``
        reports last-known states only.
        """
        sessions = self.extension.sessions
        now_us = self._now_us()
        backends = self.registry.snapshot()
        if probe:
            for name in backends:
                report = self.registry.health_check(name)
                backends[name]["state"] = report.state
                backends[name]["handles"] = report.handles
                backends[name]["live_handles"] = report.live_handles
                backends[name]["seated_sessions"] = report.seated_sessions
        dispatcher = self.extension.dispatcher
        overload: Dict[str, object] = {
            "down_refusals": self.down_refusals,
            "breaker_refusals": self.breaker_refusals,
            "pool_sheds": {name: pool.sheds
                           for name, pool in sorted(self._pools.items())},
            "broker_seat_sheds": self.extension.broker.seat_sheds,
            "dispatcher_calls_shed": dispatcher.calls_shed,
            "breakers": {
                record.name: record.breaker.snapshot()
                for record in self.registry.backends()
                if record.breaker is not None},
            "retry_budgets": {
                name: budget.snapshot()
                for name, budget in sorted(self._retry_budgets.items())},
        }
        if dispatcher.overload is not None:
            overload["admission"] = dispatcher.overload.snapshot()
        return {
            "now_us": now_us,
            "live_sessions": len(sessions),
            "sessions_by_tenant": sessions.live_sessions_by_tenant(),
            "bindings": len(self._bindings),
            "attaches": self.attaches,
            "detaches": self.detaches,
            "bound_calls": self.bound_calls,
            "pooled_calls": self.pooled_calls,
            "backends": backends,
            "pools": {name: pool.stats(now_us)
                      for name, pool in sorted(self._pools.items())},
            "broker": self.extension.broker.snapshot(),
            "overload": overload,
        }

    # ----------------------------------------------------------- RPC surface
    def note_arrival(self, at_us: float) -> None:
        """Stash the next pooled call's virtual arrival time (see ctor)."""
        self._pending_arrival_us = at_us

    def _take_arrival(self) -> Optional[float]:
        arrival, self._pending_arrival_us = self._pending_arrival_us, None
        return arrival

    def _switch_back(self) -> None:
        # dispatch/attach leave the scheduler on a client or handle; the
        # reply path runs in the server process, so return control (one
        # charged context switch, as a real kernel would pay)
        if self._service is not None:
            self.kernel.sched.switch_to(self._service.server.proc)

    def _function_of(self, record: BackendRecord, m_id: int,
                     func_id: int) -> Optional[Tuple[object, object]]:
        module = record.module_by_id(m_id)
        if module is None:
            return None
        try:
            function = module.definition.function_by_id(func_id)
        except (KeyError, AttributeError):
            return None
        if function is None:
            return None
        return module, function

    def _rpc_attach(self, args: List[int]) -> int:
        backend_id, tenant = args[0], (args[1] if len(args) > 1 else 0)
        try:
            binding = self.attach(backend_id, tenant=tenant)
        except SimulationError:
            self._switch_back()
            return -int(Errno.EAGAIN)
        self._switch_back()
        return binding.binding_id

    def _rpc_detach(self, args: List[int]) -> int:
        try:
            self.detach(args[0])
        except SimulationError:
            self._switch_back()
            return -int(Errno.EINVAL)
        self._switch_back()
        return 0

    def _call_args(self, function, arg: int) -> tuple:
        return (arg,) if getattr(function, "arg_words", 0) else ()

    def _rpc_call(self, args: List[int]) -> int:
        binding_id, m_id, func_id, arg = args
        binding = self._bindings.get(binding_id)
        if binding is None:
            return -int(Errno.EINVAL)
        found = self._function_of(binding.backend, m_id, func_id)
        if found is None:
            return -int(Errno.ENOENT)
        _, function = found
        outcome = self.call_bound(binding_id, function.name,
                                  *self._call_args(function, arg))
        self._switch_back()
        if not outcome.ok:
            return -int(outcome.errno)
        return int(outcome.value) if isinstance(outcome.value, int) else 0

    def _rpc_call_pooled(self, args: List[int]) -> int:
        backend_id, m_id, func_id, arg = args
        arrival_us = self._take_arrival()
        try:
            record = self.registry.resolve(backend_id)
        except SimulationError:
            return -int(Errno.ENOENT)
        found = self._function_of(record, m_id, func_id)
        if found is None:
            return -int(Errno.ENOENT)
        _, function = found
        outcome, checkout = self.call_pooled(
            record, function.name, *self._call_args(function, arg),
            arrival_us=arrival_us)
        self._switch_back()
        if checkout.refused:
            return -int(Errno.EAGAIN)
        if not outcome.ok:
            return -int(outcome.errno)
        return int(outcome.value) if isinstance(outcome.value, int) else 0

    def _rpc_probe(self, args: List[int]) -> int:
        try:
            report = self.registry.health_check(args[0])
        except SimulationError:
            return -int(Errno.ENOENT)
        return STATE_CODES[report.state]

    def interface(self) -> InterfaceDefinition:
        """The smodserve ``.x`` definition (rpcgen input)."""
        iface = InterfaceDefinition(name="smodserve", prog=SERVE_PROG,
                                    vers=1)
        iface.add_procedure(1, "serve_ping", lambda args: 0,
                            arg_names=(), doc="liveness probe")
        iface.add_procedure(2, "serve_attach", self._rpc_attach,
                            arg_names=("backend_id", "tenant"),
                            doc="establish a client binding")
        iface.add_procedure(3, "serve_call", self._rpc_call,
                            arg_names=("binding_id", "m_id", "func_id",
                                       "arg"),
                            doc="dispatch on a client binding")
        iface.add_procedure(4, "serve_call_pooled", self._rpc_call_pooled,
                            arg_names=("backend_id", "m_id", "func_id",
                                       "arg"),
                            doc="stateless dispatch via the attachment pool")
        iface.add_procedure(5, "serve_detach", self._rpc_detach,
                            arg_names=("binding_id",),
                            doc="tear down a client binding")
        iface.add_procedure(6, "serve_probe", self._rpc_probe,
                            arg_names=("backend_id",),
                            doc="health-check a backend (0=up 1=draining "
                                "2=down)")
        return iface

    def start(self) -> GeneratedService:
        """Install the RPC surface (idempotent); local paths never need it."""
        if self._service is None:
            self._service = generate_service(self.kernel, self.interface(),
                                             port=SERVE_PORT)
        return self._service

    @property
    def service(self) -> Optional[GeneratedService]:
        return self._service

    def make_client(self, proc) -> BoundClient:
        """Bind an RPC client proc to the (started) service.

        When the front-end's overload config grants retry budgets, the
        stub is wired to retry EAGAIN replies against the per-backend
        budget with deterministic virtual-time backoff.
        """
        client = self.start().make_client(self.kernel, proc)
        if self._retry_budgets:
            client.retry_policy = self._retry_budget_for_rpc
            client.retry_observer = self._note_retry
        return client

    def retry_budget(self, backend_name: str) -> Optional[RetryBudget]:
        return self._retry_budgets.get(backend_name)

    def _retry_budget_for_rpc(self, procedure_name: str,
                              args) -> Optional[RetryBudget]:
        """Stub-side budget routing: the procedures whose first argument
        names a backend retry against that backend's budget."""
        if procedure_name not in ("serve_call_pooled", "serve_attach"):
            return None
        record = self.registry.peek(args[0]) if args else None
        if record is None:
            return None
        return self._retry_budgets.get(record.name)

    def _note_retry(self, procedure_name: str, args, outcome: str) -> None:
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        record = self.registry.peek(args[0]) if args else None
        backend = record.name if record is not None else procedure_name
        telemetry.record_retry(backend, outcome)
