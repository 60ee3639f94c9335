"""Handle-pool attachment: decoupling handle co-processes from sessions.

The paper's prototype forks one handle co-process per session — the 1:1
shape that makes session establishment cost a full ``fork`` plus a module
text decryption, and that multiplies resident handle processes by the
number of connected clients.  Per-library privilege domains (Mir,
arXiv:2011.00253) and the LSM overhead literature (arXiv:2101.11611) both
argue the protection state should be *shared* across callers and amortized.

:class:`HandleBroker` is that sharing point.  Module owners register a
:class:`HandlePolicy` per module:

* ``per_session`` — today's behaviour and the paper default: every
  ``start_session`` forks a private handle.  This path is op-for-op
  cycle-identical to the pre-broker kernel.
* ``per_module`` — one handle serves every session naming the same module
  set, however many clients attach (an unbounded pool).
* ``pooled(max_sessions=N)`` — handles are shared up to ``N`` sessions
  each; the broker forks a new handle only when every pooled handle for
  that module set is full.

``SessionManager.start_session`` *attaches* a session through the broker
instead of forking directly; teardown *detaches*, and only the last
detachment kills a shared handle.  A shared handle keeps one secret-stack
segment and one routing-table entry per attached session, and resolves the
calling session from the ``session_id`` the client stub records in every
frame.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import SimulationError
from ..kernel.proc import Proc, ProcFlag
from ..sim import costs
from ..sim.stats import jain_fairness_index
from .handle import Handle

#: Policy kinds, in increasing order of sharing.
PER_SESSION = "per_session"
POOLED = "pooled"
PER_MODULE = "per_module"

_KINDS = (PER_SESSION, POOLED, PER_MODULE)

#: a forked handle's flags and the flags a seated client gains, built once
#: (each enum.Flag ``|`` runs three Python frames)
_HANDLE_FLAGS = ProcFlag.SMOD_HANDLE | ProcFlag.NOCORE | ProcFlag.NOTRACE
_CLIENT_FLAGS = ProcFlag.SMOD_CLIENT | ProcFlag.NOCORE


@dataclass(frozen=True)
class HandlePolicy:
    """How many sessions one handle co-process may serve.

    ``max_sessions`` is the per-handle cap: ``0`` means unbounded (the
    ``per_module`` pool), and it is ignored for ``per_session`` handles,
    which never serve more than one session by construction.
    """

    kind: str = PER_SESSION
    max_sessions: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SimulationError(f"unknown handle policy kind {self.kind!r}")
        if self.kind == POOLED and self.max_sessions < 1:
            raise SimulationError("pooled handle policy needs max_sessions >= 1")

    # ------------------------------------------------------------ constructors
    @classmethod
    def per_session(cls) -> "HandlePolicy":
        """The paper default: fork one private handle per session."""
        return cls(kind=PER_SESSION)

    @classmethod
    def per_module(cls) -> "HandlePolicy":
        """One handle per module set, shared by every attaching session."""
        return cls(kind=PER_MODULE)

    @classmethod
    def pooled(cls, max_sessions: int) -> "HandlePolicy":
        """Share handles up to ``max_sessions`` sessions each."""
        return cls(kind=POOLED, max_sessions=int(max_sessions))

    @classmethod
    def parse(cls, value: Union["HandlePolicy", str, None], *,
              max_sessions: int = 0) -> "HandlePolicy":
        """Accept a policy object or a spec string.

        Strings: ``"per_session"``, ``"per_module"``, ``"pooled"`` (cap
        taken from ``max_sessions``) or ``"pooled:N"``.
        """
        if value is None:
            return cls.per_session()
        if isinstance(value, HandlePolicy):
            return value
        text = str(value).strip().lower().replace("-", "_")
        if text == PER_SESSION:
            return cls.per_session()
        if text == PER_MODULE:
            return cls.per_module()
        if text == POOLED:
            if max_sessions < 1:
                raise SimulationError(
                    "handle policy 'pooled' needs a max_sessions cap")
            return cls.pooled(max_sessions)
        if text.startswith("pooled:"):
            try:
                cap = int(text.split(":", 1)[1])
            except ValueError:
                raise SimulationError(
                    f"handle policy {value!r} needs an integer cap, "
                    f"e.g. 'pooled:8'") from None
            return cls.pooled(cap)
        raise SimulationError(f"unknown handle policy {value!r}")

    # -------------------------------------------------------------- predicates
    @property
    def shares_handles(self) -> bool:
        return self.kind != PER_SESSION

    def seats_per_handle(self) -> int:
        """Sessions one handle may hold (0 = unbounded)."""
        if self.kind == PER_SESSION:
            return 1
        if self.kind == POOLED:
            return self.max_sessions
        return 0

    def combine(self, other: "HandlePolicy") -> "HandlePolicy":
        """Most-restrictive merge, for sessions spanning several modules.

        Any ``per_session`` module forces a private handle for the whole
        session; otherwise the smallest finite cap wins; two unbounded
        policies stay unbounded.
        """
        if self.kind == PER_SESSION or other.kind == PER_SESSION:
            return HandlePolicy.per_session()
        caps = [p.max_sessions for p in (self, other) if p.max_sessions > 0]
        if not caps:
            return HandlePolicy.per_module()
        return HandlePolicy.pooled(min(caps))

    def describe(self) -> str:
        if self.kind == POOLED:
            return f"pooled(max_sessions={self.max_sessions})"
        return self.kind


class HandleBroker:
    """Kernel-side owner of handle co-processes and their session seats.

    The broker is the only component that forks, pools and kills handles.
    ``SessionManager`` asks it to :meth:`attach` at session establishment
    and to :meth:`detach` at teardown; the sharded session table itself
    stays in the session manager.
    """

    def __init__(self, kernel, *,
                 default_policy: Optional[HandlePolicy] = None) -> None:
        self.kernel = kernel
        self.default_policy = default_policy or HandlePolicy.per_session()
        #: module name -> owner-registered policy override
        self._module_policies: Dict[str, HandlePolicy] = {}
        #: pool key (sorted m_id tuple) -> shared handles, oldest first
        self._pools: Dict[Tuple[int, ...], List[Handle]] = {}
        #: free-seat index per pool: a lazy min-heap of ``(fork_seq, pid)``
        #: for handles that may still have open seats.  The paper-faithful
        #: seat order is "oldest live non-full handle first" — exactly the
        #: smallest fork sequence number — so popping the heap reproduces
        #: the old linear scan without walking the pool (O(n) per attach
        #: became the bottleneck at served-session scale).  Entries go stale
        #: when a handle fills or dies; they are discarded lazily on pop and
        #: re-pushed whenever a detach frees a seat.
        self._free_seats: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
        #: handle pid -> (pool key, fork seq): O(1) detach and heap re-push
        self._pool_slot: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        #: fork seqs currently represented by a heap entry (dedupe guard:
        #: a full handle's entry is retired once, restored once per refill)
        self._seat_entries: set = set()
        self._fork_seq = 0
        # observability
        self.handles_forked = 0
        self.handles_killed = 0
        self.attachments = 0        # sessions seated on an already-live handle
        self.detachments = 0
        #: seat-queue deadline shedding: calls whose queueing delay already
        #: exceeds this are shed at admission (0.0 = off, the default —
        #: drivers consult :meth:`admit_delay` before dispatching)
        self.shed_deadline_us = 0.0
        self.seat_sheds = 0
        #: the machine's observation plane: per-seat queueing delays and
        #: sheds (pure observation, never charges the clock)
        self.telemetry = kernel.machine.telemetry
        #: the dispatcher's trace cache (wired by SmodExtension): a seat
        #: joining or leaving a shared handle changes the routing cost every
        #: *other* seated session pays per call, so their recorded traces
        #: are dropped eagerly here (the per-replay seat-epoch guard would
        #: catch them anyway; this keeps the cache from pooling dead keys)
        self.trace_cache = None

    def _invalidate_seat_traces(self, handle: Handle) -> None:
        if self.trace_cache is None:
            return
        for session_id in list(handle.attached_sessions):
            self.trace_cache.invalidate_session(session_id)

    # ---------------------------------------------------------------- policies
    def register_policy(self, module_name: str,
                        policy: Union[HandlePolicy, str]) -> HandlePolicy:
        """Module-owner registration: how this module's handles may be shared."""
        parsed = HandlePolicy.parse(policy)
        self._module_policies[module_name] = parsed
        return parsed

    def pool_members(self, modules: Sequence) -> Tuple[Handle, ...]:
        """The shared-handle pool covering ``modules`` (may be empty).

        Pure observation for health checks and status surfaces — no charge,
        no mutation; the caller decides what liveness means.
        """
        key = tuple(sorted(module.m_id for module in modules))
        return tuple(self._pools.get(key, ()))

    def policy_for(self, modules: Sequence) -> HandlePolicy:
        """Effective policy for a session naming ``modules`` (most restrictive
        of the per-module registrations; unregistered modules use the broker
        default)."""
        effective: Optional[HandlePolicy] = None
        for module in modules:
            policy = self._module_policies.get(module.name,
                                               self.default_policy)
            effective = policy if effective is None \
                else effective.combine(policy)
        return effective or self.default_policy

    # ------------------------------------------------------------------ attach
    def attach(self, client: Proc, modules: Sequence) -> Tuple[Handle, bool]:
        """Seat a new session: reuse a pooled handle or fork a fresh one.

        Returns ``(handle, forked)``.  The fork path is the paper's forced
        fork, op-for-op; the reuse path charges a single
        :data:`~repro.sim.costs.SMOD_POOL_ATTACH` (routing-table insert plus
        secret-segment carve-out) instead of ``fork`` + text decryption.
        """
        policy = self.policy_for(modules)
        key = tuple(sorted(module.m_id for module in modules))
        if policy.shares_handles:
            seats = policy.seats_per_handle()
            heap = self._free_seats.get(key)
            while heap:
                seq, pid, handle = heap[0]
                slot = self._pool_slot.get(pid)
                if (slot is None or slot[1] != seq
                        or not handle.proc.alive
                        or (seats and handle.session_count >= seats)):
                    # stale: the handle died, left the pool, or filled up
                    heapq.heappop(heap)
                    self._seat_entries.discard(seq)
                    continue
                self._attach_existing(handle, client)
                return handle, False
        handle = self._fork_handle(client)
        if policy.shares_handles:
            self._pools.setdefault(key, []).append(handle)
            seq = self._fork_seq
            self._fork_seq += 1
            self._pool_slot[handle.proc.pid] = (key, seq)
            heapq.heappush(self._free_seats.setdefault(key, []),
                           (seq, handle.proc.pid, handle))
            self._seat_entries.add(seq)
        return handle, True

    def _fork_handle(self, client: Proc) -> Handle:
        """The paper's forced fork (Figure 1 step 2), verbatim."""
        machine = self.kernel.machine
        # "the kernel forcibly forks the child process, creates a small,
        # secret heap/stack segment for the handle, and executes the
        # function smod_std_handle(), using the secret stack."
        handle_proc = self.kernel.fork_process(
            client, name=f"smod-handle[{client.name}]",
            flags=_HANDLE_FLAGS)
        client.set_flag(_CLIENT_FLAGS)
        handle_proc.smod_peer = client
        client.smod_peer = handle_proc
        machine.trace.emit("smod.session", "smod_std_handle",
                           pid=handle_proc.pid)
        handle = Handle(self.kernel, handle_proc, client)
        handle.map_secret_region()
        self.handles_forked += 1
        return handle

    def _attach_existing(self, handle: Handle, client: Proc) -> None:
        """Seat a session on a live handle: no fork, no text decryption."""
        machine = self.kernel.machine
        machine.charge(costs.SMOD_POOL_ATTACH)
        client.set_flag(_CLIENT_FLAGS)
        client.smod_peer = handle.proc
        machine.trace.emit("smod.pool", "attach", pid=client.pid,
                           detail_handle=handle.proc.pid,
                           detail_seats=handle.session_count + 1)
        self.attachments += 1
        self._invalidate_seat_traces(handle)

    # ------------------------------------------------------------------ detach
    def detach(self, session, *, last: bool, kill: bool = True) -> bool:
        """Release one session's seat; kill the handle when the last leaves.

        Returns True when the handle process was killed.  ``kill=False``
        (handle already dead, e.g. it crashed) still removes the pool entry
        so a later attach can never seat a session on a corpse.
        """
        handle = session.handle
        self.detachments += 1
        slot = self._pool_slot.get(handle.proc.pid)
        if not last:
            # the survivors' routing cost just changed: drop their traces
            self._invalidate_seat_traces(handle)
            if slot is not None:
                key, seq = slot
                if seq not in self._seat_entries:
                    # a seat just freed on a handle whose index entry was
                    # retired as full: restore it so attach can find it
                    heapq.heappush(self._free_seats.setdefault(key, []),
                                   (seq, handle.proc.pid, handle))
                    self._seat_entries.add(seq)
            return False
        if slot is not None:
            key, seq = slot
            del self._pool_slot[handle.proc.pid]
            self._seat_entries.discard(seq)
            handles = self._pools.get(key)
            if handles is not None:
                if handle in handles:
                    handles.remove(handle)
                if not handles:
                    del self._pools[key]
                    self._free_seats.pop(key, None)
        if kill and handle.proc.alive:
            handle.kill()
            self.handles_killed += 1
            return True
        return False

    # ------------------------------------------------------ seat-queue shedding
    def admit_delay(self, session, delay_us: float, count: int = 1) -> bool:
        """Seat-queue deadline gate: may a call that already queued
        ``delay_us`` still run?

        Drivers consult this *before* dispatching a queued call.  With no
        deadline configured it always admits (and stays off every charge
        path); past the deadline the call is shed — one charged SERVE_SHED
        per call stands in for building the refusal, the shed is mirrored
        to telemetry/tracing, and False tells the driver to drop the call
        instead of burning a full dispatch on work nobody is waiting for.
        """
        deadline = self.shed_deadline_us
        if deadline <= 0.0 or delay_us <= deadline:
            return True
        self.seat_sheds += count
        self.kernel.machine.charge(costs.SERVE_SHED, count)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.record_shed(f"handle:{session.handle.proc.pid}",
                                  "seat_deadline", "broker.shed", delay_us,
                                  client_id=session.client.pid,
                                  session_id=session.session_id, n=count)
        return False

    # ------------------------------------------------------ seat-level telemetry
    def record_queue_delays(self, session, delays_us: Sequence[float]
                            ) -> None:
        """Fold the queueing delays of a session's calls, in order, into
        its (handle, client) seat histogram and one ``broker.queue_wait``
        span each.  No-op while observation is off."""
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.record_queue_delays(session.handle.proc.pid,
                                          session.client.pid, delays_us,
                                          session.session_id)

    def seat_delay_report(self) -> Dict[int, Dict[str, object]]:
        """Per-handle queueing-delay fairness across its seated clients.

        For every handle with recorded seat delays: the client count, each
        client's mean and p95 queueing delay, and the Jain fairness index
        over the per-client mean delays (1.0 = perfectly even service).
        Empty while metrics are off or when nothing was recorded.
        """
        telemetry = self.telemetry
        if not telemetry.metrics:
            return {}
        by_handle: Dict[int, List] = {}
        for labels, histogram in telemetry.registry.histograms_named(
                "pool_queue_delay_us"):
            by_handle.setdefault(labels["handle"], []).append(
                (labels["client"], histogram))
        report: Dict[int, Dict[str, object]] = {}
        for handle_pid, seats in sorted(by_handle.items()):
            per_client = {
                client: {"count": histogram.count,
                         "mean_us": histogram.mean,
                         "p95_us": histogram.quantile(95)}
                for client, histogram in sorted(seats)}
            means = [stats["mean_us"] for stats in per_client.values()]
            report[handle_pid] = {
                "clients": len(per_client),
                "per_client": per_client,
                "jain_fairness": jain_fairness_index(means),
            }
        return report

    # ----------------------------------------------------------- observability
    def pooled_handle_count(self) -> int:
        return sum(len(handles) for handles in self._pools.values())

    def snapshot(self) -> Dict[str, int]:
        return {
            "handles_forked": self.handles_forked,
            "handles_killed": self.handles_killed,
            "attachments": self.attachments,
            "detachments": self.detachments,
            "pooled_handles": self.pooled_handle_count(),
            "seat_sheds": self.seat_sheds,
        }

    def describe(self) -> str:
        pools = ", ".join(
            f"{key}:{[h.proc.pid for h in handles]}"
            for key, handles in sorted(self._pools.items()))
        return (f"broker default={self.default_policy.describe()} "
                f"forked={self.handles_forked} killed={self.handles_killed} "
                f"pools=[{pools}]")
