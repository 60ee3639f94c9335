"""Bounded broker-attachment pool with virtual-clock wait accounting.

A production RPC front-end does not establish a fresh backend connection
per request; it checks attachments out of a bounded pool and queues (or
refuses) when the pool is exhausted.  This module reproduces that shape
over SecModule sessions: each *attachment* is one established worker
session on the backend's shared-handle pool, created lazily up to
``max_attachments`` by a caller-supplied factory.

Wait accounting uses the classic K-server virtual-time model.  The
simulation is single-CPU and serialized, so a naive "wait until free"
measured on the global clock is always zero; instead every attachment
carries a ``free_at_us`` horizon (set at check-in to checkout-start plus
the observed service time) and the pool is a min-heap over those horizons.
A checkout at virtual arrival time ``t``:

- claims the earliest-free attachment outright when ``free_at <= t``
  (zero wait);
- grows the pool (one charged worker-session establishment) while below
  ``max_attachments``;
- otherwise *waits*: the checkout is granted starting at ``free_at`` with
  ``wait_us = free_at - t``, or refused when the pool is configured
  ``overflow="refuse"``.  With the front-end's overload deadline set, a
  wait past it is shed at admission instead.

Checkout validates the attachment before granting it — a worker session
whose backend handle died, or that was torn down behind the pool's back,
is discarded and replaced through the factory, so callers never receive a
dead attachment.

Every checkout/check-in charges :data:`~repro.sim.costs.SERVE_POOL_CHECKOUT`
/ :data:`~repro.sim.costs.SERVE_POOL_CHECKIN` unless the front-end's
``ServiceConfig.charge_ops`` is off, which reproduces the direct
(no-service-plane) charge sequence exactly — the pool-of-1
cycle-identity test pins that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..sim import costs

OVERFLOW_QUEUE = "queue"
OVERFLOW_REFUSE = "refuse"


@dataclass(frozen=True)
class PoolConfig:
    """Sizing and overflow behavior of one backend's attachment pool."""

    max_attachments: int = 8
    #: exhaustion behavior: ``"queue"`` grants delayed checkouts,
    #: ``"refuse"`` turns them away
    overflow: str = OVERFLOW_QUEUE

    def __post_init__(self) -> None:
        if self.max_attachments < 0:
            raise SimulationError("max_attachments must be >= 0")
        if self.overflow not in (OVERFLOW_QUEUE, OVERFLOW_REFUSE):
            raise SimulationError(f"unknown overflow mode {self.overflow!r}")


@dataclass
class Attachment:
    """One pooled worker session and its virtual busy horizon."""

    seq: int
    session: object                       # secmodule Session
    free_at_us: float = 0.0
    checkouts: int = 0


@dataclass(frozen=True)
class Checkout:
    """Result of one checkout attempt."""

    attachment: Optional[Attachment]
    #: virtual time at which the caller actually holds the attachment
    #: (arrival time + wait)
    start_us: float
    wait_us: float
    refused: bool = False
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.attachment is not None


class AttachmentPool:
    """Bounded checkout/check-in pool over factory-built worker sessions.

    ``charge_ops`` charges SERVE_POOL_CHECKOUT/CHECKIN per operation.
    ``shed_deadline_us`` sheds a checkout whose projected virtual wait
    exceeds it *at admission* (charged SERVE_SHED) instead of queueing it
    — it could never be served in time.  0 = off.
    """

    def __init__(self, backend: str, factory: Callable[[], object], *,
                 kernel, config: PoolConfig, charge_ops: bool,
                 shed_deadline_us: float) -> None:
        self.backend = backend
        self.kernel = kernel
        self.config = config
        self.charge_ops = charge_ops
        self.shed_deadline_us = shed_deadline_us
        #: the machine's observation plane (never charges the clock)
        self.telemetry = kernel.machine.telemetry
        self._factory = factory
        #: (free_at_us, seq, attachment): seq breaks ties so attachments
        #: themselves are never compared
        self._heap: List[Tuple[float, int, Attachment]] = []
        #: grant horizons of queued (delayed-start) checkouts, pruned lazily
        self._pending: List[float] = []
        self._seq = 0
        self.size = 0
        # observability
        self.checkouts = 0
        self.checkins = 0
        self.creates = 0
        self.discarded = 0
        self.waits = 0
        self.refusals = 0
        self.sheds = 0
        self.total_wait_us = 0.0
        self.max_wait_us = 0.0

    # ------------------------------------------------------------- internals
    def _charge(self, operation: str) -> None:
        if self.charge_ops:
            # smod: allow(COST002)  forwarding wrapper; checkout/checkin
            # name the SERVE_* costs constants at their call sites
            self.kernel.machine.charge(operation)

    @staticmethod
    def _valid(attachment: Attachment) -> bool:
        session = attachment.session
        return (session is not None
                and session.established
                and not session.torn_down
                and session.handle.proc.alive)

    def _create(self, now_us: float) -> Attachment:
        session = self._factory()
        attachment = Attachment(seq=self._seq, session=session,
                                free_at_us=now_us)
        self._seq += 1
        self.size += 1
        self.creates += 1
        return attachment

    def _grant(self, attachment: Attachment, start_us: float,
               wait_us: float) -> Checkout:
        attachment.checkouts += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.record_pool_wait(self.backend, wait_us, start_us)
        return Checkout(attachment=attachment, start_us=start_us,
                        wait_us=wait_us)

    def _refuse(self, now_us: float, wait_us: float,
                reason: str) -> Checkout:
        self.refusals += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.record_pool_refusal(self.backend, now_us)
        return Checkout(attachment=None, start_us=now_us, wait_us=wait_us,
                        refused=True, reason=reason)

    def _shed(self, now_us: float, wait_us: float) -> Checkout:
        """Deadline shed: the projected wait already blows the deadline, so
        the call is turned away at admission — before it queues — with one
        charged SERVE_SHED standing in for building the refusal reply."""
        self._charge(costs.SERVE_SHED)
        self.sheds += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.record_shed(self.backend, "deadline", "pool.shed",
                                  at_us=now_us)
        return Checkout(attachment=None, start_us=now_us, wait_us=wait_us,
                        refused=True, reason="deadline shed")

    def queue_depth(self, now_us: float) -> int:
        """Checkouts granted for the future and not yet started at ``now``."""
        pending = self._pending
        while pending and pending[0] <= now_us:
            heapq.heappop(pending)
        return len(pending)

    # ------------------------------------------------------------- operations
    def checkout(self, now_us: float) -> Checkout:
        """Claim an attachment at virtual arrival time ``now_us``."""
        self._charge(costs.SERVE_POOL_CHECKOUT)
        self.checkouts += 1
        while True:
            if self._heap:
                free_at, _, attachment = self._heap[0]
                if not self._valid(attachment):
                    # the backend died under this attachment (or its session
                    # was torn down behind the pool's back): drop it so the
                    # factory can build a replacement below
                    heapq.heappop(self._heap)
                    self.size -= 1
                    self.discarded += 1
                    continue
                if free_at <= now_us:
                    heapq.heappop(self._heap)
                    return self._grant(attachment, now_us, 0.0)
            if self.size < self.config.max_attachments:
                return self._grant(self._create(now_us), now_us, 0.0)
            if not self._heap:
                return self._refuse(now_us, 0.0,
                                    "pool has no attachments")
            free_at, _, attachment = self._heap[0]
            wait_us = free_at - now_us
            if self.shed_deadline_us and wait_us > self.shed_deadline_us:
                return self._shed(now_us, wait_us)
            if self.config.overflow == OVERFLOW_REFUSE:
                return self._refuse(now_us, wait_us, "pool exhausted")
            # prunes the started grants, which `stats()["queued"]` counts
            self.queue_depth(now_us)
            heapq.heappop(self._heap)
            heapq.heappush(self._pending, free_at)
            self.waits += 1
            self.total_wait_us += wait_us
            if wait_us > self.max_wait_us:
                self.max_wait_us = wait_us
            return self._grant(attachment, free_at, wait_us)

    def checkin(self, attachment: Attachment, free_at_us: float) -> None:
        """Return an attachment, busy until ``free_at_us`` (checkout start
        plus the observed service time)."""
        self._charge(costs.SERVE_POOL_CHECKIN)
        self.checkins += 1
        attachment.free_at_us = free_at_us
        heapq.heappush(self._heap, (free_at_us, attachment.seq, attachment))

    # ------------------------------------------------------------------ views
    def busy(self, now_us: float) -> int:
        """Attachments unavailable at ``now``: checked out, or checked in
        with a busy horizon still in the future."""
        idle = sum(1 for free_at, _, attachment in self._heap
                   if free_at <= now_us and self._valid(attachment))
        return self.size - idle

    def mean_wait_us(self) -> float:
        return self.total_wait_us / self.waits if self.waits else 0.0

    def stats(self, now_us: Optional[float] = None) -> Dict[str, object]:
        out: Dict[str, object] = {
            "size": self.size,
            "max_attachments": self.config.max_attachments,
            "overflow": self.config.overflow,
            "checkouts": self.checkouts,
            "checkins": self.checkins,
            "creates": self.creates,
            "discarded": self.discarded,
            "waits": self.waits,
            "refusals": self.refusals,
            "total_wait_us": self.total_wait_us,
            "mean_wait_us": self.mean_wait_us(),
            "max_wait_us": self.max_wait_us,
        }
        if now_us is not None:
            out["busy"] = self.busy(now_us)
            out["queued"] = self.queue_depth(now_us)
        return out
