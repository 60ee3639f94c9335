"""AIMD batch-depth controller driven by the arrival-rate telemetry.

The batched dispatch path (PR 2) amortizes the per-call trap and the two
context switches across a client-side queue, but the queue depth has been a
static knob: the right depth depends on how fast calls actually arrive,
which only the running system knows.  This controller closes that loop.

Each traffic client owns one :class:`AdaptiveBatchController`.  Every
arrival updates an EWMA of the interarrival time (weight
:data:`EWMA_ALPHA`); every flush applies an AIMD (additive-increase /
multiplicative-decrease) step to the queue depth:

* arrivals faster than :data:`GROW_BELOW_US` — batching pays, since calls
  queue faster than the single path can dispatch them — grow the depth
  **additively** (``+INCREASE_STEP``) up to ``max_depth``;
* arrivals slower than :data:`SHRINK_ABOVE_US` — the queue would sit
  holding calls that nothing is waiting behind — shrink
  **multiplicatively** (``/DECREASE_FACTOR``) down to 1;
* in between, hold.

The depth starts at 1, the paper's single-call path, which is also its
floor.  Lull detection is **gap-based**: when the gap since the previous
arrival reaches :data:`LINGER_US`, :meth:`observe_arrival` returns
True and the engine drains whatever is queued at that arrival (and a
client's final arrival drains its own leftovers), so a burst's stragglers
wait at most one lull.  There is deliberately no age-based flush timer —
a queue still filling at burst rate is *supposed* to hold calls until it
reaches depth; that hold is the price of amortization and the recorded
queueing delays report it honestly.  With ``max_depth == 1`` every flush
is a single call through the paper's per-call dispatch path, op for op —
the floor preserves single-path cycle-identity.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: EWMA weight of the newest interarrival sample
EWMA_ALPHA = 0.25

#: grow the depth while the interarrival EWMA is at or below this, virtual
#: microseconds: just above the paper's 6.4 us single-call dispatch, the
#: natural scale for "are calls arriving faster than we can dispatch them"
GROW_BELOW_US = 8.0

#: shrink the depth while the interarrival EWMA is at or above this; the
#: hold band between the two thresholds keeps the controller from flapping
SHRINK_ABOVE_US = 24.0

#: additive increase per flush
INCREASE_STEP = 4

#: multiplicative decrease divisor per flush
DECREASE_FACTOR = 2.0

#: gap-based lull bound, virtual microseconds: an arrival gap at or beyond
#: this drains the pending queue at that next arrival (stragglers wait at
#: most one lull; deliberately not an age-based timer — see the module
#: docs)
LINGER_US = 24.0


class AdaptiveBatchController:
    """Per-client AIMD controller over the batched-dispatch queue depth.

    ``max_depth`` is the depth ceiling.  ``service_p95_target_us`` is the
    closed-loop service-time feed: when set (>0) *and* a
    ``service_p95_supplier`` is wired on the controller, a flush whose
    observed service-time p95 exceeds this target shrinks the depth
    multiplicatively even while the arrival EWMA argues for growth — the
    offered rate says "batch more", the tail says "you can't afford to".
    0 (the default) leaves the controller exactly the rate-only AIMD, byte
    for byte.
    """

    def __init__(self, max_depth: int,
                 service_p95_target_us: float = 0.0, *,
                 client: object = 0, start_us: float = 0.0) -> None:
        self.max_depth = max_depth
        self.service_p95_target_us = service_p95_target_us
        self.client = client
        self.depth = 1
        self.ewma_us: Optional[float] = None
        self._last_arrival_us: Optional[float] = None
        #: closed-loop feed: a zero-argument callable returning the
        #: observed service-time p95 (virtual us) — typically a telemetry
        #: ``LogHistogram.quantile(95)`` read.  None (the default) keeps
        #: the controller rate-only regardless of the target.
        self.service_p95_supplier: Optional[Callable[[], float]] = None
        # observability
        self.arrivals = 0
        self.flushes = 0
        self.grows = 0
        self.shrinks = 0
        self.p95_shrinks = 0
        self.max_depth_reached = self.depth
        #: (virtual time us, depth) at every depth change, seeded at the
        #: run's start time so the axis matches the absolute times
        #: ``on_flush`` records
        self.trajectory: List[Tuple[float, int]] = [(start_us, self.depth)]

    # ----------------------------------------------------------------- signals
    def observe_arrival(self, now_us: float) -> bool:
        """Fold one arrival into the EWMA; True means "flush the lull".

        The engine calls this with the arrival's *scheduled* time (open-loop
        semantics: the offered load, not the completion times, drives the
        controller) and, on a True return, flushes whatever the client has
        queued before enqueueing the new call.
        """
        lull = False
        if self._last_arrival_us is not None:
            gap = now_us - self._last_arrival_us
            if gap >= 0.0:
                self.ewma_us = (gap if self.ewma_us is None
                                else EWMA_ALPHA * gap
                                + (1.0 - EWMA_ALPHA) * self.ewma_us)
                lull = gap >= LINGER_US
        self._last_arrival_us = now_us
        self.arrivals += 1
        return lull

    def on_flush(self, depth_used: int, now_us: float) -> Optional[int]:
        """Apply one AIMD step after a flush of ``depth_used`` calls;
        returns the new depth when it changed, for the owner to observe."""
        self.flushes += 1
        ewma = self.ewma_us
        if ewma is None:
            return None
        new_depth = self.depth
        if (self.service_p95_target_us > 0.0
                and self.service_p95_supplier is not None
                and self.service_p95_supplier()
                > self.service_p95_target_us):
            # the observed tail already exceeds the target: shrink (or at
            # least hold at the floor) no matter what the offered rate says
            if self.depth > 1:
                new_depth = max(1, int(self.depth / DECREASE_FACTOR))
                self.shrinks += 1
                self.p95_shrinks += 1
        elif ewma <= GROW_BELOW_US and self.depth < self.max_depth:
            new_depth = min(self.max_depth, self.depth + INCREASE_STEP)
            self.grows += 1
        elif ewma >= SHRINK_ABOVE_US and self.depth > 1:
            new_depth = max(1, int(self.depth / DECREASE_FACTOR))
            self.shrinks += 1
        if new_depth != self.depth:
            self.depth = new_depth
            if new_depth > self.max_depth_reached:
                self.max_depth_reached = new_depth
            self.trajectory.append((now_us, new_depth))
            return new_depth
        return None

    # ----------------------------------------------------------- observability
    def snapshot(self) -> Dict[str, object]:
        return {
            "client": self.client,
            "depth": self.depth,
            "max_depth_reached": self.max_depth_reached,
            "arrivals": self.arrivals,
            "flushes": self.flushes,
            "grows": self.grows,
            "shrinks": self.shrinks,
            "p95_shrinks": self.p95_shrinks,
            "ewma_us": self.ewma_us,
            "trajectory": list(self.trajectory),
        }

    def __repr__(self) -> str:
        return (f"AdaptiveBatchController(client={self.client!r}, "
                f"depth={self.depth}, ewma={self.ewma_us})")
