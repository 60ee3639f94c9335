"""AIMD batch-depth controller driven by the arrival-rate telemetry.

The batched dispatch path (PR 2) amortizes the per-call trap and the two
context switches across a client-side queue, but the queue depth has been a
static knob: the right depth depends on how fast calls actually arrive,
which only the running system knows.  This controller closes that loop.

Each traffic client owns one :class:`AdaptiveBatchController`.  Every
arrival updates an EWMA of the interarrival time; every flush applies an
AIMD (additive-increase / multiplicative-decrease) step to the queue
depth:

* arrivals faster than :attr:`AdaptiveConfig.grow_below_us` — batching
  pays, since calls queue faster than the single path can dispatch them —
  grow the depth **additively** (``+increase_step``) up to ``max_depth``;
* arrivals slower than :attr:`AdaptiveConfig.shrink_above_us` — the queue
  would sit holding calls that nothing is waiting behind — shrink
  **multiplicatively** (``/decrease_factor``) down to ``min_depth``;
* in between, hold.

Lull detection is **gap-based**: when the gap since the previous arrival
reaches :data:`LINGER_US`, :meth:`observe_arrival` returns
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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError

#: The paper's single-call dispatch latency in virtual microseconds — the
#: natural scale for "are calls arriving faster than we can dispatch them".
SINGLE_CALL_DISPATCH_US = 6.4

#: gap-based lull bound, virtual microseconds: an arrival gap at or beyond
#: this drains the pending queue at that next arrival (stragglers wait at
#: most one lull; deliberately not an age-based timer — see the module
#: docs)
LINGER_US = 24.0


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the AIMD controller (defaults sized to the paper machine)."""

    min_depth: int = 1
    max_depth: int = 64
    initial_depth: int = 1
    #: EWMA weight of the newest interarrival sample
    ewma_alpha: float = 0.25
    #: grow the depth while the interarrival EWMA is at or below this
    grow_below_us: float = 8.0
    #: shrink the depth while the interarrival EWMA is at or above this
    shrink_above_us: float = 24.0
    #: additive increase per flush
    increase_step: int = 4
    #: multiplicative decrease divisor per flush
    decrease_factor: float = 2.0
    #: closed-loop service-time feed: when set (>0) *and* a
    #: ``service_p95_supplier`` is wired on the controller, a flush whose
    #: observed service-time p95 exceeds this target shrinks the depth
    #: multiplicatively even while the arrival EWMA argues for growth —
    #: the offered rate says "batch more", the tail says "you can't
    #: afford to".  0 (the default) leaves the controller exactly the
    #: rate-only AIMD above, byte for byte.
    service_p95_target_us: float = 0.0

    def __post_init__(self) -> None:
        if self.min_depth < 1 or self.max_depth < self.min_depth:
            raise SimulationError(
                "adaptive config needs 1 <= min_depth <= max_depth")
        if not self.min_depth <= self.initial_depth <= self.max_depth:
            raise SimulationError(
                "adaptive initial_depth must lie within [min, max]")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise SimulationError("ewma_alpha must be in (0, 1]")
        if self.grow_below_us >= self.shrink_above_us:
            raise SimulationError(
                "grow_below_us must be below shrink_above_us (a hold band "
                "between the thresholds keeps the controller from flapping)")
        if self.increase_step < 1 or self.decrease_factor <= 1.0:
            raise SimulationError(
                "AIMD needs increase_step >= 1 and decrease_factor > 1")
        if self.service_p95_target_us < 0.0:
            raise SimulationError("service_p95_target_us must be >= 0")


class AdaptiveBatchController:
    """Per-client AIMD controller over the batched-dispatch queue depth."""

    def __init__(self, config: Optional[AdaptiveConfig] = None, *,
                 client: object = 0, start_us: float = 0.0) -> None:
        self.config = config or AdaptiveConfig()
        self.client = client
        self.depth = self.config.initial_depth
        self.ewma_us: Optional[float] = None
        self._last_arrival_us: Optional[float] = None
        #: closed-loop feed: a zero-argument callable returning the
        #: observed service-time p95 (virtual us) — typically a telemetry
        #: ``LogHistogram.quantile(95)`` read.  None (the default) keeps
        #: the controller rate-only regardless of the config target.
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
                alpha = self.config.ewma_alpha
                self.ewma_us = (gap if self.ewma_us is None
                                else alpha * gap + (1.0 - alpha) * self.ewma_us)
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
        config = self.config
        new_depth = self.depth
        if (config.service_p95_target_us > 0.0
                and self.service_p95_supplier is not None
                and self.service_p95_supplier()
                > config.service_p95_target_us):
            # the observed tail already exceeds the target: shrink (or at
            # least hold at the floor) no matter what the offered rate says
            if self.depth > config.min_depth:
                new_depth = max(config.min_depth,
                                int(self.depth / config.decrease_factor))
                self.shrinks += 1
                self.p95_shrinks += 1
        elif ewma <= config.grow_below_us and self.depth < config.max_depth:
            new_depth = min(config.max_depth,
                            self.depth + config.increase_step)
            self.grows += 1
        elif ewma >= config.shrink_above_us and self.depth > config.min_depth:
            new_depth = max(config.min_depth,
                            int(self.depth / config.decrease_factor))
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
