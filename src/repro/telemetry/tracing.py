"""Virtual-time causal tracing: span trees over the simulated stack.

The metrics sink answers *how long*; the span sink answers *where* and
*why*: every protected call becomes an attributed span tree
(``rpc.attach`` → ``serve.resolve`` → ``pool.checkout`` → ``dispatch.call``
→ ``broker.queue_wait``) with start/end stamped in **virtual
microseconds**, the same move the Dapper / Pivot-Tracing lineage made for
production RPC stacks.  Both sinks sit behind one observation plane,
:class:`~repro.telemetry.metrics.Telemetry`: the layers tap the plane
once per event, and the plane keeps the span here when spans are on.

Design constraints, in order — the same contract the metrics sink keeps:

1. **Non-perturbing.**  The recorder never charges the virtual clock or
   the cost meter; a span timestamp is a pure read of ``clock.cycles``,
   so cycle totals are byte-identical with spans on or off.
2. **Bounded.**  Finished spans land in a fixed-capacity ring buffer (the
   **flight recorder**): the last N spans are always available, older
   spans are overwritten and counted in ``dropped`` — always-on tracing
   of a 10^7-call run stays O(capacity) memory.
3. **Deterministic.**  Head sampling keeps whole request trees for 1-in-K
   clients, decided per client id through a
   :class:`~repro.sim.rng.DeterministicRNG` child stream — no ambient
   entropy, so two runs of the same seed sample the same clients and the
   flight recorder's contents are reproducible.
4. **Fast-forward aware.**  The analytic tier commits N identical calls in
   one clock charge; :meth:`Tracer.aggregate` mirrors that with one
   synthesized span carrying ``count=N``, so a traced fast-forward run
   stays tractable *and* cycle-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.rng import DeterministicRNG

#: Default flight-recorder capacity (spans kept).
DEFAULT_CAPACITY = 65536

#: Dispatch-tier annotations spans carry in :attr:`Span.tier`.
TIER_OP_BY_OP = "op-by-op"
TIER_REPLAY = "replay"
TIER_FAST_FORWARD = "fast-forward"


class Span:
    """One attributed interval of virtual time.

    ``start_us``/``end_us`` are virtual microseconds (cycles / MHz);
    ``parent_id`` links the causal tree; ``kind`` names the tap point
    (``dispatch.call``, ``pool.checkout``, ...); ``tier`` annotates which
    dispatch tier served it; ``count`` > 1 marks a synthesized aggregate
    span standing in for that many identical calls (the fast-forward
    tier); ``unclosed`` marks a span force-closed at run end.
    ``start_cycles`` is the clock reading a live span opened at, so the
    metric its close records keeps exact cycle arithmetic.
    """

    __slots__ = ("span_id", "parent_id", "kind", "start_us", "end_us",
                 "client_id", "session_id", "tier", "count", "sampled",
                 "unclosed", "start_cycles")

    def __init__(self, span_id: int, parent_id: Optional[int], kind: str,
                 start_us: float, *, client_id: int = -1,
                 session_id: int = -1, tier: str = "", count: int = 1,
                 sampled: bool = True) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.start_us = start_us
        self.end_us = start_us
        self.client_id = client_id
        self.session_id = session_id
        self.tier = tier
        self.count = count
        self.sampled = sampled
        self.unclosed = False
        self.start_cycles = 0

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "client_id": self.client_id,
            "session_id": self.session_id,
            "tier": self.tier,
            "count": self.count,
        }
        if self.unclosed:
            out["unclosed"] = True
        return out

    def __repr__(self) -> str:
        extra = f" x{self.count}" if self.count != 1 else ""
        return (f"Span({self.kind}{extra} [{self.start_us:.3f}, "
                f"{self.end_us:.3f}]us client={self.client_id})")


class Tracer:
    """The span sink: the flight recorder behind the observation plane.

    The plane calls :meth:`start` / :meth:`finish` around live work,
    :meth:`interval` for a wait whose bounds are already known (queue
    delays), and :meth:`aggregate` for a fast-forward window.  Spans nest
    through an explicit stack — virtual time is single-threaded, so the
    innermost open span is always the causal parent.
    """

    def __init__(self, clock, mhz: float, *,
                 capacity: int = DEFAULT_CAPACITY,
                 sample_every: int = 1, seed: int = 0x51A9) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        if sample_every <= 0:
            raise ValueError("sample_every must be >= 1 (1 = keep all)")
        self._clock = clock
        self._inv_mhz = 1.0 / mhz
        self.capacity = capacity
        self.sample_every = sample_every
        self._rng = DeterministicRNG(seed)
        self._sample_cache: Dict[int, bool] = {}
        self._ring: List[Span] = []
        self._next = 0
        self._stack: List[Span] = []
        self._span_seq = 0
        self.started = 0
        self.finished = 0
        self.dropped = 0
        self.sampled_out = 0

    # ------------------------------------------------------------------ clock
    def now_us(self) -> float:
        """Current virtual time — a pure observation of the clock."""
        return self._clock.cycles * self._inv_mhz

    # --------------------------------------------------------------- sampling
    def client_sampled(self, client_id: int) -> bool:
        """Deterministic head-sampling decision for one client id.

        1-in-K (``sample_every``) on average, decided once per client from
        a :class:`DeterministicRNG` child stream keyed by the id — stable
        across runs, independent of call order, no ambient entropy.
        Negative ids (system work: health probes, drains) are always kept.
        """
        if self.sample_every <= 1 or client_id < 0:
            return True
        cached = self._sample_cache.get(client_id)
        if cached is None:
            draw = self._rng.child(f"trace-head-{client_id}")
            cached = draw.integer(0, self.sample_every - 1) == 0
            self._sample_cache[client_id] = cached
        return cached

    # ------------------------------------------------------------- span taps
    def start(self, kind: str, *, client_id: int = -1, session_id: int = -1,
              tier: str = "") -> Span:
        """Open a span at the current virtual time and push it on the
        causal stack.  Children inherit the head-sampling decision of the
        innermost open span; a root span decides from its client id."""
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent_id: Optional[int] = parent.span_id
            sampled = parent.sampled
            if client_id < 0:
                client_id = parent.client_id
            if session_id < 0:
                session_id = parent.session_id
        else:
            parent_id = None
            sampled = self.client_sampled(client_id)
        self._span_seq += 1
        cycles = self._clock.cycles
        span = Span(self._span_seq, parent_id, kind, cycles * self._inv_mhz,
                    client_id=client_id, session_id=session_id, tier=tier,
                    sampled=sampled)
        span.start_cycles = cycles
        self.started += 1
        stack.append(span)
        return span

    def finish(self, span: Optional[Span], *,
               tier: Optional[str] = None) -> None:
        """Close ``span`` at the current virtual time and record it.

        ``tier`` set here overrides the one given at :meth:`start` — the
        dispatch tier is often only known once the call has been served.
        Tolerates ``None`` (a site that started nothing) and out-of-order
        closes (the span is removed wherever it sits on the stack)."""
        if span is None:
            return
        span.end_us = self.now_us()
        if tier is not None:
            span.tier = tier
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # defensive: unwind a mismatched close
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is span:
                    del stack[index]
                    break
        self.finished += 1
        if span.sampled:
            self._record(span)
        else:
            self.sampled_out += 1

    def interval(self, kind: str, start_us: float, end_us: float, *,
                 client_id: int = -1, session_id: int = -1, tier: str = "",
                 count: int = 1) -> Optional[Span]:
        """Record a completed span whose bounds are already known — queue
        waits measured by the layer itself, or synthesized aggregates.
        Attached under the innermost open span, if any."""
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent_id: Optional[int] = parent.span_id
            sampled = parent.sampled
            if client_id < 0:
                client_id = parent.client_id
            if session_id < 0:
                session_id = parent.session_id
        else:
            parent_id = None
            sampled = self.client_sampled(client_id)
        self._span_seq += 1
        self.started += 1
        self.finished += 1
        if not sampled:
            self.sampled_out += 1
            return None
        span = Span(self._span_seq, parent_id, kind, start_us,
                    client_id=client_id, session_id=session_id, tier=tier,
                    count=count, sampled=True)
        span.end_us = end_us
        self._record(span)
        return span

    def aggregate(self, kind: str, *, span_us: float, n: int,
                  client_id: int = -1, session_id: int = -1,
                  tier: str = TIER_FAST_FORWARD) -> Optional[Span]:
        """Synthesize one span standing in for ``n`` identical calls of
        ``span_us`` each — the fast-forward window mirror.  The span ends
        at the current virtual time and covers the whole window, so a
        traced 10^7-call run records O(windows) spans, not O(calls)."""
        end_us = self.now_us()
        return self.interval(kind, end_us - span_us * n, end_us,
                             client_id=client_id, session_id=session_id,
                             tier=tier, count=n)

    # --------------------------------------------------------- flight recorder
    def _record(self, span: Span) -> None:
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(span)
        else:
            ring[self._next] = span
            self._next += 1
            if self._next == self.capacity:
                self._next = 0
            self.dropped += 1

    def spans(self) -> List[Span]:
        """Recorded spans, oldest first (the ring, unwound)."""
        ring = self._ring
        if self._next == 0:
            return list(ring)
        return ring[self._next:] + ring[:self._next]

    def open_spans(self) -> List[Span]:
        """Spans started but not yet finished (outermost first)."""
        return list(self._stack)

    def drain(self) -> int:
        """Force-close every open span at the current virtual time (run
        end, abandoned requests).  Closed spans are flagged ``unclosed``
        and recorded; returns how many were drained."""
        drained = 0
        while self._stack:
            span = self._stack[-1]
            span.unclosed = True
            self.finish(span)
            drained += 1
        return drained

    # ------------------------------------------------------------------ views
    def stats(self) -> Dict[str, int]:
        return {
            "started": self.started,
            "finished": self.finished,
            "recorded": len(self._ring),
            "dropped": self.dropped,
            "sampled_out": self.sampled_out,
            "open": len(self._stack),
            "capacity": self.capacity,
            "sample_every": self.sample_every,
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable flight-recorder contents plus counters."""
        return {
            "stats": self.stats(),
            "spans": [span.to_dict() for span in self.spans()],
        }
