"""Event tracing.

The paper explains SecModule with three protocol diagrams — the
initialization handshake (Figure 1), the address-space layout after the
handshake (Figure 2) and the stack discipline around ``sys_smod_call``
(Figure 3).  To regenerate those figures, the simulation emits structured
trace events at the same protocol points; the benchmark harness then renders
the recorded event streams as text diagrams and the test suite asserts the
expected orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Attributes
    ----------
    cycles:
        Virtual-clock timestamp at emission.
    category:
        Coarse grouping, e.g. ``"smod.session"``, ``"smod.call"``, ``"uvm"``,
        ``"rpc"``, ``"sched"``.
    label:
        Short machine-readable event name, e.g. ``"smod_start_session"``.
    pid:
        Simulated process id the event is attributed to, if any.
    detail:
        Free-form keyword payload (argument values, address ranges, ...).
    """

    cycles: int
    category: str
    label: str
    pid: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Render a single human-readable line for figure output."""
        pid_part = f"pid={self.pid} " if self.pid is not None else ""
        detail_part = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.cycles:>10d}] {self.category:<14s} {pid_part}{self.label} {detail_part}".rstrip()


class TraceBuffer:
    """An append-only list of :class:`TraceEvent`.

    Tracing is off by default (``enabled=False``) so that the million-call
    microbenchmarks do not allocate an event per dispatch; the protocol
    tests and the Figure 1–3 reproductions flip it on for the handful of
    operations they examine, and iterate the events they recorded.
    """

    def __init__(self, clock, enabled: bool = False) -> None:
        self._clock = clock
        self.enabled = enabled
        self._events: List[TraceEvent] = []

    def emit(self, category: str, label: str, *, pid: Optional[int] = None,
             **detail: Any) -> Optional[TraceEvent]:
        """Record an event if tracing is enabled; return it (or ``None``)."""
        if not self.enabled:
            return None
        event = TraceEvent(
            cycles=self._clock.cycles,
            category=category,
            label=label,
            pid=pid,
            detail=dict(detail),
        )
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)
