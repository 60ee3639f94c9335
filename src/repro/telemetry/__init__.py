"""Telemetry: cheap always-on metrics for the simulated system.

The paper reports only end-of-run aggregates; every adaptive mechanism in
the roadmap (batch controllers, pool-aware scheduling, locality bonuses)
needs the system to observe itself *while it runs*.  This package provides
that observation plane:

* :class:`~repro.telemetry.metrics.Counter`,
  :class:`~repro.telemetry.metrics.Gauge` and the log-bucketed streaming
  :class:`~repro.telemetry.metrics.LogHistogram` (p50/p95/p99 without
  storing samples);
* :class:`~repro.telemetry.metrics.MetricsRegistry`, a labelled registry of
  the above;
* :class:`~repro.telemetry.metrics.Telemetry`, the one observation plane
  the layers tap once per event: it feeds the metrics registry when
  metrics are on and the span flight recorder
  (:class:`~repro.telemetry.tracing.Tracer`) when spans are on.  The
  machine creates its plane with both off.

Telemetry **never charges the virtual clock**: recording is observation
only, so a run with telemetry enabled produces cycle totals identical to
the same run with telemetry disabled, and the paper's figures stay
byte-identical either way.
"""

from .metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    Telemetry,
    render_snapshot,
)
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "render_snapshot",
]
