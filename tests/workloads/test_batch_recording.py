"""Every recorded batch span: the meter's delta equals the charge log's.

A batch flush's span records the meter's delta (``DeltaRecorder``) instead
of a per-charge log.  Each deep digest row runs twice on identical
engines: once as shipped, and once with every batch span recorded through
the charge log and aggregated.  Span for span, the delta's (event count,
op totals, cycles) must equal the log's, and the two runs must end in the
same state.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.sim.costs import CallTrace, CostMeter, DeltaRecorder, TraceRecorder
from repro.workloads.traffic import TrafficEngine, TrafficSpec
from test_traffic_digests import SPECS

#: the digest rows whose super-frames go deep, and the denied-queue row
DEEP = ("open-batch32", "mmpp-batch8-pooled", "open-denied-batch4",
        "aimd-mmpp-depth64-telemetry-p95", "aimd-open-depth64")


class LoggedSpan(TraceRecorder):
    """A batch span recorded through the charge log, handed back in the
    delta's shape."""

    def stop(self):
        trace = CallTrace(super().stop(), self.meter.profile)
        return (trace.events, tuple(sorted(trace.ops)), trace.total_cycles)


def run(name: str, recorder, monkeypatch) -> Tuple[List, Tuple]:
    """Run one row; every batch span's recording, and the end state."""
    spans: List = []

    def record_delta(meter):
        armed = recorder(meter)
        stop = armed.stop
        armed.stop = lambda: spans.append(stop()) or spans[-1]
        return armed

    with monkeypatch.context() as patch:
        patch.setattr(CostMeter, "record_delta", record_delta)
        engine = TrafficEngine(TrafficSpec(**SPECS[name]))
        engine.run()
    machine = engine.machine
    end = (machine.clock.cycles, machine.clock.events,
           dict(machine.meter.op_counts),
           engine.extension.dispatcher.trace_cache.snapshot())
    return spans, end


@pytest.mark.parametrize("name", DEEP)
def test_delta_equals_the_log_on_every_batch_span(name, monkeypatch):
    delta_spans, delta_end = run(name, DeltaRecorder, monkeypatch)
    log_spans, log_end = run(name, LoggedSpan, monkeypatch)
    assert delta_spans and None not in delta_spans
    assert delta_spans == log_spans
    assert delta_end == log_end
