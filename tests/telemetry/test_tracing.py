"""The span tracer: flight recorder, sampling, drain, export.

Mirrors the metrics-plane contract tests: the disabled path allocates
nothing, the enabled path never touches the clock, the ring is bounded,
and everything is deterministic under a fixed seed.
"""

import gc
import json
import sys

import pytest

from repro.hw.machine import make_paper_machine
from repro.sim.clock import VirtualClock
from repro.telemetry import Telemetry
from repro.telemetry.tracing import (
    Span,
    TIER_FAST_FORWARD,
    TIER_REPLAY,
    Tracer,
)
from repro.telemetry.trace_export import (
    chrome_trace,
    critical_path_report,
    render_critical_path,
    segment_of,
    validate_chrome_trace,
    write_chrome_trace,
)


def make(**kwargs):
    """A tracer over a fresh 1 MHz clock: one cycle == one microsecond."""
    clock = VirtualClock()
    return clock, Tracer(clock, 1.0, **kwargs)


class TestSpanLifecycle:
    def test_start_finish_stamps_virtual_time(self):
        clock, tracer = make()
        clock.advance(10)
        span = tracer.start("dispatch.call", client_id=3, session_id=7)
        clock.advance(25)
        tracer.finish(span, tier=TIER_REPLAY)
        assert span.start_us == 10.0
        assert span.end_us == 35.0
        assert span.duration_us == 25.0
        assert span.tier == TIER_REPLAY
        assert tracer.spans() == [span]

    def test_children_link_and_inherit_attribution(self):
        clock, tracer = make()
        root = tracer.start("serve.call", client_id=9, session_id=4)
        child = tracer.start("serve.resolve")
        assert child.parent_id == root.span_id
        assert child.client_id == 9
        assert child.session_id == 4
        tracer.finish(child)
        grandchild_free = tracer.interval("broker.queue_wait", 0.0, 1.0)
        assert grandchild_free.parent_id == root.span_id
        tracer.finish(root)
        assert tracer.open_spans() == []

    def test_tracing_never_charges_the_clock(self):
        clock, tracer = make()
        clock.advance(100)
        cycles, events = clock.cycles, clock.events
        span = tracer.start("dispatch.call")
        tracer.interval("broker.queue_wait", 1.0, 2.0)
        tracer.aggregate("dispatch.call", span_us=1.0, n=10)
        tracer.finish(span)
        tracer.now_us()
        assert (clock.cycles, clock.events) == (cycles, events)

    def test_out_of_order_finish_is_tolerated(self):
        clock, tracer = make()
        outer = tracer.start("serve.call")
        inner = tracer.start("dispatch.call")
        tracer.finish(outer)          # mismatched: outer closed first
        tracer.finish(inner)
        tracer.finish(None)           # a site that started nothing
        assert tracer.open_spans() == []
        assert tracer.stats()["finished"] == 2


class TestFlightRecorder:
    def test_ring_wraparound_keeps_last_n(self):
        clock, tracer = make(capacity=4)
        for index in range(10):
            tracer.interval("dispatch.call", float(index), float(index) + 0.5)
        kept = tracer.spans()
        assert len(kept) == 4
        assert tracer.stats()["dropped"] == 6
        # oldest-first, and exactly the last four recorded
        assert [span.start_us for span in kept] == [6.0, 7.0, 8.0, 9.0]

    def test_ring_below_capacity_is_chronological(self):
        clock, tracer = make(capacity=16)
        for index in range(5):
            tracer.interval("dispatch.call", float(index), float(index))
        assert [span.start_us for span in tracer.spans()] == \
            [0.0, 1.0, 2.0, 3.0, 4.0]
        assert tracer.stats()["dropped"] == 0

    def test_drain_closes_and_flags_open_spans(self):
        clock, tracer = make()
        outer = tracer.start("serve.call")
        clock.advance(5)
        inner = tracer.start("dispatch.call")
        clock.advance(5)
        assert tracer.drain() == 2
        assert tracer.open_spans() == []
        assert outer.unclosed and inner.unclosed
        assert outer.end_us == 10.0 and inner.end_us == 10.0
        assert {span.span_id for span in tracer.spans()} == \
            {outer.span_id, inner.span_id}
        assert tracer.drain() == 0

    def test_aggregate_covers_the_window(self):
        clock, tracer = make()
        clock.advance(100)
        span = tracer.aggregate("dispatch.call", span_us=5.0, n=10,
                                client_id=2)
        assert span.start_us == 50.0
        assert span.end_us == 100.0
        assert span.count == 10
        assert span.tier == TIER_FAST_FORWARD

    def test_constructor_validation(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            Tracer(clock, 1.0, capacity=0)
        with pytest.raises(ValueError):
            Tracer(clock, 1.0, sample_every=0)
        with pytest.raises(ValueError):
            Telemetry().enable_spans()  # a live recorder needs the clock


class TestSampling:
    def test_sample_every_one_keeps_everything(self):
        clock, tracer = make()
        assert all(tracer.client_sampled(client) for client in range(32))

    def test_system_work_is_always_kept(self):
        clock, tracer = make(sample_every=1000)
        assert tracer.client_sampled(-1)

    def test_decisions_are_deterministic_per_seed(self):
        _, a = make(sample_every=4, seed=77)
        _, b = make(sample_every=4, seed=77)
        ids = range(64)
        assert [a.client_sampled(i) for i in ids] == \
            [b.client_sampled(i) for i in ids]

    def test_roughly_one_in_k(self):
        clock, tracer = make(sample_every=4)
        kept = sum(tracer.client_sampled(client) for client in range(256))
        assert 256 * 0.10 < kept < 256 * 0.50

    def test_children_inherit_the_root_decision(self):
        clock, tracer = make(sample_every=10_000, seed=1)
        unsampled = next(client for client in range(64)
                         if not tracer.client_sampled(client))
        root = tracer.start("serve.call", client_id=unsampled)
        child = tracer.start("dispatch.call")
        assert tracer.interval("broker.queue_wait", 0.0, 1.0) is None
        tracer.finish(child)
        tracer.finish(root)
        assert tracer.spans() == []
        assert tracer.stats()["sampled_out"] == 3


class TestNullTracer:
    """The machine's plane with the span sink off."""

    def test_shared_singleton_and_disabled(self):
        telemetry = make_paper_machine().telemetry
        assert telemetry.enabled is False
        assert telemetry.spans is False and telemetry.tracer is None
        assert isinstance(telemetry.enable_spans(), Tracer)
        assert telemetry.enabled is True

    def test_every_tap_is_a_no_op(self):
        telemetry = make_paper_machine().telemetry
        assert telemetry.start("dispatch.call") is None
        telemetry.finish(None)
        telemetry.record_queue_delay(5, 2, 1.0)
        telemetry.record_pool_refusal("b", 0.0)
        telemetry.aggregate("dispatch.call", span_us=1.0, n=5)
        assert telemetry.tracer is None
        assert telemetry.snapshot() == {}

    def test_disabled_path_is_allocation_free(self):
        telemetry = make_paper_machine().telemetry

        def spin(rounds: int) -> None:
            for _ in range(rounds):
                if telemetry.enabled:
                    span = telemetry.start("dispatch.call")
                    telemetry.finish(span)
                if telemetry.enabled:
                    telemetry.record_queue_delay(5, 2, 1.0)
                if telemetry.enabled:
                    telemetry.aggregate("dispatch.call", span_us=1.0, n=8)

        spin(1000)                  # warm any lazily-built interpreter state
        gc.collect()
        before = sys.getallocatedblocks()
        spin(5000)
        gc.collect()
        after = sys.getallocatedblocks()
        # matching the metrics sink's contract: no retained allocations
        assert after - before <= 8


def _span(span_id, parent_id, kind, start, end, count=1):
    span = Span(span_id, parent_id, kind, start, count=count)
    span.end_us = end
    return span


class TestCriticalPath:
    def test_segment_mapping(self):
        assert segment_of("broker.queue_wait") == "queue"
        assert segment_of("pool.checkout") == "queue"
        assert segment_of("serve.resolve") == "resolve"
        assert segment_of("serve.health") == "resolve"
        assert segment_of("dispatch.call") == "service"
        assert segment_of("dispatch.batch") == "service"
        assert segment_of("rpc.serve_call") == "rpc"
        assert segment_of("serve.call") == "switch"

    def test_self_time_attribution_sums_to_root(self):
        spans = [
            _span(1, None, "rpc.serve_call", 0.0, 100.0),
            _span(2, 1, "serve.resolve", 10.0, 20.0),
            _span(3, 1, "dispatch.call", 30.0, 90.0),
        ]
        report = critical_path_report(spans)
        assert report["requests"] == 1
        segments = report["segments"]
        assert segments["resolve"]["mean"] == pytest.approx(10.0)
        assert segments["service"]["mean"] == pytest.approx(60.0)
        # root self time (100 - 10 - 60) is uncovered switch/transport
        assert segments["switch"]["mean"] == pytest.approx(30.0)
        total_share = sum(s["share"] for s in segments.values())
        assert total_share == pytest.approx(1.0)

    def test_childless_root_keeps_its_own_segment(self):
        report = critical_path_report(
            [_span(1, None, "broker.queue_wait", 0.0, 40.0)])
        assert list(report["segments"]) == ["queue"]
        assert report["segments"]["queue"]["share"] == pytest.approx(1.0)

    def test_aggregate_roots_weigh_per_call(self):
        report = critical_path_report(
            [_span(1, None, "dispatch.call", 0.0, 40.0, count=4)])
        assert report["requests"] == 4
        assert report["total_us"]["mean"] == pytest.approx(10.0)

    def test_orphaned_child_is_treated_as_root(self):
        # parent evicted from the ring: the child still reports
        report = critical_path_report(
            [_span(9, 1234, "dispatch.call", 0.0, 5.0)])
        assert report["roots"] == 1

    def test_render_is_printable(self):
        spans = [_span(1, None, "rpc.serve_call", 0.0, 100.0),
                 _span(2, 1, "dispatch.call", 10.0, 90.0)]
        text = render_critical_path(critical_path_report(spans))
        assert "requests: 1" in text
        assert "service" in text
        empty = render_critical_path(critical_path_report([]))
        assert "was tracing enabled" in empty


class TestChromeExport:
    def test_events_carry_the_required_fields(self):
        spans = [
            _span(1, None, "rpc.serve_call", 0.0, 100.0),
            _span(2, 1, "dispatch.call", 10.0, 90.0),
        ]
        spans[0].client_id = 5
        payload = chrome_trace(spans)
        assert validate_chrome_trace(payload) is None
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)

    def test_validation_catches_malformed_payloads(self):
        assert validate_chrome_trace({}) is not None
        assert validate_chrome_trace({"traceEvents": []}) is not None
        bad_dur = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 0}]}
        assert validate_chrome_trace(bad_dur) is not None
        bad_ph = {"traceEvents": [
            {"name": "x", "ph": "Q", "ts": 0, "dur": 1, "pid": 1, "tid": 0}]}
        assert validate_chrome_trace(bad_ph) is not None

    def test_write_round_trips_through_json(self, tmp_path):
        spans = [_span(1, None, "dispatch.call", 0.0, 10.0)]
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), spans)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        assert validate_chrome_trace(payload) is None


class TestTracerSnapshot:
    def test_snapshot_is_json_serializable(self):
        clock, tracer = make()
        span = tracer.start("dispatch.call", client_id=1)
        clock.advance(3)
        tracer.finish(span)
        tracer.start("serve.call")
        tracer.drain()
        snapshot = tracer.snapshot()
        encoded = json.loads(json.dumps(snapshot))
        assert encoded["stats"]["recorded"] == 2
        unclosed = [s for s in encoded["spans"] if s.get("unclosed")]
        assert len(unclosed) == 1
