"""Span-tree analysis and Chrome-trace-event export.

Two consumers of the flight recorder (:mod:`repro.telemetry.tracing`):

* :func:`critical_path_report` — the per-request **critical-path /
  queue-wait breakdown**: each root span's duration is attributed to
  segments (queue vs resolve vs service vs rpc vs switch) by walking its
  tree and charging every span's *self time* (duration minus children) to
  the segment its kind maps to, so segments sum exactly to the request
  total.  Per-segment distributions come back as p50/p95 over streaming
  :class:`~repro.telemetry.metrics.LogHistogram` buckets.
* :func:`chrome_trace` / :func:`write_chrome_trace` — export spans as
  Chrome trace-event JSON (``ph``/``ts``/``dur``/``pid``/``tid``), the
  format Perfetto (https://ui.perfetto.dev) loads directly; ``ts`` is in
  microseconds, which is exactly the tracer's virtual-time unit.

Like the tracer itself this module is observation-only: it never imports
the cost model and never touches the virtual clock.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.stats import ordered_sum
from .metrics import LogHistogram
from .tracing import Span

#: Segment names, in render order.
SEGMENTS = ("queue", "resolve", "service", "rpc", "switch")

#: Span kinds whose self time counts as queueing delay.
_QUEUE_KINDS = ("broker.queue_wait", "pool.checkout", "pool.wait")


def segment_of(kind: str) -> str:
    """Map a span kind to its critical-path segment."""
    if kind in _QUEUE_KINDS or kind.endswith(".queue_wait"):
        return "queue"
    if kind.startswith("serve.resolve") or kind == "serve.health":
        return "resolve"
    if kind.startswith("dispatch."):
        return "service"
    if kind.startswith("rpc."):
        return "rpc"
    return "switch"


def _tree_index(spans: Sequence[Span]) -> Tuple[List[Span],
                                                Dict[int, List[Span]]]:
    """Roots and a children map.  A span whose parent was evicted from the
    ring (or never sampled) is treated as a root — the flight recorder is
    bounded, trees may arrive truncated."""
    by_id = {span.span_id: span for span in spans}
    children: Dict[int, List[Span]] = {}
    roots: List[Span] = []
    for span in spans:
        parent_id = span.parent_id
        if parent_id is not None and parent_id in by_id:
            children.setdefault(parent_id, []).append(span)
        else:
            roots.append(span)
    return roots, children


def request_breakdown(root: Span,
                      children: Dict[int, List[Span]]) -> Dict[str, float]:
    """One request's per-segment time.  Every span in the tree contributes
    its self time (duration minus direct children) to its kind's segment;
    a root *with children* charges its own self time to ``switch``
    (transport / context switching not covered by an inner span), while a
    childless root — a bare ``broker.queue_wait`` or ``dispatch.call``
    recorded outside any umbrella span — keeps its own segment.  Segments
    sum to the root duration up to float rounding."""
    totals = {segment: 0.0 for segment in SEGMENTS}
    stack = [(root, True)]
    while stack:
        span, is_root = stack.pop()
        kids = children.get(span.span_id, ())
        self_us = span.duration_us - ordered_sum(kid.duration_us for kid in kids)
        if self_us < 0.0:  # overlapping children (aggregates) — clamp
            self_us = 0.0
        segment = ("switch" if is_root and kids
                   else segment_of(span.kind))
        totals[segment] += self_us
        for kid in kids:
            stack.append((kid, False))
    return totals


def critical_path_report(spans: Sequence[Span]) -> Dict[str, object]:
    """Aggregate the per-request breakdown over every root span.

    Returns ``{"requests": N, "total_us": {...summary...},
    "segments": {segment: {...summary..., "share": fraction}}}`` where
    each summary is a :meth:`LogHistogram.summary` (count/mean/p50/p95).
    Aggregate fast-forward spans weigh in with their call count, so a
    traced fast-forward run reports per-call statistics, not per-window.
    """
    roots, children = _tree_index(spans)
    total_hist = LogHistogram()
    segment_hists = {segment: LogHistogram() for segment in SEGMENTS}
    grand_total = 0.0
    segment_totals = {segment: 0.0 for segment in SEGMENTS}
    for root in roots:
        n = root.count if root.count > 1 else 1
        per_call = root.duration_us / n
        total_hist.record(per_call, n=n)
        grand_total += root.duration_us
        breakdown = request_breakdown(root, children)
        for segment, segment_us in breakdown.items():
            if segment_us > 0.0:
                segment_hists[segment].record(segment_us / n, n=n)
            segment_totals[segment] += segment_us
    segments: Dict[str, object] = {}
    for segment in SEGMENTS:
        histogram = segment_hists[segment]
        if histogram.count == 0:
            continue
        summary = histogram.summary()
        summary["share"] = (segment_totals[segment] / grand_total
                            if grand_total > 0.0 else 0.0)
        segments[segment] = summary
    return {
        "requests": total_hist.count,
        "roots": len(roots),
        "total_us": total_hist.summary(),
        "segments": segments,
    }


def render_critical_path(report: Dict[str, object], *,
                         title: str = "critical-path breakdown") -> str:
    """Pretty-print :func:`critical_path_report` (the ``repro trace
    report`` body)."""
    lines: List[str] = [title, "=" * len(title)]
    requests = report.get("requests", 0)
    total = report.get("total_us") or {}
    lines.append(f"requests: {requests} (root spans: {report.get('roots')})")
    if requests:
        lines.append(
            f"request total   mean={total.get('mean', 0.0):9.3f}us "
            f"p50={total.get('p50', 0.0):9.3f}us "
            f"p95={total.get('p95', 0.0):9.3f}us")
    segments = report.get("segments") or {}
    for segment in SEGMENTS:
        summary = segments.get(segment)
        if not summary:
            continue
        lines.append(
            f"  {segment:<8s}      mean={summary.get('mean', 0.0):9.3f}us "
            f"p50={summary.get('p50', 0.0):9.3f}us "
            f"p95={summary.get('p95', 0.0):9.3f}us "
            f"share={summary.get('share', 0.0) * 100.0:5.1f}%")
    if not segments:
        lines.append("(no spans recorded — was tracing enabled?)")
    return "\n".join(lines)


# ---------------------------------------------------------------- Chrome JSON
def chrome_trace(spans: Iterable[Span], *, pid: int = 1,
                 process_name: str = "smod-sim") -> Dict[str, object]:
    """Spans as a Chrome trace-event JSON object (Perfetto-loadable).

    Each span becomes one complete event (``ph: "X"``) with ``ts``/``dur``
    in microseconds — virtual time maps one-to-one onto the trace
    timeline.  ``tid`` is the client id (system spans land on tid 0), and
    metadata events name the process and per-client tracks.
    """
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    }]
    tids_seen: Dict[int, bool] = {}
    for span in spans:
        tid = span.client_id if span.client_id >= 0 else 0
        if tid not in tids_seen:
            tids_seen[tid] = True
            label = f"client {tid}" if span.client_id >= 0 else "system"
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": label}})
        args: Dict[str, object] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.session_id >= 0:
            args["session"] = span.session_id
        if span.count != 1:
            args["count"] = span.count
        if span.unclosed:
            args["unclosed"] = True
        events.append({
            "name": span.kind,
            "cat": span.tier or "span",
            "ph": "X",
            "ts": span.start_us,
            "dur": span.duration_us,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[Span], *,
                       pid: int = 1) -> int:
    """Write :func:`chrome_trace` JSON to ``path``; returns the event
    count (metadata included)."""
    payload = chrome_trace(spans, pid=pid)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    events = payload["traceEvents"]
    assert isinstance(events, list)
    return len(events)


def validate_chrome_trace(payload: Dict[str, object]) -> Optional[str]:
    """Check a payload against the Chrome trace-event schema subset we
    emit (the CI lint gate).  Returns ``None`` when valid, else a message
    naming the first offending event."""
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return "traceEvents missing or empty"
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            return f"event {index}: not an object"
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                return f"event {index}: missing required field {field!r}"
        ph = event["ph"]
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)):
                    return (f"event {index}: complete event needs numeric "
                            f"{field!r}")
            if float(event["dur"]) < 0.0:
                return f"event {index}: negative dur"
        elif ph == "M":
            if "args" not in event:
                return f"event {index}: metadata event needs args"
        else:
            return f"event {index}: unsupported ph {ph!r}"
    return None
