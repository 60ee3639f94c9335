"""Counters, gauges and log-bucketed streaming histograms.

The design constraints, in order:

1. **Non-perturbing.**  Metrics never touch the virtual clock or the cost
   meter; recording a sample is pure Python-side bookkeeping, so cycle
   totals are identical with telemetry on or off (the LSM-overhead
   literature's "measure without perturbing the measured path").
2. **Off by default.**  The machine's plane starts with both sinks off;
   every tap site guards with ``if telemetry.enabled:`` and a disabled tap
   allocates nothing, so the paper-default benchmarks pay one attribute
   load and a predictable branch per tap point.
3. **Streaming.**  :class:`LogHistogram` keeps geometric buckets, not
   samples: quantiles come with a bounded relative error
   (:attr:`LogHistogram.relative_error_bound`) at O(buckets) memory,
   however many million calls a run records.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .tracing import DEFAULT_CAPACITY, TIER_OP_BY_OP, Span, Tracer

#: Label set rendered into a stable key: ``(("client", 3), ("handle", 9))``.
LabelItems = Tuple[Tuple[str, object], ...]


def _label_key(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted(labels.items()))


def _render_labels(labels: LabelItems) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}{_render_labels(self.labels)}={self.value})"


class Gauge:
    """A point-in-time value; remembers the maximum it ever held."""

    __slots__ = ("name", "labels", "value", "maximum")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.maximum = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.maximum:
            self.maximum = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}{_render_labels(self.labels)}={self.value})"


class LogHistogram:
    """A streaming histogram over geometric (log-spaced) buckets.

    A positive sample ``x`` lands in bucket ``floor(log_base(x))``; the
    bucket spans ``[base**i, base**(i+1))`` and its representative value is
    the geometric midpoint ``base**(i + 0.5)``.  Quantile estimates are the
    representative of the bucket holding the requested rank, clamped to the
    observed min/max, so both the estimate and the true rank statistic lie
    in the same bucket and the relative error is bounded by ``base - 1``
    (:attr:`relative_error_bound`).  Non-positive samples are counted in a
    dedicated zero bucket whose representative is 0.0.

    With the default base ``2**(1/4)`` the bound is ~19% and the typical
    error (geometric-midpoint vs uniform-in-bucket) is under half that;
    memory is one dict slot per occupied bucket — ~100 buckets span nine
    orders of magnitude.
    """

    DEFAULT_BASE = 2.0 ** 0.25

    __slots__ = ("base", "_log_base", "_buckets", "count", "total",
                 "zeros", "_min", "_max", "_sorted")

    def __init__(self, base: float = DEFAULT_BASE) -> None:
        if base <= 1.0:
            raise ValueError("log histogram base must exceed 1")
        self.base = base
        self._log_base = math.log(base)
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.zeros = 0
        self._min = math.inf
        self._max = -math.inf
        #: the bucket indices in order, kept until a bucket is added
        self._sorted: Optional[List[int]] = None

    @property
    def relative_error_bound(self) -> float:
        """Worst-case relative error of :meth:`quantile` (same-bucket bound)."""
        return self.base - 1.0

    # ------------------------------------------------------------------ record
    def record(self, value: float, n: int = 1) -> None:
        """Fold ``n`` occurrences of ``value`` into the histogram."""
        if n <= 0:
            return
        self.count += n
        self.total += value * n
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self.zeros += n
            return
        index = int(math.floor(math.log(value) / self._log_base))
        buckets = self._buckets
        held = buckets.get(index)
        if held is None:
            buckets[index] = n
            self._sorted = None
        else:
            buckets[index] = held + n

    # ----------------------------------------------------------------- queries
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    @property
    def bucket_count(self) -> int:
        """Occupied buckets (memory footprint, not sample count)."""
        return len(self._buckets) + (1 if self.zeros else 0)

    def quantile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0-100) from the buckets.

        Rank semantics are the classic "smallest value with cumulative
        count >= ceil(p/100 * n)", matching a rank lookup in the sorted
        sample list; the estimate differs from that list's entry only by
        the bucketing error.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * self.count))
        seen = self.zeros
        if rank <= seen:
            return 0.0
        order = self._sorted
        if order is None:
            order = self._sorted = sorted(self._buckets)
        for index in order:
            seen += self._buckets[index]
            if seen >= rank:
                representative = self.base ** (index + 0.5)
                if representative > self._max:
                    representative = self._max
                if self._min > 0.0 and representative < self._min:
                    representative = self._min
                return representative
        return self._max

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "p99": self.quantile(99),
        }

    def __repr__(self) -> str:
        return (f"LogHistogram(count={self.count}, mean={self.mean:.3f}, "
                f"p95={self.quantile(95):.3f})")


class MetricsRegistry:
    """A labelled registry of counters, gauges and histograms.

    Metrics are created on first touch and keyed by ``(name, labels)``;
    labels are plain keyword arguments (``registry.histogram(
    "dispatch_latency_us", session=3)``).
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], LogHistogram] = {}

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges) +
                len(self._histograms))

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, **labels: object) -> LogHistogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = LogHistogram()
        return metric

    # ------------------------------------------------------------------- views
    def histograms_named(self, name: str, **match: object
                         ) -> List[Tuple[Dict[str, object], LogHistogram]]:
        """Every histogram of family ``name`` whose labels include
        ``match``, in the snapshot's order: by ``repr(labels)``, creation
        order breaking ties."""
        wanted = _label_key(match)
        family = sorted(((labels, histogram) for (metric, labels), histogram
                         in self._histograms.items() if metric == name),
                        key=lambda item: repr(item[0]))
        out: List[Tuple[Dict[str, object], LogHistogram]] = []
        for labels, histogram in family:
            label_map = dict(labels)
            if all(label_map.get(k) == v for k, v in wanted):
                out.append((label_map, histogram))
        return out

    # ---------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-serializable view of every metric."""
        counters = {
            f"{name}{_render_labels(labels)}": metric.value
            for (name, labels), metric in sorted(
                self._counters.items(),
                key=lambda item: (item[0][0], repr(item[0][1])))}
        gauges = {
            f"{name}{_render_labels(labels)}":
                {"value": metric.value, "max": metric.maximum}
            for (name, labels), metric in sorted(
                self._gauges.items(),
                key=lambda item: (item[0][0], repr(item[0][1])))}
        histograms = {
            f"{name}{_render_labels(labels)}": histogram.summary()
            for (name, labels), histogram in sorted(
                self._histograms.items(),
                key=lambda item: (item[0][0], repr(item[0][1])))}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


#: the decision-cache counters the snapshot reads as ``decision_cache.*``
_CACHE_COUNTERS = ("evictions", "hits", "invalidations", "misses")


class Telemetry:
    """The observation plane: one tap per observed event, two sinks.

    Each tap method names one observed event.  It updates the metrics
    registry when the metrics sink is on and keeps a span in the flight
    recorder (:class:`~repro.telemetry.tracing.Tracer`) when the span sink
    is on.  The machine creates its plane with both sinks off and every
    component reads the plane from ``kernel.machine``; :meth:`enable_metrics`
    and :meth:`enable_spans` switch a sink on in place, so a component
    built before the switch observes after it.  Sites guard every tap with
    ``if telemetry.enabled:``, so the disabled path costs one attribute
    load per tap.  Recording never charges the virtual clock — see the
    package docstring.

    Counters the simulator already keeps are read when the snapshot is
    taken, not mirrored per event: ``ops`` from the cost meter's
    per-operation counts and ``decision_cache.*`` from the decision cache's
    own counters, each as the delta since metrics were switched on.
    """

    def __init__(self, clock=None, mhz: float = 1.0, *,
                 meter=None) -> None:
        self._clock = clock
        self._mhz = float(mhz)
        self._inv_mhz = 1.0 / mhz
        #: the cost meter whose per-operation counts ``ops`` reads
        self.meter = meter
        #: the decision cache whose counters ``decision_cache.*`` reads
        self.cache = None
        self.registry = MetricsRegistry()
        #: every batched flush's service time, across sessions: the AIMD
        #: controllers' p95 feed (not a registry metric, so never in the
        #: snapshot)
        self.flush_service = LogHistogram()
        #: the flight recorder while spans are on
        self.tracer: Optional[Tracer] = None
        self.metrics = False
        self.spans = False
        #: either sink on: the one guard every tap site reads
        self.enabled = False
        #: the per-event taps' histograms by label values, each created in
        #: the registry at its first use (the snapshot sorts by name and
        #: labels, so creation order only breaks ties)
        self._queue_delays: Dict[Tuple[int, int], LogHistogram] = {}
        self._flushes: Dict[int, Tuple[LogHistogram, LogHistogram]] = {}
        self._batched: Dict[int, LogHistogram] = {}
        self._handle_queues: Dict[int, LogHistogram] = {}
        self._op_base: Dict[str, int] = {}
        self._cache_base: Tuple[int, ...] = (0,) * len(_CACHE_COUNTERS)

    # --------------------------------------------------------------- switches
    def enable_metrics(self) -> "Telemetry":
        """Switch the metrics sink on in place (idempotent).

        The meter's and the decision cache's counters are read from here
        on as deltas since this moment.
        """
        if not self.metrics:
            meter = self.meter
            self._op_base = (dict(meter.op_counts) if meter is not None
                             else {})
            self._cache_base = self._cache_counts()
            self.metrics = self.enabled = True
        return self

    def enable_spans(self, *, capacity: int = DEFAULT_CAPACITY,
                     sample_every: int = 1, seed: int = 0x51A9) -> Tracer:
        """Switch the span sink on in place with a fresh flight recorder."""
        if self._clock is None:
            raise ValueError("a plane without a clock cannot keep spans")
        self.tracer = Tracer(self._clock, self._mhz, capacity=capacity,
                             sample_every=sample_every, seed=seed)
        self.spans = self.enabled = True
        return self.tracer

    # --------------------------------------------------------- live intervals
    def start(self, kind: str, *, client_id: int = -1,
              session_id: int = -1):
        """Open a live interval at the current cycles.

        Returns the token its close takes: the span when spans are on
        (it carries its start cycles), the start cycles when only metrics
        are on (so a metrics-only run allocates no span), else None.
        """
        if self.spans:
            return self.tracer.start(kind, client_id=client_id,
                                     session_id=session_id)
        return self._clock.cycles if self.metrics else None

    def finish(self, token, *, tier: Optional[str] = None) -> None:
        """Close a live interval that records no metric here."""
        if token.__class__ is Span:
            self.tracer.finish(token, tier=tier)

    def close_call(self, token, session_id: int, module_name: str) -> None:
        """Close a ``dispatch.call`` served op by op: one latency sample
        and, when spans are on, the span."""
        self._close(token, self.record_dispatch, session_id, module_name)

    def close_batch(self, token, session_id: int, depth: int) -> None:
        """Close a ``dispatch.batch`` flushed op by op: one flush sample
        and, when spans are on, the span."""
        self._close(token, self.record_batch, session_id, depth)

    def _close(self, token, record, *labels) -> None:
        # the sample keeps exact cycle arithmetic, (end - start) / MHz,
        # apart from the span's cycles * (1 / MHz) endpoints
        span = token if token.__class__ is Span else None
        if self.metrics:
            start = span.start_cycles if span is not None else token
            record(*labels, (self._clock.cycles - start) / self._mhz)
        if span is not None:
            self.tracer.finish(span, tier=TIER_OP_BY_OP)

    def aggregate(self, kind: str, *, span_us: float, n: int,
                  client_id: int = -1, session_id: int = -1) -> None:
        """One ``count=n`` span for a fast-forward window of ``n`` calls
        (the window's metrics went in weighted by ``n``)."""
        if self.spans:
            self.tracer.aggregate(kind, span_us=span_us, n=n,
                                  client_id=client_id, session_id=session_id)

    def _wait_span(self, kind: str, wait_us: float,
                   end_us: Optional[float] = None, *, client_id: int = -1,
                   session_id: int = -1, count: int = 1) -> None:
        """A span of known bounds: ``wait_us`` ending at ``end_us`` (the
        clock's now when None); zero-length when ``wait_us`` is 0."""
        if end_us is None:
            end_us = self._clock.cycles * self._inv_mhz
        self.tracer.interval(kind, end_us - wait_us, end_us,
                             client_id=client_id, session_id=session_id,
                             count=count)

    # --------------------------------------------------- dispatch-layer taps
    def record_dispatch(self, session_id: int, module_name: str,
                        latency_us: float, n: int = 1) -> None:
        """Per-session (and per-module) protected-call dispatch latency.

        ``n`` is the fast-forward tier's bulk update: ``n`` identical
        settles fold in as one bucket update with the same counts the
        per-call loop would have produced.
        """
        if self.metrics:
            self.registry.histogram(
                "dispatch_latency_us", session=session_id,
                module=module_name).record(latency_us, n=n)

    def record_batch(self, session_id: int, depth: int,
                     service_us: float, n: int = 1) -> None:
        """One batched flush (or ``n`` identical fast-forwarded flushes):
        its depth, its service time, and the amortized per-entry latency
        folded into the session's dispatch histogram."""
        if not self.metrics:
            return
        flush = self._flushes.get(session_id)
        if flush is None:
            registry = self.registry
            flush = self._flushes[session_id] = (
                registry.histogram("batch_flush_depth", session=session_id),
                registry.histogram("flush_service_us", session=session_id))
        flush[0].record(depth, n=n)
        flush[1].record(service_us, n=n)
        self.flush_service.record(service_us, n=n)
        if depth > 0:
            batched = self._batched.get(session_id)
            if batched is None:
                batched = self._batched[session_id] = self.registry.histogram(
                    "dispatch_latency_us", session=session_id,
                    module="(batched)")
            batched.record(service_us / depth, n=depth * n)

    # ----------------------------------------------------- handle-layer taps
    def record_handle_queue(self, handle_pid: int, depth: int,
                            n: int = 1) -> None:
        """Frames drained by one handle receive (its request-queue depth)."""
        if self.metrics:
            histogram = self._handle_queues.get(handle_pid)
            if histogram is None:
                histogram = self._handle_queues[handle_pid] = \
                    self.registry.histogram("handle_queue_depth",
                                            handle=handle_pid)
            histogram.record(depth, n=n)

    def record_queue_delay(self, handle_pid: int, client_pid: int,
                           delay_us: float, session_id: int = -1) -> None:
        """Queueing delay of one call, per (handle, client) seat; the span
        ``broker.queue_wait`` ends now."""
        if self.metrics:
            seat = (handle_pid, client_pid)
            histogram = self._queue_delays.get(seat)
            if histogram is None:
                histogram = self._queue_delays[seat] = \
                    self.registry.histogram("pool_queue_delay_us",
                                            handle=handle_pid,
                                            client=client_pid)
            histogram.record(delay_us)
        if self.spans:
            self._wait_span("broker.queue_wait", delay_us,
                            client_id=client_pid, session_id=session_id)

    # ----------------------------------------------------- service-plane taps
    def record_pool_wait(self, backend: str, wait_us: float,
                         start_us: float) -> None:
        """Virtual time one checkout waited for a pooled attachment; the
        span ``pool.checkout`` ends at the grant (zero-length when free)."""
        if self.metrics:
            self.registry.histogram("serve_pool_wait_us",
                                    backend=backend).record(wait_us)
        if self.spans:
            self._wait_span("pool.checkout", wait_us, start_us)

    def record_pool_refusal(self, backend: str, now_us: float) -> None:
        """One checkout refused because the attachment pool was exhausted."""
        if self.metrics:
            self.registry.counter("serve_pool_refusals",
                                  backend=backend).inc()
        if self.spans:
            self._wait_span("pool.refuse", 0.0, now_us)

    def record_backend_state(self, backend: str, state: str) -> None:
        """A discovery-registry backend state transition (up/draining/down)."""
        if self.metrics:
            self.registry.counter(f"serve_backend_state.{state}",
                                  backend=backend).inc()

    # ------------------------------------------------- overload-control taps
    def record_admission(self, client_pid: int, admitted: bool,
                         n: int = 1) -> None:
        """Token-bucket admission decisions at the dispatcher entry."""
        if self.metrics:
            verdict = "admitted" if admitted else "refused"
            self.registry.counter(f"smod_admission.{verdict}",
                                  client=client_pid).inc(n)

    def record_shed(self, scope: str, reason: str, kind: str,
                    wait_us: float = 0.0, *, at_us: Optional[float] = None,
                    client_id: int = -1, session_id: int = -1,
                    n: int = 1) -> None:
        """``n`` calls shed at admission (deadline or queue-depth
        protection); the span ``kind`` covers the ``wait_us`` they queued,
        ending at ``at_us`` (the clock's now when None)."""
        if self.metrics:
            self.registry.counter(f"serve_sheds.{reason}",
                                  scope=scope).inc(n)
        if self.spans:
            self._wait_span(kind, wait_us, at_us, client_id=client_id,
                            session_id=session_id, count=n)

    def record_breaker_state(self, backend: str, state: str,
                             now_us: float) -> None:
        """A circuit-breaker transition (closed/open/half_open); the span
        ``serve.breaker.<state>`` marks it."""
        if self.metrics:
            self.registry.counter(f"serve_breaker_state.{state}",
                                  backend=backend).inc()
        if self.spans:
            self._wait_span(f"serve.breaker.{state}", 0.0, now_us)

    def record_retry(self, backend: str, outcome: str, n: int = 1) -> None:
        """RPC-stub retry-budget events: ``retried`` / ``exhausted``."""
        if self.metrics:
            self.registry.counter(f"serve_retries.{outcome}",
                                  backend=backend).inc(n)

    # -------------------------------------------------- controller-layer taps
    def record_depth(self, client: object, depth: int) -> None:
        """An adaptive controller's new batch depth."""
        if self.metrics:
            self.registry.gauge("adaptive_batch_depth",
                                client=client).set(depth)

    # ------------------------------------------------------------------ views
    def _cache_counts(self) -> Tuple[int, ...]:
        cache = self.cache
        if cache is None:
            return (0,) * len(_CACHE_COUNTERS)
        return tuple(getattr(cache, name) for name in _CACHE_COUNTERS)

    @property
    def op_counts(self) -> Dict[str, int]:
        """Per-operation charge counts since metrics were switched on."""
        meter = self.meter
        if meter is None or not self.metrics:
            return {}
        base = self._op_base
        out: Dict[str, int] = {}
        for op, count in meter.op_counts.items():
            delta = count - base.get(op, 0)
            if delta:
                out[op] = delta
        return out

    @property
    def op_cycles(self) -> Dict[str, int]:
        """Per-operation cycles since metrics were switched on."""
        counts = self.op_counts
        cost = self.meter.profile.cost if counts else None
        return {op: cost(op) * count for op, count in counts.items()}

    def snapshot(self) -> Dict[str, object]:
        """The metrics view (empty while the metrics sink is off).

        The read-at-snapshot counters fold in here: ``decision_cache.*``
        into the registry (a key only once its delta is non-zero), and the
        meter's counts as the ``ops`` table.
        """
        if not self.metrics:
            return {}
        for name, now, base in zip(_CACHE_COUNTERS, self._cache_counts(),
                                   self._cache_base):
            if now != base:
                self.registry.counter(f"decision_cache.{name}").value = \
                    now - base
        out: Dict[str, object] = dict(self.registry.snapshot())
        counts = self.op_counts
        if counts:
            cost = self.meter.profile.cost
            out["ops"] = {op: {"count": counts[op],
                               "cycles": cost(op) * counts[op]}
                          for op in sorted(counts)}
        return out


def render_snapshot(snapshot: Dict[str, object], *,
                    title: str = "metrics snapshot") -> str:
    """Pretty-print a :meth:`Telemetry.snapshot` (the ``repro stats`` body)."""
    lines: List[str] = [title, "=" * len(title)]
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    histograms = snapshot.get("histograms") or {}
    ops = snapshot.get("ops") or {}
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name} = {value}")
    if gauges:
        lines.append("gauges:")
        for name, data in gauges.items():
            lines.append(f"  {name} = {data.get('value')} "
                         f"(max {data.get('max')})")
    if histograms:
        lines.append("histograms:")
        for name, s in histograms.items():
            lines.append(
                f"  {name}  count={s.get('count')} mean={s.get('mean'):.3f} "
                f"p50={s.get('p50'):.3f} p95={s.get('p95'):.3f} "
                f"p99={s.get('p99'):.3f} max={s.get('max'):.3f}")
    if ops:
        lines.append("ops (top 12 by cycles):")
        ranked = sorted(ops.items(),
                        key=lambda item: -item[1].get("cycles", 0))[:12]
        for op, data in ranked:
            lines.append(f"  {op:<28s} count={data.get('count'):>10} "
                         f"cycles={data.get('cycles'):>12}")
    if len(lines) == 2:
        lines.append("(empty — telemetry was disabled for this run)")
    return "\n".join(lines)
