"""Counters, gauges and log-bucketed streaming histograms.

The design constraints, in order:

1. **Non-perturbing.**  Metrics never touch the virtual clock or the cost
   meter; recording a sample is pure Python-side bookkeeping, so cycle
   totals are identical with telemetry on or off (the LSM-overhead
   literature's "measure without perturbing the measured path").
2. **Compiled out by default.**  The shared :data:`NULL_TELEMETRY`
   singleton answers every recording call with a no-op and allocates
   nothing, so the paper-default benchmarks pay one attribute load and a
   predictable branch per tap point.
3. **Streaming.**  :class:`LogHistogram` keeps geometric buckets, not
   samples: quantiles come with a bounded relative error
   (:attr:`LogHistogram.relative_error_bound`) at O(buckets) memory,
   however many million calls a run records.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, Iterable, List, Optional, Tuple

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
                 "zeros", "_min", "_max")

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
        self._buckets[index] = self._buckets.get(index, 0) + n

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
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                representative = self.base ** (index + 0.5)
                if representative > self._max:
                    representative = self._max
                if self._min > 0.0 and representative < self._min:
                    representative = self._min
                return representative
        return self._max

    # ------------------------------------------------------------- shard state
    def export_state(self) -> Dict[str, object]:
        """Full (lossless) state for cross-process merging.

        Unlike :meth:`summary` this keeps the raw buckets, so a parent
        process can reconstruct the histogram with :meth:`from_state` and
        :meth:`merge` it exactly — the sharded traffic engine's metric
        planes combine this way at the sync barrier.
        """
        return {
            "base": self.base,
            "buckets": dict(self._buckets),
            "count": self.count,
            "total": self.total,
            "zeros": self.zeros,
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "LogHistogram":
        """Reconstruct a histogram exported by :meth:`export_state`."""
        out = cls(base=float(state["base"]))  # type: ignore[arg-type]
        out._buckets = dict(state["buckets"])  # type: ignore[arg-type]
        out.count = int(state["count"])  # type: ignore[arg-type]
        out.total = float(state["total"])  # type: ignore[arg-type]
        out.zeros = int(state["zeros"])  # type: ignore[arg-type]
        out._min = float(state["min"])  # type: ignore[arg-type]
        out._max = float(state["max"])  # type: ignore[arg-type]
        return out

    # ------------------------------------------------------------------- merge
    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram in place (same base required).

        Merging the per-session histograms of one module yields exactly the
        histogram that would have been recorded into a single per-module
        instance — bucket counts are additive.
        """
        if not math.isclose(self.base, other.base):
            raise ValueError(
                f"cannot merge histograms with bases {self.base} and "
                f"{other.base}")
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        self.zeros += other.zeros
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    @classmethod
    def merged(cls, histograms: Iterable["LogHistogram"]) -> "LogHistogram":
        """A fresh histogram equivalent to recording every input's samples."""
        out: Optional[LogHistogram] = None
        for histogram in histograms:
            if out is None:
                out = cls(base=histogram.base)
            out.merge(histogram)
        return out if out is not None else cls()

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
        #: name -> the family's ``((repr(labels), creation), labels,
        #: histogram)`` in the snapshot's sorted order, kept on creation so
        #: reading a family (the AIMD controller's p95, every flush) never
        #: re-sorts; the creation count breaks ties as the stable sort did
        self._families: Dict[str, List[Tuple[Tuple[str, int], LabelItems,
                                             LogHistogram]]] = {}

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
            order = (repr(key[1]), len(self._histograms))
            insort(self._families.setdefault(name, []),
                   (order, key[1], metric))
        return metric

    # ------------------------------------------------------------------- views
    def histograms_named(self, name: str, **match: object
                         ) -> List[Tuple[Dict[str, object], LogHistogram]]:
        """Every histogram of family ``name`` whose labels include ``match``."""
        wanted = _label_key(match)
        out: List[Tuple[Dict[str, object], LogHistogram]] = []
        for _, labels, histogram in self._families.get(name, ()):
            label_map = dict(labels)
            if all(label_map.get(k) == v for k, v in wanted):
                out.append((label_map, histogram))
        return out

    def merged_histogram(self, name: str, **match: object) -> LogHistogram:
        """Merge a histogram family into one view (e.g. the per-module view
        of per-session dispatch-latency histograms)."""
        return LogHistogram.merged(
            histogram for _, histogram in self.histograms_named(name, **match))

    # ------------------------------------------------------------- shard state
    def export_state(self) -> Dict[str, Dict[str, object]]:
        """Lossless, picklable registry state for cross-process merging.

        Metrics are keyed by their rendered ``name{labels}`` string;
        histograms export raw buckets (:meth:`LogHistogram.export_state`)
        so the parent-side merge is exact, not a summary-of-summaries.
        """
        def rendered(items):
            return sorted(items, key=lambda item: (item[0][0], repr(item[0][1])))

        counters = {
            f"{name}{_render_labels(labels)}": metric.value
            for (name, labels), metric in rendered(self._counters.items())}
        gauges = {
            f"{name}{_render_labels(labels)}":
                {"value": metric.value, "max": metric.maximum}
            for (name, labels), metric in rendered(self._gauges.items())}
        histograms = {
            f"{name}{_render_labels(labels)}": histogram.export_state()
            for (name, labels), histogram in rendered(self._histograms.items())}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

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


class Telemetry:
    """The facade the simulated layers record through.

    Each ``record_*`` method names one tap point in the system; the layers
    guard every call with ``if telemetry.enabled:`` so the disabled default
    costs one attribute load per tap.  Recording never charges the virtual
    clock — see the package docstring.
    """

    #: class attribute so the null subclass can flip it without instance state
    enabled: bool = True

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: per-operation mirror of the cost meter (the costs.py tap point)
        self.op_counts: Dict[str, int] = {}
        self.op_cycles: Dict[str, int] = {}

    # ------------------------------------------------------- sim-layer taps
    def op_charge(self, operation: str, count: int, cycles: int) -> None:
        """Mirror one :class:`~repro.sim.costs.CostMeter` charge."""
        self.op_counts[operation] = self.op_counts.get(operation, 0) + count
        self.op_cycles[operation] = self.op_cycles.get(operation, 0) + cycles

    def op_charge_bulk(self, items) -> None:
        """Mirror a replayed :class:`~repro.sim.costs.CallTrace` in one call.

        ``items`` is the trace's ``(operation, count, cycles)`` triples; the
        resulting per-operation counters are exactly what the op-by-op
        execution would have recorded.
        """
        counts = self.op_counts
        cycles_map = self.op_cycles
        for operation, count, cycles in items:
            counts[operation] = counts.get(operation, 0) + count
            cycles_map[operation] = cycles_map.get(operation, 0) + cycles

    # --------------------------------------------------- dispatch-layer taps
    def record_dispatch(self, session_id: int, module_name: str,
                        latency_us: float, n: int = 1) -> None:
        """Per-session (and per-module) protected-call dispatch latency.

        ``n`` is the fast-forward tier's bulk mirror: ``n`` identical
        replays fold in as one bucket update with the same counts the
        per-call loop would have produced.
        """
        self.registry.histogram("dispatch_latency_us", session=session_id,
                                module=module_name).record(latency_us, n=n)

    def record_batch(self, session_id: int, depth: int,
                     service_us: float, n: int = 1) -> None:
        """One batched flush (or ``n`` identical fast-forwarded flushes):
        its depth, its service time, and the amortized per-entry latency
        folded into the session's dispatch histogram."""
        registry = self.registry
        registry.histogram("batch_flush_depth",
                           session=session_id).record(depth, n=n)
        registry.histogram("flush_service_us",
                           session=session_id).record(service_us, n=n)
        if depth > 0:
            registry.histogram(
                "dispatch_latency_us", session=session_id,
                module="(batched)").record(service_us / depth, n=depth * n)

    # ----------------------------------------------------- handle-layer taps
    def record_handle_queue(self, handle_pid: int, depth: int,
                            n: int = 1) -> None:
        """Frames drained by one handle receive (its request-queue depth)."""
        self.registry.histogram("handle_queue_depth",
                                handle=handle_pid).record(depth, n=n)

    def record_queue_delay(self, handle_pid: int, client_pid: int,
                           delay_us: float) -> None:
        """Queueing delay of one call, per (handle, client) seat."""
        self.registry.histogram("pool_queue_delay_us", handle=handle_pid,
                                client=client_pid).record(delay_us)

    # ----------------------------------------------------- service-plane taps
    def record_pool_wait(self, backend: str, wait_us: float,
                         n: int = 1) -> None:
        """Virtual time one checkout waited for a pooled attachment."""
        self.registry.histogram("serve_pool_wait_us",
                                backend=backend).record(wait_us, n=n)

    def record_pool_refusal(self, backend: str) -> None:
        """One checkout refused because the attachment pool was exhausted."""
        self.registry.counter("serve_pool_refusals", backend=backend).inc()

    def record_backend_state(self, backend: str, state: str) -> None:
        """A discovery-registry backend state transition (up/draining/down)."""
        self.registry.counter(f"serve_backend_state.{state}",
                              backend=backend).inc()

    # ------------------------------------------------- overload-control taps
    def record_admission(self, client_pid: int, admitted: bool,
                         n: int = 1) -> None:
        """Token-bucket admission decisions at the dispatcher entry."""
        verdict = "admitted" if admitted else "refused"
        self.registry.counter(f"smod_admission.{verdict}",
                              client=client_pid).inc(n)

    def record_shed(self, scope: str, reason: str, n: int = 1) -> None:
        """Calls shed at admission (deadline or queue-depth protection)."""
        self.registry.counter(f"serve_sheds.{reason}", scope=scope).inc(n)

    def record_breaker_state(self, backend: str, state: str) -> None:
        """A circuit-breaker transition (closed/open/half_open)."""
        self.registry.counter(f"serve_breaker_state.{state}",
                              backend=backend).inc()

    def record_retry(self, backend: str, outcome: str, n: int = 1) -> None:
        """RPC-stub retry-budget events: ``retried`` / ``exhausted``."""
        self.registry.counter(f"serve_retries.{outcome}",
                              backend=backend).inc(n)

    # ------------------------------------------------------ cache-layer taps
    def cache_event(self, kind: str, n: int = 1) -> None:
        """One decision-cache event: ``hits``/``misses``/``evictions``/..."""
        self.registry.counter(f"decision_cache.{kind}").inc(n)

    # -------------------------------------------------- controller-layer taps
    def record_depth(self, client: object, depth: int) -> None:
        """An adaptive controller's current batch depth."""
        self.registry.gauge("adaptive_batch_depth", client=client).set(depth)

    # ------------------------------------------------------------------ views
    def module_latency(self, module_name: str) -> LogHistogram:
        """Per-module dispatch latency: per-session histograms, merged."""
        return self.registry.merged_histogram("dispatch_latency_us",
                                              module=module_name)

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = dict(self.registry.snapshot())
        if self.op_counts:
            out["ops"] = {
                op: {"count": self.op_counts[op],
                     "cycles": self.op_cycles.get(op, 0)}
                for op in sorted(self.op_counts)}
        return out

    def export_state(self) -> Optional[Dict[str, object]]:
        """Lossless picklable state (registry + op mirror) for shard merge."""
        return {
            "registry": self.registry.export_state(),
            "ops": {op: {"count": self.op_counts[op],
                         "cycles": self.op_cycles.get(op, 0)}
                    for op in sorted(self.op_counts)},
        }


class NullTelemetry(Telemetry):
    """The compiled-out default: every tap is a no-op, nothing accumulates.

    The registry exists (so accidental unguarded reads don't crash) but the
    overridden recording methods never touch it, keeping the disabled path
    allocation-free.
    """

    enabled = False

    def op_charge(self, operation: str, count: int, cycles: int) -> None:
        pass

    def op_charge_bulk(self, items) -> None:
        pass

    def record_dispatch(self, session_id: int, module_name: str,
                        latency_us: float, n: int = 1) -> None:
        pass

    def record_batch(self, session_id: int, depth: int,
                     service_us: float, n: int = 1) -> None:
        pass

    def record_handle_queue(self, handle_pid: int, depth: int,
                            n: int = 1) -> None:
        pass

    def record_queue_delay(self, handle_pid: int, client_pid: int,
                           delay_us: float) -> None:
        pass

    def record_pool_wait(self, backend: str, wait_us: float,
                         n: int = 1) -> None:
        pass

    def record_pool_refusal(self, backend: str) -> None:
        pass

    def record_backend_state(self, backend: str, state: str) -> None:
        pass

    def record_admission(self, client_pid: int, admitted: bool,
                         n: int = 1) -> None:
        pass

    def record_shed(self, scope: str, reason: str, n: int = 1) -> None:
        pass

    def record_breaker_state(self, backend: str, state: str) -> None:
        pass

    def record_retry(self, backend: str, outcome: str, n: int = 1) -> None:
        pass

    def cache_event(self, kind: str, n: int = 1) -> None:
        pass

    def record_depth(self, client: object, depth: int) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {}

    def export_state(self) -> Optional[Dict[str, object]]:
        return None


#: The shared disabled instance every component starts wired to.
NULL_TELEMETRY = NullTelemetry()


def merge_telemetry_states(
        states: Iterable[Optional[Dict[str, object]]]) -> Dict[str, object]:
    """Combine per-shard :meth:`Telemetry.export_state` payloads exactly.

    The deterministic shard-merge contract: counters and the op mirror sum;
    gauges keep the maximum (of both the point value and the recorded max —
    a cross-shard "high-water" view); histograms with the same rendered
    ``name{labels}`` key merge at bucket level (exact, since bucket counts
    are additive) and are then summarized.  States are folded in the order
    given — shard-index order — so float accumulation (histogram totals) is
    independent of worker count.  ``None`` entries (telemetry-disabled
    shards) are skipped; the result has :meth:`Telemetry.snapshot` shape.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, LogHistogram] = {}
    ops: Dict[str, Dict[str, int]] = {}
    for state in states:
        if state is None:
            continue
        registry = state.get("registry") or {}
        for key, value in (registry.get("counters") or {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, data in (registry.get("gauges") or {}).items():
            merged = gauges.setdefault(key, {"value": 0.0, "max": 0.0})
            merged["value"] = max(merged["value"], data["value"])
            merged["max"] = max(merged["max"], data["max"])
        for key, hist_state in (registry.get("histograms") or {}).items():
            incoming = LogHistogram.from_state(hist_state)
            if key in histograms:
                histograms[key].merge(incoming)
            else:
                histograms[key] = incoming
        for op, data in (state.get("ops") or {}).items():
            merged_op = ops.setdefault(op, {"count": 0, "cycles": 0})
            merged_op["count"] += data["count"]
            merged_op["cycles"] += data["cycles"]
    out: Dict[str, object] = {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {key: histogram.summary()
                       for key, histogram in sorted(histograms.items())},
    }
    if ops:
        out["ops"] = dict(sorted(ops.items()))
    return out


def make_telemetry(enabled: bool) -> Telemetry:
    """A live :class:`Telemetry` when enabled, the shared null otherwise."""
    return Telemetry() if enabled else NULL_TELEMETRY


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
