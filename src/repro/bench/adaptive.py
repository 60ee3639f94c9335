"""Adaptive-batching benchmark: the ``abl-adaptive`` experiment.

Two legs, both driven through the multi-client traffic engine so the
controller sees exactly the arrival process the workload offers:

* **steady** — a Poisson stream arriving much faster than the single-call
  dispatch latency.  A static sweep measures the service cost per call at
  each fixed queue depth; the adaptive run starts at depth 1 and must ramp
  to within 20% of the *best* static depth's us/call once converged (the
  tail of the run, after the AIMD ramp).
* **mmpp** — bursty two-state on/off arrivals.  The controller must adapt
  both ways: grow the depth during ON bursts and shrink it back during OFF
  lulls (the depth trajectory shows a rise followed by a fall to half the
  peak or less).

Both legs run with telemetry enabled — the controller is *fed by* the
telemetry plane, and the exported ``BENCH_abl-adaptive.json`` carries the
metrics snapshot — which changes no cycle totals (recording is pure
observation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..workloads.traffic import TrafficResult, TrafficSpec, run_traffic
from .report import render_table

#: Static queue depths the baseline sweep measures.
DEFAULT_DEPTHS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
#: Calls per static point (per-call service cost is depth-, not length-,
#: dependent, so fewer calls than the adaptive leg suffice).
DEFAULT_STATIC_CALLS = 256
#: Calls in the adaptive steady leg: enough for the AIMD ramp plus a
#: converged tail twice its size.
DEFAULT_ADAPTIVE_CALLS = 1024
#: Calls in the MMPP leg (covers several ON/OFF cycles).
DEFAULT_MMPP_CALLS = 600
#: Steady-leg mean interarrival: far below the ~6.4 us single-call
#: dispatch latency, so batching pays and the controller must grow.
DEFAULT_MEAN_INTERVAL_US = 2.0


@dataclass
class StaticPoint:
    """One fixed queue depth measured on the steady arrival stream."""

    batch_size: int
    total_calls: int
    mean_service_us: float


@dataclass
class AdaptiveReport:
    """Static sweep + adaptive steady leg + MMPP adapt-both-ways leg."""

    depths: Tuple[int, ...]
    mean_interval_us: float
    static_points: List[StaticPoint] = field(default_factory=list)
    #: steady adaptive leg
    adaptive_calls: int = 0
    adaptive_mean_us: float = 0.0
    adaptive_tail_us: float = 0.0
    adaptive_controller: Dict[str, object] = field(default_factory=dict)
    #: bursty leg
    mmpp_controller: Dict[str, object] = field(default_factory=dict)
    #: telemetry snapshot of the steady adaptive run
    metrics: Dict[str, object] = field(default_factory=dict)

    # -- the acceptance-bar checks ------------------------------------------
    def best_static(self) -> StaticPoint:
        return min(self.static_points, key=lambda p: p.mean_service_us)

    def within_20_percent(self) -> bool:
        """Converged adaptive us/call within 20% of the best static depth."""
        return self.adaptive_tail_us <= self.best_static().mean_service_us * 1.2

    def adapted_up_and_down(self, *, peak_at_least: int = 8) -> bool:
        """The MMPP trajectory rose to a peak and later fell to <= half it."""
        trajectory = self.mmpp_controller.get("trajectory") or []
        peak = 0
        for _, depth in trajectory:
            if depth > peak:
                peak = depth
            elif peak >= peak_at_least and depth <= peak // 2:
                return True
        return False

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        rows = [[point.batch_size, point.total_calls,
                 f"{point.mean_service_us:.3f}"]
                for point in self.static_points]
        table = render_table(
            ["static depth", "calls", "us/call (service)"], rows,
            title=(f"Adaptive batching: steady Poisson arrivals, mean "
                   f"interarrival {self.mean_interval_us:g} us"))
        best = self.best_static()
        controller = self.adaptive_controller
        mmpp = self.mmpp_controller
        summary = (
            f"\nadaptive (AIMD, depth 1 -> {controller.get('depth')}, "
            f"max reached {controller.get('max_depth_reached')}): "
            f"{self.adaptive_mean_us:.3f} us/call overall, "
            f"{self.adaptive_tail_us:.3f} us/call converged tail "
            f"over {self.adaptive_calls} calls"
            f"\nbest static depth {best.batch_size}: "
            f"{best.mean_service_us:.3f} us/call; adaptive tail is "
            f"{self.adaptive_tail_us / best.mean_service_us:.2f}x of best"
            f"\nadaptive within 20% of best static depth: "
            f"{'yes' if self.within_20_percent() else 'NO'}"
            f"\nmmpp leg: max depth {mmpp.get('max_depth_reached')}, "
            f"final depth {mmpp.get('depth')}, "
            f"{mmpp.get('grows')} grows / {mmpp.get('shrinks')} shrinks "
            f"across the on/off cycles"
            f"\ndepth adapted up then back down across the mmpp cycle: "
            f"{'yes' if self.adapted_up_and_down() else 'NO'}")
        return table + summary

    def as_dict(self) -> Dict[str, object]:
        return {
            "depths": list(self.depths),
            "mean_interval_us": self.mean_interval_us,
            "static_points": [
                {"batch_size": p.batch_size, "total_calls": p.total_calls,
                 "mean_service_us": p.mean_service_us}
                for p in self.static_points],
            "adaptive": {
                "calls": self.adaptive_calls,
                "mean_us": self.adaptive_mean_us,
                "tail_us": self.adaptive_tail_us,
                "controller": self.adaptive_controller,
            },
            "mmpp_controller": self.mmpp_controller,
            "best_static": {
                "batch_size": self.best_static().batch_size,
                "mean_service_us": self.best_static().mean_service_us,
            },
            "within_20_percent": self.within_20_percent(),
            "adapted_up_and_down": self.adapted_up_and_down(),
            "metrics": self.metrics,
        }


def _steady_spec(*, calls: int, mean_interval_us: float, seed: int,
                 **overrides) -> TrafficSpec:
    return TrafficSpec(clients=1, modules=1, calls_per_client=calls,
                       arrival="open", mean_interval_us=mean_interval_us,
                       seed=seed, **overrides)


def run_adaptive_bench(*, depths: Sequence[int] = DEFAULT_DEPTHS,
                       static_calls: int = DEFAULT_STATIC_CALLS,
                       adaptive_calls: int = DEFAULT_ADAPTIVE_CALLS,
                       mmpp_calls: int = DEFAULT_MMPP_CALLS,
                       mean_interval_us: float = DEFAULT_MEAN_INTERVAL_US,
                       max_depth: Optional[int] = None,
                       tail_fraction: float = 0.5,
                       seed: int = 0xADA_57) -> AdaptiveReport:
    """Measure the static sweep, the adaptive steady leg and the MMPP leg."""
    if not depths or min(depths) < 1:
        raise ValueError("static depths must be positive")
    if max_depth is None:
        max_depth = max(depths)

    report = AdaptiveReport(depths=tuple(depths),
                            mean_interval_us=mean_interval_us)
    for depth in depths:
        result = run_traffic(_steady_spec(calls=static_calls,
                                          mean_interval_us=mean_interval_us,
                                          seed=seed, batch_size=depth))
        report.static_points.append(StaticPoint(
            batch_size=depth, total_calls=result.total_calls,
            mean_service_us=result.mean_service_us))

    steady: TrafficResult = run_traffic(_steady_spec(
        calls=adaptive_calls, mean_interval_us=mean_interval_us, seed=seed,
        adaptive_batch=True, adaptive_max_depth=max_depth, telemetry=True))
    report.adaptive_calls = steady.total_calls
    report.adaptive_mean_us = steady.mean_service_us
    report.adaptive_tail_us = steady.tail_mean_service_us(tail_fraction)
    report.adaptive_controller = steady.adaptive["per_client"][0]
    report.metrics = steady.metrics

    mmpp = run_traffic(TrafficSpec(
        clients=1, modules=1, calls_per_client=mmpp_calls, arrival="mmpp",
        mean_interval_us=48.0, burst_interval_us=1.5, burst_on_us=400.0,
        burst_off_us=1200.0, adaptive_batch=True,
        adaptive_max_depth=max_depth, seed=seed))
    report.mmpp_controller = mmpp.adaptive["per_client"][0]
    return report
