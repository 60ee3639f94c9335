"""Overload-protection benchmark: the ``abl-overload`` knee figure.

The paper measures protected-call cost under well-behaved load; this
experiment measures what the served deployment does to load it did not
ask for.  Open-loop arrivals are offered to a pooled backend at a sweep
of load ratios (offered rate / pool capacity) through and past
saturation, twice:

* **unprotected** — the pool queues everything (``overflow="queue"``,
  unbounded).  Past saturation the backlog, and with it the tail
  latency, grows without bound; almost nothing completes inside the
  deadline, so *goodput* (on-time completions per virtual millisecond)
  collapses even though raw throughput stays at capacity.
* **protected** — the same arrivals with deadline shedding on
  (:class:`~repro.control.overload.OverloadConfig` ``deadline_us``): a
  call whose projected virtual wait already blows the deadline is shed
  at admission, before it queues.  The queue can never hold more than a
  deadline's worth of work, so every served call is on time and goodput
  holds at capacity through 2x overload — the knee the figure shows.

On-time means the pool wait stayed within the deadline — exactly the
predicate the shedder enforces, so the protected leg is on time by
construction and the unprotected leg shows what the same predicate
measures when nothing enforces it.

A second, smaller leg demonstrates token-bucket **admission control** at
the dispatcher entry: a client hammering bound calls against a bucket
refilling slower than it offers sees deterministic refusals, and the
mean cost of a refusal (resolve + keyed probe + admission check) is a
small fraction of a served call — refusing is honest but cheap.

Everything here is virtual-clock-deterministic; host wall time lives at
the payload top level where the byte-exact regression gate never looks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..control.overload import OverloadConfig, OverloadController
from ..hw.machine import make_paper_machine
from ..kernel.kernel import Kernel
from ..secmodule.libc_conversion import build_test_module
from ..secmodule.protection import ProtectionMode
from ..secmodule.smod_syscalls import install_secmodule
from ..serve.attachment_pool import PoolConfig
from ..serve.frontend import ServiceFrontend, ServiceConfig
from .report import render_table

#: Offered-load ratios (offered rate / pool capacity) the knee sweeps.
DEFAULT_RATIOS: Tuple[float, ...] = (0.5, 0.8, 1.0, 1.2, 1.5, 2.0)
FAST_RATIOS: Tuple[float, ...] = (0.5, 1.0, 2.0)
#: Open-loop arrivals offered per (leg, ratio) point.
DEFAULT_CALLS = 600
FAST_CALLS = 320
#: Pool workers: capacity = attachments / service time.
POOL_ATTACHMENTS = 4
#: The latency deadline (virtual us) both legs are judged against and
#: the protected leg sheds to — about six service times.
DEADLINE_US = 40.0
#: Calibration calls (spaced far apart: no waits) sizing the sweep.
CALIBRATION_CALLS = 32
CALIBRATION_SPACING_US = 100.0
#: Admission leg: offered bound calls and the bucket starving them.
DEFAULT_ADMIT_CALLS = 200
FAST_ADMIT_CALLS = 64
ADMIT_RATE_PER_US = 0.07          # ~1 token per 14us vs ~7us per call
ADMIT_BURST = 8.0


@dataclass
class OverloadPoint:
    """One (leg, offered-load ratio) measurement."""

    protected: bool
    ratio: float
    interval_us: float
    offered: int
    served: int
    on_time: int
    shed: int
    #: latency (arrival -> completion, virtual us) stats over served calls
    p50_us: float
    p95_us: float
    max_us: float
    #: on-time completions per virtual millisecond of the offered window
    goodput_per_ms: float

    @property
    def leg(self) -> str:
        return "protected" if self.protected else "unprotected"


@dataclass
class AdmissionReport:
    """The token-bucket mini-leg: refusals are deterministic and cheap."""

    offered: int
    admitted: int
    refused: int
    rate_per_us: float
    burst: float
    mean_admitted_us: float
    mean_refused_us: float

    @property
    def refusal_cost_ratio(self) -> float:
        if self.mean_admitted_us <= 0.0:
            return 0.0
        return self.mean_refused_us / self.mean_admitted_us


@dataclass
class OverloadReport:
    """Both knee legs, the admission leg, and the acceptance checks."""

    ratios: Tuple[float, ...]
    calls: int
    attachments: int
    deadline_us: float
    service_us: float
    mhz: float
    points: List[OverloadPoint] = field(default_factory=list)
    admission: AdmissionReport = None  # type: ignore[assignment]

    # -- views ---------------------------------------------------------------
    def leg(self, protected: bool) -> List[OverloadPoint]:
        return [p for p in self.points if p.protected == protected]

    def _at_max_ratio(self, protected: bool) -> OverloadPoint:
        return max(self.leg(protected), key=lambda p: p.ratio)

    # -- the acceptance-bar checks ------------------------------------------
    def protected_goodput_holds(self) -> bool:
        """Protected goodput at the deepest overload must stay within 20%
        of the leg's peak — the knee flattens instead of collapsing."""
        leg = self.leg(True)
        if not leg:
            return False
        peak = max(p.goodput_per_ms for p in leg)
        return self._at_max_ratio(True).goodput_per_ms >= 0.8 * peak

    def protected_tail_bounded(self) -> bool:
        """Protected p95 latency stays within deadline + service slack."""
        bound = self.deadline_us + 2.0 * self.service_us
        return self._at_max_ratio(True).p95_us <= bound

    def unprotected_tail_blows(self) -> bool:
        """Unprotected p95 at the deepest overload dwarfs the deadline."""
        return self._at_max_ratio(False).p95_us > 4.0 * self.deadline_us

    def unprotected_goodput_collapses(self) -> bool:
        """Without protection, on-time goodput at the deepest overload
        falls below half of what shedding preserves."""
        return (self._at_max_ratio(False).goodput_per_ms
                < 0.5 * self._at_max_ratio(True).goodput_per_ms)

    def admission_refusal_cheap(self) -> bool:
        """A refused call costs a small fraction of a served one."""
        return (self.admission.refused > 0
                and self.admission.refusal_cost_ratio < 0.25)

    @property
    def bench_total_calls(self) -> int:
        # smod: allow(DET004)  integer call counts
        return (sum(p.offered for p in self.points)
                + CALIBRATION_CALLS + self.admission.offered)

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        rows = []
        for p in self.points:
            rows.append([
                p.leg,
                f"{p.ratio:.1f}x",
                f"{p.offered}",
                f"{p.served}",
                f"{p.on_time}",
                f"{p.shed}",
                f"{p.goodput_per_ms:,.0f}",
                f"{p.p50_us:.1f}",
                f"{p.p95_us:.1f}",
                f"{p.max_us:.1f}",
            ])
        table = render_table(
            ["leg", "load", "offered", "served", "on time", "shed",
             "goodput/ms", "p50 us", "p95 us", "max us"],
            rows,
            title=(f"Overload knee: {self.attachments} workers @ "
                   f"{self.service_us:.2f}us/call, deadline "
                   f"{self.deadline_us:.0f}us, offered "
                   f"{min(self.ratios):.1f}x -> {max(self.ratios):.1f}x "
                   f"capacity"))
        adm = self.admission
        summary = (
            f"\nadmission leg: {adm.offered} offered, {adm.admitted} "
            f"admitted, {adm.refused} refused (bucket "
            f"{adm.rate_per_us:.3f} tokens/us, burst {adm.burst:.0f}); "
            f"served call {adm.mean_admitted_us:.2f}us vs refusal "
            f"{adm.mean_refused_us:.2f}us "
            f"({adm.refusal_cost_ratio:.1%} of a served call)"
            f"\nprotected goodput holds within 20% of peak at "
            f"{max(self.ratios):.1f}x: "
            f"{'yes' if self.protected_goodput_holds() else 'NO'}"
            f"\nprotected p95 bounded by deadline + 2x service: "
            f"{'yes' if self.protected_tail_bounded() else 'NO'}"
            f"\nunprotected p95 exceeds 4x deadline at "
            f"{max(self.ratios):.1f}x: "
            f"{'yes' if self.unprotected_tail_blows() else 'NO'}"
            f"\nunprotected goodput collapses below half of protected: "
            f"{'yes' if self.unprotected_goodput_collapses() else 'NO'}"
            f"\nadmission refusals cheap (<25% of a served call): "
            f"{'yes' if self.admission_refusal_cheap() else 'NO'}")
        return table + summary

    def as_dict(self) -> Dict[str, object]:
        """Deterministic (virtual-clock) metrics only: this block sits
        inside the byte-exact ``repro bench diff`` gate."""
        return {
            "ratios": list(self.ratios),
            "calls": self.calls,
            "attachments": self.attachments,
            "deadline_us": self.deadline_us,
            "service_us": self.service_us,
            "mhz": self.mhz,
            "points": [
                {"leg": p.leg, "ratio": p.ratio,
                 "interval_us": p.interval_us, "offered": p.offered,
                 "served": p.served, "on_time": p.on_time, "shed": p.shed,
                 "p50_us": p.p50_us, "p95_us": p.p95_us,
                 "max_us": p.max_us, "goodput_per_ms": p.goodput_per_ms}
                for p in self.points],
            "admission": {
                "offered": self.admission.offered,
                "admitted": self.admission.admitted,
                "refused": self.admission.refused,
                "rate_per_us": self.admission.rate_per_us,
                "burst": self.admission.burst,
                "mean_admitted_us": self.admission.mean_admitted_us,
                "mean_refused_us": self.admission.mean_refused_us,
                "refusal_cost_ratio": self.admission.refusal_cost_ratio},
            "protected_goodput_holds": self.protected_goodput_holds(),
            "protected_tail_bounded": self.protected_tail_bounded(),
            "unprotected_tail_blows": self.unprotected_tail_blows(),
            "unprotected_goodput_collapses":
                self.unprotected_goodput_collapses(),
            "admission_refusal_cheap": self.admission_refusal_cheap(),
        }


def _build_frontend(seed: int, *, deadline_us: float = 0.0
                    ) -> Tuple[object, ServiceFrontend, object]:
    """One fresh system with a pooled secmodule backend."""
    machine = make_paper_machine(seed=seed)
    kernel = Kernel(machine=machine).boot()
    extension = install_secmodule(kernel)
    registered = extension.registry.register(
        build_test_module(), uid=0, protection=ProtectionMode.ENCRYPT)
    overload = (OverloadConfig(deadline_us=deadline_us)
                if deadline_us > 0.0 else None)
    frontend = ServiceFrontend(
        kernel, extension,
        config=ServiceConfig(
            pool=PoolConfig(max_attachments=POOL_ATTACHMENTS),
            overload=overload))
    record = frontend.register_backend("secmodule", [registered],
                                       policy="pooled:64")
    return machine, frontend, record


def _calibrate_service_us(seed: int) -> float:
    """Mean pooled service time, measured with arrivals spaced so far
    apart that no call ever waits (its own fresh system, discarded)."""
    machine, frontend, record = _build_frontend(seed)
    base_us = machine.meter.profile.microseconds(machine.clock.cycles)
    total = 0.0
    for index in range(CALIBRATION_CALLS):
        arrival = base_us + index * CALIBRATION_SPACING_US
        outcome, checkout = frontend.call_pooled(
            record, "test_incr", index, arrival_us=arrival)
        if not outcome.ok or checkout.wait_us:
            raise RuntimeError("overload calibration call waited or failed")
        total += checkout.attachment.free_at_us - arrival
    return total / CALIBRATION_CALLS


def _percentile(sorted_values: List[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    index = max(0, int(len(sorted_values) * pct + 0.999999) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def _measure_point(ratio: float, *, protected: bool, calls: int,
                   service_us: float, seed: int) -> OverloadPoint:
    """One fresh system per point: offer ``calls`` open-loop arrivals at
    ``ratio`` times pool capacity and account every completion."""
    machine, frontend, record = _build_frontend(
        seed, deadline_us=DEADLINE_US if protected else 0.0)
    capacity_per_us = POOL_ATTACHMENTS / service_us
    interval_us = 1.0 / (capacity_per_us * ratio)
    base_us = machine.meter.profile.microseconds(machine.clock.cycles)
    latencies: List[float] = []
    on_time = 0
    shed = 0
    for index in range(calls):
        arrival = base_us + index * interval_us
        outcome, checkout = frontend.call_pooled(
            record, "test_incr", index, arrival_us=arrival)
        if checkout.refused:
            shed += 1
            continue
        if not outcome.ok:
            raise RuntimeError(f"pooled call failed at ratio {ratio}")
        # the checkin horizon is this call's completion time
        latencies.append(checkout.attachment.free_at_us - arrival)
        if checkout.wait_us <= DEADLINE_US:
            on_time += 1
    latencies.sort()
    offered_window_us = calls * interval_us
    return OverloadPoint(
        protected=protected, ratio=ratio, interval_us=interval_us,
        offered=calls, served=len(latencies), on_time=on_time, shed=shed,
        p50_us=_percentile(latencies, 0.50),
        p95_us=_percentile(latencies, 0.95),
        max_us=latencies[-1] if latencies else 0.0,
        goodput_per_ms=on_time * 1000.0 / offered_window_us)


def _measure_admission(calls: int, seed: int) -> AdmissionReport:
    """Token-bucket admission at the dispatcher entry: a hammering
    client sees deterministic refusals, each far cheaper than service."""
    machine, frontend, record = _build_frontend(seed)
    binding = frontend.attach(record)
    dispatcher = frontend.extension.dispatcher
    dispatcher.overload = OverloadController(OverloadConfig(
        admission_rate_per_us=ADMIT_RATE_PER_US,
        admission_burst=ADMIT_BURST))
    admitted = refused = 0
    admitted_cycles = refused_cycles = 0
    for index in range(calls):
        mark = machine.clock.checkpoint()
        outcome = frontend.call_bound(binding.binding_id,
                                      "test_incr", index)
        cycles = machine.clock.since(mark).cycles
        if outcome.ok:
            admitted += 1
            admitted_cycles += cycles
        else:
            refused += 1
            refused_cycles += cycles
    mhz = machine.spec.mhz
    return AdmissionReport(
        offered=calls, admitted=admitted, refused=refused,
        rate_per_us=ADMIT_RATE_PER_US, burst=ADMIT_BURST,
        mean_admitted_us=(admitted_cycles / admitted / mhz
                          if admitted else 0.0),
        mean_refused_us=(refused_cycles / refused / mhz
                         if refused else 0.0))


def run_overload_sweep(*, ratios: Sequence[float] = DEFAULT_RATIOS,
                       calls: int = DEFAULT_CALLS,
                       admit_calls: int = DEFAULT_ADMIT_CALLS,
                       seed: int = 0x0AD_10) -> OverloadReport:
    """Measure both knee legs plus the admission leg."""
    if not ratios or min(ratios) <= 0.0:
        raise ValueError("load ratios must be positive")
    if calls < 10 or admit_calls < 10:
        raise ValueError("calls and admit_calls must be >= 10")
    service_us = _calibrate_service_us(seed)
    report = OverloadReport(
        ratios=tuple(ratios), calls=calls, attachments=POOL_ATTACHMENTS,
        deadline_us=DEADLINE_US, service_us=service_us,
        mhz=make_paper_machine(seed=seed).spec.mhz)
    for protected in (False, True):
        for ratio in ratios:
            report.points.append(_measure_point(
                ratio, protected=protected, calls=calls,
                service_us=service_us, seed=seed))
    report.admission = _measure_admission(admit_calls, seed)
    return report
