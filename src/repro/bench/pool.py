"""Handle-pool benchmark: the ``abl-pool`` experiment.

The paper's prototype forks one handle co-process per session, so N
connected sessions cost N forks, N module-text decryptions and N resident
processes.  The handle broker decouples that: under a
``pooled(max_sessions=k)`` policy one handle serves up to ``k`` sessions,
and the 64-session sweep below shows the resident handle count dropping
from 64 to ``ceil(64 / k)`` while each attach pays a routing-table insert
instead of a fork.

Two invariants anchor the sweep:

* seats-per-handle 1 is the paper's 1:1 shape: handle count equals the
  session count and dispatch is cycle-identical to the per-session build
  (shared handles add a routing-table walk; a sole seat routes for free);
* per-call latency is monotone (non-decreasing) in the seat count — the
  logarithmic routing walk is the only per-call price of pooling — and
  stays within a few percent of the 1:1 dispatch cost, while session
  establishment gets dramatically cheaper (no fork, no decryption).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..hw.machine import make_paper_machine
from ..kernel.kernel import Kernel
from ..secmodule.handle_pool import HandlePolicy
from ..secmodule.libc_conversion import build_test_module
from ..secmodule.protection import ProtectionMode
from ..secmodule.session import SessionDescriptor, build_requirements
from ..secmodule.smod_syscalls import install_secmodule
from ..userland.process import Program
from ..workloads.traffic import TrafficSpec, run_traffic
from .report import render_table

#: Seats-per-handle values the headline sweep measures.
DEFAULT_SEATS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
#: Sessions established per point (one client process each).
DEFAULT_SESSIONS = 64
#: Protected calls issued per session during the measurement phase.
DEFAULT_CALLS_PER_SESSION = 4
#: Fairness leg: seats per handle and sessions of the contended phase.
FAIRNESS_SEATS = 8
FAIRNESS_SESSIONS = 16
FAIRNESS_CALLS_PER_SESSION = 8
#: Fairness leg mean interarrival — well below the ~6.4 us dispatch
#: latency, so arrivals queue behind the busy handle and per-seat
#: queueing delay is non-trivial.
FAIRNESS_MEAN_INTERVAL_US = 3.0


@dataclass
class PoolPoint:
    """One measured seats-per-handle configuration."""

    max_sessions: int
    sessions: int
    handle_count: int
    establish_cycles: int
    call_cycles: int
    total_calls: int

    broker_stats: Dict[str, int] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles_per_call(self) -> float:
        return self.call_cycles / self.total_calls

    @property
    def establish_cycles_per_session(self) -> float:
        return self.establish_cycles / self.sessions


@dataclass
class PoolFairness:
    """The telemetry leg: per-seat queueing delay under contention.

    One pooled system, open-loop Poisson arrivals across every session;
    the broker's per-seat histograms yield each client's queueing-delay
    p95 and a Jain fairness index per shared handle.
    """

    seats: int
    sessions: int
    total_calls: int
    #: handle pid -> {"clients", "per_client": {pid: {p95_us, mean_us}},
    #: "jain_fairness"} — the broker's seat_delay_report
    handles: Dict[int, Dict[str, object]] = field(default_factory=dict)

    def worst_jain(self) -> float:
        if not self.handles:
            return 1.0
        return min(entry["jain_fairness"] for entry in self.handles.values())

    def render(self) -> str:
        rows = []
        for handle_pid, entry in sorted(self.handles.items()):
            per_client = entry["per_client"]
            p95s = [stats["p95_us"] for stats in per_client.values()]
            rows.append([
                handle_pid,
                entry["clients"],
                f"{min(p95s):.2f}" if p95s else "-",
                f"{max(p95s):.2f}" if p95s else "-",
                f"{entry['jain_fairness']:.4f}",
            ])
        table = render_table(
            ["handle pid", "clients", "min client p95 us",
             "max client p95 us", "Jain fairness"],
            rows,
            title=(f"Pooled-handle queueing fairness: {self.sessions} "
                   f"sessions on pooled({self.seats}) handles, "
                   f"{self.total_calls} open-loop calls"))
        detail_lines = []
        for handle_pid, entry in sorted(self.handles.items()):
            p95_list = ", ".join(
                f"pid {client}: {stats['p95_us']:.2f}"
                for client, stats in sorted(entry["per_client"].items()))
            detail_lines.append(
                f"handle {handle_pid} per-client queueing-delay p95 (us): "
                f"{p95_list}")
        summary = (f"\nworst Jain fairness index across pooled handles: "
                   f"{self.worst_jain():.4f}")
        return table + "\n" + "\n".join(detail_lines) + summary


@dataclass
class PoolReport:
    """The full sweep plus the structural checks the acceptance bar names."""

    seats: Tuple[int, ...]
    sessions: int
    mhz: float
    points: List[PoolPoint] = field(default_factory=list)
    #: the telemetry-driven fairness leg (None when skipped)
    fairness: Optional[PoolFairness] = None

    def point(self, max_sessions: int) -> PoolPoint:
        for point in self.points:
            if point.max_sessions == max_sessions:
                return point
        raise KeyError(max_sessions)

    # -- the acceptance-bar checks ------------------------------------------
    def handle_counts_match(self) -> bool:
        """Every point must hold exactly ceil(sessions / seats) handles."""
        return all(p.handle_count == math.ceil(self.sessions / p.max_sessions)
                   for p in self.points)

    def monotone_us_per_call(self) -> bool:
        """us/call must be non-decreasing as handles get more crowded."""
        per_call = [p.cycles_per_call for p in self.points]
        return all(a <= b for a, b in zip(per_call, per_call[1:]))

    def us_per_call(self, point: PoolPoint) -> float:
        return point.cycles_per_call / self.mhz

    def establish_us(self, point: PoolPoint) -> float:
        return point.establish_cycles_per_session / self.mhz

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        rows = []
        for point in self.points:
            rows.append([
                point.max_sessions,
                point.handle_count,
                f"{self.establish_us(point):,.1f}",
                f"{point.cycles_per_call:,.1f}",
                f"{self.us_per_call(point):.3f}",
            ])
        table = render_table(
            ["sessions/handle", "handle procs", "establish us/session",
             "cycles/call", "us/call"],
            rows,
            title=(f"Handle pool: {self.sessions} sessions, one pooled "
                   f"module, seats swept 1 -> {max(self.seats)}"))
        summary = (
            f"\nhandle procs == ceil(sessions/seats) at every point: "
            f"{'yes' if self.handle_counts_match() else 'NO'}"
            f"\nus/call monotone (non-decreasing) in seats/handle: "
            f"{'yes' if self.monotone_us_per_call() else 'NO'}")
        # per-point broker counters (previously measured but never shown)
        broker_bits = "; ".join(
            f"{p.max_sessions}: forked={p.broker_stats.get('handles_forked', 0)} "
            f"attached={p.broker_stats.get('attachments', 0)}"
            for p in self.points if p.broker_stats)
        if broker_bits:
            summary += f"\nbroker stats by seats/handle: {broker_bits}"
        last = self.points[-1] if self.points else None
        if last is not None and last.cache_stats:
            summary += (
                f"\ndecision cache (seats={last.max_sessions} point): "
                + " ".join(f"{k}={v}" for k, v in
                           sorted(last.cache_stats.items())))
        text = table + summary
        if self.fairness is not None:
            text += "\n\n" + self.fairness.render()
        return text

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "seats": list(self.seats),
            "sessions": self.sessions,
            "mhz": self.mhz,
            "points": [
                {"max_sessions": p.max_sessions,
                 "handle_count": p.handle_count,
                 "establish_us_per_session": self.establish_us(p),
                 "cycles_per_call": p.cycles_per_call,
                 "us_per_call": self.us_per_call(p),
                 "broker_stats": dict(p.broker_stats),
                 "cache_stats": dict(p.cache_stats)}
                for p in self.points],
            "handle_counts_match": self.handle_counts_match(),
            "monotone_us_per_call": self.monotone_us_per_call(),
        }
        if self.fairness is not None:
            payload["fairness"] = {
                "seats": self.fairness.seats,
                "sessions": self.fairness.sessions,
                "total_calls": self.fairness.total_calls,
                "worst_jain": self.fairness.worst_jain(),
                "handles": {str(pid): entry for pid, entry
                            in self.fairness.handles.items()},
            }
        return payload


def _measure_point(max_sessions: int, sessions: int,
                   calls_per_session: int, seed: int) -> PoolPoint:
    """One fresh kernel: establish N sessions under pooled(k), then call."""
    machine = make_paper_machine(seed=seed)
    kernel = Kernel(machine=machine).boot()
    extension = install_secmodule(kernel)
    definition = build_test_module()
    registered = extension.registry.register(definition, uid=0,
                                             protection=ProtectionMode.ENCRYPT)
    extension.broker.register_policy(
        registered.name, HandlePolicy.pooled(max_sessions))

    # -- establishment phase: N clients, one session each -------------------
    mark = machine.clock.checkpoint()
    session_objects = []
    for index in range(sessions):
        program = Program.spawn(kernel, f"pool-client{index}", uid=1000)
        descriptor = SessionDescriptor(build_requirements(
            [registered], principal="alice", uid=1000))
        session_id = program.smod_crt0_startup(extension, descriptor)
        session_objects.append(extension.sessions.get(session_id))
    establish_cycles = machine.clock.since(mark).cycles
    handle_count = extension.sessions.handle_count()

    # -- call phase: round-robin across sessions -----------------------------
    mark = machine.clock.checkpoint()
    total_calls = 0
    for round_index in range(calls_per_session):
        for session in session_objects:
            outcome = extension.dispatcher.call(session, "test_incr",
                                                round_index)
            if not outcome.ok:
                raise RuntimeError(
                    f"pool sweep call denied at seats={max_sessions}")
            total_calls += 1
    call_cycles = machine.clock.since(mark).cycles

    return PoolPoint(max_sessions=max_sessions, sessions=sessions,
                     handle_count=handle_count,
                     establish_cycles=establish_cycles,
                     call_cycles=call_cycles, total_calls=total_calls,
                     broker_stats=extension.broker.snapshot(),
                     cache_stats=extension.decision_cache.snapshot())


def _measure_fairness(*, seats: int = FAIRNESS_SEATS,
                      sessions: int = FAIRNESS_SESSIONS,
                      calls_per_session: int = FAIRNESS_CALLS_PER_SESSION,
                      mean_interval_us: float = FAIRNESS_MEAN_INTERVAL_US,
                      seed: int) -> PoolFairness:
    """The telemetry leg: open-loop contention over pooled handles.

    A telemetry-enabled traffic run (recording never charges the clock, so
    this leg cannot perturb the sweep's numbers): one client per session on
    ``pooled(seats)`` handles, each offering a pre-drawn Poisson arrival
    schedule.  Arrivals landing while the virtual clock is still inside an
    earlier call wait, and that wait is the per-seat queueing delay the
    broker's histograms capture and its ``seat_delay_report`` scores.
    """
    spec = TrafficSpec(clients=sessions, modules=1,
                       calls_per_client=calls_per_session, arrival="open",
                       mean_interval_us=mean_interval_us,
                       handle_policy="pooled", pool_max_sessions=seats,
                       telemetry=True, seed=seed)
    result = run_traffic(spec)
    return PoolFairness(seats=seats, sessions=sessions,
                        total_calls=result.total_calls,
                        handles=result.seat_fairness)


def run_pool_sweep(*, seats: Sequence[int] = DEFAULT_SEATS,
                   sessions: int = DEFAULT_SESSIONS,
                   calls_per_session: int = DEFAULT_CALLS_PER_SESSION,
                   seed: int = 0x900_1,
                   fairness: bool = True) -> PoolReport:
    """Measure the sweep (one fresh system per seats-per-handle point) and,
    unless disabled, the telemetry-driven queueing-fairness leg."""
    if not seats or min(seats) < 1:
        raise ValueError("seats per handle must be positive")
    if sessions < 1 or calls_per_session < 1:
        raise ValueError("pool sweep needs sessions and calls >= 1")
    mhz = make_paper_machine(seed=seed).spec.mhz
    report = PoolReport(seats=tuple(seats), sessions=sessions, mhz=mhz)
    for max_sessions in seats:
        report.points.append(_measure_point(max_sessions, sessions,
                                            calls_per_session, seed))
    if fairness:
        report.fairness = _measure_fairness(seed=seed)
    return report
