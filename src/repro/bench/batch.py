"""Batched-dispatch benchmark: the ``abl-batch`` experiment.

The paper's Figure 8 breakdown shows the two context switches per protected
call dominating dispatch latency.  The batched call path amortizes them — a
client-side queue flushes N calls through one ``sys_smod_call_batch`` trap,
paying one trap, one request/reply message pair and one context-switch pair
for the whole queue.  This benchmark sweeps the queue depth from 1 to 64
over the paper-default configuration and reports latency-per-call and
calls/sec at each point.

Two invariants anchor the sweep:

* batch size 1 flushes on the ordinary single-call path, so its cycles/call
  equals the Figure 8 dispatch cost **exactly** (the report cross-checks it
  against a plain single-call loop over the same workload);
* cycles/call decreases monotonically with batch size — each doubling
  spreads the fixed trap + switch + message cost over twice the calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..secmodule.api import SecModuleSystem
from ..secmodule.dispatch import DispatchConfig
from ..sim import costs
from .report import render_table

#: Queue depths the headline sweep measures.
DEFAULT_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
#: Total protected calls per point — divisible by every default size.
DEFAULT_CALLS = 192


@dataclass
class BatchPoint:
    """One measured queue depth."""

    batch_size: int
    total_calls: int
    cycles: int
    context_switches: int
    traps: int

    @property
    def cycles_per_call(self) -> float:
        return self.cycles / self.total_calls

    @property
    def switches_per_call(self) -> float:
        return self.context_switches / self.total_calls


@dataclass
class BatchReport:
    """The full sweep plus the single-call cross-check."""

    sizes: Tuple[int, ...]
    total_calls: int
    mhz: float
    points: List[BatchPoint] = field(default_factory=list)
    #: cycles of a plain ``dispatcher.call`` loop over the same workload
    single_call_cycles: int = 0

    def point(self, batch_size: int) -> BatchPoint:
        for point in self.points:
            if point.batch_size == batch_size:
                return point
        raise KeyError(batch_size)

    @property
    def baseline_cycles_per_call(self) -> float:
        """The single-call reference loop's cycles/call (always measured)."""
        return self.single_call_cycles / self.total_calls

    # -- the acceptance-bar checks ------------------------------------------
    def batch1_matches_single_call(self) -> bool:
        """Queue depth 1 must be cycle-identical to per-call dispatch
        (vacuously true when the sweep skips depth 1)."""
        if 1 not in self.sizes:
            return True
        return self.point(1).cycles == self.single_call_cycles

    def monotonically_decreasing(self) -> bool:
        """cycles/call must fall as the queue deepens."""
        per_call = [p.cycles_per_call for p in self.points]
        return all(a > b for a, b in zip(per_call, per_call[1:]))

    def speedup(self, batch_size: int) -> float:
        return self.baseline_cycles_per_call / self.point(batch_size).cycles_per_call

    def us_per_call(self, point: BatchPoint) -> float:
        return point.cycles_per_call / self.mhz

    def calls_per_second(self, point: BatchPoint) -> float:
        return 1e6 / self.us_per_call(point)

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        rows = []
        for point in self.points:
            rows.append([
                point.batch_size,
                f"{point.cycles_per_call:,.1f}",
                f"{self.us_per_call(point):.3f}",
                f"{self.calls_per_second(point):,.0f}",
                f"{point.switches_per_call:.3f}",
                f"{self.speedup(point.batch_size):.2f}x",
            ])
        table = render_table(
            ["batch size", "cycles/call", "us/call", "calls/sec",
             "switches/call", "speedup"],
            rows,
            title=(f"Batched dispatch: {self.total_calls} calls/point, "
                   f"paper-default config"))
        if 1 in self.sizes:
            check = ("identical" if self.batch1_matches_single_call()
                     else "MISMATCH")
            reference = (
                f"\nbatch size 1 vs single-call dispatch: {check} "
                f"({self.point(1).cycles:,} vs "
                f"{self.single_call_cycles:,} cycles)")
        else:
            reference = (
                f"\nsingle-call reference: "
                f"{self.baseline_cycles_per_call:,.1f} cycles/call")
        summary = (
            f"{reference}"
            f"\ncycles/call monotonically decreasing: "
            f"{'yes' if self.monotonically_decreasing() else 'NO'}")
        return table + summary


def _fresh_session(seed: int):
    """A paper-default system warmed by one call (lazy state populated)."""
    system = SecModuleSystem.create(seed=seed, include_libc=False)
    system.call("test_incr", 0)
    return system


def _workload(calls: int) -> List[Tuple[str, Tuple[int, ...]]]:
    return [("test_incr", (i,)) for i in range(calls)]


def run_batch_sweep(*, sizes: Sequence[int] = DEFAULT_SIZES,
                    calls: int = DEFAULT_CALLS,
                    seed: int = 0xBA7C_4) -> BatchReport:
    """Measure the sweep: one fresh system per queue depth, same workload."""
    if not sizes or min(sizes) < 1:
        raise ValueError("batch sizes must be positive")

    # the single-call cross-check: a plain per-call loop, same warmup
    reference = _fresh_session(seed)
    mark = reference.machine.clock.checkpoint()
    for name, args in _workload(calls):
        reference.extension.dispatcher.call(reference.session, name, *args)
    single_cycles = reference.machine.clock.since(mark).cycles

    report = BatchReport(sizes=tuple(sizes), total_calls=calls,
                         mhz=reference.machine.spec.mhz,
                         single_call_cycles=single_cycles)
    for batch_size in sizes:
        system = _fresh_session(seed)
        meter = system.machine.meter
        switches_before = meter.count(costs.CONTEXT_SWITCH)
        traps_before = meter.count(costs.TRAP_ENTRY)
        mark = system.machine.clock.checkpoint()
        outcome = system.extension.dispatcher.call_batch(
            system.session, _workload(calls),
            config=DispatchConfig(batch_size=batch_size))
        cycles = system.machine.clock.since(mark).cycles
        if not outcome.ok:
            raise RuntimeError(
                f"batch sweep at size {batch_size} had denied calls")
        report.points.append(BatchPoint(
            batch_size=batch_size,
            total_calls=calls,
            cycles=cycles,
            context_switches=meter.count(costs.CONTEXT_SWITCH) - switches_before,
            traps=meter.count(costs.TRAP_ENTRY) - traps_before,
        ))
    return report
