"""The host-speed probe that the benchmark's host metrics are scaled by.

The benchmark runs on a few cores of a shared host.  Other tenants slow a
whole run down, by up to 2x for a minute at a time, and the process's CPU
time slows with it, so no statistic over one run's reps removes it.  What
does remove it is a fixed piece of pure-Python work timed right beside
each rep: :func:`probe` before and after every rep gives the host's speed
during that rep relative to a quiet reference period, and the rep's host
times are scaled by it (see ``README.md``, "How host time is measured").

The probe is a miniature discrete-event loop shaped like the simulator's
inner loop: a heap of timed events, per-op counters in a dict, method
calls on plain objects, and appends to lists.  A plainer loop of dict
updates and object allocation tracked the simulator's slowdowns about
half as well.

The probe and :data:`REFERENCE_S` are the benchmark's yardstick.  A change
to either changes every host metric, so a change that does so re-measures
the baseline and says so.
"""

from __future__ import annotations

import gc
import heapq
import time

#: events the probe processes: about 40 ms on the reference box
PROBE_EVENTS = 25_000
#: the probe's median duration on the reference box in a quiet period
#: (2 vCPUs of an Intel Xeon in a shared VM, Python 3.11): the host speed
#: that scaled host metrics are expressed at
REFERENCE_S = 0.0420

_OPS = ("trap", "msgsnd", "msgrcv", "switch", "body", "ret")


class _Meter:
    def __init__(self) -> None:
        self.counts = {}
        self.cycles = 0

    def charge(self, op: str, cycles: int) -> None:
        self.counts[op] = self.counts.get(op, 0) + 1
        self.cycles += cycles


class _Proc:
    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.calls = []


def _event_loop(events_to_run: int) -> int:
    meter = _Meter()
    procs = [_Proc(pid) for pid in range(64)]
    events = [(pid, pid) for pid in range(64)]
    heapq.heapify(events)
    latencies = []
    for index in range(events_to_run):
        now, pid = heapq.heappop(events)
        proc = procs[pid]
        start = now
        for op in _OPS:
            meter.charge(op, 7 + (pid & 3))
            now += 3
        proc.calls.append((start, now))
        latencies.append(now - start)
        if len(proc.calls) > 32:
            proc.calls = []
        heapq.heappush(events, (now + (index * 2654435761 & 255), pid))
    return meter.cycles + len(latencies)


def probe() -> float:
    """Host seconds the probe takes now.

    Garbage collection is off while it runs, so whatever heap a rep left
    behind does not change the probe's own work.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _event_loop(PROBE_EVENTS)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def host_speed(probe_s: float) -> float:
    """The host's speed relative to the reference period: 1.0 there, 0.5
    when the probe takes twice as long."""
    return REFERENCE_S / probe_s
