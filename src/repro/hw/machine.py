"""Machine descriptions.

Figure 7 of the paper is an abbreviated dmesg of the test system: OpenBSD
3.6 on a 599 MHz Pentium III with 512 KB of L2 cache, 512 MB of RAM, an IDE
disk and ``CLOCK_TICK_PER_SECOND`` (HZ) of 100.  This module captures that
machine as data, provides the dmesg-style report the Figure 7 benchmark
regenerates, and acts as the factory that wires a CPU, virtual clock, cost
profile and RNG together for the rest of the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..sim.clock import VirtualClock
from ..sim.costs import CostMeter, CostProfile, MODERN_X86_3GHZ, PENTIUM_III_599
from ..sim.rng import DeterministicRNG
from ..sim.trace import TraceBuffer
from ..telemetry import Telemetry
from .cpu import CPU, CPUFeatureFlags
from .tsc import TimestampCounter

#: Page size of the simulated i386 MMU, in bytes.
PAGE_SIZE = 4096


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a machine (the contents of Figure 7)."""

    name: str
    os_version: str
    cpu_model: str
    mhz: float
    l2_cache_kb: int
    real_mem_bytes: int
    hz: int                      # CLOCK_TICK_PER_SECOND
    disk_model: str
    disk_mb: int
    profile: CostProfile
    extra_dmesg: tuple = ()

    @property
    def real_mem_kb(self) -> int:
        return self.real_mem_bytes // 1024

    @property
    def num_physical_pages(self) -> int:
        return self.real_mem_bytes // PAGE_SIZE

    def dmesg(self) -> List[str]:
        """Render the abbreviated dmesg of Figure 7 for this machine."""
        lines = [
            f"{self.os_version}",
            f"cpu0: {self.cpu_model} {self.mhz:.0f} MHz",
            f"cpu0: {CPUFeatureFlags().as_string()}",
            f"real mem = {self.real_mem_bytes} ({self.real_mem_kb}K)",
            'pcib0 at pci0 dev 7 function 0 "Intel 82371AB PIIX4 ISA" rev 0x02',
            'pciide0 at pci0 dev 7 function 1 "Intel 82371AB IDE" rev 0x01: DMA',
            f"wd0 at pciide0 channel 0 drive 0: <{self.disk_model}>",
            f"wd0: 16-sector PIO, LBA, {self.disk_mb}MB",
            f"CLOCK_TICK_PER_SECOND is {self.hz}",
        ]
        lines.extend(self.extra_dmesg)
        return lines


#: The paper's test system (Figure 7).
OPENBSD36_PIII = MachineSpec(
    name="openbsd36-piii-599",
    os_version="OpenBSD 3.6 (sys) #69: Tue Jan 25 03:52:35 EST 2005",
    cpu_model='Intel Pentium III ("GenuineIntel" 686-class, 512KB L2 cache)',
    mhz=599.0,
    l2_cache_kb=512,
    real_mem_bytes=536_440_832,
    hz=100,
    disk_model="IBM-DPTA-372730",
    disk_mb=26_105,
    profile=PENTIUM_III_599,
)

#: A present-day point of comparison for the sensitivity benchmarks.
MODERN_WORKSTATION = MachineSpec(
    name="modern-x86-3000",
    os_version="SimOS 1.0 (sys) #1",
    cpu_model="Generic x86-64 (simulated)",
    mhz=3000.0,
    l2_cache_kb=8192,
    real_mem_bytes=8 * 1024 ** 3,
    hz=1000,
    disk_model="SIM-NVME",
    disk_mb=512_000,
    profile=MODERN_X86_3GHZ,
)

MACHINES = {
    OPENBSD36_PIII.name: OPENBSD36_PIII,
    MODERN_WORKSTATION.name: MODERN_WORKSTATION,
}


@dataclass
class Machine:
    """A live machine instance: spec + mutable simulation state.

    This is the object handed to :class:`~repro.kernel.kernel.Kernel`; it
    owns the clock, the cost meter, the trace buffer and the RNG streams so
    that a whole simulated system can be torn down and rebuilt per benchmark
    trial just by constructing a fresh ``Machine``.
    """

    spec: MachineSpec = field(default_factory=lambda: OPENBSD36_PIII)
    seed: int = 0x5EC_0DD5
    trace_enabled: bool = False

    def __post_init__(self) -> None:
        self.cpu = CPU(model=self.spec.cpu_model, mhz=self.spec.mhz,
                       l2_cache_kb=self.spec.l2_cache_kb)
        self.clock = VirtualClock()
        self.meter = CostMeter(self.spec.profile, self.clock)
        self.trace = TraceBuffer(self.clock, enabled=self.trace_enabled)
        self.rng = DeterministicRNG(self.seed)
        self.tsc = TimestampCounter(self.clock, self.spec.mhz)
        #: the observation plane, both sinks off; every component reads it
        #: from here and ``enable_metrics`` / ``enable_spans`` switch it on
        #: in place.  Recording never charges the clock, so a run's cycle
        #: totals are the same with observation on or off.
        self.telemetry = Telemetry(self.clock, self.spec.mhz,
                                   meter=self.meter)
        # charge passthroughs used throughout the kernel: the meter's bound
        # methods themselves, so a charge costs no forwarding frame
        # (``charge_words(op, words)`` is ``charge(op, words)``: one event)
        self.charge = self.charge_words = self.meter.charge
        self.charge_each = self.meter.charge_each

    def idle(self, cycles: int) -> int:
        """Advance the clock for metered idle time (see CostMeter.idle)."""
        return self.meter.idle(cycles)

    def microseconds(self) -> float:
        return self.meter.microseconds()

    @property
    def page_size(self) -> int:
        return PAGE_SIZE

    def dmesg(self) -> List[str]:
        return self.spec.dmesg()


def make_paper_machine(*, seed: int = 0x5EC_0DD5,
                       trace_enabled: bool = False) -> Machine:
    """Construct the Figure 7 machine (the default for all benchmarks)."""
    return Machine(spec=OPENBSD36_PIII, seed=seed, trace_enabled=trace_enabled)


def make_modern_machine(*, seed: int = 0x5EC_0DD5,
                        trace_enabled: bool = False) -> Machine:
    """Construct the modern comparison machine used by sensitivity benches."""
    return Machine(spec=MODERN_WORKSTATION, seed=seed, trace_enabled=trace_enabled)
