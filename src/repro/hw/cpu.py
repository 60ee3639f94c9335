"""CPU description and protection rings.

The paper's Background section points at the Intel 80286/80386 protection
rings as the "spiritual ancestor" of SecModule: a hierarchy of privilege
levels that most operating systems collapsed into just two (kernel and
user).  The simulated CPU models that hierarchy explicitly — the kernel runs
at ring 0, ordinary processes at ring 3 — so the trap layer can enforce that
privileged operations only happen after a ring transition, and so tests can
state the paper's observation ("only two of the four levels are used") as an
executable fact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from ..errors import SimulationError


class Ring(enum.IntEnum):
    """IA-32 privilege rings.  Lower numeric value = more privileged."""

    KERNEL = 0
    DRIVER = 1      # historically intended for device drivers
    SERVICE = 2     # historically intended for system services
    USER = 3

    def more_privileged_than(self, other: "Ring") -> bool:
        return self.value < other.value

    def may_access(self, required: "Ring") -> bool:
        """Can code at this ring perform an operation requiring ``required``?"""
        return self.value <= required.value


@dataclass(frozen=True)
class CPUFeatureFlags:
    """The feature string Figure 7 prints for the test machine."""

    flags: Tuple[str, ...] = (
        "FPU", "V86", "DE", "PSE", "TSC", "MSR", "PAE", "MCE", "CX8", "SEP",
        "MTRR", "PGE", "MCA", "CMOV", "PAT", "PSE36", "MMX", "FXSR", "SSE",
    )

    def has(self, flag: str) -> bool:
        return flag.upper() in self.flags

    def as_string(self) -> str:
        return ",".join(self.flags)


@dataclass
class CPU:
    """A simulated CPU: identity, frequency, cache and current ring.

    The ring field exists to make privilege transitions *explicit* in the
    kernel code: the syscall trap raises the ring to KERNEL, the return path
    lowers it back to USER, and anything that tries to perform a kernel-only
    operation from ring 3 is a simulation bug that surfaces immediately.
    """

    model: str = "Intel Pentium III (GenuineIntel 686-class)"
    mhz: float = 599.0
    l2_cache_kb: int = 512
    features: CPUFeatureFlags = field(default_factory=CPUFeatureFlags)
    ring: Ring = Ring.USER

    def enter_ring(self, target: Ring) -> Ring:
        """Transition to ``target`` ring, returning the previous ring.

        Entering a more privileged ring is only legal through the trap
        mechanism, which is modelled by the caller charging TRAP_ENTRY before
        calling this.  The CPU object itself only checks monotonic sanity:
        you cannot "enter" the ring you are already below without a fault.
        """
        previous = self.ring
        self.ring = target
        return previous

    def require_ring(self, required: Ring) -> None:
        """Raise if the CPU is not privileged enough for an operation."""
        if not self.ring.may_access(required):
            raise SimulationError(
                f"operation requires ring {required.name} but CPU is at "
                f"ring {self.ring.name}"
            )

    def identity_line(self) -> str:
        """The dmesg-style cpu0 line of Figure 7."""
        return (
            f'cpu0: {self.model}, {self.l2_cache_kb}KB L2 cache, '
            f'{self.mhz:.0f} MHz'
        )
