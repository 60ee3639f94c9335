"""Virtual cycle clock.

Every privileged operation performed by the simulated kernel charges a number
of CPU cycles to a :class:`VirtualClock`.  Benchmarks convert accumulated
cycles to microseconds using the simulated CPU frequency, which is how the
reproduction regenerates the ``microsec/CALL`` column of the paper's Figure 8
without depending on Python wall-clock time (which would be dominated by
interpreter overhead rather than by the protection mechanisms under study).

The clock is deliberately tiny and allocation-free on the hot path: the
dispatch microbenchmarks advance it millions of times per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ClockCheckpoint:
    """An immutable snapshot of the clock, used to measure intervals."""

    cycles: int
    events: int

    def __sub__(self, other: "ClockCheckpoint") -> "ClockInterval":
        return ClockInterval(
            cycles=self.cycles - other.cycles,
            events=self.events - other.events,
        )


@dataclass
class ClockInterval:
    """The difference between two checkpoints."""

    cycles: int
    events: int

    def microseconds(self, mhz: float) -> float:
        """Convert the cycle delta to microseconds at ``mhz`` megahertz."""
        return self.cycles / float(mhz)


class Stopwatch:
    """Measure elapsed virtual microseconds without touching the clock.

    ``elapsed_us()`` is ``(now - start) / mhz`` in cycles, the arithmetic
    the observation plane's dispatch latencies keep.  The reading is pure
    observation — the clock is never charged, so a run with stopwatches
    active is cycle-identical to one without.
    """

    __slots__ = ("_clock", "_mhz", "_start_cycles")

    def __init__(self, clock: "VirtualClock", mhz: float) -> None:
        self._clock = clock
        self._mhz = float(mhz)
        self._start_cycles = clock.cycles

    def restart(self) -> None:
        self._start_cycles = self._clock.cycles

    def elapsed_cycles(self) -> int:
        return self._clock.cycles - self._start_cycles

    def elapsed_us(self) -> float:
        return (self._clock.cycles - self._start_cycles) / self._mhz


@dataclass
class VirtualClock:
    """Monotonic virtual cycle counter.

    Attributes
    ----------
    cycles:
        Total cycles charged since construction (or the last :meth:`reset`).
    events:
        Number of individual charges; useful for sanity checks such as
        "the RPC path executes more privileged operations than SecModule".
    """

    cycles: int = 0
    events: int = 0
    _frozen: bool = field(default=False, repr=False)

    def advance(self, cycles: int) -> int:
        """Charge ``cycles`` to the clock and return the new total.

        Negative charges are rejected: simulated time never runs backwards.
        """
        if cycles < 0:
            raise ValueError(f"cannot advance clock by negative cycles: {cycles}")
        if self._frozen:
            return self.cycles
        self.cycles += cycles
        self.events += 1
        return self.cycles

    def advance_many(self, cycles: int, events: int) -> int:
        """Charge an aggregated span: ``cycles`` total over ``events`` charges.

        The trace-replay fast path collapses a recorded sequence of charges
        into one call; passing the recorded event count keeps ``events``
        (and every interval measured across the replay) identical to the
        op-by-op execution it stands in for.
        """
        if cycles < 0 or events < 0:
            raise ValueError(
                f"cannot advance clock backwards: {cycles} cycles / "
                f"{events} events")
        if self._frozen:
            return self.cycles
        self.cycles += cycles
        self.events += events
        return self.cycles

    def checkpoint(self) -> ClockCheckpoint:
        """Return a snapshot to later measure an interval against."""
        return ClockCheckpoint(cycles=self.cycles, events=self.events)

    def since(self, mark: ClockCheckpoint) -> ClockInterval:
        """Return the interval elapsed since ``mark``."""
        return self.checkpoint() - mark

    def reset(self) -> None:
        """Zero the clock (used between independent benchmark trials)."""
        self.cycles = 0
        self.events = 0

    def freeze(self) -> None:
        """Stop accumulating charges (used to exclude setup phases)."""
        self._frozen = True

    def unfreeze(self) -> None:
        """Resume accumulating charges."""
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def microseconds(self, mhz: float) -> float:
        """Total elapsed virtual time in microseconds at ``mhz``."""
        return self.cycles / float(mhz)
