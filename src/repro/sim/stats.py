"""Statistics helpers for the benchmark harness.

The paper reports, for each dispatch mechanism, the mean microseconds per
call and the standard deviation across ten trials (Figure 8).  This module
provides the small amount of statistics machinery needed to regenerate that
table: an online (Welford) accumulator, a per-trial summary record, and a
multi-trial aggregate matching the paper's columns.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

import numpy as np


class RunningStats:
    """Welford online mean/variance accumulator.

    Numerically stable for the millions of per-call samples a trial can
    produce, and cheap enough to sit on the hot path of the microbenchmark
    drivers.
    """

    __slots__ = ("n", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, x: float) -> None:
        """Fold one sample into the running statistics."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 for fewer than 2 samples."""
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        return self._min if self.n else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.n else 0.0

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equivalent to seeing both sample sets."""
        merged = RunningStats()
        if self.n == 0:
            merged.n, merged._mean, merged._m2 = other.n, other._mean, other._m2
            merged._min, merged._max = other._min, other._max
            return merged
        if other.n == 0:
            merged.n, merged._mean, merged._m2 = self.n, self._mean, self._m2
            merged._min, merged._max = self._min, self._max
            return merged
        n = self.n + other.n
        delta = other._mean - self._mean
        merged.n = n
        merged._mean = self._mean + delta * other.n / n
        merged._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / n
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged


@dataclass(frozen=True)
class TrialResult:
    """One benchmark trial: ``calls`` invocations measured as a block."""

    name: str
    calls: int
    total_cycles: int
    mhz: float
    jitter_factor: float = 1.0

    @property
    def total_microseconds(self) -> float:
        return self.total_cycles / self.mhz * self.jitter_factor

    @property
    def microseconds_per_call(self) -> float:
        if self.calls <= 0:
            return 0.0
        return self.total_microseconds / self.calls

    @property
    def cycles_per_call(self) -> float:
        if self.calls <= 0:
            return 0.0
        return self.total_cycles / self.calls


@dataclass
class MeasurementSummary:
    """Aggregate of several trials of the same benchmark.

    Mirrors a row of the paper's Figure 8: the benchmark name, the number of
    calls per trial, the number of trials, mean microseconds per call and the
    standard deviation across trials.
    """

    name: str
    calls_per_trial: int
    trials: List[TrialResult] = field(default_factory=list)

    def add(self, trial: TrialResult) -> None:
        if trial.calls != self.calls_per_trial:
            raise ValueError(
                f"trial has {trial.calls} calls; summary expects "
                f"{self.calls_per_trial} per trial"
            )
        self.trials.append(trial)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def per_call_samples(self) -> List[float]:
        return [t.microseconds_per_call for t in self.trials]

    @property
    def mean_us_per_call(self) -> float:
        return mean(self.per_call_samples)

    @property
    def stdev_us_per_call(self) -> float:
        return stdev(self.per_call_samples)

    def ratio_to(self, other: "MeasurementSummary") -> float:
        """How many times slower this benchmark is than ``other``."""
        denom = other.mean_us_per_call
        if denom == 0:
            return math.inf
        return self.mean_us_per_call / denom


def ordered_sum(xs: Iterable[float]) -> float:
    """The sum of ``xs``, added left to right from 0.0.

    Bit for bit what Python 3.11's builtin ``sum`` gives, on every
    interpreter: Python 3.12's ``sum`` compensates its float additions,
    so it can differ in the last bit.  Every float sum that reaches an
    exported number goes through here.  An ``array('d')`` is added in
    numpy without a copy: ``np.add.accumulate`` adds in order, where
    ``np.sum`` adds pairwise; adding its total to 0.0 turns a -0.0 into
    the 0.0 the loop gives.
    """
    if isinstance(xs, array) and xs.typecode == "d":
        if not xs:
            return 0.0
        return 0.0 + float(np.add.accumulate(np.frombuffer(xs, np.float64))[-1])
    total = 0.0
    for x in xs:
        total += x
    return total


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    return ordered_sum(xs) / len(xs) if xs else 0.0


def stdev(xs: Sequence[float]) -> float:
    """Sample standard deviation (n-1); 0.0 for fewer than two samples."""
    if len(xs) < 2:
        return 0.0
    m = mean(xs)
    return math.sqrt(ordered_sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def coefficient_of_variation(xs: Sequence[float]) -> float:
    """stdev / mean, guarding against a zero mean."""
    m = mean(xs)
    return stdev(xs) / m if m else 0.0


def jain_fairness_index(xs: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means every party got the same allocation; ``1/n`` means one party
    got everything.  Used by the handle-pool telemetry to score how evenly
    a shared handle's queueing delay spreads across its seated clients.
    An empty or all-zero allocation is perfectly fair by convention.
    """
    if not xs:
        return 1.0
    total = ordered_sum(xs)
    squares = ordered_sum(x * x for x in xs)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(xs) * squares)


def percentile(xs: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100) by linear interpolation.

    Used by the throughput benchmarks for per-client latency percentiles;
    0.0 for an empty sequence.
    """
    if not xs:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(xs)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction
