"""Deterministic random number helpers.

Everything in the reproduction that needs randomness — trial-to-trial timing
jitter, synthetic workload generation, key material for the toy cipher —
draws from a :class:`DeterministicRNG` seeded explicitly, so every benchmark
table regenerates bit-identically from the same seed.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import List, Tuple

import numpy as np

#: ``next_double`` scales the top 53 bits of one raw 64-bit draw by 2**-53
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_LOW32 = 0xFFFF_FFFF


class DeterministicRNG:
    """Thin, explicitly-seeded wrapper over :class:`numpy.random.Generator`.

    A wrapper (rather than using ``numpy`` directly at call sites) buys two
    things: a single place to document which distributions the simulation
    uses, and the ability to derive independent child streams for components
    so that adding randomness in one subsystem does not perturb another.
    """

    def __init__(self, seed: int = 0x5EC_0DD5) -> None:
        self.seed = int(seed)
        # smod: allow(DET001)  the deterministic gateway itself: explicitly
        # seeded, and the only sanctioned entropy source in the simulation
        self._rng = np.random.default_rng(self.seed)
        # The bit generator's C draw routines, bound once to its state: the
        # same routines Generator.random() and Generator.integers() call
        # underneath, without numpy's per-call argument handling.  The
        # Generator stays referenced because it owns the state the pointer
        # addresses.  These calls skip the generator's lock: an instance
        # belongs to one thread (shards are processes, each with its own).
        bits = self._rng.bit_generator.ctypes
        #: one raw double in ``[0, 1)`` — the C routine a scalar
        #: ``Generator.random()`` calls, returning a Python float; hot loops
        #: may call this directly to skip the :meth:`random01` frame
        self.next_double = functools.partial(bits.next_double, bits.state)
        self._next_uint32 = functools.partial(bits.next_uint32, bits.state)
        #: raw 64-bit draws in bulk, the stream both routines above read
        self._random_raw = self._rng.bit_generator.random_raw

    def child(self, label: str) -> "DeterministicRNG":
        """Derive an independent stream named by ``label``.

        The derivation hashes the label into the parent's seed, so streams
        are stable across runs and independent of creation order.
        """
        digest = 0
        for ch in label:
            digest = (digest * 131 + ord(ch)) & 0xFFFF_FFFF
        return DeterministicRNG(seed=(self.seed ^ digest) & 0xFFFF_FFFF)

    # -- scalar draws --------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        # Generator.uniform's kernel computes low + (high - low) *
        # next_double; reproducing that expression over next_double
        # consumes the identical stream value and returns the identical
        # float without numpy's call overhead
        return low + (high - low) * self.next_double()

    def normal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        return float(self._rng.normal(mean, sigma))

    def lognormal_factor(self, sigma: float) -> float:
        """A multiplicative jitter factor with median 1.0."""
        return float(np.exp(self._rng.normal(0.0, sigma)))

    def random01(self) -> float:
        """One raw double in ``[0, 1)`` — the primitive scalar draw that
        :meth:`uniform` and :meth:`weighted_choice` are built on; exposed
        so hot loops can fold the affine transform into their own code."""
        return self.next_double()

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive.

        Equal to ``int(Generator.integers(low, high + 1))`` draw for draw,
        bit-generator state included.  Plain ints whose span fits 32 bits
        run numpy's own rule here (``random_bounded_uint64_fill``): a span
        of 0 draws nothing, and a span below ``2**32 - 1`` runs
        ``buffered_bounded_lemire_uint32`` over ``next_uint32``, which
        serves PCG64's buffered upper half exactly as numpy does.  Every
        other case — wider spans, numpy integers (whose 64-bit product
        would overflow), bounds outside int64, ``low > high`` — calls
        numpy, so its values and its ``ValueError`` stand.
        """
        if (type(low) is int and type(high) is int
                and -0x8000_0000_0000_0000 <= low <= high
                <= 0x7FFF_FFFF_FFFF_FFFF):
            span = high - low
            if span < 0xFFFF_FFFF:
                if not span:
                    return low
                excl = span + 1
                m = self._next_uint32() * excl
                if m & 0xFFFF_FFFF < excl:
                    threshold = (0xFFFF_FFFF - span) % excl
                    while m & 0xFFFF_FFFF < threshold:
                        m = self._next_uint32() * excl
                return low + (m >> 32)
        return int(self._rng.integers(low, high + 1))

    def exponential(self, mean: float) -> float:
        """An exponential inter-arrival draw with the given mean (Poisson
        arrivals for the open-loop traffic workloads)."""
        return float(self._rng.exponential(mean))

    def lognormal(self, mean: float, sigma: float) -> float:
        """A lognormal draw with the given *arithmetic* mean.

        Heavy-tailed think times for the closed-loop traffic engine:
        ``sigma`` controls the tail weight while the arithmetic mean stays
        pinned at ``mean`` (the underlying normal gets
        ``mu = ln(mean) - sigma^2 / 2``), so swapping the think-time
        distribution never changes the offered load, only its variance.
        """
        if mean <= 0 or sigma < 0:
            raise ValueError("lognormal needs mean > 0 and sigma >= 0")
        mu = np.log(mean) - sigma * sigma / 2.0
        return float(self._rng.lognormal(mu, sigma))

    def weighted_choice(self, items, weights):
        """Choose one of ``items`` with the given relative weights."""
        if len(items) != len(weights) or not items:
            raise ValueError("items and weights must be equal-length, non-empty")
        # ordered_sum, made in place: added left to right from 0.0
        total = 0.0
        for weight in weights:
            total += weight
        # bit-identical to uniform(0, total): 0.0 + total * d == total * d
        draw = total * self.next_double()
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if draw < acc:
                return item
        return items[-1]

    def choice(self, seq):
        """Uniformly choose an element of a non-empty sequence."""
        if not len(seq):
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.integer(0, len(seq) - 1)]

    def bytes(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes."""
        return self._rng.bytes(n)

    # -- vector draws --------------------------------------------------------
    def exponential_array(self, mean: float, size: int) -> np.ndarray:
        """``size`` consecutive exponential draws in one vectorized call.

        numpy fills the array element-wise from the same ziggurat sampler
        the scalar :meth:`exponential` uses, so the sequence is
        bit-identical to ``[self.exponential(mean) for _ in range(size)]``
        — a pure wall-clock win for pre-drawn arrival schedules.  Returns
        the ``float64`` ndarray itself so 10^7-draw schedules skip the
        list round-trip.
        """
        return self._rng.exponential(mean, size)

    def integer_double_rounds(self, span: int, n: int
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """``n`` rounds of ``(integer(0, span), next_double())`` at once.

        Returns the integers (``int64``) and the doubles (``float64``) the
        scalar loop draws, and leaves the bit generator's state as that
        loop leaves it, PCG64's buffered upper half (``has_uint32`` and
        ``uinteger``) included.  The draws come from one ``random_raw``
        call: a double is the top 53 bits of one raw draw times 2**-53,
        and integers take 32-bit halves as ``next_uint32`` serves them,
        the low half of a fresh raw draw and then, at the next integer, its
        buffered upper half.  So two rounds take three raw draws, and a
        half buffered at entry serves the first round.  A span of 0 draws
        no integer, as in :meth:`integer`.

        Each integer runs numpy's Lemire rule (``buffered_bounded_lemire_
        uint32``) vectorized.  A half that rule rejects costs one more
        half, which shifts every later round, so when any round would
        reject, the state is restored and the scalar loop draws the
        rounds instead.  Only a span whose ``span + 1`` is not a power of
        two can reject, with probability below ``(span + 1) / 2**32`` per
        round.  Spans outside the 32-bit path take the scalar loop too.
        """
        if n <= 0:
            return np.zeros(0, np.int64), np.zeros(0)
        if not 0 <= span < _LOW32:
            return self._scalar_rounds(span, n)
        if not span:
            raw = self._random_raw(n)
            return np.zeros(n, np.int64), (raw >> 11) * _DOUBLE_SCALE
        bit_generator = self._rng.bit_generator
        state = bit_generator.state
        lead = 1 if state["has_uint32"] else 0
        pairs, odd = divmod(n - lead, 2)
        raw = self._random_raw(lead + 3 * pairs + 2 * odd)
        halves = np.empty(n, np.uint64)
        doubles = np.empty(n, np.uint64)
        if lead:
            halves[0] = state["uinteger"]
            doubles[0] = raw[0]
        body = raw[lead:]
        fresh = body[0::3]
        halves[lead::2] = fresh & _LOW32
        halves[lead + 1::2] = fresh[:pairs] >> 32
        doubles[lead::2] = body[1::3]
        doubles[lead + 1::2] = body[2::3]
        excl = span + 1
        m = halves * np.uint64(excl)
        threshold = (_LOW32 - span) % excl
        if threshold and ((m & _LOW32) < threshold).any():
            bit_generator.state = state
            return self._scalar_rounds(span, n)
        end = bit_generator.state
        # the last fresh draw buffers its upper half; an even count of
        # fresh rounds has served it, and one round served by the half
        # buffered at entry keeps that half's value
        end["has_uint32"] = odd
        if len(fresh):
            end["uinteger"] = int(fresh[-1] >> 32)
        bit_generator.state = end
        return (m >> 32).astype(np.int64), (doubles >> 11) * _DOUBLE_SCALE

    def _scalar_rounds(self, span: int, n: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`integer_double_rounds` drawn one round at a time."""
        integers = np.empty(n, np.int64)
        doubles = np.empty(n)
        for i in range(n):
            integers[i] = self.integer(0, span)
            doubles[i] = self.next_double()
        return integers, doubles

    def permutation(self, n: int) -> np.ndarray:
        return self._rng.permutation(n)


class TwoStateMMPP:
    """A two-state Markov-modulated Poisson process (on/off bursts).

    The classic bursty-arrival model: the source alternates between an ON
    state, where arrivals are Poisson with a short mean interval, and an OFF
    state with a long mean interval (or near-silence).  State sojourn times
    are themselves exponential, so a trace is fully described by four means —
    all in the same (virtual-microsecond) unit the traffic engine uses.

    Every draw comes from one :class:`DeterministicRNG` stream, so a given
    seed replays the exact same burst pattern.
    """

    ON = "on"
    OFF = "off"

    def __init__(self, rng: DeterministicRNG, *,
                 on_interval: float, off_interval: float,
                 on_duration: float, off_duration: float,
                 start_state: str = ON) -> None:
        if min(on_interval, off_interval, on_duration, off_duration) <= 0:
            raise ValueError("MMPP means must all be positive")
        if start_state not in (self.ON, self.OFF):
            raise ValueError(f"unknown MMPP state {start_state!r}")
        self.rng = rng
        self.on_interval = float(on_interval)
        self.off_interval = float(off_interval)
        self.on_duration = float(on_duration)
        self.off_duration = float(off_duration)
        self.state = start_state
        self._state_remaining = rng.exponential(
            on_duration if start_state == self.ON else off_duration)

    def interarrivals(self, n: int) -> np.ndarray:
        """The next ``n`` interarrival times, advancing the modulating chain.

        A gap that outlives the state's remaining sojourn spends it, flips
        the state and draws the new sojourn.  numpy's ``exponential(s)``
        is ``s * standard_exponential()`` draw for draw, so the chain walks
        blocks of those, then restores the bit generator and redraws the
        count it consumed: gaps, chain and stream end as one exponential
        draw at a time leaves them, a buffered 32-bit half included.
        """
        generator = self.rng._rng
        entry = generator.bit_generator.state
        size = _gap_block(n)
        draws = chain.from_iterable(iter(
            lambda: generator.standard_exponential(size).tolist(), None))
        on = self.state == self.ON
        remaining = self._state_remaining
        gaps: List[float] = []
        flips = 0
        for _ in range(n):
            elapsed = 0.0
            gap = next(draws) * (self.on_interval if on else self.off_interval)
            while gap > remaining:
                elapsed += remaining
                on = not on
                flips += 1
                remaining = next(draws) * (self.on_duration if on
                                           else self.off_duration)
                gap = next(draws) * (self.on_interval if on
                                     else self.off_interval)
            remaining -= gap
            gaps.append(elapsed + gap)
        generator.bit_generator.state = entry
        # each gap took one draw, each flip an outlived gap and a sojourn
        generator.standard_exponential(n + 2 * flips)
        self.state = self.ON if on else self.OFF
        self._state_remaining = remaining
        return np.array(gaps)


def _gap_block(n: int) -> int:
    """Draws per block for ``n`` MMPP gaps: one each, an eighth more for
    the flips among them."""
    return n + (n >> 3) + 1
