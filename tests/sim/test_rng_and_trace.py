"""Tests for the deterministic RNG and the trace buffer."""

import itertools

import numpy as np
import pytest

from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRNG
from repro.sim.trace import TraceBuffer


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(123)
        b = DeterministicRNG(123)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_different_seed_different_stream(self):
        a = DeterministicRNG(1)
        b = DeterministicRNG(2)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_child_streams_are_stable_and_independent(self):
        parent = DeterministicRNG(99)
        child1 = parent.child("alpha")
        child2 = parent.child("beta")
        again = DeterministicRNG(99).child("alpha")
        assert child1.uniform() == again.uniform()
        assert child1.seed != child2.seed

    def test_integer_bounds(self):
        rng = DeterministicRNG(7)
        values = [rng.integer(3, 5) for _ in range(200)]
        assert set(values) <= {3, 4, 5}
        assert {3, 5} <= set(values)

    def test_choice(self):
        rng = DeterministicRNG(7)
        assert rng.choice([42]) == 42
        with pytest.raises(ValueError):
            rng.choice([])

    def test_lognormal_factor_positive_and_near_one(self):
        rng = DeterministicRNG(7)
        values = [rng.lognormal_factor(0.01) for _ in range(100)]
        assert all(v > 0 for v in values)
        assert abs(sum(values) / len(values) - 1.0) < 0.05

    def test_bytes_length(self):
        rng = DeterministicRNG(7)
        assert len(rng.bytes(16)) == 16

    def test_weighted_choice_scales_by_the_in_order_total(self):
        """The weights add to 0.9999999999999999 in order (a compensated
        sum gives 1.0), so a double of 0.7 draws 0.6999999999999998 and
        lands below the first threshold."""
        rng = DeterministicRNG(7)
        rng.next_double = lambda: 0.7
        assert rng.weighted_choice(["a", "b", "c"], [0.7, 0.2, 0.1]) == "a"

    def test_permutation(self):
        rng = DeterministicRNG(7)
        perm = rng.permutation(10)
        assert sorted(perm.tolist()) == list(range(10))


class TestHeavyTailedThinkSamplers:
    def test_lognormal_deterministic_per_seed(self):
        a = DeterministicRNG(321)
        b = DeterministicRNG(321)
        assert [a.lognormal(25.0, 1.0) for _ in range(10)] == \
            [b.lognormal(25.0, 1.0) for _ in range(10)]
        assert DeterministicRNG(321).lognormal(25.0, 1.0) != \
            DeterministicRNG(322).lognormal(25.0, 1.0)

    def test_lognormal_mean_pinned(self):
        """The arithmetic mean stays at ``mean`` whatever sigma is, so the
        heavy-tail knob never changes the offered load."""
        rng = DeterministicRNG(5)
        for sigma in (0.25, 1.0):
            draws = [rng.lognormal(25.0, sigma) for _ in range(20000)]
            assert all(d > 0 for d in draws)
            assert abs(sum(draws) / len(draws) - 25.0) / 25.0 < 0.1

    def test_lognormal_validation(self):
        rng = DeterministicRNG(5)
        with pytest.raises(ValueError):
            rng.lognormal(0.0, 1.0)
        with pytest.raises(ValueError):
            rng.lognormal(1.0, -0.1)


#: spans of ``integer(low, low + span)``: the 32-bit Lemire path at its
#: edges (0 draws nothing, 2**31 + 12345 rejects about half its draws,
#: 2**32 - 2 is the widest) and the wider spans numpy still serves
SPANS = (0, 1, 2, 6, 2**20, 2**31 + 12345, 2**32 - 2, 2**32 - 1, 2**40)


class TestDrawsMatchNumpy:
    """Scalar uniforms and bounded integers come straight from the bit
    generator; every value, and the bit generator's state after the last
    draw, must equal numpy's ``Generator`` draw for draw.  A numpy release
    that changes its bounded-integer rule fails here first."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 0x5EC_0DD5, 0xFFFF_FFFF])
    def test_interleaved_draws_equal_numpy(self, seed):
        rng = DeterministicRNG(seed)
        twin = np.random.default_rng(seed)
        for i in range(1800):
            span = SPANS[i % len(SPANS)]
            low = -(1 << 40) if i % 4 == 0 else 3
            got = rng.integer(low, low + span)
            assert type(got) is int
            assert got == int(twin.integers(low, low + span + 1)), (i, span)
            if i % 3 == 0:
                assert rng.next_double() == twin.random()
            if i % 10 == 0:
                assert rng.uniform(-2.0, 5.0) == twin.uniform(-2.0, 5.0)
        assert rng._rng.bit_generator.state == twin.bit_generator.state

    def test_numpy_integer_bounds_draw_through_numpy(self):
        rng = DeterministicRNG(11)
        twin = np.random.default_rng(11)
        for _ in range(50):
            assert rng.integer(np.int64(2), np.int64(9)) == \
                twin.integers(2, 10)
        assert rng._rng.bit_generator.state == twin.bit_generator.state

    def test_invalid_bounds_raise_like_numpy(self):
        rng = DeterministicRNG(1)
        with pytest.raises(ValueError):
            rng.integer(5, 4)
        with pytest.raises(ValueError):                # beyond int64
            rng.integer(2**63 - 1, 2**63)
        assert rng._rng.bit_generator.state == \
            np.random.default_rng(1).bit_generator.state

    def test_choice_draws_its_index_like_numpy(self):
        seq = list("abcdefg")
        rng = DeterministicRNG(3)
        twin = np.random.default_rng(3)
        for _ in range(200):
            assert rng.choice(seq) == seq[twin.integers(0, len(seq))]
        assert rng._rng.bit_generator.state == twin.bit_generator.state


def _numpy_rounds(twin, span, n):
    """``n`` rounds of (``integers(0, span + 1)``, ``random()``) drawn one
    by one from a numpy ``Generator``."""
    integers, doubles = [], []
    for _ in range(n):
        integers.append(int(twin.integers(0, span + 1)))
        doubles.append(twin.random())
    return integers, doubles


class TestIntegerDoubleRounds:
    """``integer_double_rounds`` draws what the scalar loop draws, and
    leaves the bit generator (its buffered upper half included) where the
    scalar loop leaves it."""

    SIZES = (0, 1, 2, 3, 4097, 6000)

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("span", range(8))
    def test_rounds_equal_numpy_draw_for_draw(self, span, buffered):
        for seed, n in itertools.product((5, 0xFFFF_FFFF), self.SIZES):
            rng = DeterministicRNG(seed)
            twin = np.random.default_rng(seed)
            if buffered:
                # an integer takes a fresh draw and buffers its upper half,
                # which the first round's integer must take
                assert rng.integer(0, 2) == twin.integers(0, 3)
            assert rng._rng.bit_generator.state["has_uint32"] == buffered
            integers, doubles = rng.integer_double_rounds(span, n)
            assert integers.dtype == np.int64
            assert (integers.tolist(), doubles.tolist()) == \
                _numpy_rounds(twin, span, n), (seed, n)
            assert rng._rng.bit_generator.state == \
                twin.bit_generator.state, (seed, n)

    def test_a_rejected_buffered_half_takes_the_scalar_loop(self):
        """A buffered half of 0 is below the threshold of span 2
        (2**32 mod 3 = 1): numpy rejects it and draws again."""
        rng = DeterministicRNG(21)
        twin = np.random.default_rng(21)
        for bit_generator in (rng._rng.bit_generator, twin.bit_generator):
            state = bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            bit_generator.state = state
        integers, doubles = rng.integer_double_rounds(2, 501)
        assert (integers.tolist(), doubles.tolist()) == \
            _numpy_rounds(twin, 2, 501)
        assert rng._rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("span", [2, 4, 6])
    def test_a_rejected_raw_draw_takes_the_scalar_loop(self, span,
                                                       monkeypatch):
        """A stubbed raw stream whose fresh draw would reject sends the
        draw back to the scalar loop from the state it started in."""
        rng = DeterministicRNG(33)
        twin = np.random.default_rng(33)
        real = rng._random_raw
        fallbacks = []

        def rejecting_raw(size):
            raw = real(size)
            raw[-2] &= np.uint64(0xFFFF_FFFF_0000_0000)   # a low half of 0
            return raw

        def scalar_rounds(span, n):
            fallbacks.append(n)
            return DeterministicRNG._scalar_rounds(rng, span, n)

        monkeypatch.setattr(rng, "_random_raw", rejecting_raw)
        monkeypatch.setattr(rng, "_scalar_rounds", scalar_rounds)
        integers, doubles = rng.integer_double_rounds(span, 7)
        assert fallbacks == [7]
        assert (integers.tolist(), doubles.tolist()) == \
            _numpy_rounds(twin, span, 7)
        assert rng._rng.bit_generator.state == twin.bit_generator.state

    def test_a_power_of_two_span_never_rejects(self, monkeypatch):
        """With span + 1 a power of two the threshold is 0: a low half
        of 0 is accepted (and picks 0) without the scalar loop."""
        rng = DeterministicRNG(33)
        real = rng._random_raw
        monkeypatch.setattr(rng, "_random_raw",
                            lambda size: real(size) & np.uint64(
                                0xFFFF_FFFF_0000_0000))
        monkeypatch.setattr(rng, "_scalar_rounds", None)
        integers, _ = rng.integer_double_rounds(3, 7)
        # rounds 0, 2, 4 and 6 take the low half of a fresh draw
        assert integers[0::2].tolist() == [0, 0, 0, 0]

    def test_spans_beyond_32_bits_draw_through_the_scalar_loop(self):
        rng = DeterministicRNG(8)
        twin = np.random.default_rng(8)
        integers, doubles = rng.integer_double_rounds(2**40, 5)
        assert (integers.tolist(), doubles.tolist()) == \
            _numpy_rounds(twin, 2**40, 5)
        assert rng._rng.bit_generator.state == twin.bit_generator.state


class TestTraceBuffer:
    def _buffer(self, enabled=True):
        clock = VirtualClock()
        return TraceBuffer(clock, enabled=enabled), clock

    def test_disabled_buffer_records_nothing(self):
        buffer, _ = self._buffer(enabled=False)
        assert buffer.emit("cat", "label") is None
        assert len(buffer) == 0

    def test_emit_records_clock_and_detail(self):
        buffer, clock = self._buffer()
        clock.advance(123)
        event = buffer.emit("smod.session", "smod_find", pid=7, detail_module="libc")
        assert event.cycles == 123
        assert event.pid == 7
        assert event.detail["detail_module"] == "libc"


class TestTwoStateMMPP:
    def _source(self, seed=42, **overrides):
        from repro.sim.rng import TwoStateMMPP
        params = dict(on_interval=2.0, off_interval=50.0,
                      on_duration=100.0, off_duration=400.0)
        params.update(overrides)
        return TwoStateMMPP(DeterministicRNG(seed), **params)

    def test_deterministic_replay(self):
        a, b = self._source(7), self._source(7)
        assert [a.next_interarrival() for _ in range(50)] == \
            [b.next_interarrival() for _ in range(50)]

    def test_draws_are_positive(self):
        source = self._source()
        assert all(source.next_interarrival() > 0 for _ in range(200))

    def test_burstier_than_poisson(self):
        """With a fast ON state and a slow OFF state the interarrival
        distribution must be overdispersed relative to an exponential with
        the same mean (squared coefficient of variation > 1)."""
        source = self._source(on_interval=1.0, off_interval=200.0,
                              on_duration=50.0, off_duration=500.0)
        draws = [source.next_interarrival() for _ in range(4000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert var / (mean * mean) > 1.5

    def test_state_modulation_actually_flips(self):
        from repro.sim.rng import TwoStateMMPP
        source = self._source(on_duration=5.0, off_duration=5.0)
        seen = {source.state}
        for _ in range(500):
            source.next_interarrival()
            seen.add(source.state)
        assert seen == {TwoStateMMPP.ON, TwoStateMMPP.OFF}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            self._source(on_interval=0.0)
        with pytest.raises(ValueError):
            self._source(off_duration=-1.0)
        from repro.sim.rng import TwoStateMMPP
        with pytest.raises(ValueError):
            TwoStateMMPP(DeterministicRNG(1), on_interval=1, off_interval=1,
                         on_duration=1, off_duration=1, start_state="limbo")
