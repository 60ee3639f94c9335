"""Unit tests for the overload-protection control plane.

Everything in :mod:`repro.control.overload` is a pure state machine over
the virtual clock: admission buckets, circuit breakers and retry budgets
are tested here in isolation (no kernel), including the telemetry
mirroring contract and the AIMD controller's closed-loop p95 feed.
"""

from __future__ import annotations

import pytest

from repro.control.adaptive import AdaptiveBatchController
from repro.control.overload import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    OverloadConfig,
    OverloadController,
    RetryBudget,
    TokenBucket,
)
from repro.errors import SimulationError
from repro.telemetry.metrics import Telemetry


class TestOverloadConfig:
    def test_defaults_disable_everything(self):
        config = OverloadConfig()
        assert not config.admission_enabled
        assert not config.deadline_enabled
        assert not config.breaker_enabled
        assert not config.retry_enabled

    def test_each_knob_enables_only_its_mechanism(self):
        assert OverloadConfig(admission_rate_per_us=0.1,
                              admission_burst=4.0).admission_enabled
        assert OverloadConfig(deadline_us=10.0).deadline_enabled
        assert OverloadConfig(breaker_window_us=50.0).breaker_enabled
        assert OverloadConfig(retry_budget=3).retry_enabled

    @pytest.mark.parametrize("kwargs", [
        {"admission_rate_per_us": -1.0},
        {"admission_rate_per_us": 0.5},            # rate without burst >= 1
        {"deadline_us": -1.0},
        {"breaker_window_us": -1.0},
        {"retry_budget": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(SimulationError):
            OverloadConfig(**kwargs)


class TestTokenBucket:
    def test_burst_then_refuse_then_refill(self):
        bucket = TokenBucket(rate_per_us=1.0, burst=3.0)
        # the full burst admits back-to-back at t=0
        for _ in range(3):
            ok, _ = bucket.admit(0.0)
            assert ok
        ok, _ = bucket.admit(0.0)
        assert not ok
        assert bucket.admitted == 3 and bucket.refused == 1
        # two virtual microseconds refill two tokens, not more
        ok, refilled = bucket.admit(2.0, tokens=2)
        assert ok and refilled
        ok, _ = bucket.admit(2.0)
        assert not ok

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_us=10.0, burst=2.0)
        bucket.admit(0.0, tokens=2)
        bucket.admit(1000.0)          # a long lull cannot overfill
        assert bucket.tokens <= 2.0

    def test_refilled_flag_only_when_tokens_added(self):
        bucket = TokenBucket(rate_per_us=1.0, burst=2.0)
        _, refilled = bucket.admit(0.0)
        assert not refilled            # full bucket: nothing to add
        _, refilled = bucket.admit(5.0)
        assert refilled

    def test_multi_token_refusal_counts_all_tokens(self):
        bucket = TokenBucket(rate_per_us=0.001, burst=2.0)
        ok, _ = bucket.admit(0.0, tokens=5)
        assert not ok
        assert bucket.refused == 5
        # the batch refusal did not drain the bucket
        ok, _ = bucket.admit(0.0, tokens=2)
        assert ok


class _SpyTelemetry(Telemetry):
    def __init__(self):
        super().__init__()
        self.breaker_states = []
        self.admissions = []

    def record_breaker_state(self, backend, state, now_us):
        self.breaker_states.append((backend, state))

    def record_admission(self, client_pid, admitted, n=1):
        self.admissions.append((client_pid, admitted, n))


def _breaker():
    """A breaker over a 100 us window, at the module's thresholds: 8
    outcomes at a failure ratio of 0.5 trip it, it stays open for 200 us,
    then admits 2 probes."""
    return CircuitBreaker("b", OverloadConfig(breaker_window_us=100.0))


def _tripped():
    """A breaker tripped by failures at t = 1..8 us."""
    breaker = _breaker()
    for t in range(1, 9):
        breaker.record(float(t), False)
    return breaker


class TestCircuitBreaker:
    def test_trips_at_failure_ratio_with_min_samples(self):
        breaker = _breaker()
        # seven failures alone are below min_samples: no trip yet
        for t in range(1, 8):
            assert breaker.record(float(t), False) is None
        assert breaker.state == BREAKER_CLOSED
        assert breaker.record(8.0, False) == BREAKER_OPEN
        assert breaker.trips == 1

    def test_open_fast_fails_until_open_period_elapses(self):
        breaker = _tripped()
        allowed, transition = breaker.allow(10.0)
        assert not allowed and transition is None
        assert breaker.fast_fails == 1
        # the open period later the breaker half-opens and admits a probe
        allowed, transition = breaker.allow(210.0)
        assert allowed and transition == BREAKER_HALF_OPEN

    def test_half_open_probe_success_closes_and_clears_window(self):
        breaker = _tripped()
        breaker.allow(210.0)
        assert breaker.record(211.0, True) == BREAKER_CLOSED
        assert breaker.snapshot()["window"] == 0
        # one fresh failure cannot re-trip: the bad history is gone
        assert breaker.record(212.0, False) is None

    def test_half_open_probe_failure_reopens(self):
        breaker = _tripped()
        breaker.allow(210.0)
        assert breaker.record(211.0, False) == BREAKER_OPEN
        assert breaker.trips == 2

    def test_half_open_bounds_concurrent_probes(self):
        breaker = _tripped()
        assert breaker.allow(210.0)[0]
        assert breaker.allow(210.0)[0]         # two probes configured
        allowed, _ = breaker.allow(210.0)
        assert not allowed

    def test_window_prunes_old_outcomes(self):
        breaker = _breaker()
        for t in range(1, 8):
            breaker.record(float(t), False)
        # 200us later those failures have aged out of the 100us window:
        # six fresh successes + two failures stay under the trip ratio
        for t in range(200, 206):
            assert breaker.record(float(t), True) is None
        for t in (206.0, 207.0):
            assert breaker.record(t, False) is None
        assert breaker.state == BREAKER_CLOSED

    def test_open_ignores_outcomes(self):
        breaker = _tripped()
        window = breaker.snapshot()["window"]
        assert breaker.record(10.0, True) is None
        assert breaker.snapshot()["window"] == window

    def test_transitions_mirrored_to_telemetry(self):
        """Every transition is returned, for the front-end to record."""
        telemetry = _SpyTelemetry()
        breaker = _breaker()

        def observe(now_us, transition):
            if transition is not None:
                telemetry.record_breaker_state("b", transition, now_us)

        for t in range(1, 9):
            observe(float(t), breaker.record(float(t), False))
        observe(210.0, breaker.allow(210.0)[1])
        observe(211.0, breaker.record(211.0, True))
        assert telemetry.breaker_states == [
            ("b", BREAKER_OPEN), ("b", BREAKER_HALF_OPEN),
            ("b", BREAKER_CLOSED)]


class TestRetryBudget:
    def test_consumes_then_exhausts(self):
        budget = RetryBudget(2)
        assert budget.try_consume() and budget.try_consume()
        assert not budget.try_consume()
        assert budget.remaining == 0
        assert budget.consumed == 2 and budget.exhaustions == 1

    def test_backoff_is_deterministic_exponential(self):
        budget = RetryBudget(4)
        assert [budget.backoff_us(n) for n in (1, 2, 3)] == [8.0, 16.0, 32.0]

    def test_zero_budget_never_retries(self):
        budget = RetryBudget(0)
        assert not budget.try_consume()


class TestOverloadController:
    def test_per_client_buckets_isolate(self):
        controller = OverloadController(OverloadConfig(
            admission_rate_per_us=0.001, admission_burst=1.0))
        assert controller.admit(1, 0.0)[0]
        assert not controller.admit(1, 0.0)[0]     # client 1 drained...
        assert controller.admit(2, 0.0)[0]         # ...client 2 untouched
        assert controller.admitted == 2 and controller.refused == 1

    def test_admissions_mirrored_to_telemetry(self):
        """Every verdict is returned, for the dispatcher to record."""
        telemetry = _SpyTelemetry()
        controller = OverloadController(
            OverloadConfig(admission_rate_per_us=0.001, admission_burst=1.0))
        for _ in range(2):
            admitted, _ = controller.admit(7, 0.0)
            telemetry.record_admission(7, admitted, n=1)
        assert telemetry.admissions == [(7, True, 1), (7, False, 1)]

    def test_snapshot_is_json_shaped(self):
        import json
        controller = OverloadController(OverloadConfig(
            admission_rate_per_us=0.5, admission_burst=2.0))
        controller.admit(3, 1.0)
        json.dumps(controller.snapshot())


class TestAdaptiveP95Feed:
    """The closed-loop feed: observed service p95 overrides rate-AIMD."""

    def _controller(self, target, p95):
        controller = AdaptiveBatchController(64, target)
        # arrivals fast enough that the rate-only AIMD grows: 1 -> 5 -> 9
        for t in (0.0, 2.0, 4.0, 6.0):
            controller.observe_arrival(t)
        controller.on_flush(1, 7.0)
        controller.on_flush(5, 8.0)
        assert controller.depth == 9 and controller.grows == 2
        controller.service_p95_supplier = lambda: p95
        return controller

    def test_p95_over_target_shrinks_despite_fast_arrivals(self):
        controller = self._controller(target=30.0, p95=100.0)
        controller.on_flush(9, 10.0)
        assert controller.depth == 4
        assert controller.p95_shrinks == 1 and controller.grows == 2

    def test_p95_under_target_leaves_rate_aimd_in_charge(self):
        controller = self._controller(target=30.0, p95=5.0)
        controller.on_flush(9, 10.0)
        assert controller.depth > 9
        assert controller.p95_shrinks == 0 and controller.grows == 3

    def test_no_supplier_means_rate_only_even_with_target(self):
        controller = AdaptiveBatchController(64, 30.0)
        for t in (0.0, 2.0, 4.0, 6.0):
            controller.observe_arrival(t)
        controller.on_flush(1, 10.0)
        assert controller.depth > 1 and controller.p95_shrinks == 0

    def test_shrink_floors_at_min_depth(self):
        controller = AdaptiveBatchController(64, 30.0)
        controller.service_p95_supplier = lambda: 100.0
        for t in (0.0, 2.0, 4.0):
            controller.observe_arrival(t)
        controller.on_flush(1, 6.0)
        assert controller.depth == 1 and controller.p95_shrinks == 0
