"""Overload protection: admission control, breakers, retry budgets.

The paper measures access-control cost under well-behaved load; a served
deployment also has to survive load it did not ask for.  This module is
the control plane for that: pure, deterministic state machines driven by
the *virtual* clock, with every data-path consequence (cycles charged,
calls refused) applied by the layer that consults them — the mechanisms
here never touch the clock themselves, so they follow the same
observation/authority split as telemetry.

Four mechanisms, all default-OFF so the paper-default accounting stays
byte-identical:

* :class:`TokenBucket` — per-client admission control at the dispatcher
  entry.  Lazy refill against virtual time; the dispatcher charges
  :data:`~repro.sim.costs.SMOD_ADMIT_CHECK` per decision (and
  :data:`~repro.sim.costs.SMOD_ADMIT_REFILL` when the check actually
  refilled), so a refusal has honest nonzero cost.
* :class:`CircuitBreaker` — per-backend closed → open → half-open over a
  sliding virtual-time window of call outcomes, at the thresholds
  :data:`BREAKER_FAILURE_RATIO`, :data:`BREAKER_MIN_SAMPLES`,
  :data:`BREAKER_OPEN_US` and :data:`BREAKER_HALF_OPEN_PROBES`.  The
  front-end charges :data:`~repro.sim.costs.SERVE_BREAKER_CHECK` per
  consult and :data:`~repro.sim.costs.SERVE_BREAKER_TRIP` per
  transition, and observes each transition the breaker returns.
* deadline shedding — not a class here: the attachment pool and the
  handle broker compare a projected virtual wait against
  :attr:`OverloadConfig.deadline_us` and shed *at admission* (charging
  :data:`~repro.sim.costs.SERVE_SHED`) instead of queueing a call that
  cannot meet its deadline.
* :class:`RetryBudget` — bounded retries for the RPC stubs, with a
  deterministic exponential virtual-time backoff from
  :data:`RETRY_BACKOFF_US`; an exhausted budget stops retrying and the
  last EAGAIN stands.

Shed and refused calls never enter trace recording or fast-forward
accumulation: the dispatcher admits *before* any trace machinery runs and
the fast-forward probe refuses to open windows while admission is active,
so a burst under shedding cannot poison a HOT key or split a window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..errors import SimulationError

#: circuit-breaker states
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: failure (error/refusal) ratio that trips a closed breaker
BREAKER_FAILURE_RATIO = 0.5
#: outcomes the window must hold before the ratio is believed
BREAKER_MIN_SAMPLES = 8
#: how long a tripped breaker stays open before probing, virtual us
BREAKER_OPEN_US = 200.0
#: probes a half-open breaker admits before deciding
BREAKER_HALF_OPEN_PROBES = 2
#: base of the deterministic exponential backoff between retries, virtual us
RETRY_BACKOFF_US = 8.0


@dataclass(frozen=True)
class OverloadConfig:
    """Every protection knob, all OFF by default (zero = disabled).

    The zero defaults are load-bearing: a config constructed with no
    arguments must leave every data path byte-identical to a build with
    no overload wiring at all.
    """

    #: token-bucket admission: tokens per virtual microsecond (0 = off)
    admission_rate_per_us: float = 0.0
    #: bucket capacity in tokens (burst tolerance); required when the
    #: rate is set
    admission_burst: float = 0.0
    #: shed a call whose projected virtual wait exceeds this (0 = off)
    deadline_us: float = 0.0
    #: breaker outcome window in virtual microseconds (0 = breakers off)
    breaker_window_us: float = 0.0
    #: bounded retries per budget for the RPC stubs (0 = off)
    retry_budget: int = 0

    def __post_init__(self) -> None:
        if self.admission_rate_per_us < 0.0 or self.admission_burst < 0.0:
            raise SimulationError("admission rate/burst must be >= 0")
        if self.admission_rate_per_us > 0.0 and self.admission_burst < 1.0:
            raise SimulationError(
                "admission control needs a burst of at least one token")
        if self.deadline_us < 0.0:
            raise SimulationError("deadline_us must be >= 0")
        if self.breaker_window_us < 0.0:
            raise SimulationError("breaker_window_us must be >= 0")
        if self.retry_budget < 0:
            raise SimulationError("retry_budget must be >= 0")

    # ------------------------------------------------------------- predicates
    @property
    def admission_enabled(self) -> bool:
        return self.admission_rate_per_us > 0.0

    @property
    def deadline_enabled(self) -> bool:
        return self.deadline_us > 0.0

    @property
    def breaker_enabled(self) -> bool:
        return self.breaker_window_us > 0.0

    @property
    def retry_enabled(self) -> bool:
        return self.retry_budget > 0


class TokenBucket:
    """Classic token bucket against the virtual clock, refilled lazily.

    ``admit`` returns ``(admitted, refilled)``; the caller charges the
    admission (and refill) ops so the bucket itself stays clock-pure.
    """

    def __init__(self, rate_per_us: float, burst: float) -> None:
        self.rate_per_us = rate_per_us
        self.burst = burst
        self.tokens = burst
        self._updated_us = 0.0
        # observability
        self.admitted = 0
        self.refused = 0
        self.refills = 0

    def admit(self, now_us: float, tokens: int = 1) -> Tuple[bool, bool]:
        """Try to take ``tokens`` at virtual time ``now_us``."""
        refilled = False
        elapsed = now_us - self._updated_us
        if elapsed > 0.0:
            added = elapsed * self.rate_per_us
            if added > 0.0:
                before = self.tokens
                self.tokens = min(self.burst, self.tokens + added)
                refilled = self.tokens > before
                if refilled:
                    self.refills += 1
            self._updated_us = now_us
        if self.tokens >= tokens:
            self.tokens -= tokens
            self.admitted += tokens
            return True, refilled
        self.refused += tokens
        return False, refilled

    def snapshot(self) -> Dict[str, object]:
        return {"tokens": self.tokens, "burst": self.burst,
                "rate_per_us": self.rate_per_us, "admitted": self.admitted,
                "refused": self.refused, "refills": self.refills}


class CircuitBreaker:
    """Per-backend closed → open → half-open over a sliding outcome window.

    Outcomes (success, or error/refusal) are folded in with their virtual
    timestamps; a closed breaker trips open when the failure ratio over
    the window reaches :data:`BREAKER_FAILURE_RATIO` with at least
    :data:`BREAKER_MIN_SAMPLES` outcomes.  An open breaker fast-fails
    everything until :data:`BREAKER_OPEN_US` has elapsed, then goes
    half-open and admits :data:`BREAKER_HALF_OPEN_PROBES` probes: one
    success closes it, one failure re-opens it.  ``allow``/``record``
    return the state transition (or None) so the calling layer can charge
    :data:`~repro.sim.costs.SERVE_BREAKER_TRIP` and observe it — the
    breaker itself never touches the clock or the observation plane.
    """

    def __init__(self, backend: str, config: OverloadConfig) -> None:
        self.backend = backend
        self.config = config
        self.state = BREAKER_CLOSED
        self._window: Deque[Tuple[float, bool]] = deque()
        self._failures = 0
        self._opened_at_us = 0.0
        self._probes_left = 0
        # observability
        self.trips = 0
        self.fast_fails = 0
        self.probes = 0
        self.transitions = 0

    # ------------------------------------------------------------- internals
    def _prune(self, now_us: float) -> None:
        horizon = now_us - self.config.breaker_window_us
        window = self._window
        while window and window[0][0] < horizon:
            _, ok = window.popleft()
            if not ok:
                self._failures -= 1

    def _transition(self, now_us: float, state: str) -> str:
        self.state = state
        self.transitions += 1
        if state == BREAKER_OPEN:
            self.trips += 1
            self._opened_at_us = now_us
        elif state == BREAKER_HALF_OPEN:
            self._probes_left = BREAKER_HALF_OPEN_PROBES
        else:                       # closing wipes the bad history
            self._window.clear()
            self._failures = 0
        return state

    # ------------------------------------------------------------ operations
    def allow(self, now_us: float) -> Tuple[bool, Optional[str]]:
        """May a call proceed at ``now_us``?  Returns (allowed, transition)."""
        transition: Optional[str] = None
        if self.state == BREAKER_OPEN:
            if now_us - self._opened_at_us >= BREAKER_OPEN_US:
                transition = self._transition(now_us, BREAKER_HALF_OPEN)
            else:
                self.fast_fails += 1
                return False, None
        if self.state == BREAKER_HALF_OPEN:
            if self._probes_left > 0:
                self._probes_left -= 1
                self.probes += 1
                return True, transition
            self.fast_fails += 1
            return False, transition
        return True, transition

    def record(self, now_us: float, ok: bool) -> Optional[str]:
        """Fold one call outcome in; returns the transition, if any."""
        if self.state == BREAKER_HALF_OPEN:
            # probes decide alone; the window restarts on close
            if ok:
                return self._transition(now_us, BREAKER_CLOSED)
            return self._transition(now_us, BREAKER_OPEN)
        if self.state == BREAKER_OPEN:
            return None             # fast-fails are not outcomes
        self._window.append((now_us, ok))
        if not ok:
            self._failures += 1
        self._prune(now_us)
        total = len(self._window)
        if (total >= BREAKER_MIN_SAMPLES
                and self._failures / total >= BREAKER_FAILURE_RATIO):
            return self._transition(now_us, BREAKER_OPEN)
        return None

    def snapshot(self) -> Dict[str, object]:
        return {"state": self.state, "trips": self.trips,
                "fast_fails": self.fast_fails, "probes": self.probes,
                "transitions": self.transitions,
                "window": len(self._window), "failures": self._failures}


class RetryBudget:
    """A bounded pool of retries with deterministic exponential backoff.

    One budget guards one backend's stubs: every retry consumes a token,
    and when the pool is dry the stub stops retrying and returns the last
    EAGAIN.  ``backoff_us(attempt)`` is the virtual idle the stub inserts
    before retry ``attempt`` (1-based): RETRY_BACKOFF_US * 2^(attempt-1).
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.remaining = budget
        # observability
        self.consumed = 0
        self.exhaustions = 0

    def try_consume(self) -> bool:
        if self.remaining <= 0:
            self.exhaustions += 1
            return False
        self.remaining -= 1
        self.consumed += 1
        return True

    def backoff_us(self, attempt: int) -> float:
        return RETRY_BACKOFF_US * (2.0 ** (attempt - 1))

    def snapshot(self) -> Dict[str, object]:
        return {"budget": self.budget, "remaining": self.remaining,
                "consumed": self.consumed, "exhaustions": self.exhaustions}


class OverloadController:
    """Per-client admission state for one dispatcher.

    Buckets are created lazily per client pid with the configured
    rate/burst; the dispatcher consults :meth:`admit` at call entry,
    before any trace machinery, and charges the admission ops and records
    the verdict itself.
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self._buckets: Dict[int, TokenBucket] = {}
        # observability
        self.admitted = 0
        self.refused = 0

    @property
    def admission_active(self) -> bool:
        return self.config.admission_enabled

    def bucket(self, client_pid: int) -> TokenBucket:
        bucket = self._buckets.get(client_pid)
        if bucket is None:
            bucket = TokenBucket(self.config.admission_rate_per_us,
                                 self.config.admission_burst)
            self._buckets[client_pid] = bucket
        return bucket

    def admit(self, client_pid: int, now_us: float,
              tokens: int = 1) -> Tuple[bool, bool]:
        ok, refilled = self.bucket(client_pid).admit(now_us, tokens)
        if ok:
            self.admitted += tokens
        else:
            self.refused += tokens
        return ok, refilled

    def snapshot(self) -> Dict[str, object]:
        return {
            "admitted": self.admitted,
            "refused": self.refused,
            "clients": {pid: bucket.snapshot()
                        for pid, bucket in sorted(self._buckets.items())},
        }
