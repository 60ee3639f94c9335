"""Adaptive control plane: policies that react to telemetry while a run
executes.

The first controller closes the "adaptive batching" roadmap item:
:class:`~repro.control.adaptive.AdaptiveBatchController` grows and shrinks
the per-client batched-dispatch queue depth from the observed interarrival
EWMA the telemetry plane feeds it.
"""

from .adaptive import AdaptiveBatchController
from .overload import (BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN,
                       CircuitBreaker, OverloadConfig, OverloadController,
                       RetryBudget, TokenBucket)

__all__ = [
    "AdaptiveBatchController",
    "BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN",
    "CircuitBreaker", "OverloadConfig", "OverloadController",
    "RetryBudget", "TokenBucket",
]
