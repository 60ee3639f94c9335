"""The LRU orders a fast-forward run leaves in the trace and decision caches.

A windowed call skips its probe, so the engine's barrier (``_ff_flush``)
makes the touches those probes would have made: a trace-cache ``lookup``
and the decision-cache ``replay_touch`` of each open window, in last-use
order.  The caches must end in the order per-call probing leaves, or a
later eviction would pick a different victim.  The traffic digests never
read these orders, so this file pins them:

* each session's decision-cache key order is the same under fast-forward
  and op by op, where every call touches the cache for real;
* the trace cache's key order, as ``(session id, shape, batch size)``,
  matches a SHA-256 taken under per-call probing.

A barrier that touched its windows in first-use order breaks both.  A
batch settle must also touch its keys in the first-occurrence order of
the queue it settles, not of the permutation its trace recorded: the
barrier's re-check in the order of the window's last flush.  The two
shallow AIMD specs end a session's decision order differently when a
settle repeats the recorded order.  Regenerate the digests (only for a
deliberate re-baseline) with::

    PYTHONPATH=src python tests/workloads/test_ff_lru_order.py
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import pytest

from repro.secmodule.dispatch import DispatchConfig
from repro.workloads.traffic import TrafficEngine, TrafficSpec

SPECS: Dict[str, TrafficSpec] = {
    "open-two-modules": TrafficSpec(
        clients=3, modules=2, calls_per_client=120, arrival="open",
        mean_interval_us=6.0),
    "closed": TrafficSpec(
        clients=3, modules=2, calls_per_client=120, mean_interval_us=20.0),
    "aimd-mmpp": TrafficSpec(
        clients=3, modules=2, calls_per_client=160, arrival="mmpp",
        mean_interval_us=25.0, burst_interval_us=4.0, burst_on_us=120.0,
        burst_off_us=480.0, adaptive_batch=True, adaptive_max_depth=8),
    "open-three-modules-seed7": TrafficSpec(
        clients=3, modules=3, calls_per_client=120, arrival="open",
        mean_interval_us=6.0, seed=7),
    "aimd-mmpp-depth2": TrafficSpec(
        clients=3, modules=2, calls_per_client=160, arrival="mmpp",
        adaptive_batch=True, adaptive_max_depth=2, mean_interval_us=6.0),
    "aimd-mmpp-depth3": TrafficSpec(
        clients=3, modules=2, calls_per_client=160, arrival="mmpp",
        adaptive_batch=True, adaptive_max_depth=3, mean_interval_us=4.0),
}

#: spec name -> SHA-256 of the trace cache's final key order
TRACE_ORDER_SHA256: Dict[str, str] = {
    "aimd-mmpp":
        "4060c6b79fcedb0a310b3f8d4ef75538bf1665d0cb9f25e7fa73c88704df994c",
    "aimd-mmpp-depth2":
        "70b640cc963769c7b238e365891c0345c142151fc7816a7dc2bd10a3a62972c2",
    "aimd-mmpp-depth3":
        "3fe5051dc56463e60ad433579fc1cb21a703d14127031197634512c327bb6ab0",
    "closed":
        "129fe43d094e316d19b293b520fd3df78cce24eb305eb4a4e841f5dfa4a09d43",
    "open-three-modules-seed7":
        "f4e70174b96664219277ebd477fe40f58dd61bd50f72b0c034bfb81ce0669637",
    "open-two-modules":
        "00e0470305757615f8e3459ec7120600b6b8ea34857b0ab0505e92ba51a9658c",
}


def run(spec: TrafficSpec, config: DispatchConfig) -> TrafficEngine:
    engine = TrafficEngine(spec, dispatch_config=config)
    engine.run()
    return engine


def decision_order(engine: TrafficEngine) -> Dict[int, List[Tuple[int, int]]]:
    """Session id -> its decision-cache keys, least recently used first."""
    cache = engine.extension.dispatcher.decision_cache
    return {sid: list(entries) for sid, entries in cache._sessions.items()}


def trace_order_sha256(engine: TrafficEngine) -> str:
    """SHA-256 of the trace cache's keys, least recently used first."""
    keys = [(sid, shape, config.batch_size) for sid, shape, config
            in engine.extension.dispatcher.trace_cache._entries]
    return hashlib.sha256(repr(keys).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_decision_cache_order_matches_op_by_op(name):
    forwarded = run(SPECS[name], DispatchConfig())
    op_by_op = run(SPECS[name], DispatchConfig(use_trace_replay=False))
    trace_cache = forwarded.extension.dispatcher.trace_cache
    # the run must actually window calls, or the orders prove nothing
    assert trace_cache.fast_forwards > 0
    assert decision_order(forwarded) == decision_order(op_by_op)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_trace_cache_order_is_pinned(name):
    forwarded = run(SPECS[name], DispatchConfig())
    assert trace_order_sha256(forwarded) == TRACE_ORDER_SHA256[name]


if __name__ == "__main__":
    for spec_name in sorted(SPECS):
        digest = trace_order_sha256(run(SPECS[spec_name], DispatchConfig()))
        print(f'    "{spec_name}":\n        "{digest}",')
