"""Digest table of every traffic-engine loop: each run must stay byte-identical.

Every combination of arrival source, flush policy and call sink that
``TrafficSpec`` accepts is run at a small size under the paper-default
``DispatchConfig()`` (fast-forward on) and under
``DispatchConfig(use_trace_replay=False)`` (op by op).  Each run is folded
into a digest: clock cycles and events, op counts, issued and denied calls,
SHA-256 of the latency and queue-delay arrays, cache and broker stats, the
telemetry snapshot, controller snapshots, seat fairness, the spans and
tracer stats, and each client's bit-generator state.  The digests are
compared with ``traffic_digests.json`` beside this file.

A refactor of ``repro.workloads.traffic`` must leave every digest as it
is.  Only a deliberate re-baseline may regenerate the table, such as a fix
to the seed derivation in ``DeterministicRNG.child``; its change note must
list the digests that moved and why.  Regenerate with::

    PYTHONPATH=src python tests/workloads/test_traffic_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict, List

import pytest

from repro.secmodule.dispatch import DispatchConfig
from repro.workloads.traffic import TrafficEngine, TrafficSpec

TABLE = pathlib.Path(__file__).with_name("traffic_digests.json")

CONFIGS = {
    "ff": DispatchConfig(),
    "op": DispatchConfig(use_trace_replay=False),
}

_CLOSED = dict(clients=3, modules=2, calls_per_client=12,
               mean_interval_us=20.0)
_OPEN = dict(clients=3, modules=2, calls_per_client=16, arrival="open",
             mean_interval_us=6.0)
_MMPP = dict(clients=3, modules=2, calls_per_client=16, arrival="mmpp",
             mean_interval_us=30.0, burst_interval_us=1.5, burst_on_us=60.0,
             burst_off_us=200.0)
_AIMD = dict(adaptive_batch=True, adaptive_max_depth=8)

#: name -> TrafficSpec keyword arguments; one entry per loop combination
SPECS: Dict[str, Dict[str, object]] = {
    # closed loop
    "closed-depth1": dict(_CLOSED),
    "closed-depth1-one-module": dict(_CLOSED, modules=1, calls_per_client=24),
    "closed-batch4": dict(_CLOSED, calls_per_client=9, batch_size=4),
    "closed-lognormal": dict(_CLOSED, think="lognormal"),
    "closed-quota-default": dict(_CLOSED, policy_kind="quota"),
    "closed-pooled": dict(_CLOSED, handle_policy="pooled",
                          pool_max_sessions=2),
    "closed-traced": dict(_CLOSED, tracing=True),
    # open and MMPP, static batches
    "open-depth1-one-module": dict(_OPEN, modules=1),
    "open-depth1": dict(_OPEN),
    "mmpp-depth1-one-module": dict(_MMPP, modules=1),
    "mmpp-depth1": dict(_MMPP),
    # module picks over spans whose Lemire threshold is nonzero
    "open-depth1-three-modules": dict(_OPEN, modules=3),
    "open-depth1-five-modules": dict(_OPEN, modules=5),
    "mmpp-depth1-three-modules": dict(_MMPP, modules=3),
    "open-depth1-one-function": dict(_OPEN, call_mix=(("getpid", 1.0),)),
    # more (client, module, function) triples than a byte can number
    "open-depth1-many-clients": dict(_OPEN, clients=100, calls_per_client=8),
    "open-batch3": dict(_OPEN, batch_size=3),
    "mmpp-batch4": dict(_MMPP, calls_per_client=17, batch_size=4),
    "open-one-function-batch8": dict(_OPEN, modules=1, calls_per_client=40,
                                     batch_size=8,
                                     call_mix=(("test_incr", 1.0),)),
    "open-batch32": dict(_OPEN, calls_per_client=70, batch_size=32),
    # the batch drain on per-seat secret stacks
    "mmpp-batch8-pooled": dict(_MMPP, calls_per_client=33, batch_size=8,
                               handle_policy="pooled", pool_max_sessions=2),
    # every queued call denied: no round trip, only the unwind
    "open-denied-batch4": dict(_OPEN, modules=1, calls_per_client=18,
                               batch_size=4,
                               call_mix=(("test_null", 1.0),)),
    "open-telemetry": dict(_OPEN, telemetry=True),
    "mmpp-traced": dict(_MMPP, tracing=True),
    # AIMD flush policy
    "aimd-open": dict(_OPEN, **_AIMD, mean_interval_us=3.0),
    "aimd-mmpp-telemetry-p95": dict(_MMPP, **_AIMD, telemetry=True,
                                    service_p95_target_us=8.0),
    "aimd-max-depth1": dict(_OPEN, adaptive_batch=True,
                            adaptive_max_depth=1),
    "aimd-traced": dict(_MMPP, **_AIMD, tracing=True),
    # super-frames deeper than _AIMD's cap: flushes reach 53 calls
    "aimd-mmpp-depth64-telemetry-p95": dict(
        _MMPP, calls_per_client=400, burst_interval_us=0.5,
        burst_on_us=200.0, adaptive_batch=True, adaptive_max_depth=64,
        telemetry=True, service_p95_target_us=40.0),
    "aimd-open-depth64": dict(_OPEN, calls_per_client=300,
                              mean_interval_us=1.0, adaptive_batch=True,
                              adaptive_max_depth=64),
    # service-plane RPC sink
    "service-closed": dict(_CLOSED, via_service=True),
    "service-open": dict(_OPEN, via_service=True),
    "service-mmpp-observed": dict(_MMPP, via_service=True, telemetry=True,
                                  tracing=True),
    # seat-queue shedding
    "shed-mmpp-depth1": dict(_MMPP, modules=1, mean_interval_us=60.0,
                             burst_interval_us=6.0, shed_deadline_us=4.0),
    "shed-open-batch2-telemetry": dict(_OPEN, mean_interval_us=15.0,
                                       batch_size=2, telemetry=True,
                                       shed_deadline_us=5.0),
    "shed-service": dict(_MMPP, modules=1, via_service=True,
                         mean_interval_us=200.0, burst_interval_us=40.0,
                         shed_deadline_us=20.0),
}


def _sha(value) -> str:
    if isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
    else:
        data = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(data).hexdigest()


def digest(name: str, config_name: str) -> Dict[str, object]:
    """Run one spec under one dispatch config and fold it into a digest."""
    engine = TrafficEngine(TrafficSpec(**SPECS[name]),
                           dispatch_config=CONFIGS[config_name])
    result = engine.run()
    machine = engine.machine
    return {
        "cycles": machine.clock.cycles,
        "events": machine.clock.events,
        "ops": _sha(sorted(machine.meter.op_counts.items())),
        "issued": result.total_calls,
        "denied": result.denied_calls,
        "latencies": _sha(result.latencies_us.tobytes()),
        "queue_delays": _sha(result.queue_delays_us.tobytes()),
        "cache": _sha(result.cache_stats),
        "broker": _sha(result.broker_stats),
        "metrics": _sha(result.metrics),
        "controllers": _sha(result.adaptive),
        "seat_fairness": _sha(
            sorted((str(k), v) for k, v in result.seat_fairness.items())),
        "spans": _sha([span.to_dict() for span in result.trace_spans]),
        "trace_stats": _sha(result.trace_stats),
        "rng": _sha([state.rng._rng.bit_generator.state
                     for state in engine.clients]),
    }


def _cases() -> List[str]:
    return [f"{name}/{config}" for name in SPECS for config in CONFIGS]


@pytest.fixture(scope="module")
def table() -> Dict[str, Dict[str, object]]:
    return json.loads(TABLE.read_text())


def test_table_covers_every_case(table):
    assert sorted(table) == sorted(_cases())


@pytest.mark.parametrize("case", _cases())
def test_digest_is_unchanged(case, table):
    name, config_name = case.split("/")
    assert digest(name, config_name) == table[case]


def _regenerate() -> None:
    out = {case: digest(*case.split("/")) for case in _cases()}
    TABLE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {TABLE}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} (takes no arguments)")
    _regenerate()
