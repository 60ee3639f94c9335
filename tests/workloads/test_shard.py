"""Sharded parallel traffic: partitioning, the deterministic merge, and
worker-count independence.

The contract under test (docs/performance.md, "Sharded parallel
execution"): the merged result is byte-identical whether the shards run
sequentially in process or on multiprocessing workers; per-client service
accounting survives partitioning client for client; observation stays in
process (telemetry needs one shard, whose metrics and seat report pass
through); and overlapping partitions are a hard error.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.secmodule.dispatch import DispatchConfig
from repro.workloads.shard import (
    merge_outcomes,
    partition_clients,
    run_traffic_sharded,
    shard_runs,
)
from repro.workloads.traffic import TrafficEngine, TrafficSpec


def sharded_spec(**overrides) -> TrafficSpec:
    base = dict(clients=6, modules=2, calls_per_client=24, shards=2)
    base.update(overrides)
    return TrafficSpec(**base)


def merged_accounting(sharded):
    """Everything the worker-count identity must cover."""
    result = sharded.result
    return {
        "total_calls": result.total_calls,
        "denied": result.denied_calls,
        "elapsed_us": result.elapsed_us,
        "total_cycles": result.total_cycles,
        "machine_cycles": sharded.machine_cycles,
        "clock_events": sharded.clock_events,
        "op_counts": sharded.op_counts,
        "per_client_mean_us": result.per_client_mean_us,
        "latencies": result.latencies_us,
        "delays": result.queue_delays_us,
        "cache": result.cache_stats,
        "broker": result.broker_stats,
        "trace": sharded.trace_stats,
        "sessions": result.session_count,
        "handles": result.handle_count,
        "metrics": result.metrics,
        "fairness": result.seat_fairness,
    }


class TestPartition:
    def test_round_robin_assignment(self):
        assert partition_clients(7, 3) == [(0, 3, 6), (1, 4), (2, 5)]
        assert partition_clients(4, 1) == [(0, 1, 2, 3)]
        assert partition_clients(4, 4) == [(0,), (1,), (2,), (3,)]

    def test_rejects_invalid_shard_counts(self):
        with pytest.raises(SimulationError):
            partition_clients(4, 0)
        with pytest.raises(SimulationError):
            partition_clients(4, 5)

    def test_shard_runs_keep_global_client_ids(self):
        runs = shard_runs(sharded_spec(clients=5, shards=2))
        assert [r.client_ids for r in runs] == [(0, 2, 4), (1, 3)]
        for run in runs:
            assert run.spec.shards == 1
            assert run.spec.clients == len(run.client_ids)


class TestWorkerCountIndependence:
    def test_in_process_vs_worker_pool_merge_byte_identical(self):
        spec = sharded_spec(arrival="open", shards=3)
        one = run_traffic_sharded(spec, workers=1)
        pooled = run_traffic_sharded(spec, workers=3)
        assert one.workers == 1 and pooled.workers == 3
        assert merged_accounting(one) == merged_accounting(pooled)

    def test_workers_clamped_to_shard_count(self):
        sharded = run_traffic_sharded(sharded_spec(shards=2), workers=16)
        assert sharded.workers == 2

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(SimulationError):
            run_traffic_sharded(sharded_spec(), workers=0)


class TestMergeContract:
    def test_per_client_service_accounting_survives_partitioning(self):
        """Closed-loop clients are independent: each client's issue/deny
        counters and latency vector must come out identical whether it ran
        in the serial engine or inside any shard."""
        spec = sharded_spec(arrival="closed", shards=3)
        serial_engine = TrafficEngine(replace(spec, shards=1))
        serial_engine.run()
        serial_clients = {s.index: s for s in serial_engine.clients}

        sharded = run_traffic_sharded(spec, workers=1)
        for outcome in sharded.outcomes:
            for cid in outcome.client_ids:
                serial = serial_clients[cid]
                assert outcome.calls_issued[cid] == serial.calls_issued
                assert outcome.calls_denied[cid] == serial.calls_denied
                assert outcome.latencies_us[cid] == serial.latencies_us

        # ... and the merge reassembles them in global client-id order
        expected = []
        for cid in sorted(serial_clients):
            expected.extend(serial_clients[cid].latencies_us)
        assert list(sharded.result.latencies_us) == expected

    def test_counters_sum_and_elapsed_is_max(self):
        sharded = run_traffic_sharded(sharded_spec(shards=2), workers=1)
        outcomes = sharded.outcomes
        result = sharded.result
        assert result.total_cycles == sum(o.total_cycles for o in outcomes)
        assert result.elapsed_us == max(o.elapsed_us for o in outcomes)
        assert result.session_count == sum(o.session_count
                                           for o in outcomes)
        assert result.total_calls == sum(
            sum(o.calls_issued.values()) for o in outcomes)

    def test_telemetry_rejects_sharded_runs(self):
        with pytest.raises(SimulationError):
            TrafficSpec(clients=4, telemetry=True, shards=2)

    def test_one_shard_passes_metrics_and_seat_report_through(self):
        # open-loop + telemetry: the broker's per-seat delay report engages
        spec = sharded_spec(clients=6, shards=1, telemetry=True,
                            arrival="open", handle_policy="pooled",
                            pool_max_sessions=3)
        sharded = run_traffic_sharded(spec, workers=1).result
        serial = TrafficEngine(spec).run()
        assert sharded.metrics and sharded.seat_fairness
        # the engine's own snapshot, key order included
        assert repr(sharded.metrics) == repr(serial.metrics)
        assert sharded.seat_fairness == serial.seat_fairness

    def test_overlapping_client_ids_rejected(self):
        spec = sharded_spec(shards=2)
        sharded = run_traffic_sharded(spec, workers=1)
        clone = replace(sharded.outcomes[1],
                        client_ids=sharded.outcomes[0].client_ids)
        with pytest.raises(SimulationError):
            merge_outcomes(spec, [sharded.outcomes[0], clone])

    def test_fast_forward_active_inside_shards(self):
        """The sharded engine runs the same tiered dispatch: hot keys
        fast-forward inside each shard and the stats merge."""
        spec = sharded_spec(arrival="open", calls_per_client=40)
        sharded = run_traffic_sharded(
            spec, dispatch_config=DispatchConfig(), workers=1)
        stats = sharded.trace_stats
        assert stats["records"] > 0
        assert stats["fast_forward_calls"] > 0
