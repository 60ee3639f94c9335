"""Sharded parallel traffic execution: independent client groups, one
deterministic merge.

The traffic engine is single-threaded by construction — one virtual clock,
one session table.  But the *workload* is embarrassingly partitionable:
clients never share sessions, and with the paper's per-session handles
they never share handle co-processes either.  This module splits a
:class:`~repro.workloads.traffic.TrafficSpec` into ``spec.shards``
independent groups (client ``i`` goes to shard ``i % spec.shards``), runs
each group on its own machine/clock — optionally on ``multiprocessing``
workers — and merges the outcomes into one :class:`TrafficResult`.

The determinism contract, in order of strength:

* **Worker-count independence (byte-exact).**  Each shard's run depends
  only on its spec and client ids: the global client id seeds the RNG
  child stream ``client:{id}``, so a client draws the identical sequence
  inside any partition.  Whether the shards execute sequentially in
  process (``workers=1``) or on N worker processes, every shard outcome
  — and therefore the merge, which folds in shard-index order — is
  byte-identical.
* **Shard-count is part of the experiment.**  Each shard idles its own
  clock between its own clients' arrivals, and each shard's machine
  registers its own copy of the modules, so summed idle cycles and
  setup-phase op counts (registration, key schedules) scale with the
  partition — exactly as running the groups on separate physical
  machines would.  Per-call *service* accounting does not: latencies,
  issued/denied counters and per-call charge sequences merge to the
  same values the serial engine produces, client for client.

Merge rules (applied in shard-index order): counters, op histograms and
cycle totals **sum**; ``elapsed_us`` is the **max** over shards (the
longest pole, parallel-execution semantics); per-client vectors are
reassembled in **global client-id order**.  Telemetry is in-process, like
tracing: :class:`~repro.workloads.traffic.TrafficSpec` rejects it with
``shards > 1``, so only a one-shard run has a metrics snapshot and a
per-handle seat-fairness report, and the merge passes that shard's
through.
"""

from __future__ import annotations

import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..secmodule.dispatch import DispatchConfig
from ..sim.stats import ordered_sum
from .traffic import TrafficEngine, TrafficResult, TrafficSpec


def partition_clients(clients: int, shards: int) -> List[Tuple[int, ...]]:
    """Round-robin partition: shard ``s`` owns clients ``s, s+shards, ...``."""
    if shards < 1 or shards > clients:
        raise SimulationError("shards must be between 1 and the client count")
    return [tuple(range(shard, clients, shards)) for shard in range(shards)]


@dataclass(frozen=True)
class ShardRun:
    """Picklable description of one shard's slice of a traffic run.

    ``spec`` is the shard-local view (``clients=len(client_ids)``,
    ``shards=1``); ``client_ids`` keep the *global* indices so RNG child
    streams match the serial engine client for client.
    """

    spec: TrafficSpec
    client_ids: Tuple[int, ...]
    dispatch_config: Optional[DispatchConfig]
    shard_index: int


@dataclass
class ShardOutcome:
    """Everything one worker reports back for the deterministic merge.

    Plain dicts/lists of primitives only: this crosses a process
    boundary, and the merge must not depend on live simulator objects.
    """

    shard_index: int
    client_ids: Tuple[int, ...]
    #: global client id -> per-client vectors/counters (latency vectors
    #: stay ``array('d')`` — compact over the pickle boundary)
    calls_issued: Dict[int, int]
    calls_denied: Dict[int, int]
    latencies_us: Dict[int, "array"]
    queue_delays_us: Dict[int, "array"]
    elapsed_us: float
    total_cycles: int
    machine_cycles: int
    clock_events: int
    op_counts: Dict[str, int]
    cache_stats: Dict[str, int]
    trace_stats: Dict[str, int]
    broker_stats: Dict[str, int]
    shard_sizes: List[int]
    session_count: int
    handle_count: int
    #: the engine's metrics snapshot (telemetry runs, which have one shard)
    metrics: Dict[str, object]
    #: global client id -> adaptive controller snapshot (adaptive runs)
    adaptive: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: handle pid -> fairness report (telemetry runs)
    seat_fairness: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: host wall-clock the worker spent building + running its engine
    wall_seconds: float = 0.0


def _run_shard(run: ShardRun) -> ShardOutcome:
    """Worker body: build and drive one shard's engine, flatten the result.

    Top-level so it pickles for ``ProcessPoolExecutor``; the in-process
    ``workers=1`` path calls it directly, which is what makes the
    worker-count identity trivially true for the base case.
    """
    start = time.perf_counter()
    engine = TrafficEngine(run.spec, dispatch_config=run.dispatch_config,
                           client_ids=list(run.client_ids))
    result = engine.run()
    wall = time.perf_counter() - start
    adaptive: Dict[int, Dict[str, object]] = {}
    if result.adaptive:
        snapshots = result.adaptive.get("per_client", [])
        adaptive = dict(zip(run.client_ids, snapshots))
    return ShardOutcome(
        shard_index=run.shard_index,
        client_ids=run.client_ids,
        calls_issued={s.index: s.calls_issued for s in engine.clients},
        calls_denied={s.index: s.calls_denied for s in engine.clients},
        latencies_us={s.index: s.latencies_us for s in engine.clients},
        queue_delays_us={s.index: s.queue_delays_us
                         for s in engine.clients},
        elapsed_us=result.elapsed_us,
        total_cycles=result.total_cycles,
        machine_cycles=engine.machine.clock.cycles,
        clock_events=engine.machine.clock.events,
        op_counts=dict(engine.machine.meter.op_counts),
        cache_stats=dict(result.cache_stats),
        trace_stats=engine.extension.dispatcher.trace_cache.snapshot(),
        broker_stats=dict(result.broker_stats),
        shard_sizes=list(result.shard_sizes),
        session_count=result.session_count,
        handle_count=result.handle_count,
        metrics=result.metrics,
        adaptive=adaptive,
        seat_fairness=dict(result.seat_fairness),
        wall_seconds=wall,
    )


def _sum_dicts(dicts: Sequence[Dict]) -> Dict:
    """Key-wise sum of counter dicts, keys in first-seen (shard) order."""
    out: Dict = {}
    for mapping in dicts:
        for key, value in mapping.items():
            out[key] = out.get(key, 0) + value
    return out


def merge_outcomes(spec: TrafficSpec,
                   outcomes: Sequence[ShardOutcome]) -> TrafficResult:
    """Fold shard outcomes into one :class:`TrafficResult`.

    Deterministic by construction: outcomes are processed in shard-index
    order, per-client vectors are reassembled in global client-id order,
    and every reduction (sum / max) is order-independent or applied in
    that fixed order.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.shard_index)
    all_ids = [cid for outcome in ordered for cid in outcome.client_ids]
    if len(set(all_ids)) != len(all_ids):
        raise SimulationError("shard outcomes overlap in client ids")
    ids = sorted(all_ids)
    issued = _sum_dicts([o.calls_issued for o in ordered])
    denied = _sum_dicts([o.calls_denied for o in ordered])
    latencies: Dict[int, "array"] = {}
    delays: Dict[int, "array"] = {}
    adaptive: Dict[int, Dict[str, object]] = {}
    for outcome in ordered:
        latencies.update(outcome.latencies_us)
        delays.update(outcome.queue_delays_us)
        adaptive.update(outcome.adaptive)

    merged_latencies = array("d")
    merged_delays = array("d")
    for cid in ids:
        merged_latencies.extend(latencies.get(cid, ()))
        merged_delays.extend(delays.get(cid, ()))
    # smod: allow(DET004)  integer call counts
    total_calls = sum(issued[cid] for cid in ids)
    # smod: allow(DET004)  integer cycle totals
    total_cycles = sum(o.total_cycles for o in ordered)
    shard_sizes: List[int] = []
    for outcome in ordered:
        for index, count in enumerate(outcome.shard_sizes):
            if index >= len(shard_sizes):
                shard_sizes.append(0)
            shard_sizes[index] += count
    # only a one-shard run can carry telemetry (see the module docstring)
    single = ordered[0] if len(ordered) == 1 else None
    return TrafficResult(
        spec=spec,
        total_calls=total_calls,
        # smod: allow(DET004)  integer denial counts
        denied_calls=sum(denied[cid] for cid in ids),
        elapsed_us=max(o.elapsed_us for o in ordered),
        total_cycles=total_cycles,
        cycles_per_call=(total_cycles / total_calls if total_calls else 0.0),
        per_client_mean_us=[
            ordered_sum(latencies[cid]) / len(latencies[cid])
            if latencies.get(cid) else 0.0
            for cid in ids],
        latencies_us=merged_latencies,
        queue_delays_us=merged_delays,
        cache_stats=_sum_dicts([o.cache_stats for o in ordered]),
        shard_sizes=shard_sizes,
        # smod: allow(DET004)  integer session counts
        session_count=sum(o.session_count for o in ordered),
        # smod: allow(DET004)  integer handle counts
        handle_count=sum(o.handle_count for o in ordered),
        broker_stats=_sum_dicts([o.broker_stats for o in ordered]),
        metrics=single.metrics if single else {},
        adaptive=({"per_client": [adaptive[cid] for cid in ids]}
                  if adaptive else {}),
        seat_fairness=single.seat_fairness if single else {},
    )


@dataclass
class ShardedTrafficResult:
    """A merged sharded run plus the per-shard evidence behind it."""

    result: TrafficResult
    outcomes: List[ShardOutcome]
    workers: int

    @property
    def machine_cycles(self) -> int:
        """Summed full-machine cycle counts (build + run, all shards)."""
        # smod: allow(DET004)  integer cycle counts
        return sum(o.machine_cycles for o in self.outcomes)

    @property
    def clock_events(self) -> int:
        # smod: allow(DET004)  integer event counts
        return sum(o.clock_events for o in self.outcomes)

    @property
    def op_counts(self) -> Dict[str, int]:
        return _sum_dicts([o.op_counts for o in self.outcomes])

    @property
    def trace_stats(self) -> Dict[str, int]:
        return _sum_dicts([o.trace_stats for o in self.outcomes])


def shard_runs(spec: TrafficSpec,
               dispatch_config: Optional[DispatchConfig] = None
               ) -> List[ShardRun]:
    """The per-shard run descriptions for ``spec`` (round-robin groups)."""
    groups = partition_clients(spec.clients, spec.shards)
    return [
        ShardRun(spec=replace(spec, clients=len(ids), shards=1),
                 client_ids=ids, dispatch_config=dispatch_config,
                 shard_index=index)
        for index, ids in enumerate(groups)]


def run_traffic_sharded(spec: TrafficSpec, *,
                        dispatch_config: Optional[DispatchConfig] = None,
                        workers: int = 1) -> ShardedTrafficResult:
    """Run ``spec`` as ``spec.shards`` independent groups and merge.

    ``workers=1`` runs the shards sequentially in process; ``workers>1``
    fans them out on a ``ProcessPoolExecutor`` (clamped to the shard
    count).  The merged result is byte-identical either way.
    """
    if workers < 1:
        raise SimulationError("workers must be at least 1")
    runs = shard_runs(spec, dispatch_config)
    workers = min(workers, len(runs))
    if workers <= 1:
        outcomes = [_run_shard(run) for run in runs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # executor.map preserves input order: outcome i is shard i
            outcomes = list(pool.map(_run_shard, runs))
    return ShardedTrafficResult(result=merge_outcomes(spec, outcomes),
                                outcomes=outcomes, workers=workers)
