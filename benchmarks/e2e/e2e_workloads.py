"""The four workloads of the end-to-end benchmark, and one measured rep.

Each workload builds a fresh simulated system from the seed (the timed
set-up), then drives a fixed amount of traffic through it (the timed
phase).  The amount is fixed, not timed, so every rep of a seed has one
virtual digest; host speed is what varies between reps.

Everything here goes through the simulator's public surface: ``TrafficSpec``
and ``TrafficEngine`` for the three traffic workloads, the smodserve RPC
stubs from ``ServiceFrontend.make_client`` for serve-churn, and the meter,
clock, trace cache and decision cache for the virtual accounting.
"""

from __future__ import annotations

import hashlib
import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.hw.machine import make_paper_machine
from repro.kernel.errno import Errno
from repro.kernel.kernel import Kernel
from repro.rpc.client import RpcError
from repro.secmodule.protection import ProtectionMode
from repro.secmodule.smod_syscalls import install_secmodule
from repro.serve.frontend import ServiceConfig, ServiceFrontend
from repro.sim import costs
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import percentile
from repro.userland.process import Program
from repro.workloads.traffic import (DEFAULT_CALL_MIX, TrafficEngine,
                                     TrafficSpec, build_traffic_module,
                                     traffic_policy)

from e2e_layers import VIRTUAL_GROUPS, SpanRecorder, group_cycles, group_of_ops


@dataclass
class Outcome:
    """What one timed phase produced, before any virtual bookkeeping."""

    ops: int
    failed: int
    denied: int
    #: per protected call, virtual microseconds, in issue order
    latencies_us: array
    #: open-loop queueing delays, virtual microseconds (empty when closed)
    queue_delays_us: array
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Rep:
    """One measured rep: host timings, the virtual digest and the virtual
    per-layer metrics (identical on every rep of a seed)."""

    ops: int
    failed: int
    setup_s: float
    run_s: float
    digest: Dict[str, object]
    virtual: Dict[str, float]
    samples: Dict[str, int]

    @property
    def ops_per_host_s(self) -> float:
        return self.ops / self.run_s


class TrafficWorkload:
    """A ``TrafficEngine`` run: built in set-up, ``run()`` is the timed
    phase."""

    #: the cost ops of the traffic modules' function bodies, one per served
    #: call (``build_traffic_module``)
    BODY_OPS = (costs.FUNC_BODY_TESTINCR, costs.FUNC_BODY_SMOD_GETPID)

    def __init__(self, spec: Dict[str, object], *, full: Dict[str, int],
                 smoke: Dict[str, int]) -> None:
        self.spec = spec
        #: TrafficSpec fields that size a full rep and a smoke rep
        self.sizes = {False: full, True: smoke}

    def setup(self, seed: int, smoke: bool) -> TrafficEngine:
        spec = TrafficSpec(seed=seed, **{**self.spec, **self.sizes[smoke]})
        return TrafficEngine(spec).build()

    def drive(self, engine: TrafficEngine,
              recorder: Optional[SpanRecorder]) -> Outcome:
        op_counts = engine.machine.meter.op_counts
        bodies_before = sum(op_counts[op] for op in self.BODY_OPS)
        # with a recorder installed, TrafficEngine.run is itself the root
        result = engine.run()
        spec = engine.spec
        extra: Dict[str, float] = {}
        controllers = result.adaptive.get("per_client", [])
        if controllers:
            extra["control.mean_depth"] = (
                sum(c["arrivals"] for c in controllers)
                / sum(c["flushes"] for c in controllers))
        # The engine keeps no return values, so a call is checked by its
        # accounting: every call the spec asks for is issued, and every
        # issued call either ran its function body exactly once or was
        # denied (only test_null is, by the traffic policy).
        served = sum(op_counts[op] for op in self.BODY_OPS) - bodies_before
        return Outcome(
            ops=result.total_calls,
            failed=(spec.clients * spec.calls_per_client - result.total_calls
                    + abs(result.total_calls - result.denied_calls - served)),
            denied=result.denied_calls,
            latencies_us=result.latencies_us,
            queue_delays_us=result.queue_delays_us,
            extra=extra)


@dataclass
class ChurnSystem:
    """serve-churn's built system: a front-end serving two pooled backends
    over RPC, and the client programs' stubs."""

    machine: object
    kernel: Kernel
    extension: object
    frontend: ServiceFrontend
    backends: list
    stubs: list
    #: (m_id, function name) -> func_id, for the RPC arguments
    func_ids: Dict[tuple, int]
    rng: DeterministicRNG
    lifetimes: int


class ServeChurn:
    """Session lifetimes over the smodserve RPC surface.

    ``CLIENTS`` client programs take turns, one RPC per turn.  A client
    without a binding attaches (backend drawn from the seed, tenant =
    client % 2); a bound client issues ``serve_call``s from the traffic
    call mix, a geometric number of them (mean ``MEAN_CALLS``), then
    detaches.  Every reply is checked.
    """

    CLIENTS = 16
    TENANTS = 2
    MEAN_CALLS = 16
    BACKEND_POLICY = "pooled:8"
    #: the default 1024-entry process table refuses attaches after ~500
    #: lifetimes, because each lifetime leaks a surrogate client process
    #: (see README.md); the workload raises the cap so no rep size is
    #: refused
    MAX_PROCS = 16384
    sizes = {False: 160, True: 12}

    def setup(self, seed: int, smoke: bool) -> ChurnSystem:
        machine = make_paper_machine(seed=seed)
        kernel = Kernel(machine=machine).boot()
        extension = install_secmodule(kernel)
        extension.sessions.charge_shard_locks = True
        policy = traffic_policy(TrafficSpec())
        frontend = ServiceFrontend(
            kernel, extension, config=ServiceConfig(max_procs=self.MAX_PROCS))
        backends = []
        func_ids: Dict[tuple, int] = {}
        for index in range(2):
            module = extension.registry.register(
                build_traffic_module(index, policy=policy), uid=0,
                protection=ProtectionMode.ENCRYPT)
            backends.append(frontend.register_backend(
                f"churn{index}", [module], policy=self.BACKEND_POLICY))
            for function in module.definition.functions():
                func_ids[(module.m_id, function.name)] = function.func_id
        frontend.start()
        stubs = [frontend.make_client(
                     Program.spawn(kernel, f"churn-client{index}").proc)
                 for index in range(self.CLIENTS)]
        return ChurnSystem(machine=machine, kernel=kernel, extension=extension,
                           frontend=frontend, backends=backends, stubs=stubs,
                           func_ids=func_ids,
                           rng=DeterministicRNG(seed).child("serve-churn"),
                           lifetimes=self.sizes[smoke])

    def drive(self, system: ChurnSystem,
              recorder: Optional[SpanRecorder]) -> Outcome:
        if recorder is None:
            return self._loop(system)
        return recorder.run_root("ServeChurn.loop", lambda: self._loop(system))

    def _calls_in_lifetime(self, rng: DeterministicRNG) -> int:
        """Geometric on 1, 2, ... with mean MEAN_CALLS."""
        keep = 1.0 - 1.0 / self.MEAN_CALLS
        return 1 + int(math.log(1.0 - rng.random01()) / math.log(keep))

    def _loop(self, system: ChurnSystem) -> Outcome:
        rng = system.rng
        clock = system.machine.clock
        mhz = system.machine.spec.mhz
        frontend = system.frontend
        names = [name for name, _ in DEFAULT_CALL_MIX]
        weights = [weight for _, weight in DEFAULT_CALL_MIX]
        denied_reply = -int(Errno.EACCES)
        latencies = array("d")
        attach_cycles: List[int] = []
        detach_cycles: List[int] = []
        bindings: List[Optional[int]] = [None] * self.CLIENTS
        remaining = [0] * self.CLIENTS
        modules: List[object] = [None] * self.CLIENTS
        ops = failed = denied = started = finished = 0
        while finished < system.lifetimes:
            for index, stub in enumerate(system.stubs):
                binding = bindings[index]
                if binding is None and started == system.lifetimes:
                    continue
                ending = binding is None or not remaining[index]
                mark = clock.cycles
                try:
                    if binding is None:
                        started += 1
                        record = system.backends[
                            rng.integer(0, len(system.backends) - 1)]
                        reply = stub.call("serve_attach", record.backend_id,
                                          index % self.TENANTS)
                        attach_cycles.append(clock.cycles - mark)
                        if reply > 0:
                            bindings[index] = reply
                            modules[index] = record.modules[0]
                            remaining[index] = self._calls_in_lifetime(rng)
                        else:
                            failed += 1            # a refused attach
                            finished += 1
                    elif remaining[index]:
                        remaining[index] -= 1
                        name = rng.weighted_choice(names, weights)
                        module = modules[index]
                        arg = rng.integer(0, 1 << 20) if name == "test_incr" \
                            else 0
                        reply = stub.call(
                            "serve_call", binding, module.m_id,
                            system.func_ids[(module.m_id, name)], arg)
                        latencies.append((clock.cycles - mark) / mhz)
                        if name == "test_incr":
                            expected = arg + 1
                        elif name == "getpid":
                            expected = frontend.binding(binding).client.proc.pid
                        else:
                            expected = denied_reply
                            denied += reply == denied_reply
                        failed += reply != expected
                    else:
                        reply = stub.call("serve_detach", binding)
                        detach_cycles.append(clock.cycles - mark)
                        failed += reply != 0
                        bindings[index] = None
                        finished += 1
                except (SimulationError, RpcError):
                    # a simulator error, or an RPC reply that is not a result
                    failed += 1
                    if ending:
                        # a raising attach or detach ends its lifetime
                        bindings[index] = None
                        finished += 1
                ops += 1
        extra = {
            "serve.attach_virtual_cycles_p50": percentile(attach_cycles, 50),
            "serve.detach_virtual_cycles_p50": percentile(detach_cycles, 50)}
        return Outcome(ops=ops, failed=failed, denied=denied,
                       latencies_us=latencies, queue_delays_us=array("d"),
                       extra=extra)


#: A full rep takes 0.5 to 1 s on the reference box.  Short reps keep each
#: one close in time to the host-speed probes on either side of it
#: (``e2e_speed``), and give a run many reps to take the median of.  The
#: two workloads whose work mix varies by seed get the longer reps: halving
#: them doubled their seed-to-seed spread in host rate, to 6-8%.
WORKLOADS = {
    "ff-steady": TrafficWorkload(
        dict(clients=4, modules=2, arrival="open", mean_interval_us=50.0),
        full=dict(calls_per_client=25_000),
        smoke=dict(calls_per_client=300)),
    "quota-slowpath": TrafficWorkload(
        dict(clients=64, modules=4, arrival="closed", policy_kind="quota"),
        full=dict(calls_per_client=50),
        smoke=dict(calls_per_client=3, clients=8)),
    "burst-adaptive": TrafficWorkload(
        dict(clients=2, modules=2, arrival="mmpp", adaptive_batch=True,
             telemetry=True, service_p95_target_us=40.0),
        full=dict(calls_per_client=7_000),
        smoke=dict(calls_per_client=300)),
    "serve-churn": ServeChurn(),
}


def run_rep(name: str, seed: int, *, smoke: bool = False,
            recorder: Optional[SpanRecorder] = None) -> Rep:
    """Set up and drive one rep of workload ``name``.

    Pass an installed :class:`SpanRecorder` to trace it; the recorder must
    be installed before this call so set-up is traced too.
    """
    workload = WORKLOADS[name]
    owner = group_of_ops(costs)
    started = time.perf_counter()
    if recorder is None:
        system = workload.setup(seed, smoke)
    else:
        # a root span, so the spans cover all of the rep's timed host time
        system = recorder.run_root(f"{name}.setup",
                                   lambda: workload.setup(seed, smoke))
    setup_s = time.perf_counter() - started

    machine = system.machine
    meter = machine.meter
    clock = machine.clock
    trace_cache = system.extension.dispatcher.trace_cache
    decision_cache = system.extension.decision_cache
    ops_before = dict(meter.op_counts)
    cycles_before = clock.cycles
    trace_before = trace_cache.snapshot()
    cache_before = decision_cache.snapshot()
    started = time.perf_counter()
    outcome = workload.drive(system, recorder)
    run_s = time.perf_counter() - started

    ops = outcome.ops
    op_delta = {op: count - ops_before.get(op, 0)
                for op, count in meter.op_counts.items()}
    charged = group_cycles(op_delta, meter.profile.cycles, owner)
    idle = clock.cycles - cycles_before - sum(charged.values())
    mhz = machine.spec.mhz
    trace = {key: value - trace_before[key]
             for key, value in trace_cache.snapshot().items()}
    cache = {key: value - cache_before[key]
             for key, value in decision_cache.snapshot().items()}
    lookups = cache["hits"] + cache["misses"]
    virtual: Dict[str, float] = {
        "virtual_cycles_per_op": sum(charged.values()) / ops}
    for group in VIRTUAL_GROUPS:
        virtual[f"virt.{group}.cycles_per_op"] = charged[group] / ops
    virtual["virt.idle.cycles_per_op"] = idle / ops
    virtual["virt.call_cycles_p50"] = percentile(outcome.latencies_us, 50) * mhz
    virtual["virt.call_cycles_p99"] = percentile(outcome.latencies_us, 99) * mhz
    virtual["virt.queue_cycles_p99"] = (
        percentile(outcome.queue_delays_us, 99) * mhz)
    virtual.update({
        "secmodule.trace.ff_share": trace["fast_forward_calls"] / ops,
        "secmodule.trace.replay_share": trace["replays"] / ops,
        "secmodule.trace.records_per_kop": trace["records"] * 1000.0 / ops,
        "secmodule.trace.invalidations_per_kop":
            trace["invalidated"] * 1000.0 / ops,
        "secmodule.decision_cache.hit_ratio":
            cache["hits"] / lookups if lookups else 0.0,
        "kernel.context_switches_per_op":
            op_delta.get(costs.CONTEXT_SWITCH, 0) / ops,
        "kernel.procs_end": float(len(system.kernel.procs)),
        # measured only by the workloads that exercise them
        "serve.attach_virtual_cycles_p50": 0.0,
        "serve.detach_virtual_cycles_p50": 0.0,
        "control.mean_depth": 0.0,
    })
    virtual.update(outcome.extra)
    digest = {
        "ops": ops,
        "cycles": clock.cycles,
        "events": clock.events,
        "denied": outcome.denied,
        "op_counts": dict(sorted(meter.op_counts.items())),
        "latency_sha256": hashlib.sha256(
            outcome.latencies_us.tobytes()).hexdigest(),
    }
    samples = {"latencies": len(outcome.latencies_us),
               "queue_delays": len(outcome.queue_delays_us)}
    return Rep(ops=ops, failed=outcome.failed, setup_s=setup_s, run_s=run_s,
               digest=digest, virtual=virtual, samples=samples)
