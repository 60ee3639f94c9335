"""Multi-client traffic workloads: N clients × M modules under load.

The paper measures one client hammering one session; this workload layer
builds the multi-principal traffic the LSM-overhead literature argues is
the only setting where access-control cost is meaningful.  It drives many
concurrent clients — each holding one SecModule session *per module* via
the multi-session table — through a deterministic, seeded mix of protected
calls:

* ``test_incr`` — the paper's x+1 payload (the bulk of the traffic);
* ``getpid``    — the session-state fast path (SMOD-getpid);
* ``test_null`` — *denied* by the modules' function-denylist clause, so a
  configurable slice of the traffic exercises the EACCES unwind path.

Arrival is **closed-loop** (each client issues its next call after an
exponential think time following the previous completion), **open-loop**
(each client's arrivals are a pre-drawn Poisson process, independent of
completions), or **mmpp** (open-loop with bursty two-state Markov-modulated
interarrivals: short-interval ON bursts separated by long OFF lulls).  All
randomness comes from per-client child streams of one
:class:`~repro.sim.rng.DeterministicRNG`, so a given seed replays the exact
same interleaving, call mix and cycle totals.

Closed-loop think times are exponential by default but may be heavy-tailed
(``think="lognormal"``/``"pareto"``, same mean, fatter tail), and the
``handle_policy`` knob registers a broker pool policy for every traffic
module — ``"per_module"`` runs all of a module's sessions through one
shared handle co-process instead of forking one per session.
``telemetry=True`` switches the machine's metrics sink on (per-session
latency histograms, batch-flush depths, cache and per-seat queueing-delay
counters — pure observation, cycle totals unchanged).

One event loop drives every run (:meth:`TrafficEngine._drive`).  The spec
picks three parts once per run:

* an **arrival source**: the pre-drawn open/MMPP schedule, iterated as
  parallel ``(times, indices)`` lists, or the closed-loop think-time heap,
  which schedules a client's next arrival from its completion time;
* a **flush policy** over each client's queue of calls against one
  session: static (an arrival brings ``batch_size`` calls and flushes at
  once; a longer queue pays the trap and the two context switches once,
  through the batched path) or AIMD (``adaptive_batch=True``: an arrival
  brings one call and the per-client controller in
  :mod:`repro.control.adaptive` flushes at depth, on a lull and at the
  client's last arrival);
* a **call sink**: direct dispatch (a fast-forward offer, else settle and
  dispatch) or one smodserve RPC per call (``via_service=True``).

Parts compose: seat-queue shedding (``shed_deadline_us``) acts on open-loop
arrivals under either flush policy.  Static depth-1 runs with fast-forward
on take the loop's inline arm, the same steps with every hop inlined.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from array import array
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..control.adaptive import AdaptiveBatchController, AdaptiveConfig
from ..errors import SimulationError
from ..hw.machine import Machine, make_paper_machine
from ..kernel.kernel import Kernel
from ..obj.image import make_function_image
from ..secmodule.dispatch import DispatchConfig
from ..secmodule.handle_pool import HandlePolicy
from ..secmodule.module import CallEnvironment, SecModuleDefinition
from ..secmodule.policy import (
    CallQuotaPolicy,
    CompositePolicy,
    CredentialExpiryPolicy,
    FunctionDenyPolicy,
    Policy,
    PrincipalAllowPolicy,
    UidAllowPolicy,
)
from ..secmodule.protection import ProtectionMode
from ..secmodule.session import SessionDescriptor, build_requirements
from ..secmodule.smod_syscalls import SmodExtension, install_secmodule
from ..sim import costs
from ..sim.rng import DeterministicRNG, TwoStateMMPP
from ..sim.stats import mean, percentile
from ..userland.process import Program

#: call-mix weights: (function name, relative weight)
DEFAULT_CALL_MIX: Tuple[Tuple[str, float], ...] = (
    ("test_incr", 0.70),
    ("getpid", 0.20),
    ("test_null", 0.10),          # denied by the function-denylist clause
)

#: the functions every traffic module defines (``build_traffic_module``)
TRAFFIC_FUNCTIONS: Tuple[str, ...] = ("test_incr", "getpid", "test_null")

#: lognormal think: sigma of the underlying normal (tail weight)
LOGNORMAL_THINK_SIGMA = 1.0


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one multi-client traffic run."""

    clients: int = 8
    modules: int = 2
    calls_per_client: int = 32
    #: "closed" (think-time loop), "open" (Poisson arrivals) or "mmpp"
    #: (open-loop with bursty two-state on/off interarrivals)
    arrival: str = "closed"
    #: mean think / inter-arrival time, virtual microseconds (the OFF-state
    #: interarrival mean under "mmpp")
    mean_interval_us: float = 25.0
    #: "mmpp" only: ON-state (burst) interarrival mean and the mean sojourn
    #: in each state, all in virtual microseconds
    burst_interval_us: float = 4.0
    burst_on_us: float = 120.0
    burst_off_us: float = 480.0
    #: closed-loop think-time distribution: "exponential" (the classic
    #: M/M/1-style loop), "lognormal" or "pareto" (heavy-tailed think times;
    #: same mean, fatter tail).  Open-loop/mmpp schedules ignore this.
    think: str = "exponential"
    #: pareto think: tail index (must exceed 1 for a finite mean)
    think_alpha: float = 2.5
    #: calls queued per flush: 1 issues every call through the paper's
    #: single-call path; >1 flushes queues through sys_smod_call_batch
    batch_size: int = 1
    #: let the AIMD controller grow/shrink the flush depth per client from
    #: the observed interarrival EWMA (open-loop/mmpp arrivals only; the
    #: static batch_size knob must stay at 1)
    adaptive_batch: bool = False
    #: controller depth ceiling when adaptive_batch is on; a ceiling of 1
    #: pins every flush to the paper's single-call path (the AIMD floor)
    adaptive_max_depth: int = 64
    #: collect telemetry (per-session latency histograms, batch-flush
    #: depths, cache and per-seat queueing-delay counters) into the run's
    #: ``metrics`` snapshot; recording never charges the virtual clock, so
    #: cycle totals are identical with this on or off
    telemetry: bool = False
    #: handle attachment policy registered for every traffic module:
    #: "per_session" (the paper's 1:1 fork), "per_module" (one shared
    #: handle per module) or "pooled" (shared up to pool_max_sessions)
    handle_policy: str = "per_session"
    #: per-handle session cap when handle_policy="pooled"
    pool_max_sessions: int = 8
    #: one session per module per client (the multi-session engine); when
    #: False each client opens a single session naming every module
    multi_session: bool = True
    #: charge the per-shard lock-acquisition micro-op on session-table
    #: touches (the SMP build of the kernel; the paper's uniprocessor
    #: figures compile it out)
    smp_shard_locks: bool = True
    #: policy chain attached to every traffic module: "static" (cacheable),
    #: "quota", "expiry", or "deny-only"
    policy_kind: str = "static"
    #: quota for policy_kind="quota"
    quota_calls: int = 1 << 30
    #: partition the clients into this many independent groups for the
    #: sharded parallel runner (:mod:`repro.workloads.shard`).  Clients are
    #: assigned round-robin (client ``i`` → shard ``i % shards``); each
    #: shard runs its group on its own virtual machine/clock and the
    #: results merge deterministically, independent of worker count.  The
    #: in-process :class:`TrafficEngine` ignores this knob (it always runs
    #: the clients it was given).
    shards: int = 1
    #: switch the machine's span sink on (causal span trees with virtual-microsecond
    #: timestamps: dispatch/broker/service-plane/RPC tap points, ring-buffer
    #: flight recorder, per-request critical-path segments).  Pure
    #: observation like telemetry: span timestamps read the clock and never
    #: charge it, so traced cycle totals are byte-identical to untraced
    #: ones (asserted differentially by the non-perturbation tests)
    tracing: bool = False
    #: deterministic head sampling: keep spans for 1 in every K clients,
    #: decided per client id from a seeded child stream (1 = trace all)
    trace_sample_every: int = 1
    #: flight-recorder capacity (spans retained); 0 takes the recorder default
    trace_capacity: int = 0
    #: route the run through the service plane: clients attach through a
    #: :class:`~repro.serve.frontend.ServiceFrontend` binding and every
    #: call crosses the smodserve RPC surface before dispatching.  Off by
    #: default — the paper's figures never construct a front-end and their
    #: charge sequence is untouched (asserted differentially).
    via_service: bool = False
    #: service-plane runs: spread clients round-robin over this many
    #: tenants (>1 switches the session table hierarchical)
    service_tenants: int = 1
    #: broker seat-queue deadline shedding (overload protection): an
    #: open-loop arrival whose queueing delay already exceeds this is shed
    #: at admission — one charged SERVE_SHED instead of a full dispatch
    #: nobody is waiting for.  0 = off (the default; byte-identical paths)
    shed_deadline_us: float = 0.0
    #: closed-loop AIMD feed: when set (>0, adaptive_batch+telemetry runs
    #: only) the controller also consumes the observed flush service-time
    #: p95 from telemetry and shrinks while it exceeds this target
    service_p95_target_us: float = 0.0
    #: (function name, relative weight) per drawn call: names from
    #: TRAFFIC_FUNCTIONS, weights positive
    call_mix: Tuple[Tuple[str, float], ...] = DEFAULT_CALL_MIX
    uid: int = 1000
    principal: str = "alice"
    seed: int = 0xB07_7E57

    def __post_init__(self) -> None:
        if self.clients < 1 or self.modules < 1 or self.calls_per_client < 1:
            raise SimulationError("traffic spec must be positive in all dims")
        if self.shards < 1 or self.shards > self.clients:
            raise SimulationError(
                "shards must be between 1 and the client count")
        if self.arrival not in ("closed", "open", "mmpp"):
            raise SimulationError(f"unknown arrival mode {self.arrival!r}")
        if self.think not in ("exponential", "lognormal", "pareto"):
            raise SimulationError(f"unknown think-time model {self.think!r}")
        if self.think == "pareto" and self.think_alpha <= 1.0:
            raise SimulationError("pareto think times need think_alpha > 1")
        if self.batch_size < 1:
            raise SimulationError("batch_size must be at least 1")
        if self.adaptive_batch:
            if self.arrival not in ("open", "mmpp"):
                raise SimulationError(
                    "adaptive batching needs open-loop arrivals "
                    "(arrival='open' or 'mmpp'): the controller tracks the "
                    "offered interarrival rate")
            if self.batch_size != 1:
                raise SimulationError(
                    "adaptive_batch replaces the static batch_size knob; "
                    "leave batch_size at 1")
            if self.adaptive_max_depth < 1:
                raise SimulationError("adaptive_max_depth must be >= 1")
        if self.trace_sample_every < 1:
            raise SimulationError("trace_sample_every must be >= 1")
        if self.trace_capacity < 0:
            raise SimulationError("trace_capacity must be >= 0")
        if self.tracing and self.shards > 1:
            raise SimulationError(
                "tracing is in-process (one flight recorder per engine); "
                "run it unsharded (shards=1)")
        if self.via_service:
            if self.batch_size != 1:
                raise SimulationError(
                    "via_service dispatch is per-call; leave batch_size at 1")
            if self.adaptive_batch:
                raise SimulationError(
                    "via_service and adaptive_batch are mutually exclusive")
            if self.service_tenants < 1:
                raise SimulationError("service_tenants must be >= 1")
        if self.shed_deadline_us < 0.0:
            raise SimulationError("shed_deadline_us must be >= 0")
        if self.shed_deadline_us > 0.0 and self.arrival not in ("open",
                                                                "mmpp"):
            raise SimulationError(
                "seat-queue shedding acts on the recorded queueing "
                "delay; it needs open-loop arrivals "
                "(arrival='open' or 'mmpp')")
        if self.service_p95_target_us < 0.0:
            raise SimulationError("service_p95_target_us must be >= 0")
        if self.service_p95_target_us > 0.0 and not (
                self.adaptive_batch and self.telemetry):
            raise SimulationError(
                "service_p95_target_us closes the loop from the telemetry "
                "plane: it needs adaptive_batch=True and telemetry=True")
        for name in ("mean_interval_us", "burst_interval_us",
                     "burst_on_us", "burst_off_us"):
            if not getattr(self, name) > 0.0:
                raise SimulationError(f"{name} must be positive")
        if not self.call_mix:
            raise SimulationError("call_mix must name at least one function")
        for name, weight in self.call_mix:
            if name not in TRAFFIC_FUNCTIONS:
                raise SimulationError(
                    f"call_mix names {name!r}; traffic modules define "
                    f"{', '.join(TRAFFIC_FUNCTIONS)}")
            if not weight > 0.0:
                raise SimulationError(
                    f"call_mix weight of {name!r} must be positive")
        if self.quota_calls < 1:
            raise SimulationError("quota_calls must be at least 1")
        # raises on an unknown policy spec
        self.broker_policy()

    def broker_policy(self) -> HandlePolicy:
        """The :class:`HandlePolicy` traffic modules register with the broker."""
        return HandlePolicy.parse(self.handle_policy,
                                  max_sessions=self.pool_max_sessions)


def traffic_policy(spec: TrafficSpec) -> Policy:
    """The per-module policy chain for a traffic run.

    The "static" chain is three cacheable clauses — uid allow-list,
    principal allow-list, function denylist — the shape of a typical
    production ACL.  "quota" and "expiry" append a dynamic clause, which
    disqualifies the whole chain from the decision cache.
    """
    static_clauses: List[Policy] = [
        UidAllowPolicy([spec.uid]),
        PrincipalAllowPolicy([spec.principal]),
        FunctionDenyPolicy(["test_null"]),
    ]
    if spec.policy_kind == "static":
        return CompositePolicy(static_clauses)
    if spec.policy_kind == "quota":
        return CompositePolicy(static_clauses +
                               [CallQuotaPolicy(spec.quota_calls)])
    if spec.policy_kind == "expiry":
        return CompositePolicy(static_clauses + [CredentialExpiryPolicy()])
    if spec.policy_kind == "deny-only":
        return FunctionDenyPolicy(["test_null"])
    raise SimulationError(f"unknown policy kind {spec.policy_kind!r}")


def _impl_incr(env: CallEnvironment, x: int) -> int:
    return x + 1


def _impl_null(env: CallEnvironment) -> int:
    return 0


def _impl_getpid(env: CallEnvironment) -> int:
    return env.client_pid


def build_traffic_module(index: int, *, policy: Policy,
                         version: int = 1) -> SecModuleDefinition:
    """One of the M protected modules the traffic fans out over."""
    module = SecModuleDefinition(f"libtraffic{index}", version, policy=policy)
    module.add_function("test_incr", _impl_incr,
                        cost_op=costs.FUNC_BODY_TESTINCR, arg_words=1,
                        doc="the paper's x+1 payload")
    module.add_function("getpid", _impl_getpid,
                        cost_op=costs.FUNC_BODY_SMOD_GETPID, arg_words=0,
                        doc="client pid from session state")
    module.add_function("test_null", _impl_null,
                        cost_op=costs.FUNC_BODY_TESTINCR, arg_words=0,
                        doc="always denied by the traffic policy")
    module.library_image = make_function_image(
        f"libtraffic{index}.so",
        {"test_incr": 48, "getpid": 32, "test_null": 32}, kind="shared")
    return module


@dataclass
class ClientState:
    """One traffic client: its program, sessions and latency record."""

    index: int
    program: Program
    #: m_id -> session (multi-session) or the single shared session
    sessions: Dict[int, object] = field(default_factory=dict)
    rng: Optional[DeterministicRNG] = None
    calls_issued: int = 0
    calls_denied: int = 0
    #: per-call service latency, microseconds of virtual time.  Stored as
    #: ``array('d')`` — raw doubles, the exact same bits a list of floats
    #: would hold, but without one heap object per call: at 10^7 calls the
    #: object churn of plain lists dominates the whole run (allocator and
    #: cache pressure measured as a ~40% throughput loss)
    latencies_us: "array" = field(default_factory=lambda: array("d"))
    #: per-call queueing delay (open loop: start - scheduled arrival)
    queue_delays_us: "array" = field(default_factory=lambda: array("d"))
    # ---- flush-policy state ------------------------------------------------
    #: calls drawn but not yet flushed, as ``(function name, args)``
    queue: List[Tuple[str, Tuple]] = field(default_factory=list)
    #: the registered module the queue targets; a queue lives on one session
    target: object = None
    #: open loop: each queued call's scheduled arrival time (closed: empty)
    scheduled_us: List[float] = field(default_factory=list)
    #: arrivals this client's schedule has yet to deliver
    arrivals_left: int = 0
    #: the AIMD controller owning the flush depth (None: static batches)
    controller: Optional[AdaptiveBatchController] = None


@dataclass
class TrafficResult:
    """Outcome of one traffic run (all times in virtual microseconds)."""

    spec: TrafficSpec
    total_calls: int
    denied_calls: int
    elapsed_us: float
    total_cycles: int
    cycles_per_call: float
    per_client_mean_us: List[float]
    #: chronological per-call service latencies, concatenated per client;
    #: an ``array('d')`` (bit-identical doubles, no per-call heap objects)
    latencies_us: "array"
    #: open-loop only: per-call (start - scheduled arrival); empty otherwise
    queue_delays_us: "array"
    cache_stats: Dict[str, int]
    shard_sizes: List[int]
    session_count: int
    #: live handle co-processes at the end of the run (per_session: one per
    #: session; pooled/per_module: ceil(sessions / seats) per module set)
    handle_count: int = 0
    broker_stats: Dict[str, int] = field(default_factory=dict)
    #: telemetry snapshot (``TrafficSpec(telemetry=True)`` runs only)
    metrics: Dict[str, object] = field(default_factory=dict)
    #: adaptive-controller snapshots, one per client (adaptive runs only)
    adaptive: Dict[str, object] = field(default_factory=dict)
    #: the broker's per-handle queueing-delay fairness report (telemetry
    #: runs with open-loop arrivals; empty otherwise)
    seat_fairness: Dict[int, Dict[str, object]] = field(default_factory=dict)
    #: flight-recorder spans in chronological order (``tracing=True`` runs
    #: only; :class:`~repro.telemetry.tracing.Span` objects)
    trace_spans: List = field(default_factory=list)
    #: tracer counters: started/finished/recorded/dropped/... (tracing runs)
    trace_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def mean_service_us(self) -> float:
        """Mean per-call service latency (dispatch only, no idle time)."""
        return mean(self.latencies_us)

    def tail_mean_service_us(self, fraction: float = 0.5) -> float:
        """Mean service latency over the last ``fraction`` of each run.

        ``latencies_us`` is chronological per client, so for a one-client
        run this is the converged-state cost after a controller's ramp-up;
        multi-client runs get the per-client tails concatenated.
        """
        if not 0.0 < fraction <= 1.0:
            raise SimulationError("tail fraction must be in (0, 1]")
        per_client = self.spec.calls_per_client
        tail: List[float] = []
        for start in range(0, len(self.latencies_us), per_client):
            chunk = self.latencies_us[start:start + per_client]
            keep = max(1, int(len(chunk) * fraction))
            tail.extend(chunk[len(chunk) - keep:])
        return mean(tail)

    @property
    def calls_per_second(self) -> float:
        """Aggregate throughput in (virtual) calls per second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.total_calls / (self.elapsed_us / 1e6)

    def latency_percentile(self, p: float) -> float:
        return percentile(self.latencies_us, p)

    def queue_delay_percentile(self, p: float) -> float:
        return percentile(self.queue_delays_us, p)

    def describe(self) -> str:
        text = (f"{self.spec.clients} clients x {self.spec.modules} modules, "
                f"{self.total_calls} calls ({self.denied_calls} denied), "
                f"{self.calls_per_second:,.0f} calls/s, "
                f"p50={self.latency_percentile(50):.2f}us "
                f"p95={self.latency_percentile(95):.2f}us "
                f"p99={self.latency_percentile(99):.2f}us")
        if self.queue_delays_us:
            text += f" queue-p99={self.queue_delay_percentile(99):.2f}us"
        return text


class TrafficEngine:
    """Builds the system and drives one deterministic traffic run."""

    def __init__(self, spec: TrafficSpec, *,
                 machine: Optional[Machine] = None,
                 dispatch_config: Optional[DispatchConfig] = None,
                 client_ids: Optional[List[int]] = None) -> None:
        self.spec = spec
        self.config = dispatch_config or DispatchConfig()
        if spec.batch_size != 1:
            # the workload knob wins: clients flush queues of this depth
            self.config = replace(self.config, batch_size=spec.batch_size)
        self.machine = machine or make_paper_machine(seed=spec.seed)
        self.kernel = Kernel(machine=self.machine).boot()
        self.extension: SmodExtension = install_secmodule(self.kernel)
        self.extension.sessions.charge_shard_locks = spec.smp_shard_locks
        #: the machine's observation plane; the spec switches its sinks on
        self.telemetry = self.machine.telemetry
        if spec.telemetry:
            self.telemetry.enable_metrics()
        if spec.tracing:
            kwargs = {"sample_every": spec.trace_sample_every}
            if spec.trace_capacity:
                kwargs["capacity"] = spec.trace_capacity
            self.telemetry.enable_spans(**kwargs)
        self.rng = DeterministicRNG(spec.seed)
        #: global client indices this engine drives.  A shard worker passes
        #: its slice of the full run's clients; the ids seed the per-client
        #: RNG child streams (``client:{id}``), so every client draws the
        #: identical sequence whether it runs in the full serial engine or
        #: inside any shard partition.
        ids = (list(client_ids) if client_ids is not None
               else list(range(spec.clients)))
        if len(ids) != spec.clients or len(set(ids)) != len(ids):
            raise SimulationError(
                "client_ids must be unique and match spec.clients")
        self.client_ids = ids
        self.modules: List = []
        self.clients: List[ClientState] = []
        self._client_by_id: Dict[int, ClientState] = {}
        self._built = False
        self._mix_names = [name for name, _ in spec.call_mix]
        self._mix_weights = [weight for _, weight in spec.call_mix]
        # precomputed weighted-choice tables for the loop's inline arm:
        # thresholds built by the same incremental float addition
        # weighted_choice performs, so the walk is comparison-identical
        self._mix_total = float(sum(self._mix_weights))
        acc = 0.0
        cum = []
        for name, weight in spec.call_mix:
            acc += weight
            cum.append((name, acc))
        self._mix_cum = cum
        self._mix_last = self._mix_names[-1]
        # ---- analytic fast-forward state -----------------------------------
        # HOT (session, shape, config) spans accumulate here instead of
        # replaying one by one; `_ff_flush` settles them as one closed-form
        # charge per key.  `_pending_cycles` is the total deferred virtual
        # time (spans + idle), so `_now_us` stays exact mid-window.
        self._ff_enabled = (self.config.use_trace_replay
                            and not spec.via_service
                            # shed decisions are per call; the closed-form
                            # fast-forward tier would skip them
                            and spec.shed_deadline_us == 0.0)
        # ---- service plane --------------------------------------------------
        #: the front-end (built lazily with the run) when via_service is on
        self.frontend = None
        #: client index -> m_id -> binding id on the front-end
        self._service_bindings: Dict[int, Dict[int, int]] = {}
        #: client index -> the client's BoundClient RPC stub
        self._service_clients: Dict[int, object] = {}
        #: (m_id, function name) -> (func_id, arg_words) for RPC encoding
        self._service_funcs: Dict[Tuple[int, str], Tuple[int, int]] = {}
        self._pending_cycles = 0
        self._pending_idle_cycles = 0
        self._pending_idle_events = 0
        #: key -> [entry, accumulated span count, session]
        self._ff_windows: Dict[Tuple, List] = {}
        #: (session_id, function name) -> (m_id, func_id), mirroring
        #: ``session.find_function`` so the probe resolves keys in O(1)
        self._ff_resolve: Dict[Tuple[int, str], Tuple[int, int]] = {}
        #: batch depth -> the DispatchConfig `_dispatch_queue` would build
        self._ff_configs: Dict[int, DispatchConfig] = {}
        self._mhz = float(self.machine.spec.mhz)
        # hot-loop caches: bound methods/objects resolved once (the run
        # loop touches these a few times per simulated call)
        self._dispatcher = self.extension.dispatcher
        self._us_of = self.machine.meter.profile.microseconds
        # broker seat-queue deadline shedding (default off: the gate stays
        # entirely out of the unprotected per-call paths)
        self._broker_shed = spec.shed_deadline_us > 0.0
        self.extension.broker.shed_deadline_us = spec.shed_deadline_us
        #: the call sink every flush hands its queue to
        self._sink = (self._serve_queue if spec.via_service
                      else self._dispatch_queue)

    # ------------------------------------------------------------------- build
    def build(self) -> "TrafficEngine":
        """Register the M modules and establish every client's sessions."""
        if self._built:
            return self
        spec = self.spec
        policy = traffic_policy(spec)
        broker_policy = spec.broker_policy()
        for index in range(spec.modules):
            definition = build_traffic_module(index, policy=policy)
            registered = self.extension.registry.register(
                definition, uid=0, protection=ProtectionMode.ENCRYPT)
            self.modules.append(registered)
            # the module owner registers how its handles may be shared
            self.extension.broker.register_policy(registered.name,
                                                  broker_policy)

        service_backends: List = []
        if spec.via_service:
            # deferred import: the service plane is compiled out of every
            # non-service run, and the import itself stays off their path
            from ..serve.frontend import ServiceConfig, ServiceFrontend
            self.frontend = ServiceFrontend(
                self.kernel, self.extension,
                config=ServiceConfig(principal=spec.principal, uid=spec.uid))
            if spec.multi_session:
                # one backend per module, mirroring the session topology
                for registered in self.modules:
                    service_backends.append(self.frontend.register_backend(
                        registered.name, [registered], policy=broker_policy))
            else:
                service_backends.append(self.frontend.register_backend(
                    "traffic", self.modules, policy=broker_policy))
            for registered in self.modules:
                for function in registered.definition.functions():
                    self._service_funcs[(registered.m_id, function.name)] = \
                        (function.func_id, function.arg_words)

        for c in self.client_ids:
            program = Program.spawn(self.kernel, f"traffic-client{c}",
                                    uid=spec.uid)
            state = ClientState(index=c, program=program,
                                rng=self.rng.child(f"client:{c}"))
            if spec.via_service:
                tenant = c % spec.service_tenants
                bindings = self._service_bindings.setdefault(c, {})
                for record in service_backends:
                    binding = self.frontend.attach(record, tenant=tenant,
                                                   client=program)
                    bindings.update({registered.m_id: binding.binding_id
                                     for registered in record.modules})
                    for registered in record.modules:
                        state.sessions[registered.m_id] = binding.session
                self._service_clients[c] = self.frontend.make_client(
                    program.proc)
            elif spec.multi_session:
                # one session per module: N x M entries in the sharded table
                for registered in self.modules:
                    session = self._start_session(program, [registered],
                                                  allow_multiple=True)
                    state.sessions[registered.m_id] = session
            else:
                session = self._start_session(program, self.modules,
                                              allow_multiple=False)
                for registered in self.modules:
                    state.sessions[registered.m_id] = session
            self.clients.append(state)
            self._client_by_id[state.index] = state
        self._built = True
        return self

    def _start_session(self, program: Program, registered_modules,
                       *, allow_multiple: bool):
        descriptor = SessionDescriptor(
            build_requirements(registered_modules,
                               principal=self.spec.principal,
                               uid=self.spec.uid),
            allow_multiple=allow_multiple)
        session_id = program.smod_crt0_startup(self.extension, descriptor)
        return self.extension.sessions.get(session_id)

    # --------------------------------------------------------------------- run
    def _now_us(self) -> float:
        """Virtual now, including cycles deferred by open fast-forward
        windows.

        ``clock.cycles + pending`` is exactly the cycle count the serial
        engine's clock would show at this point, and the conversion is the
        same profile division, so every time-derived value (arrival idles,
        queueing delays, think schedules, policy contexts after a flush)
        is float-identical with fast-forward on or off.
        """
        return self._us_of(self.machine.clock.cycles + self._pending_cycles)

    def _advance_clock_to(self, target_us: float) -> None:
        """Idle the machine forward to a scheduled arrival time."""
        now_us = self._now_us()
        if target_us > now_us:
            idle_cycles = int(round((target_us - now_us) *
                                    self.machine.spec.mhz))
            if self._ff_enabled:
                # defer the wait: one accumulated event per arrival (a
                # zero-cycle wait still counts one, exactly like `idle`);
                # `_ff_flush` settles the batch through the meter
                self._pending_cycles += idle_cycles
                self._pending_idle_cycles += idle_cycles
                self._pending_idle_events += 1
            else:
                # routed through the meter (never clock.advance directly):
                # the CostMeter is the single charging authority — CLOCK001
                self.machine.idle(idle_cycles)

    def _ff_flush(self) -> None:
        """Settle every deferred charge: the fast-forward sync barrier.

        Runs before any dispatch that needs the true clock (an op-by-op
        execution or a per-call settle) and at the end of the run.
        Accumulated idle waits settle as one ``idle_many`` (cycles *and*
        event count exact); each open window settles as one scaled-trace
        commit.
        """
        if self._pending_idle_events:
            self.machine.meter.idle_many(self._pending_idle_cycles,
                                         self._pending_idle_events)
            self._pending_idle_cycles = 0
            self._pending_idle_events = 0
        if self._ff_windows:
            dispatcher = self.extension.dispatcher
            for entry, count, session in self._ff_windows.values():
                dispatcher.fast_forward_commit(entry, session, count)
            self._ff_windows.clear()
        self._pending_cycles = 0

    def _ff_offer(self, state: ClientState, session,
                  queue: List[Tuple[str, Tuple]], count: int) -> bool:
        """Try to absorb one flush into an open fast-forward window.

        Builds the same trace key the dispatcher would, asks it to admit
        the span (`fast_forward_probe` revalidates every trace guard *and*
        performs the span's decision-cache touches, so per-span cache state
        matches a per-call settle exactly), and accumulates the charge.
        Returns False when the span must take the dispatch path instead.
        """
        resolve = self._ff_resolve
        sid = session.session_id
        pairs = []
        for name, _ in queue:
            pair = resolve.get((sid, name))
            if pair is None:
                found = session.find_function(name)
                if found is None:
                    return False
                module, function = found
                pair = (module.m_id, function.func_id)
                resolve[(sid, name)] = pair
            pairs.append(pair)
        if count == 1:
            config = self.config
            shape: Tuple = pairs[0]
        else:
            config = self._ff_configs.get(count)
            if config is None:
                config = (self.config if self.config.batch_size >= count
                          else replace(self.config, batch_size=count))
                self._ff_configs[count] = config
            shape = tuple(sorted(pairs))
        key = (sid, shape, config)
        entry = self._dispatcher.fast_forward_probe(session, key)
        if entry is None:
            return False
        window = self._ff_windows.get(key)
        if window is None:
            self._ff_windows[key] = window = [entry, 1, session]
        else:
            # keep the freshest entry: a re-recorded key stays byte-equal
            # (the probe's guards proved it) but guard fields may be newer
            window[0] = entry
            window[1] += 1
        self._pending_cycles += entry.trace.total_cycles
        # a per-call settle advances the clock by exactly the trace's
        # cycles, so this division reproduces its latency float for float
        service_us = entry.trace.total_cycles / self._mhz
        state.calls_issued += count
        state.latencies_us.extend([service_us / count] * count)
        state.calls_denied += entry.denied
        return True

    def _draw_call(self, state: ClientState, offset: int) -> Tuple[str, Tuple]:
        function_name = state.rng.weighted_choice(self._mix_names,
                                                  self._mix_weights)
        args = ((state.calls_issued + offset,)
                if function_name == "test_incr" else ())
        return function_name, args

    def _dispatch_queue(self, state: ClientState, session,
                        queue: List[Tuple[str, Tuple]]) -> None:
        """Dispatch one client queue against one session and record it.

        A queue of one goes through the ordinary single-call path (so a
        depth-1 flush is the paper's per-call dispatch, cycle for cycle);
        longer queues flush through the batched path in one chunk.
        """
        count = len(queue)
        if self._ff_enabled:
            if self._ff_offer(state, session, queue, count):
                return
            # the span needs the real dispatch path, which must see the
            # true clock (policy contexts, stopwatches): settle everything
            self._ff_flush()
        self._dispatch_queue_slow(state, session, queue)

    def _dispatch_queue_slow(self, state: ClientState, session,
                             queue: List[Tuple[str, Tuple]]) -> None:
        """The real dispatch tail: op-by-op execution or a per-call settle.

        Callers must have settled any open fast-forward state first (the
        stopwatch below needs the true clock).
        """
        count = len(queue)
        mark = self.machine.clock.checkpoint()
        if count == 1:
            name, args = queue[0]
            outcome = self.extension.dispatcher.call(
                session, name, *args, config=self.config)
            denied = 0 if outcome.ok else 1
        else:
            config = (self.config if self.config.batch_size >= count
                      else replace(self.config, batch_size=count))
            batch = self.extension.dispatcher.call_batch(
                session, queue, config=config)
            denied = batch.denied
        service_us = self.machine.clock.since(mark).microseconds(
            self.machine.spec.mhz)
        state.calls_issued += count
        state.latencies_us.extend([service_us / count] * count)
        state.calls_denied += denied

    def _serve_queue(self, state: ClientState, session,
                     queue: List[Tuple[str, Tuple]]) -> None:
        """The service-plane sink: the queue's one call as one served RPC.

        The call crosses the front-end exactly as a remote client's would:
        client stub encode, loopback datagram, server dispatch, binding
        resolve (keyed shard probe), SecModule dispatch, reply.  Latency is
        measured around the whole round trip, so service-plane runs report
        the served call cost, not just the dispatch tail.  Fast-forward
        windows stay off (a window's guards do not span the RPC boundary);
        each served call still settles alone from its trace once its key is
        hot.
        """
        (name, args), = queue
        m_id = state.target.m_id
        func_id, arg_words = self._service_funcs[(m_id, name)]
        binding_id = self._service_bindings[state.index][m_id]
        stub = self._service_clients[state.index]
        mark = self.machine.clock.checkpoint()
        result = stub.call("serve_call", binding_id, m_id,
                           func_id, args[0] if arg_words and args else 0)
        service_us = self.machine.clock.since(mark).microseconds(
            self.machine.spec.mhz)
        state.calls_issued += 1
        state.latencies_us.append(service_us)
        if result < 0:
            state.calls_denied += 1

    def _flush(self, state: ClientState) -> None:
        """Flush the client's queue through the sink.

        Each queued call's delay (now minus its scheduled time) is recorded
        first, into the client's queue delays and the broker's per-seat
        histograms; then the sink runs, then the controller takes its AIMD
        step.  An empty queue flushes nothing.
        """
        queue = state.queue
        if not queue:
            return
        session = state.sessions[state.target.m_id]
        scheduled = state.scheduled_us
        if scheduled:
            now_us = self._now_us()
            delays = state.queue_delays_us
            broker = self.extension.broker
            observe = self.telemetry.enabled
            for at in scheduled:
                delay = max(0.0, now_us - at)
                delays.append(delay)
                if observe:
                    broker.record_queue_delay(session, delay)
            scheduled.clear()
        self._sink(state, session, queue)
        if state.controller is not None:
            depth = state.controller.on_flush(len(queue), self._now_us())
            if depth is not None and self.telemetry.enabled:
                self.telemetry.record_depth(state.index, depth)
        queue.clear()

    def _drive(self) -> None:
        """The one event loop: every arrival of the run, in time order.

        Each arrival advances the clock to its time and then runs the flush
        policy's steps in order: the AIMD lull check, the module draw (when
        the client's queue is empty: a queue lives on one session), the shed
        check (open-loop runs), the draw of the arrival's calls and the
        flush, when the policy calls for one.

        Static depth-1 runs with fast-forward on take the inline arm: the
        same observable sequence (RNG draws, delay records, probe guard
        checks and cache touches, accumulated charges, fallback order) with
        every hop inlined and the deferred-charge accumulators mirrored
        into locals.  At 10^7-call sizes the frames it saves *are* the
        simulation time (docs/performance.md, "One traffic loop").
        """
        spec = self.spec
        # arrival source: each client gets ceil(calls / batch_size) arrivals
        per_client = math.ceil(spec.calls_per_client / spec.batch_size)
        batch_size = spec.batch_size
        last_count = spec.calls_per_client - (per_client - 1) * batch_size
        for state in self.clients:
            state.arrivals_left = per_client
        open_loop = spec.arrival != "closed"
        if open_loop:
            times, indices = self._open_schedule_sorted(per_client)
            arrivals: Iterator[Tuple[float, int]] = zip(times, indices)
        else:
            arrivals = self._closed_arrivals()
        # flush policy: static batches unless the AIMD controller owns it
        if spec.adaptive_batch:
            self._attach_controllers()
        inline = batch_size == 1 and self._ff_enabled and \
            not spec.adaptive_batch

        by_id = self._client_by_id
        modules = self.modules
        single = len(modules) == 1
        last_module = len(modules) - 1
        observe_queue = self.telemetry.enabled
        broker = self.extension.broker
        shed = self._broker_shed
        if inline:
            machine = self.machine
            clock = machine.clock
            # _now_us == profile.microseconds == cycles / profile.mhz;
            # _advance_clock_to rounds idle against spec.mhz: mirror both
            profile_mhz = machine.meter.profile.mhz
            spec_mhz = machine.spec.mhz
            mhz = self._mhz
            resolve = self._ff_resolve
            windows = self._ff_windows
            probe = self._dispatcher.fast_forward_probe
            config = self.config
            mix_total = self._mix_total
            mix_cum = self._mix_cum
            mix_last = self._mix_last
            # per-client hoists: bound methods, the sessions in module
            # order and the first one, so the arm touches no attribute
            # chains
            ctx = {}
            for cid, state in by_id.items():
                picks = [state.sessions[m.m_id] for m in modules]
                ctx[cid] = (state, state.rng.next_double, state.rng.integer,
                            state.queue_delays_us.append,
                            state.latencies_us.append,
                            picks, picks[0], picks[0].session_id)
            # deferred-charge accumulators mirrored into locals; written
            # back around every slow-path excursion, before a closed source
            # schedules the next arrival, and at loop exit
            pending = self._pending_cycles
            idle_pending = self._pending_idle_cycles
            idle_events = self._pending_idle_events
            # clock.cycles only moves on the slow path; cache it
            base_cycles = clock.cycles

        for at, index in arrivals:
            if inline:
                (state, next_double, integer, delay_append, lat_append,
                 picks, session, sid) = ctx[index]
                # -- _advance_clock_to(at), inlined ----------------------
                now = (base_cycles + pending) / profile_mhz
                if at > now:
                    idle = int(round((at - now) * spec_mhz))
                    pending += idle
                    idle_pending += idle
                    idle_events += 1
                    now = (base_cycles + pending) / profile_mhz
                if not single:
                    session = picks[integer(0, last_module)]
                    sid = session.session_id
                if open_loop:
                    delay = now - at
                    if delay < 0.0:
                        delay = 0.0
                    delay_append(delay)
                    if observe_queue:
                        broker.record_queue_delay(session, delay)
                # -- the weighted call draw, thresholds walked exactly as
                # weighted_choice walks them ------------------------------
                draw = mix_total * next_double()
                name = mix_last
                for candidate, threshold in mix_cum:
                    if draw < threshold:
                        name = candidate
                        break
                # -- the sink: fast-forward offer, else settle and dispatch
                pair = resolve.get((sid, name))
                if pair is None:
                    found = session.find_function(name)
                    if found is not None:
                        module, function = found
                        pair = (module.m_id, function.func_id)
                        resolve[(sid, name)] = pair
                entry = None
                if pair is not None:
                    key = (sid, pair, config)
                    entry = probe(session, key)
                if entry is not None:
                    window = windows.get(key)
                    if window is None:
                        windows[key] = [entry, 1, session]
                    else:
                        window[0] = entry
                        window[1] += 1
                    cycles = entry.trace.total_cycles
                    pending += cycles
                    state.calls_issued += 1
                    lat_append(cycles / mhz)
                    state.calls_denied += entry.denied
                else:
                    # arguments never enter the trace key and are not drawn
                    # from the RNG: synthesizing them only here is
                    # draw-for-draw identical to _draw_call
                    args = ((state.calls_issued,) if name == "test_incr"
                            else ())
                    # settle through the real flush: sync the mirrored
                    # state out, dispatch, then re-sync (the flush zeroed
                    # the accumulators and the call advanced the clock)
                    self._pending_cycles = pending
                    self._pending_idle_cycles = idle_pending
                    self._pending_idle_events = idle_events
                    self._ff_flush()
                    self._dispatch_queue_slow(state, session, [(name, args)])
                    pending = self._pending_cycles
                    idle_pending = self._pending_idle_cycles
                    idle_events = self._pending_idle_events
                    base_cycles = clock.cycles
                state.arrivals_left -= 1
                if not open_loop:
                    # the closed source reads the clock when it schedules
                    # this client's next arrival
                    self._pending_cycles = pending
                    self._pending_idle_cycles = idle_pending
                    self._pending_idle_events = idle_events
                continue

            state = by_id[index]
            self._advance_clock_to(at)
            queue = state.queue
            controller = state.controller
            if controller is not None and controller.observe_arrival(at) \
                    and queue:
                self._flush(state)      # lull: the queue will not fill
            if not queue:
                # a single-value range consumes nothing from the numpy bit
                # stream, so skipping the draw is sequence-identical
                state.target = (modules[0] if single else
                                modules[state.rng.integer(0, last_module)])
            state.arrivals_left -= 1
            count = batch_size if state.arrivals_left else last_count
            if not shed or broker.admit_delay(
                    state.sessions[state.target.m_id],
                    max(0.0, self._now_us() - at), count):
                for _ in range(count):
                    queue.append(self._draw_call(state, len(queue)))
                if open_loop:
                    state.scheduled_us.extend([at] * count)
            # a shed arrival draws nothing; a client's last arrival still
            # drains what it leaves queued
            if controller is None or len(queue) >= controller.depth \
                    or not state.arrivals_left:
                self._flush(state)
        if inline:
            self._pending_cycles = pending
            self._pending_idle_cycles = idle_pending
            self._pending_idle_events = idle_events

    def _attach_controllers(self) -> None:
        """Give every client an AIMD controller over its flush depth."""
        spec = self.spec
        config = AdaptiveConfig(
            max_depth=spec.adaptive_max_depth,
            service_p95_target_us=spec.service_p95_target_us)
        service_p95 = None
        if spec.service_p95_target_us > 0.0:
            # closed loop: the controllers consume the observed flush
            # service-time tail straight from the metrics sink's running
            # flush histogram (the spec validator pinned telemetry on)
            flush_service = self.telemetry.flush_service

            def service_p95() -> float:
                return flush_service.quantile(95)

        start_us = self._now_us()
        for state in self.clients:
            state.controller = AdaptiveBatchController(
                config, client=state.index, start_us=start_us)
            state.controller.service_p95_supplier = service_p95

    def _think_source(self, state: ClientState):
        """Per-client closed-loop think-time draw (``TrafficSpec.think``).

        The exponential default reproduces the original engine draw for
        draw; lognormal/pareto keep the same mean think time but add the
        heavy tail, so a seed change is the only way totals move.
        """
        spec = self.spec
        if spec.think == "lognormal":
            return lambda: state.rng.lognormal(spec.mean_interval_us,
                                               LOGNORMAL_THINK_SIGMA)
        if spec.think == "pareto":
            return lambda: state.rng.pareto(spec.mean_interval_us,
                                            spec.think_alpha)
        return lambda: state.rng.exponential(spec.mean_interval_us)

    def _closed_arrivals(self) -> Iterator[Tuple[float, int]]:
        """The closed-loop arrival source: one think-time heap.

        Yields ``(time_us, client_index)``.  A client's next arrival is
        drawn only when the loop asks for the next arrival, after the
        client's flush, so it is scheduled from the completion time.  The
        tiebreak keeps ordering deterministic when two clients share a time.
        """
        heap: List[Tuple[float, int, int]] = []
        base_us = self._now_us()
        think = {s.index: self._think_source(s) for s in self.clients}
        for tiebreak, state in enumerate(self.clients):
            heapq.heappush(heap, (base_us + think[state.index](), tiebreak,
                                  state.index))
        tiebreak = len(heap)
        by_id = self._client_by_id
        while heap:
            at, _, index = heapq.heappop(heap)
            yield at, index
            if by_id[index].arrivals_left:
                heapq.heappush(heap, (self._now_us() + think[index](),
                                      tiebreak, index))
                tiebreak += 1

    def _open_schedule_sorted(self, events_per_client: int
                              ) -> Tuple[List[float], List[int]]:
        """The open/mmpp arrival source: every client's arrivals, drawn up
        front and independent of completions, as parallel
        ``(times, indices)`` lists in the order a heap keyed
        ``(time, insertion order)`` would pop them.

        Bit-identical to a scalar loop: gaps accumulate through
        ``np.cumsum`` seeded with ``base_us`` as element 0 (the same
        left-to-right float additions as ``at += gap``), the ordering is a
        **stable** argsort on fire time, and Poisson clients draw their gaps
        in one vectorized call (see ``exponential_array``).  Two primitive
        lists instead of one tuple list keep 10^7-event schedules out of the
        cyclic GC's way (measured ~2x end-to-end at 10^7 calls) and ~9 MiB
        off ff-steady's peak RSS (docs/performance.md, "One traffic loop").
        """
        spec = self.spec
        base_us = self._now_us()
        per_client: List[np.ndarray] = []
        for state in self.clients:
            if spec.arrival == "open":
                gaps = state.rng.exponential_array(
                    spec.mean_interval_us, events_per_client)
            else:
                mmpp = TwoStateMMPP(state.rng,
                                    on_interval=spec.burst_interval_us,
                                    off_interval=spec.mean_interval_us,
                                    on_duration=spec.burst_on_us,
                                    off_duration=spec.burst_off_us)
                gaps = np.asarray([mmpp.next_interarrival()
                                   for _ in range(events_per_client)])
            per_client.append(
                np.cumsum(np.concatenate(((base_us,), gaps)))[1:])
        times = np.concatenate(per_client)
        indices = np.concatenate([
            np.full(events_per_client, state.index, dtype=np.int64)
            for state in self.clients])
        order = np.argsort(times, kind="stable")
        return times[order].tolist(), indices[order].tolist()

    def run(self) -> TrafficResult:
        """Drive the full call schedule and collect the result."""
        self.build()
        spec = self.spec
        start_mark = self.machine.clock.checkpoint()
        self._drive()
        # settle every open fast-forward window before reading the clock
        self._ff_flush()
        telemetry = self.telemetry
        if telemetry.spans:
            # a clean run leaves no open spans; force-close (and flag) any
            # stragglers so the recorder's view is complete
            telemetry.tracer.drain()
        interval = self.machine.clock.since(start_mark)
        # array-to-array extends are raw memcpys — no 10^7-object churn
        latencies = array("d")
        delays = array("d")
        for state in self.clients:
            latencies.extend(state.latencies_us)
            delays.extend(state.queue_delays_us)
        total_calls = sum(s.calls_issued for s in self.clients)
        return TrafficResult(
            spec=spec,
            total_calls=total_calls,
            denied_calls=sum(s.calls_denied for s in self.clients),
            elapsed_us=interval.microseconds(self.machine.spec.mhz),
            total_cycles=interval.cycles,
            cycles_per_call=(interval.cycles / total_calls
                             if total_calls else 0.0),
            per_client_mean_us=[
                sum(s.latencies_us) / len(s.latencies_us)
                if s.latencies_us else 0.0
                for s in self.clients],
            latencies_us=latencies,
            queue_delays_us=delays,
            cache_stats=self.extension.decision_cache.snapshot(),
            shard_sizes=self.extension.sessions.shard_sizes(),
            session_count=len(self.extension.sessions),
            handle_count=self.extension.sessions.handle_count(),
            broker_stats=self.extension.broker.snapshot(),
            metrics=telemetry.snapshot(),
            adaptive=({"per_client": [s.controller.snapshot()
                                      for s in self.clients]}
                      if spec.adaptive_batch else {}),
            seat_fairness=self.extension.broker.seat_delay_report(),
            trace_spans=(telemetry.tracer.spans()
                         if telemetry.spans else []),
            trace_stats=(telemetry.tracer.stats()
                         if telemetry.spans else {}),
        )

    # ---------------------------------------------------------------- teardown
    def teardown(self) -> None:
        """Tear down every client's sessions (kills all handles)."""
        for state in self.clients:
            self.extension.sessions.teardown_all_for_client(
                state.program.proc)


def run_traffic(spec: Optional[TrafficSpec] = None, *,
                dispatch_config: Optional[DispatchConfig] = None,
                teardown: bool = False) -> TrafficResult:
    """Convenience one-shot: build, run and (optionally) tear down."""
    engine = TrafficEngine(spec or TrafficSpec(),
                           dispatch_config=dispatch_config)
    result = engine.run()
    if teardown:
        engine.teardown()
    return result
