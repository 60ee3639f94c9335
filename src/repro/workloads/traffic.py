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

Every client presents the one client credential
(:data:`~repro.secmodule.credentials.DEFAULT_PRINCIPAL`, uid
:data:`~repro.secmodule.credentials.DEFAULT_UID`), and the session table
charges its shard locks (the SMP kernel build; the paper's uniprocessor
figures never build a traffic engine).  A service-plane run attaches each
client to one backend per module, in the default tenant.

Arrival is **closed-loop** (each client issues its next call after an
exponential think time following the previous completion), **open-loop**
(each client's arrivals are a pre-drawn Poisson process, independent of
completions), or **mmpp** (open-loop with bursty two-state Markov-modulated
interarrivals: short-interval ON bursts separated by long OFF lulls).  All
randomness comes from per-client child streams of one
:class:`~repro.sim.rng.DeterministicRNG`, so a given seed replays the exact
same interleaving, call mix and cycle totals.

Closed-loop think times are exponential by default but may be heavy-tailed
(``think="lognormal"``: same mean, fatter tail), and the
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
on and an open/MMPP source take the loop's array arm instead: every
client's calls are drawn in bulk with its schedule, as entries of a
per-run call table, and the arrivals between two fallbacks to the
dispatch path are settled in numpy, a chunk of the schedule at a time,
with no Python step per arrival.  Closed-loop runs always take the loop's
steps: each arrival's time depends on the previous completion.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from array import array
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..control.adaptive import AdaptiveBatchController
from ..errors import SimulationError
from ..hw.machine import Machine, make_paper_machine
from ..kernel.kernel import Kernel
from ..obj.image import make_function_image
from ..secmodule.credentials import DEFAULT_PRINCIPAL, DEFAULT_UID
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
from ..sim.stats import mean, ordered_sum, percentile
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

#: the "quota" chain's per-session quota: far above any run's call count,
#: so the clause costs its step and keeps the chain off the decision cache
#: without ever denying
TRAFFIC_QUOTA_CALLS = 1 << 30

#: arrivals of an open schedule the array arm settles per step: its
#: per-arrival temporaries exist for one chunk at a time (ff-steady's
#: peak RSS read 54.7 MiB with chunks of 2^17 arrivals, 51.4 with 2^14,
#: 50.4 before the array arm)
_ARRIVAL_CHUNK = 1 << 14

#: clock candidates the array arm repairs per chunk before it finishes
#: the chunk with the scalar recurrence (`_scalar_starts`): each repair
#: recomputes the rest of the chunk, so no input costs much more than
#: the scalar step
_CHUNK_REPAIRS = 8

#: arrivals the array arm first looks ahead for keys to probe after a
#: fallback; each further look takes four times as many, so a run of
#: fallbacks costs a short scan each, not one of the whole chunk
_PROBE_SPAN = 64


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
    #: M/M/1-style loop) or "lognormal" (heavy-tailed think times; same
    #: mean, fatter tail).  Open-loop/mmpp schedules ignore this.
    think: str = "exponential"
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
    #: policy chain attached to every traffic module: "static" (cacheable),
    #: "quota", "expiry", or "deny-only"
    policy_kind: str = "static"
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
    seed: int = 0xB07_7E57

    def __post_init__(self) -> None:
        if self.clients < 1 or self.modules < 1 or self.calls_per_client < 1:
            raise SimulationError("traffic spec must be positive in all dims")
        if self.shards < 1 or self.shards > self.clients:
            raise SimulationError(
                "shards must be between 1 and the client count")
        if self.arrival not in ("closed", "open", "mmpp"):
            raise SimulationError(f"unknown arrival mode {self.arrival!r}")
        if self.think not in ("exponential", "lognormal"):
            raise SimulationError(f"unknown think-time model {self.think!r}")
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
        UidAllowPolicy([DEFAULT_UID]),
        PrincipalAllowPolicy([DEFAULT_PRINCIPAL]),
        FunctionDenyPolicy(["test_null"]),
    ]
    if spec.policy_kind == "static":
        return CompositePolicy(static_clauses)
    if spec.policy_kind == "quota":
        return CompositePolicy(static_clauses +
                               [CallQuotaPolicy(TRAFFIC_QUOTA_CALLS)])
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
    #: m_id -> the client's session on that module
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
        multi-client runs get the per-client tails concatenated.  A shed
        call records no latency, so after a shed the concatenation no
        longer splits into ``calls_per_client`` runs per client: that
        raises.
        """
        if not 0.0 < fraction <= 1.0:
            raise SimulationError("tail fraction must be in (0, 1]")
        per_client = self.spec.calls_per_client
        if len(self.latencies_us) != self.spec.clients * per_client:
            raise SimulationError(
                f"per-client tails need {per_client} latencies from each "
                f"of {self.spec.clients} clients; the run recorded "
                f"{len(self.latencies_us)} (shed calls record none)")
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


def _lindley_starts(at: np.ndarray, cycles: np.ndarray, x: int,
                    spec_mhz: float) -> np.ndarray:
    """Candidate start cycles of a window run: the clock step's max-plus
    (Lindley) form.

    Arrival n, scheduled at ``at[n]`` and charging ``cycles[n]``, starts
    at ``C_n + max(x, max over k <= n of (rint(at_k * spec_mhz) - C_k))``
    with ``C`` the exclusive running sum of ``cycles``: it waits for its
    time or for its predecessor, whichever is later.  The scalar step
    rounds the wait, not the arrival time, through the profile's MHz, so
    a candidate can be off: `TrafficEngine._clock_starts` checks each.
    """
    served = np.empty(len(at), np.int64)
    served[0] = 0
    np.cumsum(cycles[:-1], out=served[1:])
    starts = np.rint(at * spec_mhz).astype(np.int64)
    starts -= served
    np.maximum.accumulate(starts, out=starts)
    np.maximum(starts, x, out=starts)
    starts += served
    return starts


def _scalar_starts(at: List[float], cycles: List[int], x: int,
                   profile_mhz: float, spec_mhz: float
                   ) -> Tuple[List[int], List[bool]]:
    """The clock step, one arrival at a time, from ``x`` cycles: each
    arrival's start cycle and whether it idled.

    An arrival later than now (``x / profile_mhz``) idles the wait
    rounded to cycles at the spec's MHz, and counts one idle event even
    when that rounds to zero; then its ``cycles`` are charged.
    """
    starts: List[int] = []
    idled: List[bool] = []
    for at_n, cycles_n in zip(at, cycles):
        now = x / profile_mhz
        waits = at_n > now
        if waits:
            x += int(round((at_n - now) * spec_mhz))
        starts.append(x)
        idled.append(waits)
        x += cycles_n
    return starts, idled


@dataclass
class _KeyViews:
    """The call table as the array arm reads it: each row's trace key and
    client as arrays, and each key's window.

    Key ids index the per-key lists and arrays; the rows without a trace
    key map to the extra id ``len(keys)``, whose window is never open.
    """

    #: call-table row -> key id
    row_key: np.ndarray
    #: call-table row -> client position in ``TrafficEngine.clients``
    row_client: np.ndarray
    keys: List[Tuple]
    sessions: List
    states: List[ClientState]
    #: key id -> its open window (as in ``_ff_windows``), stale once shut
    windows: List[Optional[List]]
    #: key id -> whether its window is open since the last barrier
    is_open: np.ndarray
    #: key id -> its window entry's trace cycles and latency float
    cycles: np.ndarray
    latency: np.ndarray


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
        # the SMP kernel build: session-table touches pay their shard lock
        self.extension.sessions.charge_shard_locks = True
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
        # weighted_choice's draw and thresholds, for the array arm's call
        # table: the thresholds are built by the same incremental float
        # addition weighted_choice performs, so a double lands on the
        # function weighted_choice picks
        self._mix_total = ordered_sum(self._mix_weights)
        acc = 0.0
        thresholds = []
        for weight in self._mix_weights:
            acc += weight
            thresholds.append(acc)
        self._mix_thresholds = thresholds
        # ---- analytic fast-forward state -----------------------------------
        # HOT (session, shape, config) spans accumulate here instead of
        # replaying one by one; the first span of a key probes it, later
        # ones join unprobed, and `_ff_flush` re-checks and settles each
        # key as one closed-form charge.  `_pending_cycles` is the total
        # deferred virtual time (spans + idle), so `_now_us` stays exact
        # mid-window.
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
        #: key -> [entry, accumulated span count, session, last use, last
        #: pairs], in first-use order; last use is the `_ff_uses` of the
        #: key's latest span, last pairs that span's (m_id, func_id) pairs
        #: in submission order (None from the array arm)
        self._ff_windows: Dict[Tuple, List] = {}
        #: spans added to windows so far: the clock that orders last uses
        self._ff_uses = 0
        #: (session_id, function name) -> (m_id, func_id), mirroring
        #: ``session.find_function`` so `_ff_offer` resolves keys in O(1)
        self._ff_resolve: Dict[Tuple[int, str], Tuple[int, int]] = {}
        #: batch depth -> the DispatchConfig a flush of that depth runs
        #: under (`_config_for`)
        self._depth_configs: Dict[int, DispatchConfig] = {}
        self._mhz = float(self.machine.spec.mhz)
        #: clock candidates the array arm repaired (`_clock_starts`), and
        #: the repairs its current chunk has left
        self._clock_repairs = 0
        self._repairs_left = _CHUNK_REPAIRS
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
            from ..serve.frontend import ServiceFrontend
            self.frontend = ServiceFrontend(self.kernel, self.extension)
            # one backend per module, mirroring the session topology
            for registered in self.modules:
                service_backends.append(self.frontend.register_backend(
                    registered.name, [registered], policy=broker_policy))
                for function in registered.definition.functions():
                    self._service_funcs[(registered.m_id, function.name)] = \
                        (function.func_id, function.arg_words)

        for c in self.client_ids:
            program = Program.spawn(self.kernel, f"traffic-client{c}",
                                    uid=DEFAULT_UID)
            state = ClientState(index=c, program=program,
                                rng=self.rng.child(f"client:{c}"))
            if spec.via_service:
                bindings = self._service_bindings.setdefault(c, {})
                for registered, record in zip(self.modules, service_backends):
                    binding = self.frontend.attach(record, client=program)
                    bindings[registered.m_id] = binding.binding_id
                    state.sessions[registered.m_id] = binding.session
                self._service_clients[c] = self.frontend.make_client(
                    program.proc)
            else:
                # one session per module: N x M entries in the sharded table
                for registered in self.modules:
                    state.sessions[registered.m_id] = \
                        self._start_session(program, registered)
            self.clients.append(state)
            self._client_by_id[state.index] = state
        self._built = True
        return self

    def _start_session(self, program: Program, registered):
        descriptor = SessionDescriptor(
            build_requirements([registered], principal=DEFAULT_PRINCIPAL,
                               uid=DEFAULT_UID),
            allow_multiple=True)
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
        event count exact).  Then every open window is re-checked, in
        last-use order, and settles as one scaled-trace commit, in
        first-use order.

        Between two barriers the engine only draws, queues, defers charges
        and records observations, so nothing a probe reads can change: a
        window's joined spans skip the probe, and the re-check makes the
        cache touches they skipped, in the order of the window's last
        flush.  Last-use order leaves the trace and decision caches in the
        LRU order a probe per span would leave.
        Commit order feeds telemetry's float totals and the aggregate
        spans.
        """
        if self._pending_idle_events:
            self.machine.meter.idle_many(self._pending_idle_cycles,
                                         self._pending_idle_events)
            self._pending_idle_cycles = 0
            self._pending_idle_events = 0
        windows = self._ff_windows
        if windows:
            dispatcher = self.extension.dispatcher
            for key, (entry, _, session, _, pairs) in sorted(
                    windows.items(), key=lambda item: item[1][3]):
                dispatcher.fast_forward_recheck(key, entry, session, pairs)
            for entry, count, session, _, _ in windows.values():
                dispatcher.fast_forward_commit(entry, session, count)
            windows.clear()
        self._pending_cycles = 0

    def _config_for(self, count: int) -> DispatchConfig:
        """The DispatchConfig a flush of ``count`` calls runs under.

        One object per depth, so every trace key of a depth carries the
        same config (configs compare by value either way).
        """
        config = self._depth_configs.get(count)
        if config is None:
            config = (self.config if self.config.batch_size >= count
                      else replace(self.config, batch_size=count))
            self._depth_configs[count] = config
        return config

    def _ff_offer(self, state: ClientState, session,
                  queue: List[Tuple[str, Tuple]], count: int) -> bool:
        """Try to absorb one flush into a fast-forward window.

        Builds the same trace key the dispatcher would.  A key with an
        open window takes the span unprobed; otherwise the dispatcher must
        admit it (`fast_forward_probe` checks every trace guard *and*
        performs the span's decision-cache touches) and the span opens the
        key's window.  Either way the span's last use and pairs are
        stamped and its charge accumulated.  Returns False when the span
        must take the dispatch path instead.
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
            config = self._config_for(count)
            shape = tuple(sorted(pairs))
        key = (sid, shape, config)
        window = self._ff_windows.get(key)
        if window is None:
            entry = self._dispatcher.fast_forward_probe(session, key)
            if entry is None:
                return False
            self._ff_windows[key] = window = [entry, 0, session, 0, None]
        entry = window[0]
        window[1] += 1
        self._ff_uses += 1
        window[3] = self._ff_uses
        window[4] = pairs
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
        latency below reads the true clock).  The latency is the cycles the
        dispatch charged over the MHz, the float a checkpoint interval's
        ``microseconds`` gives.
        """
        count = len(queue)
        clock = self.machine.clock
        mark = clock.cycles
        if count == 1:
            name, args = queue[0]
            outcome = self._dispatcher.call(
                session, name, *args, config=self.config)
            denied = 0 if outcome.errno is None else 1
        else:
            batch = self._dispatcher.call_batch(
                session, queue, config=self._config_for(count))
            denied = batch.denied
        service_us = (clock.cycles - mark) / self._mhz
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
        clock = self.machine.clock
        mark = clock.cycles
        result = stub.call("serve_call", binding_id, m_id,
                           func_id, args[0] if arg_words and args else 0)
        service_us = (clock.cycles - mark) / self._mhz
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

        Static depth-1 runs with fast-forward on and an open/MMPP source
        hand the whole schedule to the array arm (`_drive_arrays`), which
        keeps the same observable sequence (RNG draws, delay records, a
        probe per window opened, last-use stamps, accumulated charges,
        fallback order) and settles the arrivals between two fallbacks in
        numpy (docs/performance.md, "One traffic loop").
        """
        spec = self.spec
        # arrival source: each client gets ceil(calls / batch_size) arrivals
        per_client = math.ceil(spec.calls_per_client / spec.batch_size)
        batch_size = spec.batch_size
        last_count = spec.calls_per_client - (per_client - 1) * batch_size
        for state in self.clients:
            state.arrivals_left = per_client
        open_loop = spec.arrival != "closed"
        if open_loop and batch_size == 1 and self._ff_enabled and \
                not spec.adaptive_batch:
            self._drive_arrays(per_client)
            return
        if open_loop:
            times, indices = self._open_schedule_sorted(per_client)
            arrivals: Iterator[Tuple[float, int]] = zip(times, indices)
        else:
            arrivals = self._closed_arrivals()
        # flush policy: static batches unless the AIMD controller owns it
        if spec.adaptive_batch:
            self._attach_controllers()

        by_id = self._client_by_id
        modules = self.modules
        single = len(modules) == 1
        last_module = len(modules) - 1
        broker = self.extension.broker
        shed = self._broker_shed
        for at, index in arrivals:
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

    # ------------------------------------------------------------- array arm
    def _drive_arrays(self, per_client: int) -> None:
        """The array arm: a static depth-1 fast-forward run over an
        open/MMPP schedule, in numpy.

        Between two barriers an arrival's step is integer and float
        arithmetic on what the schedule fixes in advance: its time, its
        call-table row, and the trace cycles of its key's window.  So the
        arm walks the schedule a chunk (`_ARRIVAL_CHUNK`) at a time and
        splits each chunk at its **fallback arrivals**, those whose row has
        no trace key or whose probe fails.  The arrivals between two are a
        **window run**: all of them join open windows, and
        `_settle_run` accounts for the whole run at once.  A fallback
        arrival idles to its time, records its delay, settles the barrier
        and dispatches through `_dispatch_queue_slow`.

        Probes run ahead of the arrivals that join their windows
        (`_probe_ahead`), in the order the keys first appear, which is the
        order a step per arrival reaches them in, so windows open (and
        commit) in first-use order.  That is sound because nothing a probe
        reads changes between two barriers, and `_ff_flush`'s re-check
        raises if it ever does.
        """
        table = self._call_table()
        times, rows = self._open_schedule_sorted(per_client, rows=True)
        views = self._key_views(table)
        observe = self.telemetry.enabled
        record_delay = self.extension.broker.record_queue_delay
        clock = self.machine.clock
        profile_mhz = self.machine.meter.profile.mhz
        spec_mhz = self.machine.spec.mhz
        for start in range(0, len(times), _ARRIVAL_CHUNK):
            at = times[start:start + _ARRIVAL_CHUNK]
            chunk_rows = rows[start:start + _ARRIVAL_CHUNK]
            kid = views.row_key[chunk_rows]
            self._repairs_left = _CHUNK_REPAIRS
            pos = 0
            while pos < len(at):
                end = self._probe_ahead(views, kid, pos)
                if end > pos:
                    self._settle_run(views, at[pos:end], chunk_rows[pos:end],
                                     kid[pos:end])
                if end == len(at):
                    break
                # the fallback arrival: the clock step, its delay, the
                # barrier and the dispatch path
                at_n = at.item(end)
                state, delay_append, session, name, _ = \
                    table[chunk_rows.item(end)]
                # -- _advance_clock_to(at_n), inlined
                before = clock.cycles + self._pending_cycles
                now = before / profile_mhz
                if at_n > now:
                    idle = int(round((at_n - now) * spec_mhz))
                    self._pending_cycles += idle
                    self._pending_idle_cycles += idle
                    self._pending_idle_events += 1
                    now = (before + idle) / profile_mhz
                delay = max(0.0, now - at_n)
                delay_append(delay)
                if observe:
                    record_delay(session, delay)
                if self._ff_windows:
                    views.is_open[:] = False    # the barrier shuts them all
                self._ff_flush()
                # arguments never enter the trace key and are not drawn
                # from the RNG: synthesizing them only here is draw-for-
                # draw identical to `_draw_call`
                args = (state.calls_issued,) if name == "test_incr" else ()
                self._dispatch_queue_slow(state, session, [(name, args)])
                state.arrivals_left -= 1
                pos = end + 1

    def _key_views(self, table: List[Tuple]) -> _KeyViews:
        """The array arm's views of the call ``table``, every window shut."""
        keys: List[Tuple] = []
        key_ids: Dict[Tuple, int] = {}
        sessions: List = []
        states: List[ClientState] = []
        row_key = []
        for state, _, session, _, key in table:
            if key is not None and key not in key_ids:
                key_ids[key] = len(keys)
                keys.append(key)
                sessions.append(session)
                states.append(state)
            row_key.append(-1 if key is None else key_ids[key])
        keyless = len(keys)
        ids = np.array(row_key, np.int64)
        ids[ids < 0] = keyless
        clients = len(self.clients)
        return _KeyViews(
            row_key=ids.astype(np.min_scalar_type(keyless)),
            # small unsigned positions: numpy's stable sort on them (the
            # per-client split of `_settle_run`) is a radix sort
            row_client=np.repeat(
                np.arange(clients, dtype=np.min_scalar_type(clients - 1)),
                len(table) // clients),
            keys=keys, sessions=sessions, states=states,
            windows=[None] * keyless,
            is_open=np.zeros(keyless + 1, np.bool_),
            cycles=np.zeros(keyless + 1, np.int64),
            latency=np.zeros(keyless + 1, np.float64))

    def _probe_ahead(self, views: _KeyViews, kid: np.ndarray,
                     pos: int) -> int:
        """Open the windows of the arrivals from ``pos`` on; return the
        position of the first fallback arrival, or ``len(kid)``.

        Each key with no open window is probed where it first appears, in
        arrival order, and the first that fails (or a row with no trace
        key) is the fallback.  The arrival at ``pos`` goes first on its
        own: after a barrier its key is always shut, and where every probe
        fails that is the only one.  Then the look ahead grows from
        `_PROBE_SPAN` arrivals.  Every key still shut in a span first
        appears there, since those before it were opened.
        """
        is_open = views.is_open
        keyless = len(views.keys)
        k = kid.item(pos)
        if not is_open[k] and (k == keyless
                               or not self._open_window(views, k)):
            return pos
        low = pos + 1
        span = _PROBE_SPAN
        while low < len(kid):
            ahead = kid[low:low + span]
            waiting = np.flatnonzero(~is_open[ahead])
            probed = set()
            for index, k in zip(waiting.tolist(), ahead[waiting].tolist()):
                if k in probed:
                    continue
                probed.add(k)
                if k == keyless or not self._open_window(views, k):
                    return low + index
            low += span
            span *= 4
        return len(kid)

    def _open_window(self, views: _KeyViews, k: int) -> bool:
        """Probe key ``k``; open its window when the probe admits it."""
        session = views.sessions[k]
        key = views.keys[k]
        entry = self._dispatcher.fast_forward_probe(session, key)
        if entry is None:
            return False
        self._ff_windows[key] = views.windows[k] = [entry, 0, session, 0,
                                                    None]
        views.is_open[k] = True
        views.cycles[k] = entry.trace.total_cycles
        views.latency[k] = entry.trace.total_cycles / self._mhz
        return True

    def _settle_run(self, views: _KeyViews, at: np.ndarray,
                    rows: np.ndarray, kid: np.ndarray) -> None:
        """Account for a window run exactly as a step per arrival would.

        The run's idle waits and trace cycles join the deferred totals.
        Each arrival's queue delay is its start over the profile's MHz
        less its time (never below zero), its latency its trace cycles
        over the MHz.  Each client gets its arrivals' delays and latencies
        appended in arrival order, as raw doubles, and its issue, denial
        and arrival counts.  Each window gets its joins and the last-use
        stamp of its last one.  With the observation plane on, each delay
        reaches the broker's seat histograms in arrival order.
        """
        n = len(at)
        cycles = views.cycles[kid]
        base = self.machine.clock.cycles
        start_cycles = base + self._pending_cycles
        starts, idled = self._clock_starts(at, cycles, start_cycles)
        end_cycles = int(starts[-1]) + int(cycles[-1])
        self._pending_cycles = end_cycles - base
        self._pending_idle_cycles += (end_cycles - start_cycles
                                      - int(cycles.sum()))
        self._pending_idle_events += int(np.count_nonzero(idled))
        delays = starts / self.machine.meter.profile.mhz
        delays -= at
        np.maximum(delays, 0.0, out=delays)
        if self.telemetry.enabled:
            record_delay = self.extension.broker.record_queue_delay
            sessions = views.sessions
            for k, delay in zip(kid.tolist(), delays.tolist()):
                record_delay(sessions[k], delay)
        # per client, in arrival order
        clients = views.row_client[rows]
        order = np.argsort(clients, kind="stable")
        counts = np.bincount(clients, minlength=len(self.clients))
        ends = np.cumsum(counts).tolist()
        delays = delays[order]
        latencies = views.latency[kid[order]]
        for position in np.flatnonzero(counts).tolist():
            end = ends[position]
            begin = end - int(counts[position])
            state = self.clients[position]
            state.queue_delays_us.frombytes(delays[begin:end].tobytes())
            state.latencies_us.frombytes(latencies[begin:end].tobytes())
        # per window: joins, the last one's stamp, its client's counts
        joins = np.bincount(kid, minlength=len(views.is_open))
        last = np.full(len(joins), -1, np.int64)
        np.maximum.at(last, kid, np.arange(n))
        uses = self._ff_uses
        for k in np.flatnonzero(joins).tolist():
            count = int(joins[k])
            window = views.windows[k]
            window[1] += count
            window[3] = uses + int(last[k]) + 1
            state = views.states[k]
            state.calls_issued += count
            state.calls_denied += count * window[0].denied
            state.arrivals_left -= count
        self._ff_uses = uses + n

    def _clock_starts(self, at: np.ndarray, cycles: np.ndarray,
                      x: int) -> Tuple[np.ndarray, np.ndarray]:
        """The start cycle of each arrival of a window run from ``x``
        cycles, and whether it idled, exactly as the scalar step computes
        them.

        Takes the max-plus candidate (`_lindley_starts`) and recomputes
        every start from its predecessor with the scalar step's own float
        operations.  The prefix that agrees is the scalar loop's, by
        induction; the first start that disagrees is replaced by its
        recomputed value, and the candidate restarts after it.  Past
        `_CHUNK_REPAIRS` repairs in a chunk, the rest of the chunk takes
        the scalar recurrence (`_scalar_starts`).
        """
        profile_mhz = self.machine.meter.profile.mhz
        spec_mhz = self.machine.spec.mhz
        n = len(at)
        starts = np.empty(n, np.int64)
        idled = np.empty(n, np.bool_)
        done = 0
        while done < n:
            rest_at = at[done:]
            rest_cycles = cycles[done:]
            if not self._repairs_left:
                starts[done:], idled[done:] = _scalar_starts(
                    rest_at.tolist(), rest_cycles.tolist(), x, profile_mhz,
                    spec_mhz)
                break
            candidate = _lindley_starts(rest_at, rest_cycles, x, spec_mhz)
            before = np.empty(n - done, np.int64)
            before[0] = x
            np.add(candidate[:-1], rest_cycles[:-1], out=before[1:])
            now = before / profile_mhz
            waits = rest_at > now
            # a wait rounds to zero or below unless the arrival is late
            wait = np.rint((rest_at - now) * spec_mhz)
            np.maximum(wait, 0.0, out=wait)
            exact = before + wait.astype(np.int64)
            wrong = np.flatnonzero(exact != candidate)
            end = n
            if wrong.size:
                end = done + int(wrong[0]) + 1
                self._clock_repairs += 1
                self._repairs_left -= 1
            starts[done:end] = exact[:end - done]
            idled[done:end] = waits[:end - done]
            x = int(starts[end - 1]) + int(cycles[end - 1])
            done = end
        return starts, idled

    def _attach_controllers(self) -> None:
        """Give every client an AIMD controller over its flush depth."""
        spec = self.spec
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
                spec.adaptive_max_depth, spec.service_p95_target_us,
                client=state.index, start_us=start_us)
            state.controller.service_p95_supplier = service_p95

    def _think_source(self, state: ClientState):
        """Per-client closed-loop think-time draw (``TrafficSpec.think``).

        The exponential default reproduces the original engine draw for
        draw; lognormal keeps the same mean think time but adds the heavy
        tail, so a seed change is the only way totals move.
        """
        spec = self.spec
        if spec.think == "lognormal":
            return lambda: state.rng.lognormal(spec.mean_interval_us,
                                               LOGNORMAL_THINK_SIGMA)
        return lambda: state.rng.exponential(spec.mean_interval_us)

    def _call_table(self) -> List[Tuple]:
        """The array arm's call table, one entry per (client, module,
        call-mix function), in that order.

        An entry holds everything the arm touches for one call: the
        client's state, its queue-delay append, the session the module
        pick lands on, the function name, and the trace key the dispatcher
        builds for the call, or None when the session does not resolve the
        name (the call takes the dispatch path).
        """
        config = self.config
        table = []
        for state in self.clients:
            delay_append = state.queue_delays_us.append
            for registered in self.modules:
                session = state.sessions[registered.m_id]
                for name in self._mix_names:
                    found = session.find_function(name)
                    key = None
                    if found is not None:
                        module, function = found
                        key = (session.session_id,
                               (module.m_id, function.func_id), config)
                    table.append((state, delay_append, session, name, key))
        return table

    def _table_row(self, position: int) -> int:
        """The first call-table row of the client at ``position``."""
        return position * len(self.modules) * len(self._mix_names)

    def _closed_arrivals(self) -> Iterator[Tuple[float, int]]:
        """The closed-loop arrival source: one think-time heap.

        Yields ``(time_us, client_index)``.  A client's next arrival is
        drawn only when the loop asks for the next arrival, after the
        client's flush, so it is scheduled from the completion time.  The
        tiebreak keeps ordering deterministic when two clients share a
        time.
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

    def _call_rows(self, state: ClientState, row: int,
                   n: int) -> np.ndarray:
        """The client's next ``n`` call-table rows, drawn in bulk: the
        rounds of module pick and call-mix double that the general arm
        draws one call at a time (``integer_double_rounds``), each double
        placed by a right-sided ``searchsorted`` over the thresholds (the
        first threshold above it, as ``weighted_choice``'s walk finds
        it)."""
        width = len(self._mix_names)
        picks, doubles = state.rng.integer_double_rounds(
            len(self.modules) - 1, n)
        offsets = np.searchsorted(self._mix_thresholds,
                                  self._mix_total * doubles, side="right")
        np.minimum(offsets, width - 1, out=offsets)
        return row + picks * width + offsets

    def _open_schedule_sorted(self, events_per_client: int, *,
                              rows: bool = False) -> Tuple:
        """The open/mmpp arrival source: every client's arrivals, drawn up
        front and independent of completions, in the order a heap keyed
        ``(time, insertion order)`` would pop them: parallel
        ``(times, indices)`` lists of each arrival's time and client
        index.  With ``rows`` the array arm gets numpy arrays of each
        arrival's time and call-table row instead: a client's module picks
        and call draws follow its interarrival gaps in its stream, so they
        are drawn in bulk right after them (:meth:`_call_rows`).

        Bit-identical to a scalar loop: gaps accumulate through
        ``np.cumsum`` seeded with ``base_us`` as element 0 (the same
        left-to-right float additions as ``at += gap``), the ordering is a
        **stable** argsort on fire time, and Poisson clients draw their gaps
        in one vectorized call (see ``exponential_array``).  The general
        arm's two primitive lists instead of one tuple list keep 10^7-event
        schedules out of the cyclic GC's way (measured ~2x end-to-end at
        10^7 calls); the array arm's arrays hold no Python object per
        arrival at all (docs/performance.md, "One traffic loop").
        """
        spec = self.spec
        base_us = self._now_us()
        per_client: List[np.ndarray] = []
        picks: List[np.ndarray] = []
        for position, state in enumerate(self.clients):
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
            picks.append(
                self._call_rows(state, self._table_row(position),
                                events_per_client) if rows else
                np.full(events_per_client, state.index, dtype=np.int64))
        # each intermediate goes as soon as the next step has what it
        # needs: at 10^7 calls the schedule sets the run's peak RSS
        times = np.concatenate(per_client)
        del per_client
        order = np.argsort(times, kind="stable")
        times = times[order]
        picked = np.concatenate(picks)[order]
        del picks, order
        if rows:
            return times, picked
        return times.tolist(), picked.tolist()

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
                ordered_sum(s.latencies_us) / len(s.latencies_us)
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
