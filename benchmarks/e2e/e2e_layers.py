"""Layer definitions and host-time shims for the end-to-end benchmark.

Two views of where a run's time goes, both computed from outside the
program:

* **virtual** — every cost-table op belongs to exactly one comment group
  of ``sim/costs.py`` (:data:`VIRTUAL_GROUPS`); a run's charged cycles split
  by group, plus idle, sum exactly to the clock's advance;
* **host** — :class:`SpanRecorder` wraps the public entry points of each
  package under ``src/repro`` (:data:`ENTRY_POINTS`) at class level, times
  every entry with ``perf_counter_ns`` and folds each span's self time
  (duration minus its direct children) into its layer.  The wrappers only
  observe: they never touch the virtual clock, so a traced run's virtual
  digest equals the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import deque
from typing import Dict, List, Tuple

from repro.telemetry.tracing import Span

#: cost-table op -> group, one group per comment block of ``sim/costs.py``
VIRTUAL_GROUPS: Dict[str, Tuple[str, ...]] = {
    "cpu": ("TRAP_ENTRY", "TRAP_EXIT", "CONTEXT_SWITCH"),
    "kernel": ("SYSCALL_DEMUX", "COPY_WORD", "SCHED_ENQUEUE", "SCHED_WAKEUP",
               "KMALLOC", "KFREE"),
    "proc": ("FORK_BASE", "FORK_PER_MAP_ENTRY", "EXEC_BASE", "EXIT_BASE"),
    "uvm": ("UVM_MAP_ENTRY_OP", "UVM_PAGE_OP", "UVM_FAULT_BASE",
            "UVM_FAULT_SHARE", "OBREAK_BASE"),
    "msgq": ("MSGQ_SEND", "MSGQ_RECV", "MSGQ_PER_WORD"),
    "smod": ("SMOD_SESSION_LOOKUP", "SMOD_SHARD_LOCK", "SMOD_CRED_CHECK",
             "SMOD_POLICY_STEP", "SMOD_POLICY_CACHE_HIT",
             "SMOD_STACK_FIXUP_WORD", "SMOD_BATCH_SETUP", "SMOD_BATCH_ENTRY",
             "SMOD_POOL_ATTACH", "SMOD_POOL_ROUTE", "SMOD_TENANT_LOOKUP",
             "SMOD_REGISTER_BASE", "CIPHER_BLOCK", "KEY_SCHEDULE"),
    "user": ("USER_STACK_WORD", "USER_CALL_OVERHEAD", "FUNC_BODY_TESTINCR",
             "FUNC_BODY_GETPID", "FUNC_BODY_SMOD_GETPID", "MALLOC_BODY"),
    "rpc": ("XDR_ITEM", "UDP_SEND_PATH", "UDP_RECV_PATH", "SOCKET_ALLOC",
            "RPC_CLNT_CALL_OVERHEAD", "RPC_SVC_DISPATCH", "RPC_AUTH_CHECK"),
    "serve": ("SERVE_BACKEND_RESOLVE", "SERVE_POOL_CHECKOUT",
              "SERVE_POOL_CHECKIN", "SERVE_HEALTH_PROBE"),
    "overload": ("SMOD_ADMIT_CHECK", "SMOD_ADMIT_REFILL", "SERVE_SHED",
                 "SERVE_BREAKER_CHECK", "SERVE_BREAKER_TRIP"),
}

#: layer -> (module, class, method) public entry points the shims wrap.
#: The layers are the packages under ``src/repro``; the root layer
#: ``workloads`` is the traffic driver (on serve-churn, the benchmark's own
#: session loop stands in for it).
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "workloads": (
        ("repro.workloads.traffic", "TrafficEngine", "run"),),
    "secmodule.dispatch": tuple(
        ("repro.secmodule.dispatch", "SmodDispatcher", name)
        for name in ("call", "call_batch", "fast_forward_probe",
                     "fast_forward_commit", "sys_smod_call",
                     "sys_smod_call_batch")),
    "secmodule.session": (
        ("repro.secmodule.session", "SessionManager", "start_session"),
        ("repro.secmodule.session", "SessionManager", "lookup"),
        ("repro.secmodule.session", "SessionManager", "teardown"),
        ("repro.secmodule.handle_pool", "HandleBroker", "attach"),
        ("repro.secmodule.handle_pool", "HandleBroker", "detach")),
    "secmodule.handle": (
        ("repro.secmodule.handle", "Handle", "receive_call"),
        ("repro.secmodule.handle", "Handle", "receive_batch")),
    "kernel": (
        ("repro.kernel.kernel", "Kernel", "syscall"),
        ("repro.kernel.kernel", "Kernel", "fork_process"),
        ("repro.kernel.sysv_msg", "SysVMsgSystem", "msgsnd"),
        ("repro.kernel.sysv_msg", "SysVMsgSystem", "msgrcv"),
        ("repro.kernel.sched", "Scheduler", "switch_to")),
    "sim": tuple(
        ("repro.sim.costs", "CostMeter", name)
        for name in ("charge", "charge_trace", "idle", "idle_many")),
    "rpc": (
        ("repro.rpc.rpcgen", "BoundClient", "call"),
        ("repro.rpc.server", "RpcServer", "serve_one")),
    "serve": (
        ("repro.serve.frontend", "ServiceFrontend", "attach"),
        ("repro.serve.frontend", "ServiceFrontend", "detach"),
        ("repro.serve.frontend", "ServiceFrontend", "call_bound"),
        ("repro.serve.discovery", "BackendRegistry", "resolve")),
    "control": (
        ("repro.control.adaptive", "AdaptiveBatchController",
         "observe_arrival"),
        ("repro.control.adaptive", "AdaptiveBatchController", "on_flush")),
    "telemetry": (
        ("repro.telemetry.metrics", "Telemetry", "record_dispatch"),
        ("repro.telemetry.metrics", "Telemetry", "record_batch"),
        ("repro.telemetry.metrics", "Telemetry", "record_depth"),
        ("repro.telemetry.metrics", "LogHistogram", "record")),
}

LAYERS: Tuple[str, ...] = tuple(ENTRY_POINTS)
ROOT_LAYER = "workloads"
#: layers whose entry points run on every workload (set-up included), so
#: their host time per op is never a constant zero
ALWAYS_ACTIVE_LAYERS: Tuple[str, ...] = (
    "workloads", "secmodule.dispatch", "secmodule.session",
    "secmodule.handle", "kernel", "sim")
#: spans the flight-recorder ring keeps for the Chrome trace
RING_CAPACITY = 200_000


def group_of_ops(costs_module) -> Dict[str, str]:
    """Op name -> virtual group; raises if an op has no group or two.

    ``costs_module`` is ``repro.sim.costs``: the groups name its constants,
    and the check runs against its ``ALL_OPERATIONS``.
    """
    owner: Dict[str, str] = {}
    for group, constants in VIRTUAL_GROUPS.items():
        for constant in constants:
            op = getattr(costs_module, constant, None)
            if op is None:
                raise ValueError(f"virtual group {group!r} names unknown "
                                 f"cost op {constant}")
            if op in owner:
                raise ValueError(f"cost op {op!r} is in groups "
                                 f"{owner[op]!r} and {group!r}")
            owner[op] = group
    missing = [op for op in costs_module.ALL_OPERATIONS if op not in owner]
    if missing:
        raise ValueError(f"cost ops without a virtual group: {missing}")
    return owner


def group_cycles(op_delta: Dict[str, int], cycles: Dict[str, int],
                 owner: Dict[str, str]) -> Dict[str, int]:
    """Charged cycles per virtual group for an op-histogram delta."""
    totals = {group: 0 for group in VIRTUAL_GROUPS}
    for op, count in op_delta.items():
        totals[owner[op]] += count * cycles[op]
    return totals


class SpanRecorder:
    """Host-time spans around the wrapped entry points.

    Per-layer self time and entry counts are exact over every span; the
    span records themselves (name, host start/end ns, parent, op id) go
    into a ring that keeps the last :data:`RING_CAPACITY`.  The op id of a
    span is inherited from its parent, except that each span opened
    directly under a root-layer span (or with no parent at all) starts a
    new op.
    """

    def __init__(self) -> None:
        self.ring: deque = deque(maxlen=RING_CAPACITY)
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.entries: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.spans = 0
        self._stack: List[list] = []
        self._next_op = 0
        self._installed: List[Tuple[type, str, bool, object]] = []
        self.missing_entry_points: List[str] = []

    # ------------------------------------------------------------------ spans
    def _wrap(self, layer: str, name: str, original):
        stack = self._stack
        ring = self.ring
        self_ns = self.self_ns
        entries = self.entries
        clock = time.perf_counter_ns
        is_root = layer == ROOT_LAYER
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            recorder.spans += 1
            span_id = recorder.spans
            if parent is None or parent[3]:
                recorder._next_op += 1
                op_id = recorder._next_op
            else:
                op_id = parent[2]
            # [direct children's ns, span id, op id, is a root-layer span]
            frame = [0, span_id, op_id, is_root]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[0]
                entries[layer] += 1
                if parent is not None:
                    parent[0] += duration
                ring.append((name, layer, start, end, span_id,
                             parent[1] if parent is not None else None,
                             op_id))

        return traced

    def run_root(self, name: str, body):
        """Run ``body()`` as one root-layer span: a traced rep's set-up,
        and serve-churn's session loop, which has no ``TrafficEngine.run``
        above it."""
        return self._wrap(ROOT_LAYER, name, body)()

    # -------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every listed entry point; missing ones are recorded, not
        fatal, so refactors that rename them never break the benchmark."""
        for layer, points in ENTRY_POINTS.items():
            for module_name, class_name, method in points:
                label = f"{class_name}.{method}"
                cls = _resolve(module_name, class_name)
                static = (inspect.getattr_static(cls, method, None)
                          if cls is not None else None)
                if not inspect.isfunction(static):
                    self.missing_entry_points.append(label)
                    continue
                had_own = method in cls.__dict__
                self._installed.append((cls, method, had_own, static))
                setattr(cls, method, self._wrap(layer, label, static))

    def restore(self) -> None:
        """Put every wrapped method back exactly as it was."""
        while self._installed:
            cls, method, had_own, original = self._installed.pop()
            if had_own:
                setattr(cls, method, original)
            else:
                delattr(cls, method)

    # ---------------------------------------------------------------- export
    def ring_spans(self) -> List[Span]:
        """The ring as telemetry ``Span`` objects for
        ``repro.telemetry.trace_export``: host microseconds from the
        earliest kept start, ``kind`` = entry point, ``tier`` = layer (the
        Chrome category), ``session_id`` = op id."""
        base = min((entry[2] for entry in self.ring), default=0)
        spans = []
        for name, layer, start, end, span_id, parent_id, op_id in self.ring:
            span = Span(span_id, parent_id, name, (start - base) / 1000.0,
                        session_id=op_id, tier=layer)
            span.end_us = (end - base) / 1000.0
            spans.append(span)
        return spans


def layer_table(self_ns: Dict[str, int], entries: Dict[str, int],
                ops: int, total_ns: float
                ) -> Dict[str, Tuple[float, float, float]]:
    """layer -> (host self share, self ns per op, entries per op).

    Shares are of ``total_ns``, the traced rep's host time measured apart
    from the spans, so they sum to 1 only when the spans cover that time
    once: time outside every span, or child time counted twice, shows.
    """
    return {layer: (self_ns[layer] / total_ns, self_ns[layer] / ops,
                    entries[layer] / ops)
            for layer in LAYERS}


def host_layer_metrics(self_ns: Dict[str, int], entries: Dict[str, int],
                       ops: int, total_ns: float) -> Dict[str, float]:
    """The per-layer host metrics the benchmark reports.

    Self ns per op is reported only for :data:`ALWAYS_ACTIVE_LAYERS`: on
    the other layers it is exactly zero on three of the four workloads,
    which would read as a stuck timer; their share and entry count still
    show whether they ran.
    """
    metrics: Dict[str, float] = {}
    for layer, (share, ns_per_op, entries_per_op) in layer_table(
            self_ns, entries, ops, total_ns).items():
        metrics[f"{layer}.host_self_share"] = share
        if layer in ALWAYS_ACTIVE_LAYERS:
            metrics[f"{layer}.host_self_ns_per_op"] = ns_per_op
        metrics[f"{layer}.entries_per_op"] = entries_per_op
    return metrics


def entry_point_attributes() -> Dict[str, object]:
    """``Class.method`` -> the class's own attribute, for every listed
    entry point that exists (tests compare these around a traced run)."""
    found: Dict[str, object] = {}
    for points in ENTRY_POINTS.values():
        for module_name, class_name, method in points:
            cls = _resolve(module_name, class_name)
            if cls is not None:
                found[f"{class_name}.{method}"] = cls.__dict__.get(method)
    return found


def _resolve(module_name: str, class_name: str):
    """The named class, or None when a refactor moved or removed it."""
    try:
        return getattr(importlib.import_module(module_name), class_name)
    except (ImportError, AttributeError):
        return None
