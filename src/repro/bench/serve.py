"""Service-plane benchmark: the ``abl-serve`` experiment.

The service plane turns SecModule into a served backend: clients attach
through a :class:`~repro.serve.frontend.ServiceFrontend`, their sessions
land in the (tenant-)sharded session table, and stateless traffic flows
through a bounded attachment pool.  This sweep scales the live-session
count 10^3 → 10^6 (default points stop at 10^5; ``--sessions`` reaches
the full million) and measures the four costs the design must keep flat
or bounded:

* **attach** — establishing one more session while N are already live
  (crt0 handshake + pooled-handle seat + index inserts);
* **lookup** — resolving one binding to its session: tenant index walk +
  keyed shard probe, *never* a table scan.  The per-probe op count
  (tenant lookups + shard locks) must be byte-identical at every sweep
  point — that flatness is the acceptance bar;
* **bound call** — a full dispatch through the front-end's binding path;
* **pool wait** — offered load above the attachment pool's capacity,
  measured with the K-server virtual-time model (waits and refusals are
  deterministic functions of the arrival schedule).

Everything in the report is virtual-clock-deterministic; the host-side
story (``wall_seconds``, ``peak_rss_bytes``) lives at the payload top
level where the byte-exact regression gate never looks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..hw.machine import make_paper_machine
from ..kernel.kernel import Kernel
from ..secmodule.libc_conversion import build_test_module
from ..secmodule.protection import ProtectionMode
from ..secmodule.smod_syscalls import install_secmodule
from ..serve.attachment_pool import PoolConfig
from ..serve.frontend import ServiceConfig, ServiceFrontend
from ..userland.process import Program
from .report import render_table

#: Live-session counts the default sweep measures (the acceptance run
#: extends this to 10^6 via ``repro bench serve --sessions``).
DEFAULT_SESSIONS: Tuple[int, ...] = (1_000, 10_000, 100_000)
FAST_SESSIONS: Tuple[int, ...] = (500, 2_000)
#: Tenants the sharded table is split across (>1 exercises the
#: hierarchical tenant → shard walk at every probe).
DEFAULT_TENANTS = 4
#: Sessions each surrogate client program holds (allow_multiple): 10^6
#: sessions must not need 10^6 client processes.
DEFAULT_SESSIONS_PER_CLIENT = 64
#: Sampled-phase sizes: fixed regardless of the sweep point, so their
#: per-op costs are directly comparable across table sizes.
LOOKUP_SAMPLES = 256
CALL_SAMPLES = 64
DETACH_SAMPLES = 64
#: Pool-wait leg: arrivals offered every 1 virtual us against
#: ``POOL_ATTACHMENTS`` workers each busy ~6.4 us per call — offered load
#: well above capacity, so waits accumulate deterministically.
POOL_CALLS = 128
POOL_ATTACHMENTS = 4
POOL_ARRIVAL_INTERVAL_US = 1.0


@dataclass
class ServePoint:
    """One measured live-session scale."""

    sessions: int
    clients: int
    tenants: int
    attach_cycles: int
    lookup_samples: int
    lookup_cycles: int
    #: tenant lookups + shard lock acquisitions per keyed probe — the
    #: flatness metric (an index walk's op count cannot depend on N)
    lookup_ops_per_probe: float
    call_samples: int
    call_cycles: int
    detach_samples: int
    detach_cycles: int
    pool_stats: Dict[str, object] = field(default_factory=dict)
    live_sessions: int = 0
    handle_count: int = 0

    @property
    def attach_cycles_per_session(self) -> float:
        return self.attach_cycles / self.sessions

    @property
    def lookup_cycles_per_probe(self) -> float:
        return self.lookup_cycles / self.lookup_samples

    @property
    def call_cycles_per_call(self) -> float:
        return self.call_cycles / self.call_samples

    @property
    def detach_cycles_per_op(self) -> float:
        return self.detach_cycles / self.detach_samples


@dataclass
class ServeReport:
    """The sweep plus the flatness checks the acceptance bar names."""

    sessions: Tuple[int, ...]
    tenants: int
    sessions_per_client: int
    mhz: float
    points: List[ServePoint] = field(default_factory=list)

    # -- the acceptance-bar checks ------------------------------------------
    def lookup_ops_flat(self) -> bool:
        """Per-probe op counts must be identical at every table size."""
        ops = [p.lookup_ops_per_probe for p in self.points]
        return all(a == b for a, b in zip(ops, ops[1:]))

    def lookup_cost_flat(self) -> bool:
        """Per-probe cycle cost must be identical at every table size."""
        per = [p.lookup_cycles_per_probe for p in self.points]
        return all(a == b for a, b in zip(per, per[1:]))

    # -- unit helpers --------------------------------------------------------
    def us(self, cycles: float) -> float:
        return cycles / self.mhz

    @property
    def bench_total_calls(self) -> int:
        """Dispatches driven across the sweep (for the wall-rate field)."""
        # smod: allow(DET004)  integer dispatch counts
        return sum(p.call_samples + int(p.pool_stats.get("checkouts", 0))
                   for p in self.points)

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        rows = []
        for p in self.points:
            rows.append([
                f"{p.sessions:,}",
                f"{p.clients:,}",
                f"{self.us(p.attach_cycles_per_session):,.1f}",
                f"{p.lookup_ops_per_probe:.1f}",
                f"{self.us(p.lookup_cycles_per_probe):.3f}",
                f"{self.us(p.call_cycles_per_call):.2f}",
                f"{self.us(p.detach_cycles_per_op):,.1f}",
                f"{p.pool_stats.get('waits', 0)}",
                f"{p.pool_stats.get('mean_wait_us', 0.0):.2f}",
                f"{p.handle_count:,}",
            ])
        table = render_table(
            ["live sessions", "clients", "attach us", "lookup ops",
             "lookup us", "call us", "detach us", "pool waits",
             "mean wait us", "handles"],
            rows,
            title=(f"Service plane: sessions swept "
                   f"{min(self.sessions):,} -> {max(self.sessions):,}, "
                   f"{self.tenants} tenants, pooled(64) backend"))
        summary = (
            f"\nper-probe lookup op count flat across table sizes: "
            f"{'yes' if self.lookup_ops_flat() else 'NO'}"
            f"\nper-probe lookup cycle cost flat across table sizes: "
            f"{'yes' if self.lookup_cost_flat() else 'NO'}")
        last = self.points[-1] if self.points else None
        if last is not None:
            stats = last.pool_stats
            summary += (
                f"\npool leg at {last.sessions:,} sessions: "
                f"{stats.get('checkouts', 0)} checkouts, "
                f"{stats.get('waits', 0)} waited "
                f"(mean {stats.get('mean_wait_us', 0.0):.2f}us, "
                f"max {stats.get('max_wait_us', 0.0):.2f}us), "
                f"{stats.get('refusals', 0)} refused")
        return table + summary

    def as_dict(self) -> Dict[str, object]:
        """Deterministic (virtual-clock) metrics only: this block sits
        inside the byte-exact ``repro bench diff`` gate.  Host wall time
        and RSS live at the payload top level instead."""
        return {
            "sessions": list(self.sessions),
            "tenants": self.tenants,
            "sessions_per_client": self.sessions_per_client,
            "mhz": self.mhz,
            "points": [
                {"sessions": p.sessions,
                 "clients": p.clients,
                 "attach_us_per_session": self.us(
                     p.attach_cycles_per_session),
                 "lookup_ops_per_probe": p.lookup_ops_per_probe,
                 "lookup_us_per_probe": self.us(p.lookup_cycles_per_probe),
                 "call_us_per_call": self.us(p.call_cycles_per_call),
                 "detach_us_per_op": self.us(p.detach_cycles_per_op),
                 "pool_stats": dict(p.pool_stats),
                 "live_sessions": p.live_sessions,
                 "handle_count": p.handle_count}
                for p in self.points],
            "lookup_ops_flat": self.lookup_ops_flat(),
            "lookup_cost_flat": self.lookup_cost_flat(),
        }


def _measure_point(sessions: int, *, tenants: int,
                   sessions_per_client: int, seed: int) -> ServePoint:
    """One fresh kernel: attach N sessions through the front-end, then
    sample the lookup, bound-call, pool and detach paths."""
    machine = make_paper_machine(seed=seed)
    kernel = Kernel(machine=machine).boot()
    extension = install_secmodule(kernel)
    extension.sessions.charge_shard_locks = True
    definition = build_test_module()
    registered = extension.registry.register(
        definition, uid=0, protection=ProtectionMode.ENCRYPT)

    clients = max(1, math.ceil(sessions / sessions_per_client))
    frontend = ServiceFrontend(
        kernel, extension,
        config=ServiceConfig(
            pool=PoolConfig(max_attachments=POOL_ATTACHMENTS),
            # surrogate clients + pooled handles + margin for workers
            max_procs=clients + sessions // 32 + 4096))
    record = frontend.register_backend("secmodule", [registered],
                                       policy="pooled:64")

    # surrogate client programs (spawned outside the attach timing: the
    # attach metric is session establishment, not process creation)
    programs = [Program.spawn(kernel, f"serve-client{index}", uid=1000)
                for index in range(clients)]

    # -- attach phase --------------------------------------------------------
    mark = machine.clock.checkpoint()
    bindings = []
    for index in range(sessions):
        client_index = index % clients
        binding = frontend.attach(record,
                                  tenant=client_index % tenants,
                                  client=programs[client_index])
        bindings.append(binding)
    attach_cycles = machine.clock.since(mark).cycles
    live_sessions = len(extension.sessions)
    handle_count = extension.sessions.handle_count()

    # -- lookup phase: keyed probes sampled across the whole table -----------
    manager = extension.sessions
    stride = max(1, len(bindings) // LOOKUP_SAMPLES)
    lookup_sample = bindings[::stride][:LOOKUP_SAMPLES]
    ops_before = (manager.shard_lock_acquisitions + manager.tenant_lookups)
    mark = machine.clock.checkpoint()
    for binding in lookup_sample:
        found = manager.lookup(binding.client.proc.pid,
                               binding.session.session_id)
        if found is not binding.session:
            raise RuntimeError("service-plane keyed probe missed a live "
                               f"session at N={sessions}")
    lookup_cycles = machine.clock.since(mark).cycles
    lookup_ops = (manager.shard_lock_acquisitions + manager.tenant_lookups
                  - ops_before)

    # -- bound-call phase ----------------------------------------------------
    call_stride = max(1, len(bindings) // CALL_SAMPLES)
    call_sample = bindings[::call_stride][:CALL_SAMPLES]
    mark = machine.clock.checkpoint()
    for index, binding in enumerate(call_sample):
        outcome = frontend.call_bound(binding.binding_id, "test_incr", index)
        if not outcome.ok:
            raise RuntimeError(f"bound call denied at N={sessions}")
    call_cycles = machine.clock.since(mark).cycles

    # -- pool-wait phase: offered load above the pool's capacity -------------
    base_us = machine.meter.profile.microseconds(machine.clock.cycles)
    for index in range(POOL_CALLS):
        outcome, _ = frontend.call_pooled(
            record, "test_incr", index,
            arrival_us=base_us + index * POOL_ARRIVAL_INTERVAL_US)
        if not outcome.ok:
            raise RuntimeError(f"pooled call failed at N={sessions}")
    pool_stats = frontend.pool(record.name).stats()

    # -- detach phase: sampled teardowns stay index walks too ----------------
    detach_stride = max(1, len(bindings) // DETACH_SAMPLES)
    detach_sample = bindings[::detach_stride][:DETACH_SAMPLES]
    mark = machine.clock.checkpoint()
    for binding in detach_sample:
        frontend.detach(binding.binding_id)
    detach_cycles = machine.clock.since(mark).cycles

    return ServePoint(
        sessions=sessions, clients=clients, tenants=tenants,
        attach_cycles=attach_cycles,
        lookup_samples=len(lookup_sample), lookup_cycles=lookup_cycles,
        lookup_ops_per_probe=lookup_ops / len(lookup_sample),
        call_samples=len(call_sample), call_cycles=call_cycles,
        detach_samples=len(detach_sample), detach_cycles=detach_cycles,
        pool_stats=pool_stats, live_sessions=live_sessions,
        handle_count=handle_count)


def run_serve_sweep(*, sessions: Sequence[int] = DEFAULT_SESSIONS,
                    tenants: int = DEFAULT_TENANTS,
                    sessions_per_client: int = DEFAULT_SESSIONS_PER_CLIENT,
                    seed: int = 0x5E21) -> ServeReport:
    """Measure the sweep: one fresh system per live-session count."""
    if not sessions or min(sessions) < 1:
        raise ValueError("session counts must be positive")
    if tenants < 1 or sessions_per_client < 1:
        raise ValueError("tenants and sessions_per_client must be >= 1")
    mhz = make_paper_machine(seed=seed).spec.mhz
    report = ServeReport(sessions=tuple(sessions), tenants=tenants,
                         sessions_per_client=sessions_per_client, mhz=mhz)
    for count in sessions:
        report.points.append(_measure_point(
            count, tenants=tenants,
            sessions_per_client=sessions_per_client, seed=seed))
    return report
