"""Backend discovery for the service plane.

The served front-end does not hard-wire its ``HandleBroker`` backends: each
set of protected modules is registered here as a *named backend*, and every
client-facing operation resolves the name through this registry — one
charged :data:`~repro.sim.costs.SERVE_BACKEND_RESOLVE` per resolution,
matching what a production service mesh pays for a registry/DNS hop.

Health checking is deliberately cheap and observational: a probe charges
one :data:`~repro.sim.costs.SERVE_HEALTH_PROBE` and inspects the broker's
pool for the backend's module set (via the broker's O(pool) public view
and each handle's O(1) seat counter).  A backend whose every pooled handle
has died is marked ``down``; operators may also mark backends ``draining``
(no new bindings, existing attachments keep serving) or force states by
hand.  State transitions are mirrored to telemetry, never to the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import SimulationError
from ..secmodule.handle_pool import HandlePolicy
from ..sim import costs

#: backend lifecycle states
STATE_UP = "up"
STATE_DRAINING = "draining"
STATE_DOWN = "down"

_STATES = (STATE_UP, STATE_DRAINING, STATE_DOWN)

#: integer wire codes for the RPC ``serve_probe`` procedure (args are ints)
STATE_CODES = {STATE_UP: 0, STATE_DRAINING: 1, STATE_DOWN: 2}


def render_policy(policy: HandlePolicy) -> str:
    """The spec-string form of a handle policy (inverse of ``parse``)."""
    if policy.kind == "pooled":
        return f"pooled:{policy.max_sessions}"
    return policy.kind


@dataclass
class BackendRecord:
    """One named backend: a module set served through the handle broker."""

    backend_id: int
    name: str
    modules: Tuple[object, ...]          # RegisteredModule tuple
    policy: HandlePolicy
    state: str = STATE_UP
    probes: int = 0
    #: per-backend circuit breaker (control/overload.py), attached by the
    #: front-end when its OverloadConfig enables breakers; None = none
    breaker: object = None
    #: m_id -> that module definition's live ``functions_by_id``, so an
    #: RPC's ``(m_id, func_id)`` resolves with two dict probes
    functions: Dict[int, Dict[int, object]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.functions = {}
        for module in self.modules:
            self.functions.setdefault(module.m_id,
                                      module.definition.functions_by_id)

    @property
    def module_names(self) -> Tuple[str, ...]:
        return tuple(module.name for module in self.modules)


@dataclass(frozen=True)
class HealthReport:
    """One probe's view of a backend."""

    backend: str
    state: str
    handles: int             # pool members, live or not
    live_handles: int
    seated_sessions: int     # sessions currently seated on live handles


class BackendRegistry:
    """Named-backend registry + health checker over the handle broker."""

    def __init__(self, kernel, extension, *,
                 charge_ops: bool = True) -> None:
        self.kernel = kernel
        self.extension = extension
        #: charge the SERVE_* registry ops; off reproduces the direct
        #: (service-plane-compiled-out) charge sequence exactly
        self.charge_ops = charge_ops
        #: the machine's observation plane (never charges the clock)
        self.telemetry = kernel.machine.telemetry
        self._by_name: Dict[str, BackendRecord] = {}
        self._by_id: Dict[int, BackendRecord] = {}
        self._next_id = 1
        # observability
        self.resolutions = 0
        self.probes = 0

    # ------------------------------------------------------------ registration
    def register(self, name: str, modules: Sequence, *,
                 policy: Union[HandlePolicy, str] = "pooled:64"
                 ) -> BackendRecord:
        """Name a module set as a served backend.

        Registration is control-plane work (uncharged); it also performs the
        module-owner act of registering the handle-sharing policy with the
        broker, exactly as a directly-wired module owner would.
        """
        if name in self._by_name:
            raise SimulationError(f"backend {name!r} already registered")
        if not modules:
            raise SimulationError("a backend must serve at least one module")
        parsed = HandlePolicy.parse(policy)
        record = BackendRecord(backend_id=self._next_id, name=name,
                               modules=tuple(modules), policy=parsed)
        self._next_id += 1
        for module in record.modules:
            self.extension.broker.register_policy(module.name, parsed)
        self._by_name[name] = record
        self._by_id[record.backend_id] = record
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.record_backend_state(name, STATE_UP)
        return record

    # -------------------------------------------------------------- resolution
    def resolve(self, ref: Union[str, int, BackendRecord]) -> BackendRecord:
        """Name or id -> record: one charged registry lookup.

        Resolution succeeds regardless of state — callers decide whether a
        draining or down backend may serve their operation.
        """
        telemetry = self.telemetry
        span = telemetry.start("serve.resolve") if telemetry.enabled else None
        if self.charge_ops:
            self.kernel.machine.charge(costs.SERVE_BACKEND_RESOLVE)
        self.resolutions += 1
        if span is not None:
            telemetry.finish(span)
        if isinstance(ref, BackendRecord):
            return ref
        record = (self._by_id.get(ref) if isinstance(ref, int)
                  else self._by_name.get(ref))
        if record is None:
            raise SimulationError(f"unknown backend {ref!r}")
        return record

    def peek(self, ref: Union[str, int, BackendRecord]
             ) -> Optional[BackendRecord]:
        """Uncharged record lookup for control-plane bookkeeping (retry
        budget routing, status surfaces) — never use on the data path."""
        if isinstance(ref, BackendRecord):
            return ref
        return (self._by_id.get(ref) if isinstance(ref, int)
                else self._by_name.get(ref))

    # ------------------------------------------------------------------ health
    def health_check(self, ref: Union[str, int, BackendRecord]
                     ) -> HealthReport:
        """Probe one backend: pool membership, liveness, seat occupancy.

        A backend whose pool exists but holds no live handle transitions to
        ``down``; a (re)populated pool brings it back ``up``.  ``draining``
        is operator state and is never overridden by a probe.
        """
        telemetry = self.telemetry
        span = telemetry.start("serve.health") if telemetry.enabled else None
        if self.charge_ops:
            self.kernel.machine.charge(costs.SERVE_HEALTH_PROBE)
        if span is not None:
            telemetry.finish(span)
        record = ref if isinstance(ref, BackendRecord) else (
            self._by_id.get(ref) if isinstance(ref, int)
            else self._by_name.get(ref))
        if record is None:
            raise SimulationError(f"unknown backend {ref!r}")
        members = self.extension.broker.pool_members(record.modules)
        live = [handle for handle in members if handle.proc.alive]
        seated = sum(handle.session_count for handle in live)
        if record.state != STATE_DRAINING:
            probed = STATE_DOWN if (members and not live) else STATE_UP
            if probed != record.state:
                record.state = probed
                if telemetry.enabled:
                    telemetry.record_backend_state(record.name, probed)
        record.probes += 1
        self.probes += 1
        return HealthReport(backend=record.name, state=record.state,
                            handles=len(members), live_handles=len(live),
                            seated_sessions=seated)

    # ------------------------------------------------------------- state admin
    def _set_state(self, ref, state: str) -> BackendRecord:
        if state not in _STATES:
            raise SimulationError(f"unknown backend state {state!r}")
        record = ref if isinstance(ref, BackendRecord) else (
            self._by_id.get(ref) if isinstance(ref, int)
            else self._by_name.get(ref))
        if record is None:
            raise SimulationError(f"unknown backend {ref!r}")
        if record.state != state:
            record.state = state
            if self.telemetry.enabled:
                self.telemetry.record_backend_state(record.name, state)
        return record

    def mark_up(self, ref) -> BackendRecord:
        return self._set_state(ref, STATE_UP)

    def mark_draining(self, ref) -> BackendRecord:
        return self._set_state(ref, STATE_DRAINING)

    def mark_down(self, ref) -> BackendRecord:
        return self._set_state(ref, STATE_DOWN)

    # ------------------------------------------------------------------- views
    def backends(self) -> List[BackendRecord]:
        return [self._by_id[backend_id] for backend_id in sorted(self._by_id)]

    def __len__(self) -> int:
        return len(self._by_id)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Charge-free registry view for status surfaces."""
        out: Dict[str, Dict[str, object]] = {}
        for record in self.backends():
            entry: Dict[str, object] = {
                "backend_id": record.backend_id,
                "state": record.state,
                "modules": list(record.module_names),
                "policy": render_policy(record.policy),
                "probes": record.probes,
            }
            if record.breaker is not None:
                entry["breaker"] = record.breaker.snapshot()
            out[record.name] = entry
        return out
