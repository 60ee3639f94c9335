"""Digest table of the observation the traffic digests do not reach.

``tests/workloads/test_traffic_digests.py`` pins every traffic loop, but
several taps never run there: the service plane under overload (pool
waits, refusals and sheds, breaker transitions, retry budgets), backend
state transitions and health probes, token-bucket admission on the
dispatcher, the batch flush's two early returns, and decision-cache
evictions and invalidations.  Each case below drives one of them with
metrics and spans switched on and folds the run into a digest: the
metrics snapshot, every kept span (``Span.to_dict``), the tracer stats,
the clock's cycles and events, and the op counts.  Figure 1's rendered
event log rides along.  The digests are compared with
``observation_digests.json`` beside this file.

Only the code that switches observation on may change with the wiring
API; the table may not.  Regenerate with::

    PYTHONPATH=src python tests/telemetry/test_observation_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import sys
from typing import Callable, Dict, List, Tuple

import pytest

from repro.bench.figures123 import reproduce_figure1
from repro.control.overload import OverloadConfig, OverloadController
from repro.hw.machine import make_paper_machine
from repro.kernel.kernel import Kernel
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import DispatchConfig
from repro.secmodule.libc_conversion import build_test_module
from repro.secmodule.policy import (CompositePolicy, PrincipalAllowPolicy,
                                    UidAllowPolicy)
from repro.secmodule.protection import ProtectionMode
from repro.secmodule.smod_syscalls import install_secmodule
from repro.serve.attachment_pool import PoolConfig
from repro.serve.frontend import ServiceConfig, ServiceFrontend
from repro.telemetry import Telemetry
from repro.userland.process import Program
from repro.workloads.traffic import TrafficEngine, TrafficSpec

TABLE = pathlib.Path(__file__).with_name("observation_digests.json")
DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "tracing.md"

#: the ``repro serve status`` demo's overload protection
DEMO_OVERLOAD = OverloadConfig(deadline_us=12.0, breaker_window_us=100.0,
                               retry_budget=4)


# ------------------------------------------------------------------ wiring
def _observe(machine) -> Telemetry:
    """Switch metrics and spans on, in place, on the machine's plane."""
    telemetry = machine.telemetry
    telemetry.enable_metrics()
    telemetry.enable_spans()
    return telemetry


def _frontend(kernel, extension, **config) -> ServiceFrontend:
    return ServiceFrontend(kernel, extension, config=ServiceConfig(**config))


# ------------------------------------------------------------------- cases
def _boot(seed: int):
    machine = make_paper_machine(seed=seed)
    kernel = Kernel(machine=machine).boot()
    extension = install_secmodule(kernel)
    _observe(machine)
    registered = extension.registry.register(
        build_test_module(), uid=0, protection=ProtectionMode.ENCRYPT)
    return machine, kernel, extension, registered


def _now_us(machine) -> float:
    return machine.meter.profile.microseconds(machine.clock.cycles)


def case_frontend_overload():
    """The serve-status demo's front-end, overloaded: pooled calls 1 us
    apart, bound calls, then RPC stubs until a retry budget runs dry."""
    machine, kernel, extension, registered = _boot(0x0B5E)
    frontend = _frontend(kernel, extension,
                         pool=PoolConfig(max_attachments=2),
                         overload=DEMO_OVERLOAD)
    record = frontend.register_backend("secmodule", [registered])
    bindings = [frontend.attach(record, tenant=index % 2)
                for index in range(3)]
    base_us = _now_us(machine)
    for index in range(40):
        frontend.call_pooled(record, "test_incr", index,
                             arrival_us=base_us + index * 1.0)
    for binding in bindings:
        frontend.call_bound(binding.binding_id, "test_incr", 7)
    frontend.detach(bindings[-1].binding_id)
    func_id = registered.definition.function("test_incr").func_id
    stub = frontend.make_client(
        Program.spawn(kernel, "rpc-client", uid=1000).proc)
    budget = frontend.retry_budget("secmodule")
    rpc_base_us = _now_us(machine)
    for index in range(200):
        # every first attempt arrives at one instant, so the pool's queue
        # outgrows the deadline, the breaker opens and EAGAINs are retried
        frontend.note_arrival(rpc_base_us)
        stub.call("serve_call_pooled", record.backend_id, registered.m_id,
                  func_id, index)
        if budget.exhaustions:
            break
    stub.call("serve_attach", record.backend_id, 0)
    frontend.status()
    return machine


def case_pool_refuses():
    """A pool that refuses on overflow, and one with no attachments, each
    behind a front-end of its own (a front-end gives every backend its
    ``ServiceConfig.pool``)."""
    machine, kernel, extension, registered = _boot(0x0B5F)
    refusing = _frontend(kernel, extension, pool=PoolConfig(
        max_attachments=1, overflow="refuse"))
    full = refusing.register_backend("refusing", [registered])
    no_seats = _frontend(kernel, extension,
                         pool=PoolConfig(max_attachments=0))
    empty = no_seats.register_backend("empty", [registered])
    base_us = _now_us(machine)
    for index in range(6):
        refusing.call_pooled(full, "test_incr", index,
                             arrival_us=base_us + index * 0.5)
    no_seats.call_pooled(empty, "test_incr", 1, arrival_us=base_us)
    return machine


def case_backend_lifecycle():
    """A backend taken to draining, then down, then health-probed."""
    machine, kernel, extension, registered = _boot(0x0B60)
    frontend = _frontend(kernel, extension)
    record = frontend.register_backend("lifecycle", [registered])
    frontend.call_pooled(record, "test_incr", 1)
    registry = frontend.registry
    registry.mark_draining(record)
    registry.health_check(record)
    registry.mark_down(record)
    frontend.call_pooled(record, "test_incr", 2)
    registry.health_check(record)
    for handle in extension.broker.pool_members(record.modules):
        handle.kill()
    registry.health_check(record)
    frontend.status()
    return machine


def case_admission():
    """A token bucket on the dispatcher: 10 single calls, then batches."""
    system = SecModuleSystem.create(seed=0x0B61, include_libc=False)
    _observe(system.machine)
    system.extension.dispatcher.overload = OverloadController(
        OverloadConfig(admission_rate_per_us=0.0005, admission_burst=2.0))
    for index in range(10):
        system.call_outcome("test_incr", index)
    batch = DispatchConfig(batch_size=4)
    dispatcher = system.extension.dispatcher
    dispatcher.call_batch(system.session, [("test_incr", (1,))] * 3,
                          config=batch)
    system.machine.idle(int(20000 * system.machine.spec.mhz))
    dispatcher.call_batch(system.session, [("test_incr", (2,))] * 2,
                          config=batch)
    return system.machine


def case_batch_early_returns():
    """A queue of unknown names only, and a queue rejected whole."""
    system = SecModuleSystem.create(seed=0x0B62, include_libc=False)
    _observe(system.machine)
    dispatcher = system.extension.dispatcher
    batch = DispatchConfig(batch_size=4)
    session = system.session
    dispatcher.call_batch(session, [("test_incr", (1,)), ("test_null", ())],
                          config=batch)
    dispatcher.call_batch(session, [("no_such", ()), ("nor_this", ())],
                          config=batch)
    system.extension.sessions.teardown(session, kill_handle=False)
    dispatcher.call_batch(session, [("test_incr", (2,)), ("test_null", ())],
                          config=batch)
    return system.machine


def case_decision_cache():
    """A one-entry decision cache that evicts, then a teardown and a
    module removal."""
    policy = CompositePolicy([UidAllowPolicy([1000]),
                              PrincipalAllowPolicy(["alice"])])
    system = SecModuleSystem.create(seed=0x0B63, include_libc=False,
                                    policy=policy)
    _observe(system.machine)
    cache = system.extension.decision_cache
    cache.capacity_per_session = 1
    for name, args in (("test_incr", (1,)), ("test_incr", (2,)),
                       ("test_null", ()), ("test_incr", (3,)),
                       ("test_null", ()), ("test_null", ())):
        system.call_outcome(name, *args)
    extra = system.open_extra_session()
    system.extension.dispatcher.call(extra, "test_incr", 4)
    system.extension.sessions.teardown(extra)
    system.extension.dispatcher.call(system.session, "test_null")
    m_id = next(iter(system.session.modules))
    kernel = system.kernel
    kernel.syscall(kernel.proc0, "smod_remove", m_id, None)
    return system.machine


def case_aimd():
    """A small AIMD run with seat-queue shedding: the controller's depth
    gauge and the broker's shed span."""
    engine = TrafficEngine(TrafficSpec(
        clients=2, modules=1, calls_per_client=24, arrival="mmpp",
        mean_interval_us=30.0, burst_interval_us=1.0, burst_on_us=60.0,
        burst_off_us=200.0, adaptive_batch=True, adaptive_max_depth=8,
        shed_deadline_us=4.0, telemetry=True, tracing=True, seed=0x0B64))
    engine.run()
    return engine.machine


CASES: Dict[str, Callable[[], object]] = {
    "frontend-overload": case_frontend_overload,
    "pool-refuses": case_pool_refuses,
    "backend-lifecycle": case_backend_lifecycle,
    "admission": case_admission,
    "batch-early-returns": case_batch_early_returns,
    "decision-cache": case_decision_cache,
    "aimd": case_aimd,
}


# ------------------------------------------------------------------ digests
def _sha(value) -> str:
    data = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(data).hexdigest()


def digest(name: str) -> Tuple[Dict[str, object], List[str]]:
    """Run one case; return its digest and the kinds of its kept spans."""
    machine = CASES[name]()
    telemetry = machine.telemetry
    tracer = telemetry.tracer
    spans = tracer.spans()
    kinds: Dict[str, int] = {}
    for span in spans:
        kinds[span.kind] = kinds.get(span.kind, 0) + 1
    return {
        "cycles": machine.clock.cycles,
        "events": machine.clock.events,
        "ops": dict(sorted(machine.meter.op_counts.items())),
        "metrics": json.loads(json.dumps(telemetry.snapshot())),
        "spans": _sha([span.to_dict() for span in spans]),
        "span_kinds": dict(sorted(kinds.items())),
        "trace_stats": tracer.stats(),
    }, sorted(kinds)


def figure1_digest() -> Dict[str, object]:
    text = reproduce_figure1().render()
    return {"sha": hashlib.sha256(text.encode()).hexdigest(),
            "lines": len(text.splitlines())}


def _tap_names() -> List[str]:
    return sorted(name for name in vars(Telemetry)
                  if name.startswith("record_"))


@pytest.fixture(scope="module")
def observed():
    """Run every case once, counting each ``Telemetry.record_*`` tap."""
    reached: Dict[str, int] = {}
    with pytest.MonkeyPatch.context() as patch:
        for tap in _tap_names():
            original = getattr(Telemetry, tap)

            def counted(self, *args, _tap=tap, _original=original, **kw):
                reached[_tap] = reached.get(_tap, 0) + 1
                return _original(self, *args, **kw)

            patch.setattr(Telemetry, tap, counted)
        runs = {name: digest(name) for name in CASES}
    return runs, reached


@pytest.fixture(scope="module")
def table() -> Dict[str, Dict[str, object]]:
    return json.loads(TABLE.read_text())


def test_table_covers_every_case(table):
    assert sorted(table) == sorted(list(CASES) + ["figure1"])


@pytest.mark.parametrize("case", list(CASES))
def test_digest_is_unchanged(case, table, observed):
    runs, _ = observed
    assert runs[case][0] == table[case]


def test_figure1_render_is_unchanged(table):
    assert figure1_digest() == table["figure1"]


def test_every_tap_is_reached(observed):
    _, reached = observed
    assert [tap for tap in _tap_names() if not reached.get(tap)] == []


def _documented_kinds() -> List[str]:
    """Span kinds in the tap-point table of ``docs/tracing.md``."""
    text = DOCS.read_text()
    section = text.split("## Tap points", 1)[1].split("\n## ", 1)[0]
    kinds: List[str] = []
    for row in section.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[1].startswith("`"):
            kinds.extend(re.findall(r"`([^`]+)`", cells[1]))
    return kinds


def test_every_documented_span_kind_is_reached(observed):
    runs, _ = observed
    seen = {kind for _, kinds in runs.values() for kind in kinds}
    documented = _documented_kinds()
    assert documented
    # ``rpc.<procedure>`` and ``serve.breaker.<state>`` name families
    patterns = {kind: re.sub(r"<[^>]+>", ".+", re.escape(kind))
                for kind in documented}
    missing = [kind for kind, pattern in patterns.items()
               if not any(re.fullmatch(pattern, name) for name in seen)]
    assert missing == []


def _regenerate() -> None:
    out: Dict[str, object] = {name: digest(name)[0] for name in CASES}
    out["figure1"] = figure1_digest()
    TABLE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {TABLE}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} (takes no arguments)")
    _regenerate()
