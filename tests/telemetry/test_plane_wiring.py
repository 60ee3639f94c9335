"""The observation plane lives on the machine: no component misses it.

Each component reads the plane from ``kernel.machine`` and the sinks are
switched on in place, so what a run observes does not depend on when
observation was switched on or on which objects were handed a plane.
"""

from __future__ import annotations

from repro.control.overload import OverloadConfig, OverloadController
from repro.hw.machine import make_paper_machine
from repro.kernel.kernel import Kernel
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.libc_conversion import build_test_module
from repro.secmodule.protection import ProtectionMode
from repro.secmodule.smod_syscalls import install_secmodule
from repro.serve.attachment_pool import PoolConfig
from repro.serve.frontend import ServiceConfig, ServiceFrontend


def _switch_on(machine) -> None:
    machine.telemetry.enable_metrics()
    machine.telemetry.enable_spans()


def test_dispatcher_admission_is_recorded():
    """A token bucket installed on the dispatcher of an observed machine
    counts its verdicts per client."""
    system = SecModuleSystem.create(seed=0xAD31, include_libc=False)
    system.machine.telemetry.enable_metrics()
    system.extension.dispatcher.overload = OverloadController(
        OverloadConfig(admission_rate_per_us=0.0005, admission_burst=2.0))
    for index in range(10):
        system.call_outcome("test_incr", index)
    counters = system.machine.telemetry.snapshot()["counters"]
    pid = system.client_proc.pid
    assert counters[f"smod_admission.admitted{{client={pid}}}"] == 2
    assert counters[f"smod_admission.refused{{client={pid}}}"] == 8


def _serve_demo(switch_on_first: bool):
    """The serve-status demo's overloaded front-end: 3 attaches, 40 pooled
    calls 1 us apart and a status probe, observed from before or after
    the front-end is built."""
    machine = make_paper_machine(seed=0x5E7E)
    kernel = Kernel(machine=machine).boot()
    extension = install_secmodule(kernel)
    registered = extension.registry.register(
        build_test_module(), uid=0, protection=ProtectionMode.ENCRYPT)
    if switch_on_first:
        _switch_on(machine)
    frontend = ServiceFrontend(kernel, extension, config=ServiceConfig(
        pool=PoolConfig(max_attachments=2),
        overload=OverloadConfig(deadline_us=12.0, breaker_window_us=100.0,
                                retry_budget=4)))
    if not switch_on_first:
        _switch_on(machine)
    record = frontend.register_backend("secmodule", [registered])
    for index in range(3):
        frontend.attach(record, tenant=index % 2)
    base_us = machine.meter.profile.microseconds(machine.clock.cycles)
    for index in range(40):
        frontend.call_pooled(record, "test_incr", index,
                             arrival_us=base_us + index * 1.0)
    frontend.status()
    telemetry = machine.telemetry
    return (telemetry.snapshot(),
            [span.to_dict() for span in telemetry.tracer.spans()])


def test_late_switch_on_observes_the_service_plane():
    early = _serve_demo(switch_on_first=True)
    late = _serve_demo(switch_on_first=False)
    assert late == early
    metrics, spans = late
    counters = metrics["counters"]
    for key in ("serve_backend_state.up{backend=secmodule}",
                "serve_breaker_state.open{backend=secmodule}",
                "serve_sheds.deadline{scope=secmodule}"):
        assert counters[key] > 0
    assert metrics["histograms"]["serve_pool_wait_us{backend=secmodule}"][
        "count"] > 0
    assert sorted({span["kind"] for span in spans}) == [
        "dispatch.call", "pool.checkout", "pool.shed", "rpc.attach",
        "serve.breaker.open", "serve.health", "serve.pooled",
        "serve.resolve"]
