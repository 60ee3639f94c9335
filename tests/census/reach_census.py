"""Reach census: every function in ``src/repro`` runs outside ``tests/`` or
is kept by name, with a reason.

Run it from the repo root::

    python tests/census/reach_census.py

It runs, in this one process and under a profile hook on every thread,
what CI runs outside ``tests/``:

* each committed baseline's experiment as the bench gate runs it
  (``repro <id>``), then ``repro bench diff`` of the export against its
  baseline;
* CI's smoke commands, ``repro fig8 --trials 3 --sample-calls 16`` and
  ``repro analyze --format json``;
* the examples under ``examples/``;
* one smoke rep of each end-to-end workload
  (``e2e_workloads.run_rep(name, 1, smoke=True)``).

Forked pool workers (the sharded simspeed legs) inherit the hook; each
dumps what it ran when it exits, and the census folds that in.  A code
object counts as one definition's run when its file and first line
(a decorated def starts at its first decorator) match a ``def`` under
``src/repro``.  Each definition is keyed ``path::qualname``.

The census exits 1, naming each offender, when a definition is neither
reached nor in ``KEEP``, when a ``KEEP`` entry was reached, when a
``KEEP`` entry names no definition, or when a step fails.  ``KEEP`` maps
each kept function to one of the reasons below; an entry whose reason is
``pending(...)`` has no reason to stay yet and names the deletion package
it goes with, so ``KEEP`` is also the deletion plan.  Pytest does not
collect this file; ``tests/workloads/test_reach_census_keep.py`` checks
``KEEP`` against the source statically.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import json
import multiprocessing.util
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

# ------------------------------------------------------------------ reasons
#: the one-pass RPC coder's reference, which tests compare it against
REFERENCE_CODER = ("reference item coder: the tests compare the one-pass "
                   "RPC coder against it")
#: reached only by invalid or rare input, a fault or a module removal
SAFETY = ("safety: a check, fallback, error path or invalidation that only "
          "invalid or rare input, a fault or a module removal reaches")
#: kernel behaviour the model keeps although no experiment exercises it
SUBSTRATE = ("kernel substrate the model keeps (signals, faults, exec, "
             "exit and reap)")
#: observation over paths that only fire under overload or contention
TAP = ("observation tap over the pool, admission, shed, breaker or retry "
       "paths, or over fast-forward windows with spans on")
#: reached only through a knob value only tests set; it goes with that
#: knob (``tests/workloads/test_knob_census.py``)
KNOB = "reached only through a knob value only tests set"
#: a ``repro`` command, flag or output format that CI does not run
CLI_SURFACE = "a repro command, flag or output format CI does not run"
#: ``repro bench diff --update``: run by hand to re-baseline
UPDATE_BASELINES = "re-baselining command, run by hand (bench diff --update)"
#: a repr or description for debugging
DEBUG_REPR = "debugging repr or description"


def pending(package: str) -> str:
    """The reason of a function with no reason to stay yet: it goes with
    the deletion package ``package``."""
    return f"pending deletion: {package}"


# the deletion packages, one PR each
PENDING_API = pending("secmodule/api.py multi-client helpers")
PENDING_STATS = pending("sim/stats.py RunningStats and unused summary ratios")
PENDING_POOLED_RPC = pending(
    "the pooled RPC surface and the retry budget (serve/frontend.py)")
PENDING_LOADER = pending("obj/loader.py load plans")
PENDING_OBJ = pending("obj/ symbol, archive and image lookups")
PENDING_TOOLCHAIN = pending("secmodule/toolchain lookups and renderers")
PENDING_LIBC = pending("userland libc calls no experiment makes")
PENDING_CLOCKS = pending(
    "hw/ ring, TSC and machine accessors; sim/clock.py stopwatch and freeze")
PENDING_METER = pending(
    "sim/costs.py meter helpers and sim/rng.py draws no run takes")
PENDING_RPC_EXTRAS = pending(
    "rpc/ null procedure, portmap dump and unset, attribute stubs")
PENDING_REPORTS = pending("bench/ report accessors only tests read")
PENDING_POLICIES = pending(
    "policy classes no run builds (TimeWindowPolicy, DenyAllPolicy)")
PENDING_FACTORIES = pending("convenience factories only tests call")
PENDING_HELPERS = pending("accessors, dunders and helpers only tests call")

REASONS: Tuple[str, ...] = (
    REFERENCE_CODER, SAFETY, SUBSTRATE, TAP, KNOB, CLI_SURFACE,
    UPDATE_BASELINES, DEBUG_REPR, PENDING_API, PENDING_STATS,
    PENDING_POOLED_RPC, PENDING_LOADER, PENDING_OBJ, PENDING_TOOLCHAIN,
    PENDING_LIBC, PENDING_CLOCKS, PENDING_METER, PENDING_RPC_EXTRAS,
    PENDING_REPORTS, PENDING_POLICIES, PENDING_FACTORIES, PENDING_HELPERS)

#: ``path::qualname`` (path under ``src/repro``) -> reason, for every
#: function no run reaches
KEEP: Dict[str, str] = {
    # __init__.py
    "__init__.py::secmodule_system": PENDING_FACTORIES,
    # analyze/core.py
    "analyze/core.py::Checker.check": SAFETY,
    "analyze/core.py::Finding.as_dict": SAFETY,
    "analyze/core.py::Finding.render": SAFETY,
    "analyze/core.py::SourceFile.load": PENDING_HELPERS,
    "analyze/core.py::rule_catalogue": CLI_SURFACE,
    # analyze/runner.py
    "analyze/runner.py::AnalysisReport.render": CLI_SURFACE,
    "analyze/runner.py::iter_rules": CLI_SURFACE,
    # bench/ablations.py
    "bench/ablations.py::HardeningResult.point": PENDING_REPORTS,
    "bench/ablations.py::MarshallingResult.mean_us": PENDING_REPORTS,
    "bench/ablations.py::ProtectionResult.point": PENDING_REPORTS,
    # bench/diff.py
    "bench/diff.py::DiffItem.describe": SAFETY,
    # bench/figure7.py
    "bench/figure7.py::Figure7Report.hz": PENDING_REPORTS,
    "bench/figure7.py::Figure7Report.mhz": PENDING_REPORTS,
    # bench/figure8.py
    "bench/figure8.py::Figure8Row.relative_error": PENDING_REPORTS,
    # bench/figures123.py
    "bench/figures123.py::Figure3Report.slot_kinds": PENDING_REPORTS,
    # bench/harness.py
    "bench/harness.py::float_list": CLI_SURFACE,
    "bench/harness.py::full_report": CLI_SURFACE,
    "bench/harness.py::int_list": CLI_SURFACE,
    "bench/harness.py::run_all": CLI_SURFACE,
    # bench/pool.py
    "bench/pool.py::PoolReport.point": PENDING_REPORTS,
    # bench/report.py
    "bench/report.py::format_ratio": PENDING_REPORTS,
    "bench/report.py::section": CLI_SURFACE,
    # cli.py
    "cli.py::_update_baselines": UPDATE_BASELINES,
    # control/adaptive.py
    "control/adaptive.py::AdaptiveBatchController.__repr__": DEBUG_REPR,
    # control/overload.py
    "control/overload.py::OverloadConfig.deadline_enabled": PENDING_HELPERS,
    "control/overload.py::OverloadController.snapshot": TAP,
    "control/overload.py::RetryBudget.backoff_us": PENDING_POOLED_RPC,
    "control/overload.py::RetryBudget.try_consume": PENDING_POOLED_RPC,
    "control/overload.py::TokenBucket.snapshot": TAP,
    # errors.py
    "errors.py::SimulatedFault.__init__": SAFETY,
    # hw/cpu.py
    "hw/cpu.py::CPU.enter_ring": PENDING_CLOCKS,
    "hw/cpu.py::CPU.identity_line": PENDING_CLOCKS,
    "hw/cpu.py::CPU.require_ring": PENDING_CLOCKS,
    "hw/cpu.py::CPUFeatureFlags.has": PENDING_CLOCKS,
    "hw/cpu.py::Ring.may_access": PENDING_CLOCKS,
    "hw/cpu.py::Ring.more_privileged_than": PENDING_CLOCKS,
    # hw/machine.py
    "hw/machine.py::Machine.dmesg": PENDING_CLOCKS,
    "hw/machine.py::Machine.page_size": PENDING_CLOCKS,
    # hw/tsc.py
    "hw/tsc.py::TimestampCounter.cycles_to_microseconds": PENDING_CLOCKS,
    "hw/tsc.py::TimestampCounter.elapsed_cycles": PENDING_CLOCKS,
    "hw/tsc.py::TimestampCounter.elapsed_microseconds": PENDING_CLOCKS,
    "hw/tsc.py::TimestampCounter.microseconds_to_cycles": PENDING_CLOCKS,
    "hw/tsc.py::TimestampCounter.read": PENDING_CLOCKS,
    # kernel/coredump.py
    "kernel/coredump.py::CoreImage.total_bytes": SUBSTRATE,
    # kernel/cred.py
    "kernel/cred.py::Ucred.is_root": PENDING_HELPERS,
    "kernel/cred.py::Ucred.member_of": PENDING_HELPERS,
    "kernel/cred.py::Ucred.with_uid": PENDING_HELPERS,
    # kernel/errno.py
    "kernel/errno.py::SyscallResult.ok": PENDING_HELPERS,
    # kernel/kernel.py
    "kernel/kernel.py::Kernel.crash_process": SUBSTRATE,
    "kernel/kernel.py::Kernel.exec_process": SUBSTRATE,
    "kernel/kernel.py::Kernel.reap": SUBSTRATE,
    "kernel/kernel.py::make_booted_kernel": PENDING_FACTORIES,
    # kernel/proc.py
    "kernel/proc.py::ProcTable.__contains__": PENDING_HELPERS,
    "kernel/proc.py::ProcTable.children_of": SUBSTRATE,
    "kernel/proc.py::ProcTable.remove": SUBSTRATE,
    # kernel/sched.py
    "kernel/sched.py::ReadyQueue.__iter__": PENDING_HELPERS,
    "kernel/sched.py::ReadyQueue.__len__": PENDING_HELPERS,
    "kernel/sched.py::Scheduler.is_suspended": PENDING_HELPERS,
    "kernel/sched.py::Scheduler.run_queue_length": PENDING_HELPERS,
    "kernel/sched.py::Scheduler.sleeping_on": PENDING_HELPERS,
    # kernel/signals.py
    "kernel/signals.py::SignalSystem.action_for": SUBSTRATE,
    "kernel/signals.py::SignalSystem.deliver_pending": SUBSTRATE,
    "kernel/signals.py::SignalSystem.pending": SUBSTRATE,
    "kernel/signals.py::SignalSystem.post": SUBSTRATE,
    "kernel/signals.py::SignalSystem.set_action": SUBSTRATE,
    # kernel/syscall.py
    "kernel/syscall.py::SyscallTable.count": PENDING_HELPERS,
    # kernel/syscalls/mem_calls.py
    "kernel/syscalls/mem_calls.py::sys_mmap_anon": SUBSTRATE,
    "kernel/syscalls/mem_calls.py::sys_munmap": SUBSTRATE,
    # kernel/syscalls/msg_calls.py
    "kernel/syscalls/msg_calls.py::sys_msgctl_rmid": SUBSTRATE,
    "kernel/syscalls/msg_calls.py::sys_msgget": SUBSTRATE,
    "kernel/syscalls/msg_calls.py::sys_msgrcv": SUBSTRATE,
    "kernel/syscalls/msg_calls.py::sys_msgsnd": SUBSTRATE,
    # kernel/syscalls/proc_calls.py
    "kernel/syscalls/proc_calls.py::sys_execve": SUBSTRATE,
    "kernel/syscalls/proc_calls.py::sys_exit": SUBSTRATE,
    "kernel/syscalls/proc_calls.py::sys_fork": SUBSTRATE,
    "kernel/syscalls/proc_calls.py::sys_getppid": SUBSTRATE,
    "kernel/syscalls/proc_calls.py::sys_kill": SUBSTRATE,
    "kernel/syscalls/proc_calls.py::sys_wait4": SUBSTRATE,
    # kernel/sysv_msg.py
    "kernel/sysv_msg.py::Message.words": PENDING_HELPERS,
    "kernel/sysv_msg.py::MessageQueue.find": SUBSTRATE,
    "kernel/sysv_msg.py::MessageQueue.queued_bytes": PENDING_HELPERS,
    "kernel/sysv_msg.py::SysVMsgSystem.block_receiver": SUBSTRATE,
    # kernel/uvm/fault.py
    "kernel/uvm/fault.py::FaultResult.fatal": SUBSTRATE,
    "kernel/uvm/fault.py::fault_or_die": SUBSTRATE,
    "kernel/uvm/fault.py::uvm_fault": SUBSTRATE,
    # kernel/uvm/layout.py
    "kernel/uvm/layout.py::AddressSpaceLayout.shared_window": SUBSTRATE,
    "kernel/uvm/layout.py::in_secret_region": SUBSTRATE,
    "kernel/uvm/layout.py::in_share_region": SUBSTRATE,
    "kernel/uvm/layout.py::pages_in": SUBSTRATE,
    # kernel/uvm/map.py
    "kernel/uvm/map.py::VMMap.__len__": PENDING_HELPERS,
    "kernel/uvm/map.py::VMMap.protect": SUBSTRATE,
    "kernel/uvm/map.py::VMMap.total_mapped_bytes": PENDING_HELPERS,
    "kernel/uvm/map.py::VMMap.uvm_map_internal": SUBSTRATE,
    # kernel/uvm/page.py
    "kernel/uvm/page.py::AMap.__len__": PENDING_HELPERS,
    "kernel/uvm/page.py::AMap.add": SUBSTRATE,
    "kernel/uvm/page.py::Anon.ref": SUBSTRATE,
    "kernel/uvm/page.py::Anon.unref": SUBSTRATE,
    "kernel/uvm/page.py::PageAllocator.free": SUBSTRATE,
    "kernel/uvm/page.py::PageAllocator.free_pages": PENDING_HELPERS,
    "kernel/uvm/page.py::PhysicalPage.touched": PENDING_HELPERS,
    "kernel/uvm/page.py::UVMObject.read_page": SUBSTRATE,
    "kernel/uvm/page.py::UVMObject.size": PENDING_HELPERS,
    # kernel/uvm/space.py
    "kernel/uvm/space.py::VMSpace.grow_stack": SUBSTRATE,
    # obj/archive.py
    "obj/archive.py::Archive.__iter__": PENDING_HELPERS,
    "obj/archive.py::Archive.__len__": PENDING_HELPERS,
    "obj/archive.py::Archive.function_symbols": PENDING_OBJ,
    "obj/archive.py::Archive.global_symbols": PENDING_OBJ,
    "obj/archive.py::Archive.member": PENDING_OBJ,
    "obj/archive.py::Archive.member_defining": PENDING_OBJ,
    "obj/archive.py::Archive.total_text_bytes": PENDING_OBJ,
    # obj/crt0.py
    "obj/crt0.py::make_standard_crt0": PENDING_FACTORIES,
    # obj/image.py
    "obj/image.py::ObjectImage.find_symbol": PENDING_OBJ,
    "obj/image.py::ObjectImage.function_symbols": PENDING_OBJ,
    "obj/image.py::ObjectImage.global_function_names": PENDING_OBJ,
    "obj/image.py::ObjectImage.total_size": PENDING_OBJ,
    "obj/image.py::Section.read_word": PENDING_OBJ,
    # obj/linker.py
    "obj/linker.py::LinkResult.address_of": PENDING_OBJ,
    # obj/loader.py
    "obj/loader.py::LoadPlan.data_segments": PENDING_LOADER,
    "obj/loader.py::LoadPlan.overlaps": PENDING_LOADER,
    "obj/loader.py::LoadPlan.segment": PENDING_LOADER,
    "obj/loader.py::LoadPlan.text_segments": PENDING_LOADER,
    "obj/loader.py::LoadPlan.total_pages": PENDING_LOADER,
    "obj/loader.py::LoadSegment.end": PENDING_LOADER,
    "obj/loader.py::LoadSegment.pages": PENDING_LOADER,
    "obj/loader.py::_round_up": PENDING_LOADER,
    "obj/loader.py::build_load_plan": PENDING_LOADER,
    # obj/symbols.py
    "obj/symbols.py::SymbolTable.__contains__": PENDING_HELPERS,
    "obj/symbols.py::SymbolTable.__len__": PENDING_HELPERS,
    "obj/symbols.py::SymbolTable.from_images": PENDING_OBJ,
    "obj/symbols.py::SymbolTable.function_names": PENDING_OBJ,
    "obj/symbols.py::SymbolTable.lookup": PENDING_OBJ,
    "obj/symbols.py::SymbolTable.require": PENDING_OBJ,
    "obj/symbols.py::SymbolTable.undefined_references": PENDING_OBJ,
    # rpc/client.py
    "rpc/client.py::RpcClient.null_call": PENDING_RPC_EXTRAS,
    # rpc/message.py
    "rpc/message.py::CallMessage._decode_items": REFERENCE_CODER,
    "rpc/message.py::CallMessage._encode_items": REFERENCE_CODER,
    "rpc/message.py::OpaqueAuth.decode": REFERENCE_CODER,
    "rpc/message.py::OpaqueAuth.encode": REFERENCE_CODER,
    "rpc/message.py::ReplyMessage._decode_items": REFERENCE_CODER,
    "rpc/message.py::ReplyMessage._encode_items": REFERENCE_CODER,
    # rpc/portmap.py
    "rpc/portmap.py::Portmapper.__len__": PENDING_HELPERS,
    "rpc/portmap.py::Portmapper.dump": PENDING_RPC_EXTRAS,
    "rpc/portmap.py::Portmapper.unset": PENDING_RPC_EXTRAS,
    # rpc/rpcgen.py
    "rpc/rpcgen.py::BoundClient.__getattr__": PENDING_RPC_EXTRAS,
    "rpc/rpcgen.py::BoundClient._backoff": PENDING_POOLED_RPC,
    "rpc/rpcgen.py::InterfaceDefinition.definition_text": PENDING_RPC_EXTRAS,
    # rpc/server.py
    "rpc/server.py::nullproc": PENDING_RPC_EXTRAS,
    # rpc/transport.py
    "rpc/transport.py::LoopbackNetwork.close": PENDING_RPC_EXTRAS,
    # rpc/xdr.py
    "rpc/xdr.py::XdrDecoder.__init__": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder._charge": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder._take": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder.done": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder.get_bool": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder.get_hyper": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder.get_int": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder.get_int_array": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder.get_opaque": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder.get_string": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder.get_uint": REFERENCE_CODER,
    "rpc/xdr.py::XdrDecoder.remaining": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder.__init__": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder._charge": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder.getvalue": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder.put_bool": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder.put_hyper": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder.put_int": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder.put_int_array": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder.put_opaque": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder.put_string": REFERENCE_CODER,
    "rpc/xdr.py::XdrEncoder.put_uint": REFERENCE_CODER,
    "rpc/xdr.py::_pad": REFERENCE_CODER,
    # secmodule/api.py
    "secmodule/api.py::SecModuleSystem.attach_client": PENDING_API,
    "secmodule/api.py::SecModuleSystem.create_multi": PENDING_API,
    "secmodule/api.py::SecModuleSystem.elapsed_microseconds": PENDING_API,
    "secmodule/api.py::SecModuleSystem.fork_client": PENDING_API,
    "secmodule/api.py::SecModuleSystem.handle_count": PENDING_API,
    "secmodule/api.py::SecModuleSystem.open_extra_session": PENDING_API,
    "secmodule/api.py::SecModuleSystem.operation_counts": PENDING_API,
    "secmodule/api.py::SecModuleSystem.teardown": PENDING_API,
    # secmodule/crypto.py
    "secmodule/crypto.py::EncryptedModuleText.total_protected_bytes": PENDING_HELPERS,
    # secmodule/decision_cache.py
    "secmodule/decision_cache.py::DecisionCache.invalidate_all": SAFETY,
    "secmodule/decision_cache.py::DecisionCache.invalidate_module": SAFETY,
    "secmodule/decision_cache.py::DecisionCache.session_entry_count": PENDING_HELPERS,
    # secmodule/dispatch.py
    "secmodule/dispatch.py::BatchOutcome.__len__": PENDING_HELPERS,
    "secmodule/dispatch.py::BatchOutcome.__repr__": DEBUG_REPR,
    "secmodule/dispatch.py::BatchOutcome.values": PENDING_HELPERS,
    "secmodule/dispatch.py::SmodDispatcher._abort_trace_recording": SAFETY,
    "secmodule/dispatch.py::TraceCache.__len__": PENDING_HELPERS,
    "secmodule/dispatch.py::TraceCache._unindex": SAFETY,
    "secmodule/dispatch.py::TraceCache.discard_model": SAFETY,
    "secmodule/dispatch.py::TraceCache.invalidate_all": SAFETY,
    "secmodule/dispatch.py::TraceCache.invalidate_module": SAFETY,
    # secmodule/handle.py
    "secmodule/handle.py::Handle.clients": PENDING_HELPERS,
    "secmodule/handle.py::LoadedModule.m_id": PENDING_HELPERS,
    # secmodule/handle_pool.py
    "secmodule/handle_pool.py::HandleBroker.admit_delay": KNOB,
    # secmodule/keynote.py
    "secmodule/keynote.py::KeyNotePolicy.describe": DEBUG_REPR,
    "secmodule/keynote.py::example_policy_set": PENDING_FACTORIES,
    # secmodule/libc_conversion.py
    "secmodule/libc_conversion.py::_impl_calloc": PENDING_LIBC,
    "secmodule/libc_conversion.py::_impl_getppid": PENDING_LIBC,
    "secmodule/libc_conversion.py::_impl_memcmp": PENDING_LIBC,
    "secmodule/libc_conversion.py::_impl_memcpy": PENDING_LIBC,
    "secmodule/libc_conversion.py::_impl_memset": PENDING_LIBC,
    "secmodule/libc_conversion.py::_impl_realloc": PENDING_LIBC,
    "secmodule/libc_conversion.py::_impl_test_null": PENDING_LIBC,
    # secmodule/module.py
    "secmodule/module.py::CallEnvironment.charge": PENDING_HELPERS,
    "secmodule/module.py::SecModuleDefinition.describe": DEBUG_REPR,
    "secmodule/module.py::simple_module": PENDING_FACTORIES,
    # secmodule/policy.py
    "secmodule/policy.py::AttributePredicatePolicy.describe": DEBUG_REPR,
    "secmodule/policy.py::CompositePolicy.describe": DEBUG_REPR,
    "secmodule/policy.py::CredentialExpiryPolicy.evaluate": KNOB,
    "secmodule/policy.py::DenyAllPolicy.evaluate": PENDING_POLICIES,
    "secmodule/policy.py::Policy.evaluate": SAFETY,
    "secmodule/policy.py::PolicyDecision.__bool__": PENDING_HELPERS,
    "secmodule/policy.py::TimeWindowPolicy.__init__": PENDING_POLICIES,
    "secmodule/policy.py::TimeWindowPolicy.evaluate": PENDING_POLICIES,
    # secmodule/protection.py
    "secmodule/protection.py::ClientTextGuard.check_client_map_attempt": SAFETY,
    "secmodule/protection.py::client_read_text": SAFETY,
    # secmodule/registry.py
    "secmodule/registry.py::ModuleRegistry.__contains__": PENDING_HELPERS,
    "secmodule/registry.py::ModuleRegistry.__len__": PENDING_HELPERS,
    "secmodule/registry.py::ModuleRegistry.all_modules": PENDING_HELPERS,
    "secmodule/registry.py::ModuleRegistry.find_any_version": PENDING_HELPERS,
    "secmodule/registry.py::ModuleRegistry.remove": SAFETY,
    # secmodule/session.py
    "secmodule/session.py::Session.replace_credential": PENDING_HELPERS,
    "secmodule/session.py::Session.reset_quota": PENDING_HELPERS,
    "secmodule/session.py::SessionManager.active_sessions": PENDING_HELPERS,
    "secmodule/session.py::SessionManager.for_handle": PENDING_HELPERS,
    # secmodule/smod_syscalls.py
    "secmodule/smod_syscalls.py::SmodExtension._sys_smod_remove": SAFETY,
    "secmodule/smod_syscalls.py::SmodExtension.installed": PENDING_HELPERS,
    # secmodule/special.py
    "secmodule/special.py::classify_symbols": PENDING_TOOLCHAIN,
    "secmodule/special.py::on_exec": SUBSTRATE,
    # secmodule/stubs.py
    "secmodule/stubs.py::BatchCallFrame.__len__": PENDING_HELPERS,
    "secmodule/stubs.py::ClientStub.symbol": PENDING_HELPERS,
    "secmodule/stubs.py::SimStack.__len__": PENDING_HELPERS,
    "secmodule/stubs.py::SimStack.describe": DEBUG_REPR,
    "secmodule/stubs.py::SimStack.peek": PENDING_HELPERS,
    "secmodule/stubs.py::SimStack.pop": SAFETY,
    "secmodule/stubs.py::SimStack.push": SAFETY,
    "secmodule/stubs.py::SimStack.push_words": SAFETY,
    "secmodule/stubs.py::StubDescriptor.__str__": DEBUG_REPR,
    "secmodule/stubs.py::_step3_words": SAFETY,
    # secmodule/toolchain/link.py
    "secmodule/toolchain/link.py::link_traditional_client": PENDING_TOOLCHAIN,
    # secmodule/toolchain/objdump.py
    "secmodule/toolchain/objdump.py::objdump_pipeline_text": PENDING_TOOLCHAIN,
    # secmodule/toolchain/packer.py
    "secmodule/toolchain/packer.py::PackResult.module_name": PENDING_TOOLCHAIN,
    # secmodule/toolchain/register.py
    "secmodule/toolchain/register.py::RegistrationTool.find": PENDING_TOOLCHAIN,
    "secmodule/toolchain/register.py::RegistrationTool.remove": SAFETY,
    # secmodule/toolchain/stubgen.py
    "secmodule/toolchain/stubgen.py::StubSet.client_stub": PENDING_TOOLCHAIN,
    "secmodule/toolchain/stubgen.py::StubSet.descriptor": PENDING_TOOLCHAIN,
    "secmodule/toolchain/stubgen.py::StubSet.override_header": PENDING_TOOLCHAIN,
    # serve/attachment_pool.py
    "serve/attachment_pool.py::AttachmentPool._refuse": KNOB,
    # serve/discovery.py
    "serve/discovery.py::BackendRegistry.__len__": PENDING_HELPERS,
    "serve/discovery.py::BackendRegistry._set_state": SAFETY,
    "serve/discovery.py::BackendRegistry.mark_down": SAFETY,
    "serve/discovery.py::BackendRegistry.mark_draining": SAFETY,
    "serve/discovery.py::BackendRegistry.mark_up": SAFETY,
    "serve/discovery.py::BackendRegistry.peek": PENDING_POOLED_RPC,
    # serve/frontend.py
    "serve/frontend.py::ServiceFrontend._note_retry": TAP,
    "serve/frontend.py::ServiceFrontend._retry_budget_for_rpc": PENDING_POOLED_RPC,
    "serve/frontend.py::ServiceFrontend._rpc_call_pooled": PENDING_POOLED_RPC,
    "serve/frontend.py::ServiceFrontend._rpc_probe": PENDING_POOLED_RPC,
    "serve/frontend.py::ServiceFrontend._take_arrival": PENDING_POOLED_RPC,
    "serve/frontend.py::ServiceFrontend.note_arrival": PENDING_POOLED_RPC,
    "serve/frontend.py::ServiceFrontend.retry_budget": PENDING_POOLED_RPC,
    "serve/frontend.py::ServiceFrontend.service": PENDING_HELPERS,
    # sim/clock.py
    "sim/clock.py::Stopwatch.__init__": PENDING_CLOCKS,
    "sim/clock.py::Stopwatch.elapsed_cycles": PENDING_CLOCKS,
    "sim/clock.py::Stopwatch.elapsed_us": PENDING_CLOCKS,
    "sim/clock.py::Stopwatch.restart": PENDING_CLOCKS,
    "sim/clock.py::VirtualClock.freeze": PENDING_CLOCKS,
    "sim/clock.py::VirtualClock.frozen": PENDING_CLOCKS,
    "sim/clock.py::VirtualClock.microseconds": PENDING_CLOCKS,
    "sim/clock.py::VirtualClock.reset": PENDING_CLOCKS,
    "sim/clock.py::VirtualClock.unfreeze": PENDING_CLOCKS,
    # sim/costs.py
    "sim/costs.py::CallTrace.__repr__": DEBUG_REPR,
    "sim/costs.py::CostMeter.charge_words": PENDING_METER,
    "sim/costs.py::CostMeter.diff": PENDING_METER,
    "sim/costs.py::CostMeter.microseconds": PENDING_METER,
    "sim/costs.py::CostMeter.reset_counts": PENDING_METER,
    "sim/costs.py::CostMeter.snapshot": PENDING_METER,
    "sim/costs.py::CostProfile.scaled": PENDING_METER,
    "sim/costs.py::get_profile": PENDING_METER,
    "sim/costs.py::total_cycles": PENDING_METER,
    # sim/rng.py
    "sim/rng.py::DeterministicRNG._scalar_rounds": SAFETY,
    "sim/rng.py::DeterministicRNG.choice": PENDING_METER,
    "sim/rng.py::DeterministicRNG.normal": PENDING_METER,
    "sim/rng.py::DeterministicRNG.permutation": PENDING_METER,
    "sim/rng.py::DeterministicRNG.uniform": PENDING_METER,
    # sim/stats.py
    "sim/stats.py::MeasurementSummary.ratio_to": PENDING_STATS,
    "sim/stats.py::RunningStats.__init__": PENDING_STATS,
    "sim/stats.py::RunningStats.add": PENDING_STATS,
    "sim/stats.py::RunningStats.extend": PENDING_STATS,
    "sim/stats.py::RunningStats.maximum": PENDING_STATS,
    "sim/stats.py::RunningStats.mean": PENDING_STATS,
    "sim/stats.py::RunningStats.merge": PENDING_STATS,
    "sim/stats.py::RunningStats.minimum": PENDING_STATS,
    "sim/stats.py::RunningStats.stdev": PENDING_STATS,
    "sim/stats.py::RunningStats.variance": PENDING_STATS,
    "sim/stats.py::TrialResult.cycles_per_call": PENDING_STATS,
    "sim/stats.py::coefficient_of_variation": PENDING_STATS,
    # sim/trace.py
    "sim/trace.py::TraceBuffer.__len__": PENDING_HELPERS,
    # telemetry/metrics.py
    "telemetry/metrics.py::Counter.__repr__": DEBUG_REPR,
    "telemetry/metrics.py::Counter.inc": TAP,
    "telemetry/metrics.py::Gauge.__repr__": DEBUG_REPR,
    "telemetry/metrics.py::LogHistogram.__repr__": DEBUG_REPR,
    "telemetry/metrics.py::LogHistogram.bucket_count": PENDING_HELPERS,
    "telemetry/metrics.py::LogHistogram.relative_error_bound": PENDING_HELPERS,
    "telemetry/metrics.py::MetricsRegistry.__len__": PENDING_HELPERS,
    "telemetry/metrics.py::Telemetry.op_cycles": PENDING_HELPERS,
    "telemetry/metrics.py::Telemetry.record_admission": TAP,
    "telemetry/metrics.py::Telemetry.record_breaker_state": TAP,
    "telemetry/metrics.py::Telemetry.record_pool_refusal": TAP,
    "telemetry/metrics.py::Telemetry.record_pool_wait": TAP,
    "telemetry/metrics.py::Telemetry.record_retry": TAP,
    "telemetry/metrics.py::Telemetry.record_shed": TAP,
    # telemetry/trace_export.py
    "telemetry/trace_export.py::write_chrome_trace": PENDING_HELPERS,
    # telemetry/tracing.py
    "telemetry/tracing.py::Span.__repr__": DEBUG_REPR,
    "telemetry/tracing.py::Span.to_dict": PENDING_HELPERS,
    "telemetry/tracing.py::Tracer.aggregate": TAP,
    "telemetry/tracing.py::Tracer.open_spans": PENDING_HELPERS,
    "telemetry/tracing.py::Tracer.snapshot": PENDING_HELPERS,
    # userland/libc/malloc.py
    "userland/libc/malloc.py::MallocArena.allocated_bytes": PENDING_LIBC,
    "userland/libc/malloc.py::MallocArena.block_at": PENDING_LIBC,
    "userland/libc/malloc.py::MallocArena.calloc": PENDING_LIBC,
    "userland/libc/malloc.py::MallocArena.check_invariants": SAFETY,
    "userland/libc/malloc.py::MallocArena.free_bytes": PENDING_LIBC,
    "userland/libc/malloc.py::MallocArena.realloc": PENDING_LIBC,
    # userland/libc/string.py
    "userland/libc/string.py::memcmp": PENDING_LIBC,
    "userland/libc/string.py::memcpy": PENDING_LIBC,
    "userland/libc/string.py::memset": PENDING_LIBC,
    # userland/libc/syscall_stubs.py
    "userland/libc/syscall_stubs.py::brk": PENDING_LIBC,
    "userland/libc/syscall_stubs.py::fork": PENDING_LIBC,
    "userland/libc/syscall_stubs.py::getpid": PENDING_LIBC,
    "userland/libc/syscall_stubs.py::getppid": PENDING_LIBC,
    "userland/libc/syscall_stubs.py::kill": PENDING_LIBC,
    "userland/libc/syscall_stubs.py::msgget": PENDING_LIBC,
    "userland/libc/syscall_stubs.py::msgrcv": PENDING_LIBC,
    "userland/libc/syscall_stubs.py::msgsnd": PENDING_LIBC,
    "userland/libc/syscall_stubs.py::wait4": PENDING_LIBC,
    # userland/process.py
    "userland/process.py::Program.free": PENDING_LIBC,
    "userland/process.py::Program.getpid": PENDING_LIBC,
    "userland/process.py::Program.malloc": PENDING_LIBC,
    "userland/process.py::Program.read_memory": PENDING_LIBC,
    # workloads/microbench.py
    "workloads/microbench.py::TrialMeasurement.cycles_per_call": PENDING_REPORTS,
    # workloads/policies.py
    "workloads/policies.py::PolicySweepResult.overhead_vs_baseline": PENDING_REPORTS,
    # workloads/traffic.py
    "workloads/traffic.py::_impl_null": SAFETY,
    "workloads/traffic.py::_scalar_starts": SAFETY,
}


# -------------------------------------------------------------- definitions
def _visit(node: ast.AST, prefix: str, out: Dict[str, int]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            first = (child.decorator_list[0].lineno if child.decorator_list
                     else child.lineno)
            if name in out:
                # a property's setter shares its getter's qualname
                name = f"{name}@{first}"
            out[name] = first
            _visit(child, f"{name}.<locals>.", out)
        elif isinstance(child, ast.ClassDef):
            _visit(child, f"{prefix}{child.name}.", out)
        else:
            _visit(child, prefix, out)


def definitions() -> Dict[str, Tuple[str, int]]:
    """``path::qualname`` -> (file, first line) for every ``def`` under
    ``src/repro``; ``path`` is relative to ``src/repro``."""
    out: Dict[str, Tuple[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        found: Dict[str, int] = {}
        _visit(ast.parse(path.read_text(encoding="utf-8")), "", found)
        relative = path.relative_to(PACKAGE).as_posix()
        for qualname, first in found.items():
            out[f"{relative}::{qualname}"] = (str(path), first)
    return out


# ------------------------------------------------------------------ the hook
_seen: Set[object] = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _lines(codes) -> Set[Tuple[str, int]]:
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in codes}


class _ChildDump:
    """Registers, in each forked child, a finalizer that writes what the
    child ran to ``directory`` when it exits."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def after_fork(self) -> None:
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def dump(self) -> None:
        path = os.path.join(self.directory, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(sorted(_lines(list(_seen))), stream)


# ----------------------------------------------------------------- the steps
def _cli(*argv: str) -> Callable[[], int]:
    def step() -> int:
        from repro.cli import main
        return main(list(argv))
    step.__name__ = "repro " + " ".join(argv)
    return step


def _example(path: str) -> Callable[[], int]:
    def step() -> int:
        try:
            runpy.run_path(path, run_name="__main__")
        except SystemExit as exit_:
            return exit_.code if isinstance(exit_.code, int) else 1
        return 0
    step.__name__ = f"python {os.path.relpath(path, ROOT)}"
    return step


def _e2e_smoke(name: str) -> Callable[[], int]:
    def step() -> int:
        import e2e_workloads
        return 1 if e2e_workloads.run_rep(name, 1, smoke=True).failed else 0
    step.__name__ = f"e2e smoke rep {name}"
    return step


def steps() -> List[Callable[[], int]]:
    """What CI runs outside ``tests/``, in CI's order."""
    out = [_example(path)
           for path in sorted(glob.glob(str(ROOT / "examples" / "*.py")))]
    out += [_e2e_smoke(name) for name in
            ("ff-steady", "quota-slowpath", "burst-adaptive", "serve-churn")]
    out += [
        _cli("bench", "throughput", "--fast", "--clients", "4",
             "--sample-calls", "8"),
        _cli("bench", "batch", "--fast"),
        _cli("bench", "pool", "--fast"),
        _cli("bench", "adaptive", "--fast"),
        _cli("bench", "serve", "--fast"),
        _cli("serve", "status"),
        _cli("serve", "status", "--json"),
        _cli("stats", "--live"),
        _cli("stats"),
        _cli("bench", "simspeed", "--fast", "--shards", "2",
             "--workers", "2"),
        _cli("bench", "overload", "--fast"),
        _cli("trace", "run", "--fast"),
        _cli("trace", "report", "--fast"),
        # the export validates the Chrome trace schema itself
        _cli("trace", "export", "--fast", "--out", "trace-smoke.json"),
        _cli("fig8", "--trials", "3", "--sample-calls", "16"),
    ]
    for baseline in sorted(glob.glob(
            str(ROOT / "benchmarks" / "baselines" / "BENCH_*.json"))):
        experiment = pathlib.Path(baseline).stem[len("BENCH_"):]
        out += [_cli(experiment),
                _cli("bench", "diff", baseline, f"BENCH_{experiment}.json")]
    out.append(_cli("analyze", "--format", "json"))
    return out


def reached() -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every step under the hook; return the (file, first line) of
    every code object that ran, here or in a forked child, and the steps
    that failed.

    The steps run in a temporary working directory, so the exports and the
    trace files they write land there.
    """
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks" / "e2e")]
    failed: List[str] = []
    with tempfile.TemporaryDirectory() as workdir:
        children = os.path.join(workdir, "children")
        os.mkdir(children)
        dump = _ChildDump(children)
        multiprocessing.util.register_after_fork(dump, _ChildDump.after_fork)
        cwd = os.getcwd()
        os.chdir(workdir)
        threading.setprofile(_hook)
        sys.setprofile(_hook)
        try:
            for step in steps():
                started = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = step()
                sys.stderr.write(f"  {time.perf_counter() - started:6.1f}s "
                                 f"{step.__name__}: exit {code}\n")
                if code:
                    failed.append(f"step failed: {step.__name__} "
                                  f"(exit {code})")
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
        lines = _lines(list(_seen))
        for path in glob.glob(os.path.join(children, "*.json")):
            with open(path, encoding="utf-8") as stream:
                lines.update((name, first) for name, first in json.load(stream))
    return lines, failed


def main() -> int:
    started = time.perf_counter()
    lines, failed = reached()
    defined = definitions()
    unreached = {key for key, (path, first) in defined.items()
                 if (os.path.realpath(path), first) not in lines}
    offenders = failed
    offenders += [f"unreached and not in KEEP: {key}"
                  for key in sorted(unreached - set(KEEP))]
    offenders += [f"in KEEP but reached: {key}" for key in sorted(KEEP)
                  if key in defined and key not in unreached]
    offenders += [f"in KEEP but names no definition: {key}"
                  for key in sorted(KEEP) if key not in defined]
    for line in offenders:
        print(line)
    pending_count = sum(1 for reason in KEEP.values()
                        if reason.startswith(pending("")))
    print(f"reach census: {len(defined)} definitions, "
          f"{len(defined) - len(unreached)} reached, {len(unreached)} "
          f"unreached, {len(KEEP)} kept ({pending_count} pending deletion), "
          f"{time.perf_counter() - started:.0f}s")
    return 1 if offenders else 0


if __name__ == "__main__":
    sys.exit(main())
