"""The SecModule system-call additions (Figure 4) and kernel wiring.

Figure 4 of the paper lists the new entries added to OpenBSD's
``syscalls.master``::

    301 sys_smod_find(const char *name, int version)
    303 sys_smod_session_info(void *sinfo)        ;; handle only
    304 sys_smod_handle_info(void *hinfo)         ;; client only
    305 sys_smod_add(void *smodinfo)
    306 sys_smod_remove(int m_id, void *credential, int credential_size)
    307 sys_smod_call(void *framep, void *rtnaddr, unsigned m_id, int funcID)
    320 sys_smod_start_session(struct smod_session_descriptor *descp)

:class:`SmodExtension` is the reproduction's equivalent of the kernel patch:
it owns the module registry, the session manager and the dispatcher,
registers the syscalls above into a booted kernel's dispatch table, and
hooks the process-lifecycle events so ``execve``/``exit``/``fork`` get the
§4.3 special handling.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.errno import Errno, SyscallResult, fail, ok
from ..kernel.kernel import Kernel
from ..kernel.proc import Proc
from ..kernel.syscall import (
    SYS_smod_add,
    SYS_smod_call,
    SYS_smod_call_batch,
    SYS_smod_find,
    SYS_smod_handle_info,
    SYS_smod_remove,
    SYS_smod_session_info,
    SYS_smod_start_session,
)
from .decision_cache import DecisionCache
from .dispatch import DispatchConfig, SmodDispatcher
from .handle_pool import HandleBroker, HandlePolicy
from .registry import ModuleRegistry
from .session import SessionDescriptor, SessionManager

#: (number, name) pairs exactly as Figure 4 lists them.
FIGURE4_SYSCALLS = (
    (SYS_smod_find, "smod_find"),
    (SYS_smod_session_info, "smod_session_info"),
    (SYS_smod_handle_info, "smod_handle_info"),
    (SYS_smod_add, "smod_add"),
    (SYS_smod_remove, "smod_remove"),
    (SYS_smod_call, "smod_call"),
    (SYS_smod_start_session, "smod_start_session"),
)


class SmodExtension:
    """The SecModule kernel extension: registry + sessions + dispatcher."""

    def __init__(self, kernel: Kernel, *,
                 handle_policy=None) -> None:
        self.kernel = kernel
        self.registry = ModuleRegistry(kernel)
        self.decision_cache = DecisionCache()
        self.broker = HandleBroker(
            kernel, default_policy=HandlePolicy.parse(handle_policy))
        self.sessions = SessionManager(kernel, self.registry,
                                       decision_cache=self.decision_cache,
                                       broker=self.broker)
        self.dispatcher = SmodDispatcher(kernel,
                                         decision_cache=self.decision_cache)
        # seat changes on shared handles retire the affected call traces
        # (the dispatcher wired decision-cache invalidations in its ctor)
        self.broker.trace_cache = self.dispatcher.trace_cache
        # the machine's observation plane reads the cache's own counters
        kernel.machine.telemetry.cache = self.decision_cache
        self._installed = False

    # ------------------------------------------------------------- installation
    def install(self) -> "SmodExtension":
        """Register the Figure 4 syscalls and the lifecycle hooks."""
        if self._installed:
            return self
        kernel = self.kernel

        kernel.syscalls.register(SYS_smod_find, "smod_find",
                                 self._sys_smod_find, arg_words=2)
        kernel.syscalls.register(SYS_smod_session_info, "smod_session_info",
                                 self._sys_smod_session_info, arg_words=1)
        kernel.syscalls.register(SYS_smod_handle_info, "smod_handle_info",
                                 self._sys_smod_handle_info, arg_words=1)
        kernel.syscalls.register(SYS_smod_add, "smod_add",
                                 self._sys_smod_add, arg_words=1)
        kernel.syscalls.register(SYS_smod_remove, "smod_remove",
                                 self._sys_smod_remove, arg_words=3)
        kernel.syscalls.register(SYS_smod_call, "smod_call",
                                 self._sys_smod_call, arg_words=4)
        # beyond Figure 4: the batched flush (framep, rtnaddr, queuep, count)
        kernel.syscalls.register(SYS_smod_call_batch, "smod_call_batch",
                                 self._sys_smod_call_batch, arg_words=4)
        kernel.syscalls.register(SYS_smod_start_session, "smod_start_session",
                                 self._sys_smod_start_session, arg_words=1)

        # §4.3 special handling for execve / fork / exit lives in special.py;
        # the hooks are registered here so installing the extension is one call.
        from .special import on_exec, on_exit, on_fork
        kernel.register_hook("exec", lambda k, proc, plan: on_exec(self, proc, plan))
        kernel.register_hook("exit", lambda k, proc, status: on_exit(self, proc, status))
        kernel.register_hook("fork", lambda k, parent, child: on_fork(self, parent, child))

        self._installed = True
        return self

    @property
    def installed(self) -> bool:
        return self._installed

    # ------------------------------------------------------------ syscall bodies
    def _sys_smod_find(self, kernel, proc: Proc, name: str,
                       version: int) -> SyscallResult:
        module = self.registry.find(name, version)
        kernel.machine.trace.emit("smod.session", "smod_find", pid=proc.pid,
                                  detail_module=name, detail_version=version,
                                  detail_found=module is not None)
        if module is None:
            return fail(Errno.ENOENT)
        return ok(module.m_id)

    def _sys_smod_start_session(self, kernel, proc: Proc,
                                descriptor: SessionDescriptor) -> SyscallResult:
        if not isinstance(descriptor, SessionDescriptor):
            return fail(Errno.EINVAL)
        kernel.copyin(descriptor.words)
        try:
            session = self.sessions.start_session(proc, descriptor)
        except LookupError:
            return fail(Errno.ENOENT)
        except PermissionError:
            return fail(Errno.EACCES)
        except Exception:
            return fail(Errno.EINVAL)
        return ok(session.session_id)

    def _sys_smod_session_info(self, kernel, proc: Proc,
                               sinfo=None) -> SyscallResult:
        # "ONLY for the handle process"
        if not proc.is_smod_handle:
            return fail(Errno.EPERM)
        try:
            session = self.sessions.handle_session_info(proc)
        except LookupError:
            return fail(Errno.ESRCH)
        return ok(session.session_id)

    def _sys_smod_handle_info(self, kernel, proc: Proc,
                              hinfo=None) -> SyscallResult:
        # "ONLY for the client process"
        if proc.is_smod_handle:
            return fail(Errno.EPERM)
        try:
            session = self.sessions.client_handle_info(proc)
        except LookupError:
            return fail(Errno.ESRCH)
        except Exception:
            return fail(Errno.EINVAL)
        return ok(session.session_id)

    def _sys_smod_add(self, kernel, proc: Proc, smodinfo) -> SyscallResult:
        definition = getattr(smodinfo, "definition", smodinfo)
        protection = getattr(smodinfo, "protection", None)
        try:
            if protection is not None:
                registered = self.registry.register(definition,
                                                    protection=protection,
                                                    uid=proc.cred.uid)
            else:
                registered = self.registry.register(definition,
                                                    uid=proc.cred.uid)
        except PermissionError:
            return fail(Errno.EPERM)
        except Exception:
            return fail(Errno.EEXIST)
        return ok(registered.m_id)

    def _sys_smod_remove(self, kernel, proc: Proc, m_id: int, credential,
                         credential_size: int = 0) -> SyscallResult:
        kernel.copyin(max(0, credential_size // 4))
        try:
            removed = self.registry.remove(m_id, credential, uid=proc.cred.uid)
        except PermissionError:
            return fail(Errno.EPERM)
        if not removed:
            return fail(Errno.ENOENT)
        self.decision_cache.invalidate_module(m_id)
        return ok(0)

    def _sys_smod_call(self, kernel, proc: Proc, frame, m_id: int,
                       func_id: int,
                       config: Optional[DispatchConfig] = None) -> SyscallResult:
        session = self.sessions.session_for_call(proc, m_id, frame)
        return self.dispatcher.sys_smod_call(
            proc, session, frame, m_id, func_id,
            config=config or DispatchConfig())

    def _sys_smod_call_batch(self, kernel, proc: Proc, batch,
                             config: Optional[DispatchConfig] = None
                             ) -> SyscallResult:
        """One trap dispatching a whole queue of protected calls.

        The super-frame's stack resolves which session serves the batch (all
        entries of a queue belong to one session, like the single call's
        ``framep``).  Per-entry failures ride inside the returned
        :class:`~repro.secmodule.dispatch.BatchOutcome`; only a whole-queue
        rejection surfaces as a syscall error.
        """
        first_m_id = batch.frames[0].module_id if batch.frames else -1
        session = self.sessions.session_for_call(proc, first_m_id, batch)
        outcome = self.dispatcher.sys_smod_call_batch(
            proc, session, batch, config=config or DispatchConfig())
        if outcome.errno is not None:
            return fail(outcome.errno)
        return ok(outcome)


def install_secmodule(kernel: Kernel, *, handle_policy=None) -> SmodExtension:
    """Boot-time helper: attach the SecModule extension to a booted kernel.

    ``handle_policy`` sets the :class:`~repro.secmodule.handle_pool.
    HandleBroker` default (``"per_session"`` — the paper's 1:1 fork —
    unless overridden); module owners may still register per-module
    policies on ``extension.broker``.
    """
    return SmodExtension(kernel, handle_policy=handle_policy).install()
