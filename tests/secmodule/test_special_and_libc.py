"""Tests for §4.3 special-function handling and the SecModule libc conversion."""

import pytest

from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import DispatchConfig
from repro.secmodule.libc_conversion import (
    LIBC_MEMBERS,
    build_libc_archive,
    build_test_module,
    convert_libc,
    libc_behaviours,
)
from repro.secmodule.special import (
    SPECIAL_FUNCTIONS,
    classify_symbols,
    needs_special_handling,
)
from repro.userland.libc.string import load_c_string, store_c_string


class TestSpecialClassifier:
    @pytest.mark.parametrize("symbol", ["execve", "fork", "getpid", "wait4",
                                        "sigaction", "kill", "sched_yield"])
    def test_known_special_symbols(self, symbol):
        assert needs_special_handling(symbol)

    @pytest.mark.parametrize("symbol", ["malloc", "memcpy", "strlen", "printf",
                                        "qsort", "atoi"])
    def test_ordinary_symbols(self, symbol):
        assert not needs_special_handling(symbol)

    def test_rule_of_thumb_catches_variants(self):
        """'if they involve scheduling, signals or processes...'"""
        assert needs_special_handling("pthread_sigmask")
        assert needs_special_handling("forkpty")
        assert needs_special_handling("getpid_cached")

    def test_classify_partition(self):
        special, ordinary = classify_symbols(["malloc", "fork", "memcpy", "kill"])
        assert special == ["fork", "kill"]
        assert ordinary == ["malloc", "memcpy"]
        assert SPECIAL_FUNCTIONS & set(special)


class TestExecveForkExitHooks:
    def test_execve_detaches_session_and_kills_handle(self):
        system = SecModuleSystem.create(seed=40)
        handle_proc = system.handle_proc
        from repro.obj.image import make_function_image
        from repro.obj.linker import link
        from repro.obj.loader import build_load_plan
        obj = make_function_image("newprog.o", {"start": 32, "main": 32},
                                  calls=[("start", "main")])
        plan = build_load_plan(link("newprog", [obj]).image)
        system.kernel.syscall(system.client_proc, "execve", plan, "newprog")
        assert system.session.torn_down
        assert not handle_proc.alive
        assert not system.client_proc.is_smod_client

    def test_client_exit_kills_handle(self):
        system = SecModuleSystem.create(seed=41)
        handle_proc = system.handle_proc
        system.kernel.syscall(system.client_proc, "exit", 0)
        assert not handle_proc.alive
        assert system.session.torn_down

    def test_handle_death_detaches_but_spares_client(self):
        system = SecModuleSystem.create(seed=42)
        system.kernel.exit_process(system.handle_proc)
        assert system.session.torn_down
        assert system.client_proc.alive
        outcome = system.call_outcome("test_incr", 1)
        assert not outcome.ok     # no more protected calls without a session

    def test_fork_child_has_no_session_until_reestablished(self):
        system = SecModuleSystem.create(seed=43)
        child_pid = system.kernel.syscall(system.client_proc, "fork").unwrap()
        child = system.kernel.procs.lookup(child_pid)
        assert not child.is_smod_client
        assert child.smod_session is None
        assert system.extension.sessions.for_client(child) == []
        # the parent keeps its session fully working
        assert system.call("test_incr", 1) == 2

    def test_fork_client_helper_gives_child_its_own_handle(self):
        system = SecModuleSystem.create(seed=44)
        child_system = system.fork_client()
        assert child_system.client_proc.pid != system.client_proc.pid
        assert child_system.handle_proc.pid != system.handle_proc.pid
        assert child_system.call("test_incr", 10) == 11
        assert system.call("test_incr", 20) == 21
        # handles are not shared (the paper's bottleneck warning)
        assert child_system.handle_proc is not system.handle_proc

    def test_flushed_getppid_reports_the_parent_at_flush_time(self):
        """getppid reads state the parent's exit rewrites, so its calls never
        settle: a settled flush runs its bodies when its values are first
        read, which here is after the exit."""
        system = SecModuleSystem.create(seed=45)
        child = system.fork_client()
        parent_pid = system.client_proc.pid
        assert child.client_proc.ppid == parent_pid
        config = DispatchConfig(batch_size=2)
        # the first flush records its span, the second confirms it, so a
        # settleable third flush would be settled
        flushes = [child.extension.dispatcher.call_batch(
                       child.session, [("getppid", ())] * 2, config=config)
                   for _ in range(3)]
        system.kernel.exit_process(system.client_proc)
        assert child.client_proc.ppid == 0          # reparented
        for flush in flushes:
            assert flush.values == [parent_pid, parent_pid]


class TestLibcArchive:
    def test_archive_contains_expected_members_and_symbols(self):
        archive = build_libc_archive()
        assert len(archive) == len(LIBC_MEMBERS)
        symbols = archive.global_symbols()
        for expected in ("malloc", "memcpy", "getpid", "printf", "socket"):
            assert expected in symbols

    def test_conversion_skips_unaudited_symbols(self):
        pack = convert_libc()
        assert "printf" in pack.skipped_symbols
        assert "malloc" not in pack.skipped_symbols
        assert "fork" in pack.special_symbols
        assert len(pack.stubs) == len(pack.definition)

    def test_conversion_can_exclude_special_functions(self):
        cautious = convert_libc(include_special=False)
        assert "getpid" not in cautious.definition
        assert "malloc" in cautious.definition

    def test_behaviour_table_covers_allocator_and_strings(self):
        behaviours = libc_behaviours()
        for name in ("malloc", "free", "calloc", "realloc", "memcpy", "memset",
                     "strlen", "strcpy", "getpid"):
            assert name in behaviours

    def test_test_module_functions(self):
        module = build_test_module()
        assert sorted(module.function_names()) == ["test_add", "test_incr",
                                                   "test_null"]


class TestProtectedLibcBehaviour:
    """The SecModule libc works 'identically to its man-page specification'."""

    def test_malloc_free_through_the_handle(self, shared_system):
        system = shared_system
        addr1 = system.call("malloc", 128)
        addr2 = system.call("malloc", 256)
        assert addr1 != addr2
        system.client.write_memory(addr1, b"written by the client")
        assert system.handle_proc.vmspace.read(addr1, 21) == b"written by the client"
        assert system.call("free", addr1) == 0

    def test_calloc_and_realloc(self, shared_system):
        system = shared_system
        addr = system.call("calloc", 4, 32)
        assert system.client.read_memory(addr, 16) == bytes(16)
        bigger = system.call("realloc", addr, 512)
        assert bigger != 0

    def test_memcpy_memset_strlen_strcpy(self, shared_system):
        system = shared_system
        src = system.call("malloc", 64)
        dst = system.call("malloc", 64)
        store_c_string(system.client_proc, src, "secmodule!")
        assert system.call("strlen", src) == 10
        system.call("strcpy", dst, src)
        assert load_c_string(system.client_proc, dst) == "secmodule!"
        system.call("memset", dst, 0x41, 4)
        assert system.client.read_memory(dst, 4) == b"AAAA"
        system.call("memcpy", dst, src, 8)
        assert system.client.read_memory(dst, 8) == b"secmodul"
        assert system.call("memcmp", dst, src, 8) == 0

    def test_heap_growth_is_shared_with_handle(self, shared_system):
        system = shared_system
        # allocate enough to force obreak growth beyond the initial data pages
        addr = system.call("malloc", 256 * 1024)
        system.client.write_memory(addr, b"deep heap")
        assert system.handle_proc.vmspace.read(addr, 9) == b"deep heap"

    def test_getppid_via_secmodule(self, shared_system):
        assert shared_system.call("getppid") == shared_system.client_proc.ppid
