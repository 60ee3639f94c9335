"""The SecModule conversion of the C library (§4.2–4.3 of the paper).

The paper's prototype consists of "the kernel mods, a SecModule conversion
of libC, and related userland registration tools".  This module provides the
libC piece for the reproduction:

* :func:`build_libc_archive` fabricates a plausible ``libc.a`` — several
  object members, a few dozen exported function symbols, internal call
  relocations — so the toolchain (objdump → stubgen → packer → encryption)
  has something realistic to chew on;
* :func:`libc_behaviours` maps the symbols we actually audit to simulated
  behaviours, backed by the real user-level implementations in
  :mod:`repro.userland.libc` (malloc genuinely grows the client's heap
  through ``obreak``; memcpy genuinely moves bytes in client memory);
* :func:`convert_libc` runs the packer, yielding the SecModule libc
  definition plus its stubs;
* :func:`build_test_module` builds the small companion module holding the
  paper's benchmark payload ``test_incr`` (and ``test_null``).

Symbols present in the archive but *not* in the behaviour table are exactly
the paper's "nearly 1500 global text symbols ... auditing them for correct
behaviour will take some time": the packer reports them as skipped.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obj.archive import Archive, build_archive
from ..obj.image import make_function_image
from ..sim import costs
from ..userland.libc import string as libstring
from ..userland.libc.malloc import MallocArena
from .module import CallEnvironment, SecModuleDefinition
from .policy import Policy
from .toolchain.packer import FunctionSpec, PackResult, pack_library

#: Symbols exported by the synthetic libc.a, grouped by member object.
LIBC_MEMBERS: Dict[str, Dict[str, int]] = {
    "malloc.o": {"malloc": 160, "free": 120, "calloc": 96, "realloc": 144},
    "string.o": {"memcpy": 96, "memset": 80, "memcmp": 88, "strlen": 72,
                 "strcpy": 80, "strcat": 88, "strcmp": 72, "strchr": 64},
    "stdio.o": {"printf": 256, "fprintf": 224, "sprintf": 208, "puts": 64,
                "fopen": 160, "fclose": 96, "fread": 144, "fwrite": 144},
    "gen.o": {"getpid": 24, "getppid": 24, "fork": 48, "execve": 64,
              "wait": 56, "kill": 40, "signal": 72, "sleep": 48,
              "getenv": 96, "atexit": 56},
    "net.o": {"socket": 72, "connect": 96, "send": 88, "recv": 88,
              "gethostbyname": 200},
}

#: Internal calls between libc routines (become relocations in the members).
LIBC_INTERNAL_CALLS = {
    "malloc.o": [("calloc", "malloc"), ("realloc", "malloc"),
                 ("realloc", "free")],
    "string.o": [("strcpy", "strlen"), ("strcat", "strlen")],
    "stdio.o": [("printf", "fwrite"), ("fprintf", "fwrite"),
                ("puts", "fwrite"), ("fopen", "malloc"),
                ("fclose", "free")],
    "gen.o": [("sleep", "signal")],
    "net.o": [("gethostbyname", "malloc")],
}

#: Names that exist only as header macros (objdump cannot see them).
LIBC_HEADER_MACROS = ("isdigit", "isalpha", "tolower", "toupper")


def build_libc_archive(*, seed: int = 11) -> Archive:
    """Fabricate the synthetic ``libc.a`` archive."""
    members = []
    for index, (member_name, functions) in enumerate(sorted(LIBC_MEMBERS.items())):
        calls = LIBC_INTERNAL_CALLS.get(member_name, [])
        members.append(make_function_image(
            member_name, functions, calls=calls, seed=seed + index,
            data_bytes=128))
    return build_archive("libc.a", members)


# ---------------------------------------------------------------------------
# Simulated behaviours for the audited subset
# ---------------------------------------------------------------------------

def _arena_for(env: CallEnvironment) -> MallocArena:
    """The per-session allocator state (free lists live in client memory)."""
    arena = getattr(env.session, "_smod_malloc_arena", None)
    if arena is None:
        arena = MallocArena(env.kernel, env.client)
        env.session._smod_malloc_arena = arena
    return arena


def _impl_malloc(env: CallEnvironment, size: int) -> int:
    return _arena_for(env).malloc(size)


def _impl_free(env: CallEnvironment, address: int) -> int:
    _arena_for(env).free(address)
    return 0


def _impl_calloc(env: CallEnvironment, count: int, size: int) -> int:
    return _arena_for(env).calloc(count, size)


def _impl_realloc(env: CallEnvironment, address: int, size: int) -> int:
    return _arena_for(env).realloc(address, size)


def _impl_memcpy(env: CallEnvironment, dest: int, src: int, length: int) -> int:
    return libstring.memcpy(env.kernel, env.client, dest, src, length)


def _impl_memset(env: CallEnvironment, dest: int, value: int, length: int) -> int:
    return libstring.memset(env.kernel, env.client, dest, value, length)


def _impl_memcmp(env: CallEnvironment, a: int, b: int, length: int) -> int:
    return libstring.memcmp(env.kernel, env.client, a, b, length)


def _impl_strlen(env: CallEnvironment, address: int) -> int:
    return libstring.strlen(env.kernel, env.client, address)


def _impl_strcpy(env: CallEnvironment, dest: int, src: int) -> int:
    return libstring.strcpy(env.kernel, env.client, dest, src)


def _impl_getpid(env: CallEnvironment) -> int:
    # §4.3: "getpid() and related calls must return the PIDs related to the
    # client, not the handle!"  The handle answers from the session state
    # without re-entering the kernel, which is why SMOD(SMOD-getpid) costs
    # only marginally more than SMOD(test-incr) in Figure 8.
    return env.client_pid


def _impl_getppid(env: CallEnvironment) -> int:
    return env.client.ppid


def libc_behaviours() -> Dict[str, FunctionSpec]:
    """The audited symbols and their simulated behaviours."""
    # The allocator and string families charge the cost model from inside
    # their implementations (arena walks, obreak, per-byte copies), so their
    # per-call cost depends on the arguments: fixed_cost=False keeps them
    # permanently on the op-by-op dispatch path.
    return {
        "malloc": FunctionSpec(_impl_malloc, cost_op=costs.MALLOC_BODY,
                               arg_words=1, fixed_cost=False,
                               doc="allocate client heap memory"),
        "free": FunctionSpec(_impl_free, cost_op=costs.MALLOC_BODY,
                             arg_words=1, fixed_cost=False,
                             doc="release client heap memory"),
        "calloc": FunctionSpec(_impl_calloc, cost_op=costs.MALLOC_BODY,
                               arg_words=2, fixed_cost=False,
                               doc="allocate zeroed client memory"),
        "realloc": FunctionSpec(_impl_realloc, cost_op=costs.MALLOC_BODY,
                                arg_words=2, fixed_cost=False,
                                doc="resize a client allocation"),
        "memcpy": FunctionSpec(_impl_memcpy, arg_words=3, fixed_cost=False,
                               doc="copy bytes within client memory"),
        "memset": FunctionSpec(_impl_memset, arg_words=3, fixed_cost=False,
                               doc="fill client memory"),
        "memcmp": FunctionSpec(_impl_memcmp, arg_words=3, fixed_cost=False,
                               doc="compare client memory"),
        "strlen": FunctionSpec(_impl_strlen, arg_words=1, fixed_cost=False,
                               doc="length of a client C string"),
        "strcpy": FunctionSpec(_impl_strcpy, arg_words=2, fixed_cost=False,
                               doc="copy a client C string"),
        "getpid": FunctionSpec(_impl_getpid, cost_op=costs.FUNC_BODY_SMOD_GETPID,
                               arg_words=0,
                               doc="client pid (the SMOD-getpid benchmark row)"),
        # the parent pid is not fixed: Kernel.exit_process reparents the
        # client when its parent exits, so a settled call, whose body runs
        # when its value is first read, could report the new parent
        "getppid": FunctionSpec(_impl_getppid,
                                cost_op=costs.FUNC_BODY_SMOD_GETPID,
                                arg_words=0, fixed_cost=False,
                                doc="client parent pid"),
    }


def convert_libc(*, policy: Optional[Policy] = None, version: int = 1,
                 include_special: bool = True) -> PackResult:
    """Run the full toolchain over the synthetic libc."""
    archive = build_libc_archive()
    return pack_library(archive, module_name="libc", version=version,
                        behaviours=libc_behaviours(), policy=policy,
                        header_macros=LIBC_HEADER_MACROS,
                        include_special=include_special)


# ---------------------------------------------------------------------------
# The benchmark companion module
# ---------------------------------------------------------------------------

def _impl_test_incr(env: CallEnvironment, x: int) -> int:
    return x + 1


def _impl_test_null(env: CallEnvironment) -> int:
    return 0


def _impl_test_add(env: CallEnvironment, a: int, b: int) -> int:
    return a + b


def build_test_module(*, policy: Optional[Policy] = None,
                      version: int = 1) -> SecModuleDefinition:
    """The module holding the paper's RPC/SecModule benchmark payload.

    "The function tested for both RPC and SecModule returns the argument
    value incremented by one." (§4.5)
    """
    module = SecModuleDefinition("libtest", version, policy=policy)
    module.add_function("test_incr", _impl_test_incr,
                        cost_op=costs.FUNC_BODY_TESTINCR, arg_words=1,
                        doc="return the argument incremented by one")
    module.add_function("test_null", _impl_test_null,
                        cost_op=costs.FUNC_BODY_TESTINCR, arg_words=0,
                        doc="do nothing (pure dispatch cost)")
    module.add_function("test_add", _impl_test_add,
                        cost_op=costs.FUNC_BODY_TESTINCR, arg_words=2,
                        doc="return the sum of two arguments")
    module.library_image = make_function_image(
        "libtest.so",
        {"test_incr": 48, "test_null": 32, "test_add": 48},
        kind="shared", calls=[("test_add", "test_incr")])
    return module
