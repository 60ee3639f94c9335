"""SecModule definitions: protected functions and the modules that hold them.

A :class:`SecModuleDefinition` is what the toolchain produces from an
ordinary library: the set of functions being protected (each with its
simulated behaviour and cost), the backing object image whose text will be
encrypted or unmapped, the access policy and the credential issuer.  The
kernel-side :mod:`repro.secmodule.registry` turns a definition into a
*registered* module with a module id and kernel-held keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..errors import ConfigurationError
from ..obj.image import ObjectImage, make_function_image
from ..sim import costs
from .credentials import CredentialIssuer
from .policy import AlwaysAllowPolicy, Policy


@dataclass
class CallEnvironment:
    """What a protected function implementation may touch while executing.

    The paper's central trick is that the handle executes the function *with
    full access to the client's data, heap and stack*; the environment
    object reflects that: ``client`` is the process whose memory is visible,
    ``handle`` is the process actually executing, and ``kernel`` is available
    for the (few) functions that legitimately re-enter the kernel
    (e.g. ``malloc`` growing the break).
    """

    kernel: Any
    session: Any
    client: Any
    handle: Any

    @property
    def client_pid(self) -> int:
        return self.client.pid

    def charge(self, operation: str, count: int = 1) -> None:
        # smod: allow(COST002)  forwarding wrapper; function bodies pass
        # their cost_op, itself validated as a costs constant at invoke()
        self.kernel.machine.charge(operation, count)


#: Implementation signature for protected functions.
FunctionImpl = Callable[..., Any]


@dataclass
class SecFunction:
    """One function held secure inside a SecModule."""

    name: str
    func_id: int
    impl: FunctionImpl
    #: cost-model operation charged when the body runs (the "work" of the fn)
    cost_op: str = costs.FUNC_BODY_TESTINCR
    #: how many 32-bit words of arguments the call passes on the stack
    arg_words: int = 1
    #: whether the function needs §4.3-style special handling
    special: bool = False
    #: True when the body's simulated cost is exactly ``cost_op`` — the
    #: implementation itself never charges the cost model or mutates kernel
    #: state (no ``env.charge``, no re-entering the kernel) — and its value
    #: depends only on its arguments and the session's fixed client (its
    #: pid, not its parent's, which changes when the parent exits).  Only
    #: such functions are eligible for the trace-replay dispatch fast path:
    #: replay re-executes the implementation for its return value, and a
    #: settled batch only when its values are first read, so an
    #: implementation doing its own charging would double-count and one
    #: reading changing state could answer late.  malloc & friends (arena
    #: walks, obreak, per-byte copies) and getppid set this False.
    fixed_cost: bool = True
    doc: str = ""

    def invoke(self, env: CallEnvironment, *args: Any) -> Any:
        """Run the simulated body, charging its cost (on the machine
        ``env.charge`` charges, without its frame)."""
        # smod: allow(COST002)  cost_op is a costs constant captured at
        # SecFunction definition time (see the field default above)
        env.kernel.machine.charge(self.cost_op)
        return self.impl(env, *args)


class SecModuleDefinition:
    """A library converted for SecModule protection (pre-registration)."""

    def __init__(self, name: str, version: int, *,
                 policy: Optional[Policy] = None,
                 issuer_secret: bytes = b"secmodule-issuer-secret",
                 library_image: Optional[ObjectImage] = None) -> None:
        if not name:
            raise ConfigurationError("module name must be non-empty")
        if version < 0:
            raise ConfigurationError("module version must be non-negative")
        self.name = name
        self.version = version
        self.policy = policy or AlwaysAllowPolicy()
        self.issuer = CredentialIssuer(module_name=name, secret=issuer_secret)
        self.library_image = library_image
        #: name -> function and func_id -> function: the lookup tables the
        #: call path probes directly (read-only outside this class)
        self.functions_by_name: Dict[str, SecFunction] = {}
        self.functions_by_id: Dict[int, SecFunction] = {}
        self._next_func_id = 1

    # -- function management -----------------------------------------------------
    def add_function(self, name: str, impl: FunctionImpl, *,
                     cost_op: str = costs.FUNC_BODY_TESTINCR,
                     arg_words: int = 1, special: bool = False,
                     fixed_cost: bool = True,
                     doc: str = "") -> SecFunction:
        if name in self.functions_by_name:
            raise ConfigurationError(
                f"module {self.name!r} already protects a function {name!r}")
        function = SecFunction(name=name, func_id=self._next_func_id,
                               impl=impl, cost_op=cost_op,
                               arg_words=arg_words, special=special,
                               fixed_cost=fixed_cost, doc=doc)
        self._next_func_id += 1
        self.functions_by_name[name] = function
        self.functions_by_id[function.func_id] = function
        return function

    def function(self, name: str) -> SecFunction:
        try:
            return self.functions_by_name[name]
        except KeyError:
            raise ConfigurationError(
                f"module {self.name!r} protects no function {name!r}") from None

    def function_names(self) -> List[str]:
        return sorted(self.functions_by_name)

    def functions(self) -> List[SecFunction]:
        return [self.functions_by_name[n] for n in self.function_names()]

    def __len__(self) -> int:
        return len(self.functions_by_name)

    def __contains__(self, name: str) -> bool:
        return name in self.functions_by_name

    # -- backing image -------------------------------------------------------------
    def ensure_library_image(self, *, bytes_per_function: int = 96) -> ObjectImage:
        """Build a synthetic backing image when none was supplied.

        Modules built programmatically (rather than through the packer) still
        need text bytes for the protection machinery to encrypt/unmap; this
        fabricates a plausible image with one symbol per protected function.
        """
        if self.library_image is None:
            sizes = {fn: bytes_per_function for fn in self.function_names()}
            if not sizes:
                raise ConfigurationError(
                    f"module {self.name!r} has no functions to back")
            names = self.function_names()
            calls = [(names[i], names[(i + 1) % len(names)])
                     for i in range(len(names))] if len(names) > 1 else []
            self.library_image = make_function_image(
                f"{self.name}.so", sizes, kind="shared", calls=calls)
        return self.library_image

    def describe(self) -> str:
        return (f"SecModule {self.name!r} v{self.version}: "
                f"{len(self)} protected functions, policy={self.policy.describe()}")


def simple_module(name: str = "libdemo", version: int = 1,
                  policy: Optional[Policy] = None) -> SecModuleDefinition:
    """A tiny two-function module used by tests, examples and benchmarks.

    ``test_incr`` is *the* function the paper benchmarks for both SecModule
    and RPC ("the function tested ... returns the argument value incremented
    by one"); ``test_add`` exists so multi-function dispatch is exercised.
    """
    module = SecModuleDefinition(name, version, policy=policy)
    module.add_function(
        "test_incr", lambda env, x: x + 1,
        cost_op=costs.FUNC_BODY_TESTINCR, arg_words=1,
        doc="Return the argument incremented by one (the paper's payload).")
    module.add_function(
        "test_add", lambda env, a, b: a + b,
        cost_op=costs.FUNC_BODY_TESTINCR, arg_words=2,
        doc="Return the sum of two arguments.")
    module.ensure_library_image()
    return module
