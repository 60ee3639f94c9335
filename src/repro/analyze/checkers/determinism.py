"""DET: no ambient nondeterminism in simulation paths.

Every benchmark table regenerates bit-identically from a seed because all
randomness flows through :class:`repro.sim.rng.DeterministicRNG` and all
"time" is the :class:`~repro.sim.clock.VirtualClock`.  A single stray
``time.time()`` or ``random.random()`` silently breaks that: the run still
passes its own tests but stops being reproducible.  This checker bans the
ambient sources at the call site (DET001) and, for the modules whose every
use is nondeterministic, at the import (DET002).  The builtin ``hash()`` is
flagged too (DET003): string hashes are salted per process unless
``PYTHONHASHSEED`` is pinned, so a hash that reaches a seed, an ordering
or an output differs run to run.  DET004 flags the builtin ``sum()`` and
``statistics`` calls where exported numbers are reduced (``sim/stats.py``,
``workloads/``, ``bench/``): Python 3.12's ``sum`` adds floats with
compensation and 3.11's left to right, so a float sum there differs by
interpreter.  Those paths add floats with ``sim.stats.ordered_sum``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Checker, Finding, SourceFile, dotted_name, module_aliases, register

#: exact dotted call names that read the wall clock or ambient entropy
BANNED_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns", "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid3", "uuid.uuid4",
})

#: dotted prefixes where *every* callable is nondeterministic
BANNED_PREFIXES = ("random.", "secrets.", "numpy.random.")

#: module imports that are wrong regardless of use
BANNED_IMPORTS = frozenset({"random", "secrets"})

#: where DET004 applies: the paths whose reductions reach exported numbers
REDUCTION_SCOPE = ("workloads", "bench")
REDUCTION_FILES = ("sim/stats.py",)


@register
class DeterminismChecker(Checker):
    name = "determinism"
    rules = {
        "DET001": "call to a wall-clock or ambient-randomness source; use "
                  "the VirtualClock / DeterministicRNG instead",
        "DET002": "import of an inherently nondeterministic module "
                  "(random, secrets)",
        "DET003": "builtin hash() call: string hashes vary per process; "
                  "use a stable digest (zlib.crc32) for anything that "
                  "leaves the process",
        "DET004": "builtin sum() or statistics call where exported numbers "
                  "are reduced: float sums differ by interpreter; use "
                  "sim.stats.ordered_sum",
    }

    def check(self, source: SourceFile, ctx) -> Iterable[Finding]:
        aliases = module_aliases(source.tree)
        reductions = (source.part_of(*REDUCTION_SCOPE)
                      or source.rel_path.endswith(REDUCTION_FILES))
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = (node.names[0].name if isinstance(node, ast.Import)
                          else node.module or "")
                root = module.split(".")[0]
                if root in BANNED_IMPORTS:
                    yield Finding(
                        "DET002", source.rel_path, node.lineno,
                        f"import of nondeterministic module {root!r}; draw "
                        f"from sim.rng.DeterministicRNG")
            elif isinstance(node, ast.Call):
                func = node.func
                name = dotted_name(func, aliases)
                if name == "builtins.hash" or (
                        isinstance(func, ast.Name) and func.id == "hash"
                        and "hash" not in aliases):
                    yield Finding(
                        "DET003", source.rel_path, node.lineno,
                        "builtin hash() is salted per process; use a stable "
                        "digest such as zlib.crc32")
                    continue
                if reductions and (
                        name == "builtins.sum"
                        or (name or "").startswith("statistics.")
                        or (isinstance(func, ast.Name) and func.id == "sum"
                            and "sum" not in aliases)):
                    yield Finding(
                        "DET004", source.rel_path, node.lineno,
                        "builtin sum() / statistics adds floats differently "
                        "on 3.11 and 3.12; use sim.stats.ordered_sum (an "
                        "integer sum takes an allow(DET004) with its reason)")
                    continue
                if name is None:
                    continue
                if name in BANNED_CALLS or name.startswith(BANNED_PREFIXES):
                    yield Finding(
                        "DET001", source.rel_path, node.lineno,
                        f"nondeterministic call {name}(); simulation paths "
                        f"must use the VirtualClock / DeterministicRNG")
