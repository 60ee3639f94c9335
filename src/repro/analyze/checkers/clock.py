"""CLOCK: the CostMeter is the single authority that advances virtual time.

Every figure the reproduction regenerates is a cycle total; a direct
``VirtualClock.advance`` call anywhere outside the meter is a charge the
per-operation histogram (and the telemetry mirror, and the trace-replay
accounting) never sees — the totals drift from the op counts and the
differential suite can no longer explain where cycles went.  All idle time
and all operation costs must flow through :class:`repro.sim.costs.CostMeter`
(``charge`` / ``charge_words`` / ``charge_each`` / ``charge_trace`` /
``idle``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Checker, Finding, SourceFile, register

#: method names that mutate a VirtualClock's accumulated time.  The meter's
#: private ``_advance`` alias is interior to sim/costs.py (allowlisted as
#: the charging authority itself) and collides with unrelated parser
#: cursors, so only the public clock API is matched.
ADVANCE_CALLS = frozenset({"advance", "advance_many"})


@register
class ClockChecker(Checker):
    name = "clock"
    rules = {
        "CLOCK001": "direct VirtualClock advance outside the CostMeter "
                    "(unmetered time charge)",
    }

    def check(self, source: SourceFile, ctx) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in ADVANCE_CALLS):
                yield Finding(
                    "CLOCK001", source.rel_path, node.lineno,
                    f".{func.attr}() advances the clock without the meter; "
                    f"route the charge through CostMeter "
                    f"(charge/charge_each/charge_trace/idle)")
