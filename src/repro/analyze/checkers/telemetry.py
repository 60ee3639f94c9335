"""TELEM: the observation plane never perturbs what it observes.

The telemetry package's contract is that switching the observation plane
(:class:`~repro.telemetry.metrics.Telemetry`) on leaves every cycle total
of a run byte-identical.  That holds only if nothing under ``telemetry/``
can reach the cost model: no import of :mod:`repro.sim.costs` (TELEM001),
no call that charges or advances the clock (TELEM002).  The plane *reads*
the per-operation counts of the meter it is handed when a snapshot is
taken; it never originates a charge.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Checker, Finding, SourceFile, register

#: calls that charge the virtual clock, directly or through the meter
CHARGING_CALLS = frozenset({
    "charge", "charge_words", "charge_each", "charge_trace",
    "advance", "advance_many", "idle",
})


@register
class TelemetryPurityChecker(Checker):
    name = "telemetry"
    rules = {
        "TELEM001": "telemetry module imports the cost model "
                    "(recording must stay observation-only)",
        "TELEM002": "telemetry module charges or advances the virtual clock",
    }

    def check(self, source: SourceFile, ctx) -> Iterable[Finding]:
        if not source.part_of("telemetry"):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = (node.names[0].name if isinstance(node, ast.Import)
                          else node.module or "")
                imported = {alias.name for alias in node.names}
                if "costs" in module.split(".") or "costs" in imported:
                    yield Finding(
                        "TELEM001", source.rel_path, node.lineno,
                        "telemetry imports sim.costs; the observation plane "
                        "must not know the cost model")
            elif isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None)
                if name in CHARGING_CALLS:
                    yield Finding(
                        "TELEM002", source.rel_path, node.lineno,
                        f"telemetry calls {name}(); recording must never "
                        f"charge the virtual clock")
