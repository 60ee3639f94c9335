"""The telemetry-driven regression gate: diff two ``BENCH_<id>.json`` files.

Every experiment run exports a machine-readable payload; because the whole
simulation is deterministic (virtual clock, seeded RNG), two runs of the
same experiment with the same parameters must agree on every *virtual*
number — cycle totals, op counts, microsecond conversions.  ``repro bench
diff old.json new.json`` walks both payloads' ``data`` trees and:

* **fails** (non-zero exit) when any cycle-bearing metric regressed — a
  leaf whose key names cycles or microseconds grew beyond the tolerance;
* reports every other numeric difference informationally;
* refuses to compare runs of different experiments or parameters (a smoke
  run against a canonical baseline is not a regression signal, it is a
  category error).

Wall-clock fields (``wall_seconds``, ``calls_per_wall_second`` and any
other key naming "wall") are machine-dependent and never *fail* the gate.
The two payloads' top-level ``calls_per_wall_second`` do get one
tolerance-band check: a drop past ``WALL_TOLERANCE`` (10%) prints a
non-fatal warning, so CI logs surface a simulator slowdown without the
noise of gating on a shared runner's wall clock.

CI keeps canonical baselines under ``benchmarks/baselines/`` and runs this
gate against freshly regenerated exports, so a commit that silently makes
dispatch more expensive fails its build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

#: path segments naming machine-dependent values — never compared
WALL_MARKER = "wall"
#: key fragments marking a metric as cycle-bearing: growth is a regression
CYCLE_MARKERS = ("cycles", "_us", "us_per_call", "microsec")
#: tolerated fractional drop in calls_per_wall_second before warning
WALL_TOLERANCE = 0.10


class BenchDiffError(ValueError):
    """The two payloads are not comparable (different experiment/params)."""


@dataclass
class DiffItem:
    """One numeric leaf that differs between the payloads."""

    path: str
    old: float
    new: float
    #: cycle-bearing metrics fail the gate when they grow
    guarded: bool = False
    regression: bool = False

    def describe(self) -> str:
        tag = ("REGRESSION" if self.regression
               else "improved" if self.guarded and self.new < self.old
               else "changed")
        return f"{self.path}: {self.old} -> {self.new}  [{tag}]"


@dataclass
class BenchDiff:
    """Outcome of comparing two exports of one experiment."""

    experiment: str
    old_path: str
    new_path: str
    items: List[DiffItem] = field(default_factory=list)
    #: leaves present in exactly one payload (schema drift, reported only)
    only_old: List[str] = field(default_factory=list)
    only_new: List[str] = field(default_factory=list)
    compared: int = 0
    #: non-fatal notices (wall-clock tolerance band) — printed, never gated
    warnings: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffItem]:
        return [item for item in self.items if item.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        head = (f"bench diff [{self.experiment}]: "
                f"{self.old_path} -> {self.new_path}")
        lines = [head, "-" * len(head),
                 f"compared {self.compared} numeric metrics "
                 f"({len(self.items)} differ, "
                 f"{len(self.regressions)} cycle regressions)"]
        for item in self.items:
            lines.append("  " + item.describe())
        for path in self.only_old:
            lines.append(f"  {path}: only in old export")
        for path in self.only_new:
            lines.append(f"  {path}: only in new export")
        for warning in self.warnings:
            lines.append(f"  WARNING: {warning}")
        lines.append("PASS: no cycle regressions" if self.ok
                     else "FAIL: cycle totals regressed")
        return "\n".join(lines)


def load_payload(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    if not isinstance(payload, dict) or "experiment" not in payload:
        raise BenchDiffError(f"{path} is not a BENCH_<id>.json export")
    return payload


def _collect_leaves(value, prefix: str,
                    out: Dict[str, float]) -> None:
    """Flatten numeric leaves into ``path -> value`` (wall keys skipped)."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = value
        return
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            key_text = str(key)
            if WALL_MARKER in key_text.lower():
                continue
            child = f"{prefix}.{key_text}" if prefix else key_text
            _collect_leaves(value[key], child, out)
        return
    if isinstance(value, list):
        for index, item in enumerate(value):
            _collect_leaves(item, f"{prefix}[{index}]", out)


def _is_guarded(path: str) -> bool:
    lowered = path.lower()
    return any(marker in lowered for marker in CYCLE_MARKERS)


def compare_payloads(old: Dict, new: Dict, *,
                     old_path: str = "<old>", new_path: str = "<new>",
                     rel_tol: float = 0.0) -> BenchDiff:
    """Compare two exports of the same experiment run the same way.

    ``rel_tol`` loosens the cycle gate: a guarded metric only counts as a
    regression when ``new > old * (1 + rel_tol)``.  The default of 0 means
    byte-exact — the right setting for this fully deterministic simulator.
    """
    if old.get("experiment") != new.get("experiment"):
        raise BenchDiffError(
            f"cannot diff different experiments: "
            f"{old.get('experiment')!r} vs {new.get('experiment')!r}")
    if to_text(old.get("params")) != to_text(new.get("params")):
        raise BenchDiffError(
            f"run parameters differ ({old.get('params')} vs "
            f"{new.get('params')}): comparing differently-sized runs is "
            f"meaningless — regenerate with the baseline's parameters")

    old_leaves: Dict[str, float] = {}
    new_leaves: Dict[str, float] = {}
    _collect_leaves(old.get("data"), "data", old_leaves)
    _collect_leaves(new.get("data"), "data", new_leaves)

    diff = BenchDiff(experiment=str(old.get("experiment")),
                     old_path=old_path, new_path=new_path)
    diff.only_old = sorted(set(old_leaves) - set(new_leaves))
    diff.only_new = sorted(set(new_leaves) - set(old_leaves))
    shared = sorted(set(old_leaves) & set(new_leaves))
    diff.compared = len(shared)
    for path in shared:
        old_value, new_value = old_leaves[path], new_leaves[path]
        if old_value == new_value:
            continue
        guarded = _is_guarded(path)
        regression = guarded and new_value > old_value * (1.0 + rel_tol)
        diff.items.append(DiffItem(path=path, old=old_value, new=new_value,
                                   guarded=guarded, regression=regression))

    _check_wall_band(old, new, diff)
    return diff


def _check_wall_band(old: Dict, new: Dict, diff: BenchDiff) -> None:
    """Warn when the new run's wall-clock rate dropped past the band.

    ``calls_per_wall_second`` lives at the payload top level (outside
    ``data``) precisely so the byte-exact gate never sees it; this is the
    one comparison it does get.  Non-fatal by design: shared CI runners
    make a hard wall-clock gate a flake machine, but a >10% drop is still
    worth a line in the log.
    """
    old_rate = old.get("calls_per_wall_second")
    new_rate = new.get("calls_per_wall_second")
    if not isinstance(old_rate, (int, float)) or isinstance(old_rate, bool):
        return
    if not isinstance(new_rate, (int, float)) or isinstance(new_rate, bool):
        return
    if old_rate <= 0:
        return
    if new_rate < old_rate * (1.0 - WALL_TOLERANCE):
        drop = 100.0 * (1.0 - new_rate / old_rate)
        diff.warnings.append(
            f"calls_per_wall_second dropped {drop:.1f}% "
            f"({old_rate:,.0f} -> {new_rate:,.0f}); machine-dependent, "
            f"non-fatal — investigate if it persists across runs")


def to_text(value) -> str:
    """Canonical text form of a params tree (string-level equality check)."""
    return json.dumps(value, sort_keys=True, default=str)


def diff_files(old_path: str, new_path: str, *,
               rel_tol: float = 0.0) -> BenchDiff:
    """Load and compare two export files (the CLI body)."""
    return compare_payloads(load_payload(old_path), load_payload(new_path),
                            old_path=old_path, new_path=new_path,
                            rel_tol=rel_tol)
