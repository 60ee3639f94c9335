"""The experiment harness: every table and figure, one entry point each.

``EXPERIMENTS`` maps experiment ids (as used in DESIGN.md's per-experiment
index and EXPERIMENTS.md) to runner callables that return an object with a
``render()`` method.  The CLI and the "regenerate everything" helper iterate
over this table, so adding an experiment is one new entry here plus its
benchmark file.

The harness also exports every run machine-readably: ``run_experiment``
with an ``export_dir`` (the CLI passes the working directory, i.e. the repo
root) writes ``BENCH_<experiment id>.json`` next to the printed report, so
the perf trajectory of a checkout is diffable across commits and CI can
upload the files as build artifacts.
"""

from __future__ import annotations

import enum
import json
import os
import time
from array import array

try:
    import resource
except ImportError:                       # pragma: no cover - non-POSIX host
    resource = None  # type: ignore[assignment]
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Dict, List, Optional

from ..workloads.policies import run_keynote_policy, run_policy_chain_sweep
from .ablations import (
    run_argument_size_ablation,
    run_hardening_ablation,
    run_machine_sensitivity,
    run_marshalling_ablation,
    run_protection_ablation,
)
from .adaptive import run_abl_adaptive
from .batch import run_abl_batch
from .figure7 import reproduce_figure7
from .overload import run_abl_overload
from .pool import run_abl_pool
from .serve import run_abl_serve
from .simspeed import run_abl_simspeed
from .figure8 import reproduce_figure8
from .figures123 import reproduce_figure1, reproduce_figure2, reproduce_figure3
from .report import render_table, section
from .throughput import run_abl_throughput


@dataclass(frozen=True)
class ExperimentSpec:
    """One regenerable experiment."""

    experiment_id: str
    title: str
    runner: Callable[[], object]
    kind: str = "figure"          # "figure" | "table" | "ablation"


def _policy_sweep_report():
    sweep = run_policy_chain_sweep()
    keynote = run_keynote_policy()
    rows = [[p.label, p.complexity, f"{p.mean_us_per_call:.3f}"]
            for p in sweep.points + keynote.points]
    text = render_table(["policy", "complexity", "microsec/CALL"], rows,
                        title="Policy complexity sweep (synthetic chains + KeyNote)")
    text += (f"\n\nper-clause cost (synthetic chain slope): "
             f"{sweep.per_clause_cost_us():.4f} us/clause")

    class _Report:
        def __init__(self, rendered: str) -> None:
            self._rendered = rendered
            self.sweep = sweep
            self.keynote = keynote

        def render(self) -> str:
            return self._rendered

    return _Report(text)


#: Every experiment the harness can regenerate, keyed by experiment id.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "fig1": ExperimentSpec("fig1", "SecModule initialization sequence",
                           reproduce_figure1),
    "fig2": ExperimentSpec("fig2", "Address space layout", reproduce_figure2),
    "fig3": ExperimentSpec("fig3", "Stack manipulations", reproduce_figure3),
    "fig7": ExperimentSpec("fig7", "Test system information", reproduce_figure7),
    "fig8": ExperimentSpec("fig8", "Performance comparisons", reproduce_figure8,
                           kind="table"),
    "abl-policy": ExperimentSpec("abl-policy", "Policy complexity sweep",
                                 _policy_sweep_report, kind="ablation"),
    "abl-hardening": ExperimentSpec("abl-hardening", "§4.4 hardening modes",
                                    run_hardening_ablation, kind="ablation"),
    "abl-marshalling": ExperimentSpec("abl-marshalling",
                                      "Shared-VM vs explicit-copy marshalling",
                                      run_marshalling_ablation, kind="ablation"),
    "abl-protection": ExperimentSpec("abl-protection", "Text protection modes",
                                     run_protection_ablation, kind="ablation"),
    "abl-argsize": ExperimentSpec("abl-argsize", "Argument-size scaling",
                                  run_argument_size_ablation, kind="ablation"),
    "abl-machine": ExperimentSpec("abl-machine", "Machine sensitivity",
                                  run_machine_sensitivity, kind="ablation"),
    "abl-throughput": ExperimentSpec(
        "abl-throughput",
        "Multi-client throughput and the policy-decision cache",
        run_abl_throughput, kind="ablation"),
    "abl-batch": ExperimentSpec(
        "abl-batch",
        "Batched dispatch: amortizing the two context switches",
        run_abl_batch, kind="ablation"),
    "abl-pool": ExperimentSpec(
        "abl-pool",
        "Handle pooling: one handle co-process serving many sessions",
        run_abl_pool, kind="ablation"),
    "abl-serve": ExperimentSpec(
        "abl-serve",
        "Service plane: attach/lookup/pool costs vs live-session count",
        run_abl_serve, kind="ablation"),
    "abl-adaptive": ExperimentSpec(
        "abl-adaptive",
        "Adaptive batching: AIMD queue depth from the arrival-rate EWMA",
        run_abl_adaptive, kind="ablation"),
    "abl-simspeed": ExperimentSpec(
        "abl-simspeed",
        "Simulator speed: op-by-op vs fast-forward dispatch (wall clock)",
        run_abl_simspeed, kind="ablation"),
    "abl-overload": ExperimentSpec(
        "abl-overload",
        "Overload protection: the goodput/tail-latency knee past saturation",
        run_abl_overload, kind="ablation"),
}


@dataclass
class ExperimentRun:
    """An executed experiment: the spec, its result object and rendering."""

    spec: ExperimentSpec
    result: object
    rendered: str
    #: host wall-clock seconds the runner took (None when not measured)
    wall_seconds: Optional[float] = None


# ------------------------------------------------------------ JSON export
def to_jsonable(value: object) -> object:
    """Coerce a result object into something ``json.dump`` accepts.

    Dataclasses become dicts field by field (without ``asdict``'s deep-copy
    surprises on non-dataclass members), enums their values, and anything
    else unrecognized its ``str()`` — an export must never fail just
    because a report grew an exotic field.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        # named tuples (the Figure 3 stack slots) export like dataclasses
        return {name: to_jsonable(item)
                for name, item in zip(value._fields, value)}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, array):
        # latency vectors are array('d'); export exactly as a list would
        return value.tolist()
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in fields(value)}
    return str(value)


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, in bytes (None off-POSIX).

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalize to
    bytes.  A high-water mark, not a per-experiment delta: runs later in a
    ``repro all`` sweep inherit earlier peaks.  Machine-dependent, so it
    lives at the payload top level (outside ``data``) where the byte-exact
    regression gate never looks.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":    # pragma: no cover - mac only
        return int(peak)
    return int(peak) * 1024


def result_total_calls(result: object) -> Optional[int]:
    """Simulated protected calls a result covers (for the wall-rate field).

    Reports may define ``bench_total_calls`` explicitly; otherwise a plain
    integer ``total_calls`` attribute is used.  None when the result has no
    meaningful call count (layout figures, dmesg tables).
    """
    for attribute in ("bench_total_calls", "total_calls"):
        value = getattr(result, attribute, None)
        if isinstance(value, int) and value > 0:
            return value
    return None


def experiment_payload(experiment_id: str, title: str, kind: str,
                       result: object, rendered: str, *,
                       params: Optional[Dict[str, object]] = None,
                       wall_seconds: Optional[float] = None
                       ) -> Dict[str, object]:
    """The machine-readable record written to ``BENCH_<id>.json``.

    ``params`` records the resolved run parameters (client counts, call
    counts, ``--fast``, ...) so a cross-commit diff of the files can tell a
    smoke run from the canonical experiment instead of silently comparing
    runs of different sizes; the harness's default runs record
    ``{"defaults": True}``.

    ``wall_seconds`` is the host wall-clock time the run took; together
    with the result's call count it yields ``calls_per_wall_second`` — the
    simulator-throughput trajectory of a checkout.  Both are machine-
    dependent and excluded from the ``repro bench diff`` regression gate,
    as is ``peak_rss_bytes`` — the process's memory high-water mark, the
    other half of the scaling story at 10^7+-call runs.
    """
    if hasattr(result, "as_dict"):
        data = to_jsonable(result.as_dict())
    elif is_dataclass(result) and not isinstance(result, type):
        data = to_jsonable(result)
    else:
        data = None
    total_calls = result_total_calls(result)
    return {
        "experiment": experiment_id,
        "title": title,
        "kind": kind,
        "params": to_jsonable(params if params is not None
                              else {"defaults": True}),
        "data": data,
        "rendered": rendered,
        "wall_seconds": wall_seconds,
        "calls_per_wall_second": (
            total_calls / wall_seconds
            if wall_seconds and total_calls else None),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def export_payload(payload: Dict[str, object],
                   directory: str = ".") -> str:
    """Write one experiment payload to ``<directory>/BENCH_<id>.json``."""
    path = os.path.join(directory, f"BENCH_{payload['experiment']}.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path


def export_run(run: ExperimentRun, directory: str = ".") -> str:
    """Export one executed experiment as ``BENCH_<id>.json``."""
    return export_payload(
        experiment_payload(run.spec.experiment_id, run.spec.title,
                           run.spec.kind, run.result, run.rendered,
                           wall_seconds=run.wall_seconds),
        directory)


def run_experiment(experiment_id: str, *,
                   export_dir: Optional[str] = None) -> ExperimentRun:
    """Run one experiment by id; ``export_dir`` also writes its JSON record."""
    spec = EXPERIMENTS[experiment_id]
    start = time.perf_counter()
    result = spec.runner()
    wall_seconds = time.perf_counter() - start
    rendered = result.render() if hasattr(result, "render") else str(result)
    run = ExperimentRun(spec=spec, result=result, rendered=rendered,
                        wall_seconds=wall_seconds)
    if export_dir is not None:
        export_run(run, export_dir)
    return run


def run_all(experiment_ids: Optional[List[str]] = None, *,
            export_dir: Optional[str] = None) -> List[ExperimentRun]:
    """Run several (default: all) experiments in DESIGN.md order."""
    ids = experiment_ids or list(EXPERIMENTS)
    return [run_experiment(experiment_id, export_dir=export_dir)
            for experiment_id in ids]


def full_report(runs: List[ExperimentRun]) -> str:
    """Concatenate experiment renderings into one report document."""
    parts = []
    for run in runs:
        parts.append(section(f"[{run.spec.experiment_id}] {run.spec.title}",
                             run.rendered))
    return "\n".join(parts)
